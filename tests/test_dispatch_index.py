"""The cluster's dispatch index against brute-force fleet scans.

The index (per-rank lazy heaps, cached active set, O(1) fleet aggregates)
must give exactly the answers the per-request scans it replaced gave, after
any sequence of dispatches, engine steps, level changes, gray failures,
failures, recoveries, drains and delayed scale-outs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.perf import legacy
from repro.cluster.cluster import GpuCluster
from repro.cluster.requests import Request
from repro.cluster.worker import Worker
from repro.core.scheduler import PromptScheduler
from repro.models.zoo import ModelZoo, Strategy
from repro.prompts.dataset import PromptDataset
from repro.simulation.engine import SimulationEngine

ZOO = ModelZoo(gpu="A100")
PROMPTS = PromptDataset.synthetic(count=20, seed=9).prompts
LEVELS = ZOO.levels(Strategy.AC) + ZOO.levels(Strategy.SM)
RANKS = sorted({level.rank for level in LEVELS})
GPUS = ["A100", "A10G", "V100"]


def _request(request_id: int, rank: int = 0) -> Request:
    return Request(
        request_id=request_id,
        prompt=PROMPTS[request_id % len(PROMPTS)],
        arrival_time_s=0.0,
        strategy=Strategy.AC,
        predicted_rank=rank,
        assigned_rank=rank,
    )


def _brute_force_head(cluster: GpuCluster, rank: int) -> Worker | None:
    at_rank = [w for w in cluster.workers if w.is_active and w.level.rank == rank]
    return min(at_rank, key=lambda w: (w.estimated_backlog_s(), w.worker_id), default=None)


def _check_index(cluster: GpuCluster) -> None:
    active = tuple(w for w in cluster.workers if w.is_active)
    assert cluster.healthy_workers == active
    assert cluster.fleet_size == len(active)
    assert cluster.total_queued_requests() == sum(w.queue_length for w in active)
    batch = max(1, cluster.max_batch_size)
    assert cluster.backlog_slack(1.5) == 1.5 * len(active) * batch
    for rank in RANKS:
        assert cluster.least_loaded_at(rank) is _brute_force_head(cluster, rank)
    # Every active worker has exactly one live entry, filed under its
    # current rank and carrying its current key; only stale entries differ.
    live = {}
    for rank, heap in cluster._buckets.items():
        for backlog, worker_id, version in heap:
            if cluster._versions[worker_id] == version:
                assert worker_id not in live
                live[worker_id] = (rank, (backlog, worker_id))
    assert live == {w.worker_id: (w.level.rank, w.dispatch_key()) for w in active}
    limit = cluster._compaction_limit()
    assert all(len(heap) <= limit for heap in cluster._buckets.values())


class _Harness:
    """A heterogeneous cluster whose orphans re-route through the index."""

    def __init__(self, num_workers: int, max_batch_size: int) -> None:
        self.engine = SimulationEngine(seed=0)
        self.completed: list[int] = []
        self.pending: list[Request] = []
        self.cluster = GpuCluster(
            self.engine,
            ZOO,
            num_workers=num_workers,
            gpu_types=[GPUS[i % len(GPUS)] for i in range(num_workers)],
            memory_capacity_gib=None,
            on_complete=lambda record: self.completed.append(record.request.request_id),
            on_requeue=self.pending.append,
            max_batch_size=max_batch_size,
            batch_timeout_s=0.5 if max_batch_size > 1 else 0.0,
        )
        self.scheduler = PromptScheduler(self.cluster, num_levels=len(RANKS))
        self.next_id = 0

    def route(self, request: Request, target_rank: int, max_rank: int | None) -> bool:
        chosen = self.scheduler._find_worker(target_rank, max_rank=max_rank)
        expected = legacy.legacy_find_worker(self.cluster, target_rank, max_rank=max_rank)
        assert chosen is expected
        if chosen is None:
            return False
        self.cluster.dispatch(request, chosen.worker_id)
        return True

    def flush_pending(self) -> None:
        while self.pending and self.cluster.fleet_size:
            request = self.pending.pop(0)
            self.route(request, request.assigned_rank, None)

    def apply(self, op: tuple) -> None:
        kind, a, b = op
        cluster = self.cluster
        worker = cluster.workers[a % len(cluster.workers)]
        if kind == "dispatch":
            request = _request(self.next_id, rank=a % len(RANKS))
            self.next_id += 1
            max_rank = None if b % 3 == 0 else b % len(RANKS)
            if not self.route(request, request.assigned_rank, max_rank):
                self.pending.append(request)
        elif kind == "step":
            self.engine.run(until=self.engine.now + 0.25 * (b % 40))
        elif kind == "level" and not (worker.is_failed or worker.is_retired):
            worker.set_level(LEVELS[b % len(LEVELS)])
        elif kind == "degrade":
            cluster.degrade_worker(worker.worker_id, (b % 9 + 1) / 10)
        elif kind == "restore":
            cluster.restore_worker(worker.worker_id)
        elif kind == "fail":
            cluster.fail_worker(worker.worker_id)
        elif kind == "recover":
            cluster.recover_worker(worker.worker_id, LEVELS[b % len(LEVELS)])
        elif kind == "drain" and cluster.fleet_size > 1:
            cluster.drain_worker(worker.worker_id)
        elif kind == "provision" and len(cluster.workers) < 12:
            cluster.provision_worker(
                gpu=GPUS[b % len(GPUS)],
                level=LEVELS[a % len(LEVELS)],
                provision_delay_s=float(b % 5),
            )
        self.flush_pending()


OPS = st.tuples(
    st.sampled_from(
        3 * ["dispatch"]
        + 2 * ["step"]
        + ["level", "degrade", "restore", "fail", "recover", "drain", "provision"]
    ),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
)


class TestDispatchIndexDifferential:
    @given(
        num_workers=st.integers(min_value=1, max_value=6),
        max_batch_size=st.sampled_from([1, 3]),
        ops=st.lists(OPS, min_size=1, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_index_matches_brute_force_scans(self, num_workers, max_batch_size, ops):
        harness = _Harness(num_workers, max_batch_size)
        _check_index(harness.cluster)
        for op in ops:
            harness.apply(op)
            _check_index(harness.cluster)
        # Nothing is lost: once every worker is healthy again, the backlog
        # drains and every dispatched request completes exactly once.
        for worker in harness.cluster.workers:
            if worker.is_failed:
                harness.cluster.recover_worker(worker.worker_id)
        harness.flush_pending()
        harness.engine.run(until=harness.engine.now + 10_000.0)
        harness.flush_pending()
        harness.engine.run(until=harness.engine.now + 10_000.0)
        _check_index(harness.cluster)
        if harness.cluster.fleet_size:
            assert sorted(harness.completed) == list(range(harness.next_id))

    def test_heaps_stay_bounded_under_churn(self):
        harness = _Harness(num_workers=4, max_batch_size=1)
        for i in range(3000):
            harness.apply(("dispatch", i, 0))
            harness.apply(("step", 0, 1))
        _check_index(harness.cluster)
        total = sum(len(heap) for heap in harness.cluster._buckets.values())
        assert total <= len(RANKS) * harness.cluster._compaction_limit()


class TestDrainRegression:
    def test_draining_worker_does_not_retake_its_orphans(self):
        """Draining worker 0 with 1 in service and 3 queued, while re-routing
        picks the least-backlog healthy worker, must lose nothing."""
        engine = SimulationEngine(seed=0)
        completed: list[int] = []
        holder: dict[str, GpuCluster] = {}

        def requeue(request: Request) -> None:
            cluster = holder["cluster"]
            target = min(cluster.healthy_workers, key=Worker.dispatch_key)
            cluster.dispatch(request, target.worker_id)

        cluster = GpuCluster(
            engine,
            ZOO,
            num_workers=2,
            on_complete=lambda record: completed.append(record.request.request_id),
            on_requeue=requeue,
        )
        holder["cluster"] = cluster
        for request_id in range(4):
            cluster.dispatch(_request(request_id), 0)
        for request_id in range(4, 10):
            cluster.dispatch(_request(request_id), 1)
        assert cluster.workers[0].in_service == 1
        assert cluster.workers[0].queue_length == 3

        orphans = cluster.drain_worker(0)

        assert len(orphans) == 3
        assert cluster.workers[0].queue_length == 0
        engine.run(until=1000.0)
        assert sorted(completed) == list(range(10))
        assert all(w.queue_length == 0 for w in cluster.workers if w.is_retired)
        assert cluster.workers[0].is_retired

    @pytest.mark.parametrize("busy", [True, False])
    def test_drain_leaves_rotation_before_requeue(self, busy):
        engine = SimulationEngine(seed=0)
        seen: list[tuple] = []
        holder: dict[str, GpuCluster] = {}

        def requeue(request: Request) -> None:
            cluster = holder["cluster"]
            seen.append(tuple(w.worker_id for w in cluster.healthy_workers))

        cluster = GpuCluster(engine, ZOO, num_workers=2, on_requeue=requeue)
        holder["cluster"] = cluster
        worker = cluster.workers[0]
        if busy:
            worker.enqueue(_request(0))
        else:
            # Hold the queue without launching: a blocking load in flight.
            worker.blocking_load = True
            worker.set_level(ZOO.levels(Strategy.SM)[-1])
        worker.enqueue(_request(1))
        cluster.drain_worker(0)
        assert seen == [(1,)]
        assert cluster.least_loaded_at(0) is cluster.workers[1]
