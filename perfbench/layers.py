"""Which program functions the traced run wraps, and the per-layer metrics.

Every span name is ``<layer>.<operation>``.  Self times are summed over
the timed run (set-up excluded), except ``classifier.train_s``, which adds
the initial training in set-up to any retraining during the run.  Counts
are taken from the same wrapped calls, or read from the program's own
counters after the run where the call boundary carries no result
(evictions, replica reads, strategy switches).
"""

from __future__ import annotations

from perfbench.tracer import Tracer

#: Span name of the speed probes a traced pass takes (see ``child.py``).
PROBE_SPAN = "trace.probe"

#: Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "engine.events_per_req": "events/req",
    "engine.self_s": "s",
    "system.submit_s": "s",
    "scheduler.route_s": "s",
    "scheduler.select_s": "s",
    "scheduler.candidates_per_select": "workers/call",
    "scheduler.preferred_selects": "count",
    "cluster.dispatch_s": "s",
    "cluster.healthy_workers_s": "s",
    "cluster.healthy_workers_per_req": "calls/req",
    "cluster.requeues": "count",
    "cluster.queue_wait_s": "model_s",
    "cache.retrieve_s": "s",
    "cache.store_s": "s",
    "cache.lookups_per_req": "calls/req",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.replica_reads": "count",
    "cache.network_failures": "count",
    "quality.score_s": "s",
    "quality.score_calls_per_req": "calls/req",
    "prompts.featurize_s": "s",
    "prompts.embed_s": "s",
    "workloads.arrival_s": "s",
    "classifier.predict_s": "s",
    "classifier.train_s": "s",
    "solver.solve_calls": "count",
    "solver.solve_s": "s",
    "strategy.switches": "count",
    "admission.delayed": "count",
    "admission.wait_s": "model_s",
    "metrics.record_s": "s",
    "metrics.summary_s": "s",
    "gateway.http_s": "s",
    "gateway.chain_s": "s",
    "gateway.handle_s": "s",
    "gateway.worker_wait_s": "s",
    "setup.imports_s": "s",
    "setup.inputs_s": "s",
    "setup.system_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _observe_select(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["select.candidates"] += len(args[1])
    if kwargs.get("prefer", args[2] if len(args) > 2 else None) is not None:
        tracer.counts["select.preferred"] += 1


def _observe_retrieve(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["retrieve.hits"] += bool(result.hit)
    tracer.counts["retrieve.network_failures"] += bool(result.network_failed)


def _observe_offer(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["offer.delayed"] += result is False


def _observe_completion(tracer: Tracer, args, kwargs, result) -> None:
    completed = args[1]
    tracer.counts["completion.count"] += 1
    tracer.counts["completion.queue_wait_s"] += (
        completed.start_time_s - completed.request.arrival_time_s
    )


_ENGINE = "repro.simulation.engine"
_BASE = "repro.core.base"
_SCHEDULER = "repro.core.scheduler"
_CLUSTER = "repro.cluster.cluster"
_FLAT_CACHE = "repro.cache.approximate"
_TIER = "repro.cache.tier"
_EMBEDDING = "repro.prompts.embedding"
_TRAINER = "repro.classifier.trainer"
_COLLECTOR = "repro.metrics.collector"
_GATEWAY = "repro.gateway.server"

#: (module, attribute path, span name, observer, request-id argument index).
TARGETS = (
    (_ENGINE, "SimulationEngine.run", "engine.run", None, None),
    (_BASE, "BaseServingSystem.submit", "system.submit", None, None),
    (_SCHEDULER, "PromptScheduler.route", "scheduler.route", None, None),
    (_SCHEDULER, "WorkerSelector.select", "scheduler.select", _observe_select, None),
    (_CLUSTER, "GpuCluster.dispatch", "cluster.dispatch", None, 1),
    (_CLUSTER, "GpuCluster.healthy_workers", "cluster.healthy_workers", None, None),
    (_BASE, "BaseServingSystem._handle_requeue", "cluster.requeue", None, 1),
    (_FLAT_CACHE, "ApproximateCache.retrieve", "cache.retrieve", _observe_retrieve, None),
    (_FLAT_CACHE, "ApproximateCache.store_states", "cache.store", None, None),
    (_TIER, "CacheTier.retrieve", "cache.retrieve", _observe_retrieve, None),
    (_TIER, "CacheTier.store_states", "cache.store", None, None),
    ("repro.quality.pickscore", "PickScoreModel.score", "quality.score", None, None),
    ("repro.prompts.features", "PromptFeaturizer.featurize", "prompts.featurize", None, None),
    (_EMBEDDING, "PromptEmbedder.embed", "prompts.embed", None, None),
    (_EMBEDDING, "PromptEmbedder.embed_batch", "prompts.embed", None, None),
    (_TRAINER, "TrainedPredictor.predict_rank", "classifier.predict", None, None),
    (_TRAINER, "ClassifierTrainer.train", "classifier.train", None, None),
    ("repro.core.solver", "AllocationSolver.solve", "solver.solve", None, None),
    ("repro.core.admission", "FairShareAdmission.offer", "admission.offer", _observe_offer, None),
    (_COLLECTOR, "MetricsCollector.record_arrival", "metrics.record", None, None),
    (_COLLECTOR, "MetricsCollector.record_completion", "metrics.record", _observe_completion, 1),
    (_COLLECTOR, "MetricsCollector.record_drop", "metrics.record", None, None),
    (_COLLECTOR, "MetricsCollector.record_cache_lookup", "metrics.record", None, None),
    (_BASE, "BaseServingSystem.summary", "metrics.summary", None, None),
    (_COLLECTOR, "MetricsCollector.minute_series", "metrics.summary", None, None),
    (_GATEWAY, "Gateway._serve_connection", "gateway.http", None, None),
    (_GATEWAY, "Gateway.handle", "gateway.handle", None, None),
    (_GATEWAY, "Gateway.handle_generate", "gateway.handle", None, None),
    (_GATEWAY, "Gateway._dispatch", "gateway.dispatch", None, None),
    # Set-up boundaries: building the serving system (sim) or gateway (live).
    ("repro.scenarios.runtime", "build_system", "setup.system", None, None),
    (_GATEWAY, "Gateway.__init__", "setup.system", None, None),
)


def install(tracer: Tracer) -> None:
    """Wrap every target; a missing one lands in ``tracer.missing``, which
    the measurement process reports as a failed check."""
    for module, path, name, observe, request_arg in TARGETS:
        tracer.install(module, path, name, observe=observe, request_arg=request_arg)
    # Arrival generation happens lazily, one ``next()`` per simulated arrival.
    tracer.install_iterator("repro.workloads.replay", "RequestStream.__iter__", "workloads.arrival")


def _evictions(cache) -> int:
    if cache is None:
        return 0
    if hasattr(cache, "evictions"):
        return int(cache.evictions)
    stores = [cache.store] + [ns.store for ns in getattr(cache, "_namespaces", {}).values()]
    return sum(store.stats.evictions for store in stores)


def _replica_reads(cache) -> int:
    if cache is None or not hasattr(cache, "tier_stats"):
        return 0
    return sum(shard["replica_reads"] for shard in cache.tier_stats()["per_shard"].values())


def cache_counters(cache) -> tuple[int, int]:
    """(evictions, replica reads) so far, for before/after differences."""
    return _evictions(cache), _replica_reads(cache)


def per_layer_metrics(
    tracer: Tracer,
    run_start: float,
    run_end: float,
    window: float,
    arrivals: int,
    marks: dict,
    system=None,
    counters_before=(0, 0),
) -> tuple[dict, dict]:
    """Per-layer metric values and the self-time accounting of the timed run.

    Spans that start between the process-CPU marks ``run_start`` and
    ``run_end`` count; ``window`` is the timed run's CPU with the speed
    probes left out, and the probes' own spans are no layer's time.
    ``marks`` holds the set-up CPU marks (``imports``, ``setup``);
    ``system`` is the serving system or the gateway whose own counters are
    read (cache, admission, engine, strategy switches where it has them).
    """
    calls, self_s, wait_s = tracer.totals(since=run_start, until=run_end)
    # Each probe inside the engine's span is one engine event of our own.
    probe_events = calls.pop(PROBE_SPAN, 0)
    self_s.pop(PROBE_SPAN, None)
    wait_s.pop(PROBE_SPAN, None)
    setup_calls, setup_self, _ = tracer.totals(until=run_start)
    setup_span_s = _inclusive_s(tracer, "setup.system", until=run_start)
    per_req = max(arrivals, 1)
    counts = tracer.counts
    selects = calls["scheduler.select"]
    retrieves = calls["cache.retrieve"]
    completions = counts["completion.count"]
    cache = getattr(system, "cache", None)
    evictions, replica_reads = cache_counters(cache)
    admission = getattr(system, "admission", None)
    admission_wait = 0.0
    if admission is not None:
        admission_wait = sum(stats.total_wait_s for stats in admission.stats.values())
    switches = 0
    if system is not None and hasattr(system, "num_strategy_switches"):
        switches = system.num_strategy_switches()
    engine = getattr(system, "engine", None)
    remainder = window - sum(self_s.values())
    values = {
        "engine.events_per_req": (
            (engine.events_processed - probe_events) / per_req if engine else 0.0
        ),
        "engine.self_s": self_s["engine.run"],
        "system.submit_s": self_s["system.submit"],
        "scheduler.route_s": self_s["scheduler.route"],
        "scheduler.select_s": self_s["scheduler.select"],
        "scheduler.candidates_per_select": (
            counts["select.candidates"] / selects if selects else 0.0
        ),
        "scheduler.preferred_selects": counts["select.preferred"],
        "cluster.dispatch_s": self_s["cluster.dispatch"] + self_s["cluster.requeue"],
        "cluster.healthy_workers_s": self_s["cluster.healthy_workers"],
        "cluster.healthy_workers_per_req": calls["cluster.healthy_workers"] / per_req,
        "cluster.requeues": calls["cluster.requeue"],
        "cluster.queue_wait_s": (
            counts["completion.queue_wait_s"] / completions if completions else 0.0
        ),
        "cache.retrieve_s": self_s["cache.retrieve"],
        "cache.store_s": self_s["cache.store"],
        "cache.lookups_per_req": retrieves / per_req,
        "cache.hit_ratio": counts["retrieve.hits"] / retrieves if retrieves else 0.0,
        "cache.evictions": evictions - counters_before[0],
        "cache.replica_reads": replica_reads - counters_before[1],
        "cache.network_failures": counts["retrieve.network_failures"],
        "quality.score_s": self_s["quality.score"],
        "quality.score_calls_per_req": calls["quality.score"] / per_req,
        "prompts.featurize_s": self_s["prompts.featurize"],
        "prompts.embed_s": self_s["prompts.embed"],
        "workloads.arrival_s": self_s["workloads.arrival"],
        "classifier.predict_s": self_s["classifier.predict"],
        "classifier.train_s": setup_self["classifier.train"] + self_s["classifier.train"],
        "solver.solve_calls": calls["solver.solve"],
        "solver.solve_s": self_s["solver.solve"],
        "strategy.switches": switches,
        "admission.delayed": counts["offer.delayed"],
        "admission.wait_s": admission_wait,
        "metrics.record_s": self_s["metrics.record"],
        "metrics.summary_s": self_s["metrics.summary"],
        "gateway.http_s": self_s["gateway.http"],
        "gateway.chain_s": self_s["gateway.chain"] + self_s["gateway.dispatch"],
        "gateway.handle_s": self_s["gateway.handle"],
        "gateway.worker_wait_s": wait_s["gateway.dispatch"],
        "setup.imports_s": marks["imports"],
        "setup.inputs_s": max(0.0, marks["setup"] - marks["imports"] - setup_span_s),
        "setup.system_s": setup_span_s,
        "trace.remainder_s": remainder,
    }
    accounting = {
        "window_cpu_s": window,
        "self_s": {name: value for name, value in sorted(self_s.items())},
        "untraced_remainder_s": remainder,
        "calls": dict(sorted(calls.items())),
        "setup_calls": dict(sorted(setup_calls.items())),
        "missing_targets": list(tracer.missing),
    }
    return values, accounting


def _inclusive_s(tracer: Tracer, name: str, until: float) -> float:
    """Inclusive CPU of the outermost spans named ``name`` before ``until``."""
    ids = {span[0] for span in tracer.spans if span[1] == name}
    return sum(
        span[3] - span[2]
        for span in tracer.spans
        if span[1] == name and span[2] <= until and span[4] not in ids
    )
