"""One measurement process of the benchmark; ``run.py`` starts it.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --mode MODE

Modes: ``run`` sets up and runs the workload once, untraced, sampling
process CPU time and machine speed at fixed points of the work; ``traced``
sets up and runs it once with the layer tracer installed.  The last stdout
line is one JSON object.

Set-up is timed from process start, so the interpreter, every import,
input generation and system construction count.  Set-up is sampled like
the timed run, from a timer signal, so ``run.py`` can rescale it stretch
by stretch.

``run.py`` sets the noise controls in the environment before this process
starts (BLAS and OpenMP at one thread, a fixed ``PYTHONHASHSEED``), which
is the only way they reach the interpreter and numpy; this process
refuses to run without them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import operator
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

#: Sampling points over a simulated pass's arrivals; the live loop
#: samples by request count.  Stretches of ~10-30 ms CPU let the best-of-passes estimate in
#: run.py drop contention bursts that last from milliseconds to seconds.
SIM_SAMPLES = 400
#: Timed rounds of the speed probe at each sampling point (~0.3 ms).
PROBE_ROUNDS = 4
#: Probes whose median the first sampling point of set-up, and of the
#: timed run, takes (~10 ms): the stretch before it has no other probe.
SETUP_PROBES = 15
#: Wall seconds between two set-up sampling points.
SETUP_TICK_S = 0.05
OUT_DIR = ROOT / ".perfbench"


def cpu() -> float:
    """Process CPU seconds (user + system) since the process started."""
    return time.process_time()


class _ProbeItem:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b


class SpeedProbe:
    """Times a fixed snippet to tell how fast the shared machine runs now.

    The snippet mixes the kinds of work the program does: attribute reads,
    a keyed ``min`` and dict stores over 288 small objects (the dispatch
    scan), small numpy matrix-vector products (featurising, classifying,
    searching the cache) and building a numpy random generator (quality
    scoring builds one per call).  Trials on the 2-vCPU box showed that no
    single kind tracks every workload's slowdowns: the mix did best on all
    of them.  An untimed round first warms the snippet's few KB into the
    CPU caches, so the timed rounds measure how fast the core runs, not
    what the program just evicted.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._items = [_ProbeItem(i * 7 % 13, i) for i in range(288)]
        self._table = {item.b: 0 for item in self._items}
        self._key = operator.attrgetter("a")
        self._matrix = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
        self._vector = np.linspace(0.0, 1.0, 64)
        self._out = np.empty(64)

    def _round(self) -> None:
        min(self._items, key=self._key)
        for item in self._items:
            self._table[item.b] = item.a
        for _ in range(3):
            self._np.dot(self._matrix, self._vector, out=self._out)
        self._np.random.default_rng(0).random()

    def __call__(self) -> float:
        self._round()
        start = time.process_time()
        for _ in range(PROBE_ROUNDS):
            self._round()
        return time.process_time() - start

    def sample(self, count: int, repeats: int = 1) -> tuple:
        """A sampling point: ``(cpu, wall, count, probe, cpu_after, wall_after)``.

        With ``repeats`` the probe is the median of that many probes.
        """
        cpu_before, wall_before = time.process_time(), time.perf_counter()
        probe = statistics.median(self() for _ in range(repeats))
        return (cpu_before, wall_before, count, probe, time.process_time(), time.perf_counter())


class SetupSampler:
    """Samples CPU time and the speed probe every ``SETUP_TICK_S`` from a
    wall-clock timer signal until :meth:`stop`.

    Set-up has no loop of its own to sample from, and the machine's slow
    spells and short bursts hit it as they hit the timed run.  The handler
    only reads clocks and runs the probe, so the program's outcome is
    unchanged.  The timer counts wall time: while a process CPU timer
    (``ITIMER_PROF``) is armed, Linux reads the process CPU clock only to
    the scheduler tick, and the probe would measure zero.
    """

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.samples = [probe.sample(0, SETUP_PROBES)]
        #: Process CPU when the program's imports were done.
        self.imports_cpu = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SETUP_TICK_S, SETUP_TICK_S)

    def _tick(self, _signum, _frame) -> None:
        self.samples.append(self.probe.sample(0))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def timed_cpu(samples: list) -> float:
    """CPU seconds between the first and last sample, probes left out."""
    return sum(b[0] - a[4] for a, b in zip(samples, samples[1:]))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(summary) -> str:
    payload = json.dumps(summary.as_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


# --------------------------------------------------------------------------- #
# Simulated workloads
# --------------------------------------------------------------------------- #
def measure_sim(name: str, seed: int, seconds: float, mode: str, setup: SetupSampler) -> dict:
    import repro
    from perfbench.workloads import sim_scenario
    from repro.experiments.runner import ExperimentRunner
    from repro.scenarios.contracts import verify_report

    tracer = None
    if mode == "traced":
        from perfbench import layers
        from perfbench.tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)

    scenario = sim_scenario(name, seconds)
    state: dict = {}
    samples: list = []
    collector = None
    probe = setup.probe
    original_run = ExperimentRunner.run

    def take_sample(_event) -> None:
        samples.append(probe.sample(collector.total_arrivals))

    if tracer is not None:
        # The probe runs inside the engine's span: as a span of its own it
        # is left out of every layer's self time.
        take_sample = tracer.wrap(take_sample, layers.PROBE_SPAN)

    def timed_run(runner, system, trace, **kwargs):
        nonlocal collector
        state["setup_cpu"] = cpu()
        state["system"] = system
        if tracer is not None:
            state["cache_before"] = layers.cache_counters(system.cache)
        setup.stop()
        gc.collect()
        collector = system.collector
        # Sampling events only read clocks and counters; they change no
        # program state, so the run's outcome is unchanged.  Traced and
        # untraced passes sample at the same simulated times.  The drain
        # after the last arrival is one stretch.
        spacing = trace.duration_minutes * 60.0 / SIM_SAMPLES
        for index in range(1, SIM_SAMPLES + 1):
            system.engine.schedule_at(index * spacing, take_sample)
        samples.append(probe.sample(0, SETUP_PROBES))
        return original_run(runner, system, trace, **kwargs)

    ExperimentRunner.run = timed_run
    try:
        run = repro.api.run(scenario, preset="bench", seed=seed)
    finally:
        ExperimentRunner.run = original_run
    samples.append(probe.sample(run.summary.total_arrivals))

    summary = run.summary
    outstanding = run.extras["outstanding"]
    report = run.report().to_dict()
    checks = verify_report(report, scenario.contracts)
    result = {
        "setup_s": state["setup_cpu"],
        "setup_samples": setup.samples,
        "timed_cpu_s": timed_cpu(samples),
        "samples": samples,
        "attempted": summary.total_arrivals,
        "failed": summary.dropped_requests
        + outstanding["worker_queues"]
        + outstanding["admission_backlog"],
        "completed": summary.total_completions,
        "slo_met_ratio": summary.goodput_fraction,
        "relative_quality": summary.mean_relative_quality,
        "p50_latency_ms": summary.p50_latency_s * 1000.0,
        "p99_latency_ms": summary.p99_latency_s * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
        "digest": digest(summary),
        "checks": [str(check) for check in checks],
        "errors": [str(check) for check in checks if not check.passed],
    }
    if summary.total_arrivals == 0:
        result["errors"].append("the workload produced no arrivals")
    if tracer is not None:
        finish_trace(
            tracer,
            name,
            result,
            samples,
            summary.total_arrivals,
            setup,
            state["system"],
            state["cache_before"],
        )
    return result


def finish_trace(tracer, name, result, samples, arrivals, setup, system, cache_before) -> None:
    """Put the per-layer metrics and the self-time accounting into ``result``."""
    from perfbench import layers

    tracer.uninstall()
    values, accounting = layers.per_layer_metrics(
        tracer,
        samples[0][4],
        samples[-1][0],
        timed_cpu(samples),
        arrivals,
        {"imports": setup.imports_cpu, "setup": result["setup_s"]},
        system=system,
        counters_before=cache_before,
    )
    result["per_layer"] = values
    result["accounting"] = accounting
    result["errors"] += [f"trace target {target} not found" for target in tracer.missing]
    tracer.write(OUT_DIR / f"spans-{name}.jsonl")


# --------------------------------------------------------------------------- #
# Live gateway workload
# --------------------------------------------------------------------------- #
def measure_live(name: str, seed: int, seconds: float, mode: str, setup: SetupSampler) -> dict:
    import asyncio

    return asyncio.run(_measure_live(name, seed, seconds, mode, setup))


async def _read_response(reader) -> tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed before a response")
    status = int(status_line.split(maxsplit=2)[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.partition(b":")
        if key.strip().lower() == b"content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)


def _http_request(method: str, path: str, host: str, port: int, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _measure_live(name: str, seed: int, seconds: float, mode: str, setup: SetupSampler):
    import asyncio
    from dataclasses import asdict

    from perfbench.workloads import LIVE_WORKLOADS, live_requests
    from repro.gateway.server import Gateway
    from repro.scenarios.contracts import verify_report
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runtime import build_config, build_stream

    spec = LIVE_WORKLOADS[name]
    tracer = None
    if mode == "traced":
        from perfbench import layers
        from perfbench.tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)

    count = live_requests(name, seconds)
    scenario = get_scenario(spec.scenario)
    preset = scenario.preset("full")
    config = build_config(scenario, preset, seed)
    trace = scenario.trace.build(seed=seed, **preset.trace_params)
    prompts = []
    while len(prompts) < count:
        for timed in build_stream(scenario, preset, config, trace, seed):
            prompts.append(asdict(timed.prompt))
            if len(prompts) == count:
                break
    gateway = Gateway(config=config, time_scale=spec.time_scale)
    if tracer is not None:
        tracer.wrap_instance(gateway, "_handler", "gateway.chain")
    await gateway.start(host="127.0.0.1", port=0)
    try:
        host, port = gateway.host, gateway.port
        requests = [
            _http_request("POST", "/v1/generate", host, port, json.dumps(p).encode())
            for p in prompts
        ]
        setup_cpu = cpu()
        setup.stop()
        probe = setup.probe
        cache_before = layers.cache_counters(gateway.cache) if tracer is not None else (0, 0)
        latencies = [0.0] * count
        statuses = [0] * count
        errors: list[str] = []
        gc.collect()
        samples = [probe.sample(0, SETUP_PROBES)]
        cursor = iter(range(count))
        done = 0
        # Wall time the event loop spent in speed probes so far: a request
        # in flight while a probe runs is charged only its own time.
        probe_wall = [0.0]

        async def client() -> None:
            nonlocal done
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for index in cursor:
                    start, probed = time.perf_counter(), probe_wall[0]
                    writer.write(requests[index])
                    status, body = await _read_response(reader)
                    latencies[index] = time.perf_counter() - start - (probe_wall[0] - probed)
                    statuses[index] = status
                    if status == 200 and b'"request_id"' not in body:
                        errors.append(f"request {index}: response without a request id")
                    done += 1
                    if done % spec.sample_every == 0:
                        samples.append(probe.sample(done))
                        probe_wall[0] += samples[-1][5] - samples[-1][1]
            except (ConnectionError, asyncio.IncompleteReadError, ValueError, IndexError) as exc:
                errors.append(f"transport error: {exc!r}")
            finally:
                writer.close()
                await writer.wait_closed()

        await asyncio.gather(*(client() for _ in range(spec.clients)))
        if done % spec.sample_every:
            samples.append(probe.sample(done))

        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(_http_request("GET", "/report", host, port))
            status, body = await _read_response(reader)
        finally:
            writer.close()
            await writer.wait_closed()
    finally:
        await gateway.stop()
    ok = sum(1 for s in statuses if s == 200)
    latencies_ms = [lat * 1000.0 if s == 200 else None for lat, s in zip(latencies, statuses)]
    checks = []
    quality = 0.0
    if status != 200:
        errors.append(f"GET /report returned HTTP {status}")
    else:
        report = json.loads(body)
        summary = report["summary"]
        quality = summary["mean_relative_quality"]
        checks = verify_report(report, ("conservation",))
        errors += [str(check) for check in checks if not check.passed]
        if summary["total_completions"] != ok:
            errors.append(
                f"/report counts {summary['total_completions']} completions, clients saw {ok}"
            )
    result = {
        "setup_s": setup_cpu,
        "setup_samples": setup.samples,
        "timed_cpu_s": timed_cpu(samples),
        "samples": samples,
        "attempted": count,
        "failed": count - ok,
        "completed": ok,
        "latencies_ms": latencies_ms,
        "relative_quality": quality,
        "peak_rss_mb": peak_rss_mb(),
        "checks": [str(check) for check in checks],
        "errors": errors,
    }
    if tracer is not None:
        finish_trace(tracer, name, result, samples, count, setup, gateway, cache_before)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "traced"), required=True)
    args = parser.parse_args()
    from perfbench.run import NOISE_CONTROLS

    wrong = {k: os.environ.get(k) for k, v in NOISE_CONTROLS.items() if os.environ.get(k) != v}
    if wrong:
        print(f"child: noise controls missing from the environment: {wrong}", file=sys.stderr)
        return 2

    import numpy  # noqa: F401  (imports are part of set-up; the probe needs numpy)

    setup = SetupSampler(SpeedProbe())
    import repro  # noqa: F401
    import repro.api  # noqa: F401

    setup.imports_cpu = cpu()
    from perfbench.workloads import LIVE_WORKLOADS, SIM_WORKLOADS

    if args.workload in SIM_WORKLOADS:
        result = measure_sim(args.workload, args.seed, args.seconds, args.mode, setup)
    elif args.workload in LIVE_WORKLOADS:
        result = measure_live(args.workload, args.seed, args.seconds, args.mode, setup)
    else:
        print(f"child: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
