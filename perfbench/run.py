"""The repo's benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` runs the workload once untraced
and once with every layer boundary wrapped, and reports the per-layer
metrics, the self-time accounting and the tracing overhead.  Every run
checks the program's outputs; the command exits 1 when a check fails and 2
when it cannot run at all.  The last stdout line is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each measurement runs in its own child process (``child.py``), started one
at a time so that nothing else of ours competes for the two cores:

- ``--trace 0``: three identical measured passes.  Each pass samples CPU
  time and a speed probe at the same points of its work; every stretch
  between samples is rescaled to reference machine speed and taken from
  the pass that ran it fastest, so a slow spell of the shared machine, or
  a contention burst that hit one pass, does not count.  Live latencies
  are taken per request in the same way.  Set-up is sampled every 50 ms of
  CPU, rescaled stretch by stretch, and the median of the three passes'
  set-ups is reported.  README.md has the measurements behind this.
- ``--trace 1``: one untraced pass and one traced pass, sampled at the same
  points; their outcome digests must match.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Whole-command budget: the contract allows 180 s.
TIME_LIMIT_S = 170.0
PASSES = 3
#: Speed-probe CPU time that defines the reference machine speed: host
#: times are rescaled as if every stretch ran while the probe took this
#: long (about its fastest on a 2-vCPU Xeon at 2.0 GHz).
REFERENCE_PROBE_S = 0.00015

#: End-to-end metric names and units, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "req_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
    "slo_met_ratio": "ratio",
    "relative_quality": "ratio",
    "p50_latency_ms": "ms",
    "p99_latency_ms": "ms",
}

NOISE_CONTROLS = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark could not run (exit code 2)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(NOISE_CONTROLS)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, mode: str, deadline: float) -> dict:
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the next measurement")
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            timeout=remaining,
            check=False,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} measurement exceeded the time budget") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{mode} measurement failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def stretches(samples: list) -> list[tuple[float, float]]:
    """(CPU seconds, local probe seconds) of the work between samples.

    A sample is ``(cpu, wall, count, probe, cpu_after, wall_after)``; the
    probe's own time is left out of the stretches on either side of it.
    """
    return [(b[0] - a[4], (a[3] + b[3]) / 2.0) for a, b in zip(samples, samples[1:])]


def reference_cpu(passes: list[list], exponent: float = 1.0) -> float:
    """CPU seconds at reference speed, each stretch from its best pass.

    ``passes`` holds one list of samples per pass; ``exponent`` is the
    workload's ``speed_exponent`` (``workloads.py``).

    Every stretch's CPU time is rescaled by the speed probes taken on
    either side of it, so a pass that ran while the shared machine was
    slow is measured as if it had not; the passes do identical work and
    sample at identical points of it (simulated times, or request counts
    for the live loop), and each stretch is taken from the pass with the
    lowest rescaled time, so a burst that hit one pass does not count.
    """
    split = [stretches(samples) for samples in passes]
    if len({len(s) for s in split}) != 1:
        raise BenchError("passes sampled a different number of stretches")
    return sum(
        min(cpu * (REFERENCE_PROBE_S / probe) ** exponent for cpu, probe in group)
        for group in zip(*split)
    )


def setup_samples(result: dict) -> list:
    """A pass's set-up samples, from process start to the timed run.

    Process start is a sample with no probe of its own: the stretch up to
    the first probe, taken once numpy is imported, is rescaled by that
    probe alone.
    """
    first = result["setup_samples"][0]
    start = (0.0, 0.0, 0, first[3], 0.0, 0.0)
    return [start, *result["setup_samples"], result["samples"][0]]


def request_latencies(passes: list[dict], every: int, exponent: float) -> list[float | None]:
    """Each live request's round trip at reference speed in its best pass;
    None when it failed in any pass."""
    best = []
    for index, lats in enumerate(zip(*(p["latencies_ms"] for p in passes))):
        if None in lats:
            best.append(None)
            continue
        scaled = []
        for lat, p in zip(lats, passes):
            near = p["samples"][min(index // every, len(p["samples"]) - 2) :][:2]
            probe = sum(s[3] for s in near) / len(near)
            scaled.append(lat * (REFERENCE_PROBE_S / probe) ** exponent)
        best.append(min(scaled))
    return best


def check_definitions() -> dict:
    """BENCHMARK.json must list exactly the metrics this program reports."""
    from perfbench.layers import PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != END_TO_END or layer != PER_LAYER:
        raise BenchError("BENCHMARK.json metric lists differ from perfbench's")
    return spec


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[str], list[str]]:
    passes = [run_child(args, "run", deadline) for _ in range(PASSES)]
    out = ROOT / ".perfbench" / f"passes-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(passes))
    first = passes[0]
    errors = [e for p in passes for e in p["errors"]]
    notes = []
    if "digest" in first:
        digests = {p["digest"] for p in passes}
        if len(digests) != 1:
            errors.append(f"passes of one seed disagree: digests {sorted(digests)}")
        notes.append(f"digest {args.workload} seed={args.seed}: {first['digest']}")
    from perfbench.workloads import workload

    spec = workload(args.workload)
    cpu = reference_cpu([p["samples"] for p in passes], spec.speed_exponent)
    attempted = first["attempted"]
    values = {
        "setup_s": statistics.median(reference_cpu([setup_samples(p)]) for p in passes),
        "req_per_cpu_s": attempted / cpu,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "relative_quality": first["relative_quality"],
    }
    if "latencies_ms" in first:
        # Live: each request's round trip at reference speed in its fastest
        # pass; a request that failed in any pass misses the SLO.
        per_request = request_latencies(passes, spec.sample_every, spec.speed_exponent)
        answered = [lat for lat in per_request if lat is not None]
        values["slo_met_ratio"] = sum(lat <= spec.slo_ms for lat in answered) / attempted
        values["p50_latency_ms"] = percentile(answered, 0.50) if answered else 0.0
        values["p99_latency_ms"] = percentile(answered, 0.99) if answered else 0.0
        samples = len(answered)
    else:
        for name in ("slo_met_ratio", "p50_latency_ms", "p99_latency_ms"):
            values[name] = first[name]
        samples = first["completed"]
    notes.append(
        f"latency percentiles over {samples} completed requests;"
        f" timed CPU {cpu:.3f} s at reference speed (best stretches of {PASSES} passes)"
    )
    totals = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }
    return values, totals, errors, notes


def traced(args, deadline: float) -> tuple[dict, dict, list[str], list[str]]:
    plain = run_child(args, "run", deadline)
    spans = run_child(args, "traced", deadline)
    errors = plain["errors"] + spans["errors"]
    notes = []
    if "digest" in plain:
        if plain["digest"] != spans["digest"]:
            errors.append(
                f"traced run changed the outcome: {spans['digest']} != {plain['digest']}"
            )
        notes.append(f"digest {args.workload} seed={args.seed}: {plain['digest']}")
    values = dict(spans["per_layer"])
    # Both passes sample at the same points of the work, so their timed
    # CPU is compared stretch by stretch at reference speed.
    from perfbench.workloads import workload

    exponent = workload(args.workload).speed_exponent
    values["trace.overhead_ratio"] = reference_cpu([spans["samples"]], exponent) / reference_cpu(
        [plain["samples"]], exponent
    )
    accounting = spans["accounting"]
    accounting["trace.overhead_ratio"] = values["trace.overhead_ratio"]
    notes.append(
        f"timed CPU: traced {spans['timed_cpu_s']:.3f} s, untraced {plain['timed_cpu_s']:.3f} s"
        " (raw process CPU, probes left out)"
    )
    out = ROOT / ".perfbench" / f"trace-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(accounting, indent=2, sort_keys=True))
    notes.append(
        f"self-time accounting: {sum(accounting['self_s'].values()):.3f} s in spans"
        f" + {accounting['untraced_remainder_s']:.3f} s untraced"
        f" = {accounting['window_cpu_s']:.3f} s traced CPU (details in {out.relative_to(ROOT)})"
    )
    totals = {
        "attempted": plain["attempted"] + spans["attempted"],
        "failed": plain["failed"] + spans["failed"],
    }
    return values, totals, errors, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError("no program to measure: src/repro is missing from this checkout")
        sys.path.insert(0, str(ROOT))
        spec = check_definitions()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        measure = traced if args.trace else end_to_end
        values, totals, errors, notes = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    units = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in units}
    for note in notes:
        print(note)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for error in errors:
        print(f"benchmark: check failed: {error}", file=sys.stderr)
    result = {"correct": not errors, **totals, "metrics": metrics}
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
