"""Run the hot-path perf harness and write a ``BENCH_*.json`` trajectory file.

Usage::

    PYTHONPATH=src:. python benchmarks/perf/run_perf.py                # full
    PYTHONPATH=src:. python benchmarks/perf/run_perf.py --preset small
    PYTHONPATH=src:. python benchmarks/perf/run_perf.py --output BENCH_PR3.json

Each benchmark times the optimised implementation against the seed-faithful
reference from :mod:`benchmarks.perf.legacy` in the same process, so the
reported speedups are honest same-machine before/after pairs.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import sys
import time

import numpy as np

from benchmarks.perf.harness import ALL_BENCHMARKS, PRESETS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="full")
    parser.add_argument("--output", default="BENCH_PR3.json")
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(ALL_BENCHMARKS),
        help="run a subset of benchmarks (repeatable)",
    )
    args = parser.parse_args(argv)
    preset = PRESETS[args.preset]

    benchmarks: dict[str, dict] = {}
    for name, bench in ALL_BENCHMARKS.items():
        if args.only and name not in args.only:
            continue
        print(f"[{preset.name}] {name} ...", flush=True)
        start = time.perf_counter()
        benchmarks[name] = bench(preset)
        elapsed = time.perf_counter() - start
        speedup = benchmarks[name].get("speedup")
        suffix = f"  speedup={speedup:.2f}x" if speedup is not None else ""
        print(f"[{preset.name}] {name} done in {elapsed:.1f}s{suffix}", flush=True)

    claims = {}
    if "vectordb_flat_search" in benchmarks:
        claims["flat_search_speedup"] = benchmarks["vectordb_flat_search"]["speedup"]
    if "metrics_summary" in benchmarks:
        claims["summary_pass_speedup"] = benchmarks["metrics_summary"]["speedup"]
        claims["collector_memory_ratio"] = benchmarks["metrics_summary"]["memory_ratio"]
    if "end_to_end_fig16" in benchmarks:
        claims["end_to_end_speedup"] = benchmarks["end_to_end_fig16"]["speedup"]
    if "dispatch" in benchmarks:
        claims["dispatch_speedup"] = benchmarks["dispatch"]["speedup"]

    # Stamp the trajectory point from the output name (BENCH_PR6.json ->
    # "PR6") so re-running the harness for a later PR keeps the history
    # machine-readable without editing this file.
    match = re.search(r"(PR\d+)", args.output)
    payload = {
        "meta": {
            "pr": match.group(1) if match else "PR3",
            "preset": preset.name,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "benchmarks": benchmarks,
        "claims": claims,
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
