"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload micro-agg --seed 1 --seconds 10 \\
        --trace 0

Workloads: ``micro-agg``, ``tpch-combined-ooc``, ``tweet-ingest`` (see
``workloads.py`` and ``perfbench/README.md``).  With ``--trace 0`` the
run measures the end-to-end metrics with no tracing installed; with
``--trace 1`` it measures the same timed phase untraced and then traced
and reports the per-layer metrics derived from the spans and program
counters, plus ``trace.overhead_ratio``.

Lines starting with ``#`` report every metric by its workload-specific
name with unit and sample count; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Run from the root of a checkout of the repository: the program is
imported from ``src/`` of that checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOAD_NAMES = ("micro-agg", "tpch-combined-ooc", "tweet-ingest")


#: the end-to-end metrics BENCHMARK.json declares and bounds.  On a
#: shared 2-core machine the CPU alternates between two speeds within
#: seconds, so short requests land in either; the p90 of each query
#: kind sits in the slower one and repeats across runs, while medians
#: and rates follow the drifting share of fast periods.  Those are
#: printed, not declared (perfbench/README.md has the measured spreads).
DECLARED = ("setup_s", "query_kind_p90_geomean_ms", "query_tail_ms",
            "bytes_per_input_byte", "peak_rss_mb")


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


def end_to_end(outcome, workload: str):
    """``[(name, value, unit, samples)]``: the declared metrics first,
    then the printed-only ones under the names the paper's figures use
    on this workload."""
    from layers import kind_p90_geomean, percentile

    latencies = [record.seconds * 1e3 for record in outcome.queries]
    by_kind = {}
    for record in outcome.queries:
        by_kind.setdefault(record.kind, []).append(record.seconds * 1e3)
    queries = len(latencies)
    metrics = [
        ("setup_s", median(outcome.setup_s), "s", len(outcome.setup_s)),
        ("query_kind_p90_geomean_ms", kind_p90_geomean(outcome.queries),
         "ms", queries),
        ("query_tail_ms", percentile(latencies, outcome.tail), "ms",
         queries),
        ("bytes_per_input_byte", outcome.stored_bytes / outcome.input_bytes,
         "B/B", 1),
        ("peak_rss_mb", outcome.peak_rss_mb, "MB", 1),
        # printed only
        (f"query_p{round(outcome.tail * 100)}_ms",
         percentile(latencies, outcome.tail), "ms", queries),
        ("queries_per_s", queries / outcome.elapsed_s, "1/s", queries),
        ("query_p50_ms", percentile(latencies, 0.50), "ms", queries),
        ("tpch_geomean_ms" if workload == "tpch-combined-ooc"
         else "query_geomean_ms",
         _geomean(median(values) for values in by_kind.values()), "ms",
         queries),
    ]
    if outcome.inserts:
        inserts = [record.seconds * 1e3 for record in outcome.inserts]
        metrics += [
            ("ingest_docs_per_s", outcome.docs_written / outcome.elapsed_s,
             "1/s", len(inserts)),
            ("insert_p50_ms", percentile(inserts, 0.50), "ms", len(inserts)),
            ("insert_p99_ms", percentile(inserts, 0.99), "ms", len(inserts)),
        ]
    else:
        metrics.append(("load_docs_per_s",
                        outcome.docs_loaded / median(outcome.load_s), "1/s",
                        len(outcome.load_s)))
    return metrics


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every input size (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    # the benchmark fixes the program's configuration itself
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from layers import per_layer
    from workloads import Context, run_workload

    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.scale, ROOT / ".bench_work" / f"{args.workload}-"
                  f"{os.getpid()}")
    outcome = run_workload(ctx)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale:g}")
    for note in outcome.notes:
        print(f"# note: {note}")
    if args.trace:
        metrics = per_layer(outcome)
        for name, (value, unit) in metrics.items():
            print(f"# {name} = {value:.6g} {unit}")
    else:
        measured = end_to_end(outcome, args.workload)
        for name, value, unit, samples in measured:
            print(f"# {name} = {value:.6g} {unit} (n={samples})")
        metrics = {name: (value, unit)
                   for name, value, unit, _samples in measured
                   if name in DECLARED}
    print(f"# failed_fraction = "
          f"{outcome.failed / max(1, outcome.attempted):.6g} ratio "
          f"(n={outcome.attempted})")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
