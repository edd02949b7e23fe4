"""Self-test of the benchmark at tiny scale (about four minutes).

    python3 perfbench/selftest.py

Checks that
1. every metric BENCHMARK.json names is emitted, with its unit, by
   ``run.py`` on every workload, traced and untraced;
2. a planted wrong result is counted as failed;
3. the same seed yields identical inputs and identical program counts.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

SCALE = 0.1
SECONDS = 1


def check_emitted_metrics(spec: dict) -> None:
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            command = spec["command"] + [
                "--workload", workload["name"], "--seed", "5",
                "--seconds", str(SECONDS), "--trace", str(trace),
                "--scale", str(SCALE)]
            output = subprocess.run(command, cwd=ROOT, check=True,
                                    capture_output=True, text=True,
                                    timeout=300).stdout
            result = json.loads(output.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            emitted = result["metrics"]
            assert set(emitted) == {metric["name"] for metric in declared}, \
                (workload["name"], trace, sorted(emitted))
            for metric in declared:
                value = emitted[metric["name"]]
                assert value["unit"] == metric["unit"], (metric, value)
                assert isinstance(value["value"], float), (metric, value)
            print(f"ok  {workload['name']} trace={trace}: "
                  f"{len(emitted)} metrics with units")


def check_planted_wrong_result() -> None:
    from workloads import Context, run_workload

    def tamper(kind, rows):
        return rows + [("planted",)] if kind == "sum" else rows

    outcome = run_workload(Context("micro-agg", 5, 0.5, False, SCALE,
                                   ROOT / ".bench_work" / "selftest",
                                   tamper=tamper))
    planted = sum(1 for record in outcome.queries if record.kind == "sum")
    assert planted >= 1 and outcome.failed == planted, \
        (planted, outcome.failed)
    print(f"ok  planted wrong results counted: {outcome.failed} of "
          f"{outcome.attempted}")


def _digest(documents) -> str:
    return hashlib.sha256(json.dumps(documents, sort_keys=True)
                          .encode()).hexdigest()


def check_same_seed_same_inputs() -> None:
    from repro import Database, StorageFormat
    from repro.workloads import tpch
    from repro.workloads.twitter import TwitterGenerator
    import workloads

    def inputs(seed):
        return (_digest(tpch.generate_tables(workloads.MICRO_SF * SCALE,
                                             seed)),
                _digest(tpch.generate_combined(workloads.OOC_SF * SCALE,
                                               seed)),
                _digest(TwitterGenerator(int(workloads.TWEETS * SCALE), seed,
                                         evolving=True).stream()))

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)

    def counts(seed):
        documents = tpch.generate_combined(workloads.OOC_SF * SCALE, seed)
        db = Database(StorageFormat.TILES, workloads.config())
        relation = db.load_table("tpch_combined", documents)
        for name in tpch.TABLE_NAMES:
            db.register(name, relation)
        result = db.sql(tpch.TPCH_QUERIES[6])
        return (len(relation.tiles), relation.row_count,
                relation.size_report(), result.rows,
                result.counters.as_dict())

    assert counts(7) == counts(7)
    print("ok  same seed, same inputs and counts")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_planted_wrong_result()
    check_same_seed_same_inputs()
    check_emitted_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
