"""Self-test of the benchmark harness.

    python3 bench/selftest.py

For every workload it makes two traced runs with the same seed (one pass
each way) and asserts that the deterministic work counts and outcome
fractions repeat exactly.  It also checks the result object's shape
against BENCHMARK.json and the structure of a written span file.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads

COUNTS = (
    "eigen.min_eigenpair.calls",
    "design.solves_per_design",
    "sequence.autocorrelation.calls",
    "spreads.measure.calls",
    "spreads.autocorr_per_measure",
    "sequence.read_sequence.calls",
    "mathieu.solves_per_eval",
    "fail_frac",
    "wrong_frac",
    "flagged_frac",
)
SEED = run.DEFAULT_SEED


def _check_result(result, section):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert list(result["metrics"]) == [m["name"] for m in run.SPEC[section]], result["metrics"]
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0


def _check_spans(path: Path):
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans, "no spans written"
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            assert p["id"] < s["id"] and p["item"] == s["item"]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]
        else:
            assert s["name"] == "cli.main"


def main() -> int:
    spans_path = run.WORK_ROOT / "selftest-spans.jsonl"
    try:
        for workload in workloads.WORKLOADS:
            first, _, _ = run.run_benchmark(workload, SEED, 0, True, spans=str(spans_path),
                                            min_passes=1)
            second, _, _ = run.run_benchmark(workload, SEED, 0, True, min_passes=1)
            _check_result(first, "per_layer")
            _check_spans(spans_path)
            for name in COUNTS:
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                assert a == b, f"{workload}: {name} differs between runs: {a} != {b}"
            counts = {n: first["metrics"][n]["value"] for n in COUNTS}
            print(f"{workload}: work counts repeat exactly: {counts}")
        plain, _, _ = run.run_benchmark("mathieu_table", SEED, 0, False, min_passes=1)
        _check_result(plain, "end_to_end")
    finally:
        spans_path.unlink(missing_ok=True)
        if run.WORK_ROOT.is_dir() and not any(run.WORK_ROOT.iterdir()):
            run.WORK_ROOT.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
