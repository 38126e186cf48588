"""`scripts/bench_record.py` summaries: quartiles, pairs won and the A/A
spread carried into every metric of a parent/change record."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


def _script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_B = _script()
BETTER = {"ops_per_s": "higher", "op_ms_p90": "lower"}


def _runs(values):
    """One run per (seed, side, ops_per_s, op_ms_p90) of workload `w`."""
    return [
        {"workload": "w", "seed": seed, "side": side,
         "result": {"failed": 0, "metrics": {"ops_per_s": {"value": ops},
                                             "op_ms_p90": {"value": p90}}}}
        for seed, side, ops, p90 in values
    ]


RUNS = _runs([
    (1, "parent", 100, 10), (1, "change", 110, 9),
    (2, "parent", 100, 10), (2, "change", 120, 11),
    (3, "parent", 100, 10), (3, "change", 90, 9),
])


def test_summary_counts_wins_and_ratio():
    out = _B._summary(RUNS, "w", BETTER, {})
    assert out["ops_per_s"]["change_wins"] == 2
    assert out["op_ms_p90"]["change_wins"] == 2
    assert out["ops_per_s"]["median_ratio"] == 1.1
    assert out["ops_per_s"]["pairs"] == 3
    assert out["failed"] == {"parent": 0, "change": 0}
    assert "aa_median_ratio" not in out["ops_per_s"]


def test_summary_carries_the_aa_ratio_of_each_metric_it_has():
    out = _B._summary(RUNS, "w", BETTER, {"ops_per_s": {"median_ratio": 1.029}})
    assert out["ops_per_s"]["aa_median_ratio"] == 1.029
    assert "aa_median_ratio" not in out["op_ms_p90"]
