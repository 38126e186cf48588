"""`scripts/bench_record.py` summaries: quartiles, pairs won and the A/A
spread carried into every metric of a parent/change record, the exact
per-layer counts of its traced runs, and the paired section's batch
medians, verdict rule, opcode counts and order of passes."""

import importlib.util
import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


def _script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_B = _script()
BETTER = {"ops_per_s": "higher", "op_ms_p90": "lower"}
BOUNDS = {"ops_per_s": 0.2, "op_ms_p90": 0.2}


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
    out = _B._summary(RUNS, "w", BETTER, {}, BOUNDS)
    assert out["ops_per_s"]["change_wins"] == 2
    assert out["op_ms_p90"]["change_wins"] == 2
    assert out["ops_per_s"]["median_ratio"] == 1.1
    assert out["ops_per_s"]["pairs"] == 3
    assert out["failed"] == {"parent": 0, "change": 0}
    assert "aa_median_ratio" not in out["ops_per_s"]


def test_summary_carries_the_aa_ratio_of_each_metric_it_has():
    out = _B._summary(RUNS, "w", BETTER, {"ops_per_s": {"median_ratio": 1.029}}, BOUNDS)
    assert out["ops_per_s"]["aa_median_ratio"] == 1.029
    assert "aa_median_ratio" not in out["op_ms_p90"]


def _ten_pairs(parent, change):
    """Ten pairs of one higher-is-better metric: parent[i] against change[i]."""
    return _runs([(s, side, v, 10) for s, (p, c) in enumerate(zip(parent, change), 1)
                  for side, v in (("parent", p), ("change", c))])


TIGHT = [99, 100, 100, 101, 100, 99, 101, 100, 100, 100]  # quartile spread 1


def test_verdict_gain_needs_nine_wins_and_a_gap_past_the_parent_spread():
    ten_wins = [v + 5 for v in TIGHT]
    out = _B._summary(_ten_pairs(TIGHT, ten_wins), "w", BETTER, {}, BOUNDS)
    assert out["ops_per_s"]["verdict"] == "gain"
    eight_wins = ten_wins[:8] + [90, 90]
    out = _B._summary(_ten_pairs(TIGHT, eight_wins), "w", BETTER, {}, BOUNDS)
    assert out["ops_per_s"]["change_wins"] == 8
    assert out["ops_per_s"]["verdict"] == "flat"
    # ten wins by less than the parent's quartile spread
    assert _B._verdict(TIGHT, [v + 0.5 for v in TIGHT], 1, 10, 0.2) == "flat"


def test_verdict_worse_past_the_bound_in_the_metric_direction():
    assert _B._verdict(TIGHT, [v * 0.7 for v in TIGHT], 1, 0, 0.2) == "worse"
    assert _B._verdict(TIGHT, [v * 0.9 for v in TIGHT], 1, 0, 0.2) == "flat"
    # lower is better: a 30% higher median is worse, a 30% lower one a gain
    assert _B._verdict(TIGHT, [v * 1.3 for v in TIGHT], -1, 0, 0.2) == "worse"
    assert _B._verdict(TIGHT, [v * 0.7 for v in TIGHT], -1, 10, 0.2) == "gain"


def test_verdict_unresolved_when_the_parent_spread_is_wider_than_the_bound():
    wide = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]  # quartile spread 47.5
    assert _B._verdict(wide, wide, 1, 0, 0.2) == "unresolved"
    # every change run above every parent run resolves it
    assert _B._verdict(wide, [v + 100 for v in wide], 1, 10, 0.2) == "gain"
    assert _B._verdict(wide, [141] * 10, 1, 10, 0.2) == "flat"  # gap 41 < spread 47.5


def _traced(failed=0, **values):
    """A traced run's result: its failed operations and per-layer metrics."""
    return {"failed": failed,
            "metrics": {name: {"value": v, "unit": "ms" if name.endswith("_ms") else "count"}
                        for name, v in values.items()}}


def _moved(result, failed=0, **values):
    return {"failed": failed, "metrics": dict(result["metrics"], **_traced(**values)["metrics"])}


def test_layers_compare_the_exact_counts_of_both_sides():
    parent = _traced(**{"cone.dd.calls": 25, "cone.dd.constraints": 385, "cone.dd.rays_out": 3917,
                        "linalg.rref.calls": 5, "cone.dd.self_ms": 140.0, "cone.dd.repeat_ratio": 0.1})
    same = _moved(parent, **{"cone.dd.self_ms": 160.0, "cone.dd.repeat_ratio": 0.2})
    out = _B._layers(parent, same)
    assert out["parent"] == out["change"] == {
        "cone.dd.calls": 25, "cone.dd.constraints": 385, "cone.dd.rays_out": 3917,
        "linalg.rref.calls": 5,
    }
    assert out["counts_differ"] == []  # times and ratios are not counts
    assert out["failed"] == {"parent": 0, "change": 0}
    moved = _moved(parent, **{"linalg.rref.calls": 9, "cone.dd.rays_out": 3916})
    assert _B._layers(parent, moved)["counts_differ"] == ["cone.dd.rays_out", "linalg.rref.calls"]
    # a count that only one side reports differs
    extra = _moved(parent, **{"check.calls": 3})
    assert _B._layers(parent, extra)["counts_differ"] == ["check.calls"]
    # each traced run's failed operations are kept, and are not a count
    failing = _moved(parent, failed=2)
    out = _B._layers(parent, failing)
    assert out["failed"] == {"parent": 0, "change": 2} and out["counts_differ"] == []


def test_median_ratio_reads_speed_ratios_round_by_round():
    # The other side takes 0.8 of the base's time in 3 of 4 rounds and
    # 1.25 times it in one: speed ratios 1.25, 1.25, 1.25, 0.8.
    assert _B._median_ratio([10.0, 20.0, 40.0, 8.0], [8.0, 16.0, 32.0, 10.0]) == pytest.approx(1.25)
    assert _B._median_ratio([10.0, 20.0], [8.0, 25.0]) == pytest.approx((1.25 + 0.8) / 2)


def test_median_ratio_of_identical_passes_is_one():
    assert _B._median_ratio([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0


def test_median_ratio_refuses_unequal_lists():
    with pytest.raises(ValueError):
        _B._median_ratio([1.0, 2.0], [1.0])


NO_FAILS = {"parent": 0, "change": 0, "parent_aa": 0}
AA = [0.985, 0.992, 0.989, 0.994]  # measured A/A batch medians


def test_paired_verdict_of_measured_identical_code_is_flat():
    assert _B._paired_verdict([1.063, 0.986, 1.004, 1.000], AA, NO_FAILS) == "flat"


def test_paired_verdict_needs_every_change_batch_beyond_every_aa_batch():
    assert _B._paired_verdict([1.01, 1.03, 0.999, 1.08], AA, NO_FAILS) == "gain"
    assert _B._paired_verdict([0.98, 0.95, 0.97, 0.984], AA, NO_FAILS) == "worse"
    # one change batch inside the A/A range leaves it flat either way
    assert _B._paired_verdict([1.01, 1.03, 0.990, 1.08], AA, NO_FAILS) == "flat"
    assert _B._paired_verdict([0.98, 0.95, 0.97, 0.986], AA, NO_FAILS) == "flat"


@pytest.mark.parametrize("side", ["parent", "change", "parent_aa"])
def test_failed_checks_block_a_gain(side):
    assert _B._paired_verdict([1.1] * 4, AA, dict(NO_FAILS, **{side: 1})) == "flat"
    assert _B._paired_verdict([0.9] * 4, AA, dict(NO_FAILS, **{side: 1})) == "worse"


def _round(parent, change, parent_aa, failed=0):
    """One round: each side's pass time, and `failed` checks on the
    change's pass."""
    return {"parent": {"s": parent, "failed": 0}, "change": {"s": change, "failed": failed},
            "parent_aa": {"s": parent_aa, "failed": 0}}


def test_section_holds_each_batch_median_and_each_side_total():
    batches = [[_round(10, 8, 10), _round(10, 8, 10), _round(10, 12.5, 10, failed=2)],
               [_round(4, 5, 5), _round(4, 5, 4), _round(4, 5, 4)]]
    out = _B._section(batches, {"parent": 7, "change": 7, "parent_aa": 7})
    assert out["change_ratios"] == [1.25, 0.8] and out["aa_ratios"] == [1.0, 1.0]
    assert out["resolution"] == 1.0
    spread = _B._section([[_round(10, 10, 8)], [_round(10, 10, 12.5)]], out["opcodes"])
    assert spread["aa_ratios"] == [1.25, 0.8] and spread["resolution"] == 1.25
    assert out["failed"] == {"parent": 0, "change": 2, "parent_aa": 0}
    assert out["pass_s"] == {"parent": 7.0, "change": 6.5, "parent_aa": 7.5}
    assert out["opcodes"] == {"parent": 7, "change": 7, "parent_aa": 7}
    assert out["verdict"] == "flat"


def _loop(n):
    total = 0
    for i in range(n):
        total += i
    return total


def test_opcodes_count_one_pass_exactly():
    ops = [SimpleNamespace(run=lambda: _loop(10)), SimpleNamespace(run=lambda: 1 / 0)]
    outer = sys.gettrace()
    count = _B._opcodes(ops)
    assert count > 0 and _B._opcodes(ops) == count  # a failing operation ends nothing
    assert _B._opcodes([SimpleNamespace(run=lambda: _loop(11)), ops[1]]) > count
    assert sys.gettrace() is outer


class _Worker:
    """A stand-in for one worker process of `_batch`: it logs each pass
    request as (its side, the mode) in the shared `log` and answers it with
    the number of passes requested so far as its time, as on a host that
    slows down steadily.  `_batch` starts one worker per side, in the
    order of `SIDES`."""

    log: list[tuple[str, str]] = []
    started = 0

    def __init__(self, *args, **kwargs):
        self.side = _B.SIDES[_Worker.started]
        _Worker.started += 1
        self.replies = [{"caches": 1}]
        self.stdin = SimpleNamespace(write=self.write, flush=lambda: None, close=lambda: None)
        self.stdout = SimpleNamespace(readline=lambda: json.dumps(self.replies.pop(0)) + "\n")

    def write(self, line):
        mode, *opcodes = line.split()
        if opcodes:
            self.replies.append({"opcodes": 1})
        else:
            self.log.append((self.side, mode))
            self.replies.append({"s": len(self.log), "failed": 0})

    def wait(self):
        return 0


def test_batch_asks_each_worker_for_one_pass_per_round_and_mode(monkeypatch):
    monkeypatch.setattr(_Worker, "log", [])
    monkeypatch.setattr(_Worker, "started", 0)
    monkeypatch.setattr(_B.subprocess, "Popen", _Worker)
    rounds, opcodes = _B._batch({"parent": Path("p"), "change": Path("c")}, "w", count=True)
    assert opcodes == {mode: dict.fromkeys(_B.SIDES, 1) for mode in ("warm", "cold")}
    log, block = _Worker.log, len(_B.SIDES)  # one mode's passes in one round
    assert len(log) == 2 * block * _B.ROUNDS
    modes = [mode for _, mode in log]
    assert all(modes[k:k + block] == [modes[k]] * block for k in range(0, len(log), block))
    assert modes[::block] == ["warm", "cold", "cold", "warm"] * (_B.ROUNDS // 2)
    # Each worker answers exactly once per round and mode, both modes of a
    # round take the sides in one order, and the rounds take each of the
    # six orders of the sides twice.
    sides = [tuple(side for side, _ in log[k:k + block]) for k in range(0, len(log), block)]
    assert all(sorted(order) == sorted(_B.SIDES) for order in sides)
    assert sides[::2] == sides[1::2]
    assert sorted(sides[::2]) == sorted(list(itertools.permutations(_B.SIDES)) * 2)
    assert all(len(r) == block for mode in ("warm", "cold") for r in rounds[mode])
    # The modes' median pass times share the host's drift: they lie within
    # one round of each other, not half a batch apart.
    warm, cold = (_B._section([rounds[mode]], {})["pass_s"]["parent"] for mode in ("warm", "cold"))
    assert abs(warm - cold) < 2 * block
