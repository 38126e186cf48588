"""`scripts/ab_passes.py` statistics on synthetic passes: per-pair speed
ratios, their median and quartiles, the pairs won and the sign test."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_passes.py"
_spec = importlib.util.spec_from_file_location("ab_passes", SCRIPT)
_A = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_A)


def test_sign_p_is_the_binomial_tail():
    assert _A.sign_p(0, 10) == 1
    assert _A.sign_p(10, 10) == 1 / 1024
    assert _A.sign_p(9, 10) == 11 / 1024
    assert _A.sign_p(5, 10) == pytest.approx(0.623046875)


def test_paired_reads_speed_ratios_pair_by_pair():
    # The other side takes 0.8 of the base's time in 3 of 4 pairs and
    # 1.25 times it in one: speed ratios 1.25, 1.25, 1.25, 0.8.
    base = [10.0, 20.0, 40.0, 8.0]
    other = [8.0, 16.0, 32.0, 10.0]
    out = _A.paired(base, other)
    assert out["pairs"] == 4 and out["wins"] == 3
    assert out["median_ratio"] == pytest.approx(1.25)
    assert out["q1"] == pytest.approx(0.9125) and out["q3"] == pytest.approx(1.25)
    assert out["sign_p"] == 5 / 16


def test_paired_identical_passes_win_nothing():
    out = _A.paired([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert (out["median_ratio"], out["q1"], out["q3"]) == (1.0, 1.0, 1.0)
    assert out["wins"] == 0 and out["sign_p"] == 1


def test_paired_refuses_unequal_lists():
    with pytest.raises(ValueError):
        _A.paired([1.0, 2.0], [1.0])
