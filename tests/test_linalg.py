"""`nestcone.linalg` against the independent Fraction elimination of
`brute_cone.rref`: reduced row-echelon form with its pivots (their count is
the rank) and unique solves of int and Fraction matrices up to 7 x 8, with
zero rows, dependent rows, empty input (no rows) and 40-digit entries.
Every entry returned is an `int` when integral, else a `Fraction`."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_cone import dot, rref as ref_rref
from nestcone.errors import Inconsistent, UnderDetermined
from nestcone.linalg import rref, solve_unique

_INT = st.one_of(st.integers(-5, 5), st.integers(-(10**40), 10**40))


@st.composite
def int_matrices(draw, max_cols=8):
    """(rows, ncols): up to 7 rows, each drawn fresh, zero, or an integer
    combination of two earlier rows."""
    ncols = draw(st.integers(1, max_cols))
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["fresh", "zero", "dependent"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "dependent" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(_INT, min_size=ncols, max_size=ncols)))
    return rows, ncols


@st.composite
def matrices(draw, max_cols=8):
    """(rows, ncols) of ints, or of Fractions over small and 40-digit
    denominators."""
    rows, ncols = draw(int_matrices(max_cols))
    if draw(st.booleans()):
        den = st.one_of(st.integers(1, 6), st.integers(1, 10**40))
        rows = [[Fraction(x, draw(den)) for x in row] for row in rows]
    return rows, ncols


def _nonzero_rows(m):
    return [row for row in m if any(x != 0 for x in row)]


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_rank_matches_reference(case):
    """The rank, read as the pivot count of `rref`, on integer matrices with
    zero and dependent rows."""
    rows, ncols = case
    assert len(rref(rows)[1]) == len(ref_rref(rows, ncols)[1])


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_reference(case):
    rows, ncols = case
    m, pivots = rref(rows)
    ref_m, ref_pivots = ref_rref(rows, ncols)
    assert pivots == ref_pivots  # so the pivot count, the rank, agrees too
    assert _nonzero_rows(m) == ref_m
    assert len(m) == len(rows)
    assert all(type(x) is int or x.denominator > 1 for row in m for x in row)


@settings(max_examples=200, deadline=None)
@given(matrices(max_cols=7), st.data())
def test_solve_unique_matches_reference(case, data):
    a, ncols = case
    if a and data.draw(st.booleans()):  # a consistent right-hand side
        x = data.draw(st.lists(_INT, min_size=ncols, max_size=ncols))
        b = [dot(row, x) for row in a]
    else:
        b = data.draw(st.lists(_INT, min_size=len(a), max_size=len(a)))
    ref_m, pivots = ref_rref([[*row, y] for row, y in zip(a, b)], ncols + 1)
    if not a:
        with pytest.raises(UnderDetermined, match="^empty system$"):
            solve_unique(a, b)
    elif ncols in pivots:
        with pytest.raises(Inconsistent):
            solve_unique(a, b)
    elif len(pivots) < ncols:
        with pytest.raises(UnderDetermined):
            solve_unique(a, b)
    else:
        got = solve_unique(a, b)
        assert got == [row[-1] for row in ref_m]
        assert all(type(x) is int or x.denominator > 1 for x in got)
        assert [dot(row, got) for row in a] == b

