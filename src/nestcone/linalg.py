"""Small exact linear algebra kernel (dense).

Sizes here are tiny: dimension at most 8 in the catalog, and 9 and 10 in
the benchmark's cones over cyclic polytopes C(m, 8), the second times a
line.  `rref` and `solve_unique` read their answers from one fraction-free
Gauss-Jordan elimination (`_gj`) on integer rows, so elimination never
leaves `int`; rational input is first scaled row by row to primitive
integer vectors.  Their entries are in the normal form of `rationals`: an
`int` when integral, else a `Fraction`.
"""

from __future__ import annotations

from typing import Sequence

from .errors import Inconsistent, UnderDetermined
from .rationals import Rat, primitive, ratio


def _gj(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, 1968) of integer rows;
    returns (m, pivot column indices) with m = d * RREF, d the last pivot.

    Each pivot step clears its column above and below the pivot as
    (pv*a - f*b) // prev, prev the previous pivot.  Every entry is then a
    minor of the input, so every division is exact and entries grow only
    like determinants; each pivot row's pivot entry is the current pivot.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        pv = top[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(pv * a - f * b) // prev for a, b in zip(row, top)]
        prev = pv
        pivots.append(c)
    return m, pivots


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Rat]], list[int]]:
    """Reduced row-echelon form; returns (matrix, pivot column indices).

    Each row is first scaled by a positive rational to a primitive integer
    vector, which leaves the reduced row-echelon form unchanged."""
    m, pivots = _gj([primitive(row) for row in rows])
    d = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    return [[ratio(x, d) for x in row] for row in m], pivots


def solve_unique(a_rows: Sequence[Sequence], b: Sequence) -> list[Rat]:
    """Solve A x = b demanding a unique solution.

    Raises UnderDetermined when the system is solvable but does not pin x
    down, and Inconsistent when no solution exists.
    """
    if not a_rows:
        raise UnderDetermined("empty system")
    ncols = len(a_rows[0])
    m, pivots = _gj([primitive((*row, x)) for row, x in zip(a_rows, b, strict=True)])
    if pivots and pivots[-1] == ncols:
        raise Inconsistent("no solution satisfies all the prescribed values")
    if len(pivots) < ncols:
        raise UnderDetermined("the prescribed values do not determine a unique class")
    return [ratio(row[-1], row[c]) for row, c in zip(m, pivots)]
