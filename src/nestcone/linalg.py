"""Small exact linear algebra kernel (dense).

Sizes here are tiny (dimension <= 8).  `rref` and `solve_unique` run plain
Gaussian elimination over `Fraction`; `rank` takes integer rows and runs
fraction-free (Bareiss) elimination, so it never leaves `int`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import Inconsistent, UnderDetermined

Matrix = list[list[Fraction]]


def to_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form; returns (matrix, pivot column indices)."""
    m = to_matrix(rows)
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of integer rows by fraction-free (Bareiss) elimination.

    After each pivot step every remaining entry is a minor of the input,
    divided exactly by the previous pivot, so all arithmetic stays in `int`
    and entries grow only like determinants.
    """
    m = [list(row) for row in rows]
    r, prev = 0, 1
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        pv = top[c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(pv * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = pv
        r += 1
        if r == len(m):
            break
    return r


def solve_unique(a_rows: Sequence[Sequence], b: Sequence) -> list[Fraction]:
    """Solve A x = b demanding a unique solution.

    Raises UnderDetermined when the system is solvable but does not pin x
    down, and Inconsistent when no solution exists.
    """
    a = to_matrix(a_rows)
    if not a:
        raise UnderDetermined("empty system")
    ncols = len(a[0])
    aug = [row + [Fraction(x)] for row, x in zip(a, [Fraction(v) for v in b], strict=True)]
    m, pivots = rref(aug)
    for row in m:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            raise Inconsistent("no solution satisfies all the prescribed values")
    if pivots and pivots[-1] == ncols:
        raise Inconsistent("no solution satisfies all the prescribed values")
    if len([p for p in pivots if p < ncols]) < ncols:
        raise UnderDetermined("the prescribed values do not determine a unique class")
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][-1]
    return x
