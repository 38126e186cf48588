"""Integer-only reference computations for the benchmark's output checks.

Nothing here imports nestcone: these are the facts the checks compare the
program's answers against, computed a second way.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm


def clear(vec) -> tuple[list[int], int]:
    """Scale a rational vector by the lcm of its denominators.

    Returns the integer vector and the (positive) scale factor.
    """
    fr = [Fraction(x) for x in vec]
    scale = lcm(*(x.denominator for x in fr)) if fr else 1
    return [int(x * scale) for x in fr], scale


def prim(vec) -> tuple[int, ...]:
    """Primitive integer vector on the same ray (positive scaling only)."""
    ints, _ = clear(vec)
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints) if g else tuple(ints)


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v, strict=True))


def int_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][c]
        for i in range(rank + 1, nrows):
            f = m[i][c]
            m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], m[rank])]
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def matmul(a, b) -> list[list[int]]:
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def transpose(a) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def ubt_facets(m: int, d: int) -> int:
    """Facet count of the cyclic polytope C(m, d) (upper bound theorem)."""
    k = d // 2
    if d % 2 == 0:
        return m * comb(m - k, k) // (m - k)
    return 2 * comb(m - k - 1, k)


def gale_facets(m: int, d: int) -> set[tuple[int, ...]]:
    """Vertex sets of the facets of C(m, d) by Gale's evenness condition:
    every maximal run of consecutive indices that touches neither end of
    0..m-1 has even length."""
    out = set()
    for s in combinations(range(m), d):
        ok = True
        i = 0
        while i < d:
            j = i
            while j + 1 < d and s[j + 1] == s[j] + 1:
                j += 1
            if s[i] != 0 and s[j] != m - 1 and (j - i + 1) % 2:
                ok = False
                break
            i = j + 1
        if ok:
            out.add(s)
    return out


def moment_rays(ts, d: int) -> list[tuple[int, ...]]:
    """Rays (1, t, ..., t^d) of the cone over the cyclic polytope."""
    return [tuple(t ** k for k in range(d + 1)) for t in ts]
