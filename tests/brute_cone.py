"""Brute-force cone oracle for small dimensions (d <= 5).

It imports nothing from `nestcone`, so a fault in the engine cannot hide in
a shared helper.  Everything is read off the facets, found by enumeration:
for a cone spanning a k-dimensional subspace S, every (k-1)-subset of the
rays, together with a basis of the orthogonal complement of S, has a
one-dimensional nullspace or is skipped; its normal is a facet normal when
it has one sign on all the rays.  For a full-dimensional cone that is the
textbook rule: the normal of each (d-1)-subset of rays, kept when it has
one sign on all of them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def prim(v) -> tuple[int, ...]:
    """Positive multiple of a rational vector that is a primitive int vector."""
    fr = [Fraction(x) for x in v]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints) if g else tuple(ints)


def rref(rows, d: int) -> tuple[list[list[Fraction]], list[int]]:
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(d):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def rank(rows, d: int) -> int:
    return len(rref(rows, d)[1])


def nullspace(rows, d: int) -> list[tuple[int, ...]]:
    """A basis of {x : row . x = 0 for every row}, as primitive int vectors."""
    m, pivots = rref(rows, d)
    basis = []
    for free in (c for c in range(d) if c not in pivots):
        x = [Fraction(0)] * d
        x[free] = Fraction(1)
        for row, p in zip(m, pivots):
            x[p] = -row[free]
        basis.append(prim(x))
    return basis


def canonical_basis(vectors, d: int) -> list[tuple[int, ...]]:
    """The primitive rows of the reduced row-echelon form, sorted: one basis
    per subspace."""
    return sorted(prim(row) for row in rref(vectors, d)[0])


def project_off(v, basis) -> tuple[int, ...]:
    """v minus its orthogonal projection onto span(basis), made primitive."""
    ortho: list[list[Fraction]] = []
    for b in basis:  # Gram-Schmidt
        u = [Fraction(x) for x in b]
        for o in ortho:
            t = dot(u, o) / dot(o, o)
            u = [a - t * b for a, b in zip(u, o)]
        ortho.append(u)
    w = [Fraction(x) for x in v]
    for o in ortho:
        t = dot(w, o) / dot(o, o)
        w = [a - t * b for a, b in zip(w, o)]
    return prim(w)


class BruteCone:
    """The cone spanned by integer rays in dimension d."""

    def __init__(self, d: int, rays):
        self.d = d
        self.rays = sorted({prim(r) for r in rays if any(r)})
        # The orthogonal complement of span(rays): the dual's lineality.
        self.perp = nullspace(self.rays, d)
        k = d - len(self.perp)
        facets = set()
        for subset in combinations(self.rays, k - 1):
            normal = nullspace(list(subset) + self.perp, d)
            if len(normal) != 1:
                continue
            n = normal[0]
            vals = [dot(n, r) for r in self.rays]
            if all(x >= 0 for x in vals):
                facets.add(n)
            elif all(x <= 0 for x in vals):
                facets.add(tuple(-x for x in n))
        self.facets = sorted(facets)  # one normal per facet, inside span(rays)
        self.lineality = canonical_basis(nullspace(self.facets + self.perp, d), d)

    def tight(self, r) -> list[tuple[int, ...]]:
        return [f for f in self.facets + self.perp if dot(f, r) == 0]

    def extremal(self) -> list[tuple[int, ...]]:
        """One ray per extremal face: the rays whose tight constraints have
        rank d - lineality - 1, projected off the lineality space."""
        target = self.d - len(self.lineality) - 1
        return sorted({
            project_off(r, self.lineality)
            for r in self.rays
            if rank(self.tight(r), self.d) == target
        })

    def edges(self) -> set[frozenset]:
        """Pairs of extremal rays of a pointed cone whose common tight
        constraints have rank d - 2."""
        ext = self.extremal()
        return {
            frozenset((a, b))
            for a, b in combinations(ext, 2)
            if rank([f for f in self.tight(a) if f in self.tight(b)], self.d) == self.d - 2
        }
