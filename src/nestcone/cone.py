"""Exact-rational polyhedral cone engine.

Cones are stored by generator rays (primitive integer vectors).  Duals and
extremal rays are computed by the double description method with the
combinatorial adjacency test; everything is exact, deterministic, and
reasonably fast for the dimensions used here (<= 8).

Ray normalization: every stored ray is scaled by a positive rational to a
primitive integer vector (cleared denominators, gcd 1).  Scaling factors are
always positive - negating a generator would change the cone - so a
direction whose canonical primitive form starts with a negative entry keeps
its sign.  Lineality directions surface as pairs v, -v among the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import linalg
from .errors import (
    DimensionMismatch,
    EmptyInput,
    FunctionalNotPositive,
    NotPointed,
)
from .rationals import Rat, primitive, rat_str, vdot

IVec = tuple[int, ...]


class Position:
    OUTSIDE = "Outside"
    BOUNDARY = "Boundary"
    INTERIOR = "Interior"


def _idot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v, strict=True))


def _dd(cons: Sequence[IVec], dim: int) -> tuple[list[IVec], list[IVec]]:
    """Double description: generators of {y : y . c >= 0 for all c}.

    The constraints are sorted, distinct, nonzero primitive vectors, as a
    Cone stores its rays.  Returns (lineality basis, extremal rays of the
    pointed part).
    """
    lin: list[IVec] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[tuple[IVec, int]] = []  # (vector, bitmask of tight constraints)

    for idx, a in enumerate(cons):
        bit = 1 << idx
        dl = [_idot(a, l) for l in lin]
        pivot = next((j for j, d in enumerate(dl) if d != 0), None)
        if pivot is not None:
            lstar, dstar = lin[pivot], dl[pivot]
            if dstar < 0:
                lstar = tuple(-x for x in lstar)
                dstar = -dstar
            new_lin = []
            for j, l in enumerate(lin):
                if j == pivot:
                    continue
                new_lin.append(
                    primitive(tuple(dstar * x - dl[j] * y for x, y in zip(l, lstar)))
                )
            new_rays = []
            for v, mask in rays:
                s = _idot(a, v)
                v2 = primitive(tuple(dstar * x - s * y for x, y in zip(v, lstar)))
                new_rays.append((v2, mask | bit))
            # lstar was in the lineality space, hence tight on every earlier
            # constraint, and a . lstar > 0.
            new_rays.append((lstar, bit - 1))
            lin, rays = new_lin, new_rays
            continue

        scored = [(_idot(a, v), v, mask) for v, mask in rays]
        pos = [(v, m) for s, v, m in scored if s > 0]
        zero = [(v, m | bit) for s, v, m in scored if s == 0]
        neg = [(v, m) for s, v, m in scored if s < 0]
        current = [(v, m) for _, v, m in scored]
        new_rays = pos + zero
        for p, mp in pos:
            sp = _idot(a, p)
            for q, mq in neg:
                common = mp & mq
                adjacent = True
                for w, mw in current:
                    if w is p or w is q:
                        continue
                    if (common & mw) == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                sq = _idot(a, q)
                v2 = primitive(tuple(sp * x - sq * y for x, y in zip(q, p)))
                new_rays.append((v2, common | bit))
        # Defensive dedup (exact adjacency should not produce duplicates).
        dedup: dict[IVec, int] = {}
        for v, m in new_rays:
            dedup[v] = dedup.get(v, m) | m
        rays = sorted(dedup.items())

    lin_out = _canonical_lineality(lin, dim)
    return lin_out, sorted(v for v, _ in rays)


def _canonical_lineality(lin: Sequence[IVec], dim: int) -> list[IVec]:
    if not lin:
        return []
    m, _ = linalg.rref(lin)
    out = [primitive(row) for row in m if any(x != 0 for x in row)]
    return sorted(out)


class Cone:
    """Immutable generator-ray cone with lazily computed facets."""

    def __init__(self, dim: int, rays: Sequence[Sequence]):
        if dim <= 0:
            raise DimensionMismatch("cone dimension must be positive")
        norm: list[IVec] = []
        seen: set[IVec] = set()
        for r in rays:
            if len(r) != dim:
                raise DimensionMismatch(
                    f"ray of length {len(r)} in a dimension-{dim} cone"
                )
            p = primitive(r)
            if all(x == 0 for x in p):
                continue
            if p not in seen:
                seen.add(p)
                norm.append(p)
        self.dim = dim
        self.rays: tuple[IVec, ...] = tuple(sorted(norm))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cone)
            and self.dim == other.dim
            and self.rays == other.rays
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.rays))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cone(dim={self.dim}, rays={list(self.rays)})"

    @cached_property
    def _dual_parts(self) -> tuple[list[IVec], list[IVec]]:
        return _dd(self.rays, self.dim)

    @cached_property
    def facet_normals(self) -> tuple[IVec, ...]:
        """Generators of the dual cone: facet normals plus, when this cone is
        not full-dimensional, +/- pairs spanning the orthogonal complement."""
        lin, rays = self._dual_parts
        gens = list(rays)
        for l in lin:
            gens.append(l)
            gens.append(tuple(-x for x in l))
        return tuple(sorted(gens))

    @cached_property
    def lineality_dim(self) -> int:
        if not self.facet_normals:
            return self.dim
        return self.dim - linalg.rank(self.facet_normals)

    @cached_property
    def is_pointed(self) -> bool:
        return self.lineality_dim == 0

    @cached_property
    def is_full_dimensional(self) -> bool:
        return linalg.rank(self.rays) == self.dim

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "rays": [[rat_str(x) for x in ray] for ray in self.rays],
        }


def cone_from_rays(dim: int, rays: Sequence[Sequence]) -> Cone:
    c = Cone(dim, rays)
    if not c.rays:
        raise EmptyInput("a cone needs at least one nonzero generator")
    return c


def dual(c: Cone) -> Cone:
    """The dual cone {y : y . x >= 0 for all x in c} by generator rays."""
    return Cone(c.dim, c.facet_normals)


def extremal_rays(c: Cone) -> Cone:
    """Minimal generator description: extremal rays (plus +/- pairs spanning
    the lineality space when present), canonically sorted."""
    return dual(dual(c))


def position(c: Cone, v: Sequence) -> str:
    """Classify a vector against the cone via its facet normals."""
    if len(v) != c.dim:
        raise DimensionMismatch(f"vector of length {len(v)} in dimension {c.dim}")
    vv = tuple(Fraction(x) for x in v)
    tight = False
    for f in c.facet_normals:
        s = vdot(f, vv)
        if s < 0:
            return Position.OUTSIDE
        if s == 0:
            tight = True
    return Position.BOUNDARY if tight else Position.INTERIOR


def cone_contains(c1: Cone, c2: Cone) -> bool:
    """Whether c1 contains c2 (every generator of c2 satisfies every facet
    inequality of c1)."""
    if c1.dim != c2.dim:
        raise DimensionMismatch("cones of different dimensions")
    return all(
        _idot(f, r) >= 0 for f in c1.facet_normals for r in c2.rays
    )


def cone_equal(c1: Cone, c2: Cone) -> bool:
    return cone_contains(c1, c2) and cone_contains(c2, c1)


def positive_functional(c: Cone) -> tuple[int, ...]:
    """A functional strictly positive on every nonzero point of a pointed
    cone: the sum of the dual cone's generators (an interior point of the
    full-dimensional dual).  Deterministic for a given cone."""
    if not c.is_pointed:
        raise NotPointed("no strictly positive functional on a non-pointed cone")
    return tuple(sum(col) for col in zip(*c.facet_normals))


COORD_SUM = "coordsum"


@dataclass(frozen=True)
class CrossSection:
    """Vertices (rays scaled to functional value 1, lexicographically sorted)
    and edges (index pairs of vertices sharing dim-2 independent tight
    facets)."""

    dim: int
    vertices: tuple[tuple[Rat, ...], ...]
    edges: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[rat_str(x) for x in v] for v in self.vertices],
            "edges": [list(e) for e in self.edges],
        }


def cross_section(c: Cone, normalization=COORD_SUM) -> CrossSection:
    """Cross-section polytope of a pointed cone at functional value 1."""
    ext = extremal_rays(c)
    if not ext.is_pointed:
        raise NotPointed("cross-sections require a pointed cone")
    if normalization == COORD_SUM:
        w = tuple(Fraction(1) for _ in range(c.dim))
    else:
        if len(normalization) != c.dim:
            raise DimensionMismatch("normalizing functional has wrong length")
        w = tuple(Fraction(x) for x in normalization)
    verts = []
    for r in ext.rays:
        s = vdot(w, r)
        if s <= 0:
            raise FunctionalNotPositive(
                f"functional is not strictly positive on ray {r}"
            )
        verts.append(tuple(Fraction(x) / s for x in r))
    order = sorted(range(len(verts)), key=lambda i: verts[i])
    verts = [verts[i] for i in order]
    rays = [ext.rays[i] for i in order]
    facets = ext.facet_normals
    tight = [
        [f for f in facets if _idot(f, r) == 0] for r in rays
    ]
    edges = []
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            common = [f for f in tight[i] if f in tight[j]]
            if linalg.rank(common) == c.dim - 2:
                edges.append((i, j))
    return CrossSection(c.dim, tuple(verts), tuple(sorted(edges)))
