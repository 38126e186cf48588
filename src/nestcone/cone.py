"""Exact-rational polyhedral cone engine.

Cones are stored by generator rays (primitive integer vectors), and all the
work is integer arithmetic; everything is exact, deterministic, and
reasonably fast for the dimensions used here: at most 8 in the catalog, and
9 and 10 in the benchmark's cones over cyclic polytopes C(m, 8), the second
times a line.

* The dual is computed by the double description method (`_dd`, run once
  per cone and cached), which keeps for every intermediate ray the bitmask
  of the constraints it is tight on.  It returns three lists, the
  lineality basis, the rays and their masks, in the order its steps make
  them: nothing reads that order, and `facet_normals` sorts once.  Each
  new ray is `_combine` of two vectors, the primitive form of an integer
  combination.  New rays come only from adjacent pairs (`_pairs`).  At
  each step, with D = dimension - lineality and e the excess (size less
  rank) of the constraints every ray is tight on, a ray tight on exactly
  D - 1 + e constraints is nondegenerate: two nondegenerate rays are
  adjacent exactly when they share a ridge (one ray's mask less one bit),
  found by a dict lookup.  Every other pair goes through the
  combinatorial test (`_adjacent`): a popcount, then the test for a third
  ray tight on all of their common constraints.  That test ANDs
  per-constraint ray bitsets, built lazily by `_transpose`, the one
  bit-matrix transpose.
* Extremal rays and the lineality space are read off the same DD's
  incidence data, each generator's bitmask of tight facets (`_transpose`
  of the facets' masks; Fukuda & Prodon, 1996): a generator is extremal
  when its mask is not full and no other non-full mask strictly contains
  it, and the full-mask generators span the lineality space (its
  canonical basis is one `linalg.rref` of them).  No second DD runs, and
  no elimination over facet normals.
* Cross-section edges are the adjacent pairs among the extremal rays, by
  the same combinatorial test on their tight-facet bitmasks.
* `dual` adopts `facet_normals` as its rays, and `extremal_rays` of a
  pointed cone its extremal generators: both are already sorted, distinct
  and primitive, so neither goes back through `Cone.__init__`.

Ray normalization: every stored ray is scaled by a positive rational to a
primitive integer vector (cleared denominators, gcd 1).  Scaling factors are
always positive - negating a generator would change the cone - so a
direction whose canonical primitive form starts with a negative entry keeps
its sign.  Lineality directions surface as pairs v, -v among the generators.
"""

from functools import cached_property, reduce
from math import gcd
from operator import and_, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    EmptyInput,
    FunctionalNotPositive,
    NotPointed,
)
from .linalg import rref, solve_unique
from .rationals import Rat, primitive, rat, ratio, vdot

__all__ = (
    "IVec", "Position", "Cone", "cone_from_rays", "dual", "extremal_rays", "position",
    "cone_contains", "cone_equal", "positive_functional", "COORD_SUM", "CrossSection",
    "cross_section",
)

IVec = tuple[int, ...]


class Position:
    OUTSIDE = "Outside"
    BOUNDARY = "Boundary"
    INTERIOR = "Interior"


def _transpose(rows: Sequence[int]) -> list[int]:
    """The bit matrix `rows` read by columns: bit r of column k is bit k of
    row r.  There are as many columns as the widest row has bits."""
    cols = [0] * max(rows, default=0).bit_length()
    for r, m in enumerate(rows):
        bit = 1 << r
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= bit
            m ^= low
    return cols


def _adjacent(
    masks: Sequence[int], pairs: Iterable[tuple[int, Iterable[int]]], floor: int
) -> Iterator[tuple[int, int]]:
    """The pairs (i, j) of extreme rays that are adjacent, given every
    extreme ray's bitmask of tight constraints: the combinatorial test of
    Fukuda & Prodon (1996).  `pairs` holds groups (i, js), one pair per j,
    yielded in that order.

    Adjacent rays span a 2-face, so their common tight constraints have rank
    (dimension - lineality - 2) = `floor`, and hence at least that many bits:
    a pair with fewer is rejected without a test.  Otherwise they are
    adjacent exactly when no third ray is tight on all of their common
    constraints.  The rays tight on `common` are the AND, over its bits, of
    per-constraint ray bitsets (the `_transpose` of `masks`, built when the
    first pair passes the popcount), starting from all rays; the AND stops
    once only i and j are left.
    """
    cols = None
    for i, js in pairs:
        mi = masks[i]
        for j in js:
            common = mi & masks[j]
            if common.bit_count() < floor:
                continue
            if cols is None:
                cols = _transpose(masks)
                everyone = (1 << len(masks)) - 1
            pair = (1 << i) | (1 << j)
            tight = everyone
            while common and tight != pair:
                low = common & -common
                tight &= cols[low.bit_length() - 1]
                common ^= low
            if tight == pair:
                yield i, j


def _pairs(
    masks: Sequence[int], pos: Sequence[int], neg: Sequence[int], floor: int
) -> Iterator[tuple[int, int]]:
    """The adjacent pairs (i, j), i in `pos` and j in `neg`, of one DD step:
    the pairs `_adjacent` gives over pos x neg, as a set.  `floor` is
    dimension - lineality - 2 plus the excess of the constraints every ray
    is tight on.  A ray whose mask has exactly `floor` + 1 bits is
    nondegenerate; a pair of two is decided by its masks alone, and every
    other pair goes through `_adjacent`'s third-ray test."""
    nondeg = floor + 1
    pos_nd = [i for i in pos if masks[i].bit_count() == nondeg]
    pos_dg = [i for i in pos if masks[i].bit_count() != nondeg]
    neg_nd = [j for j in neg if masks[j].bit_count() == nondeg]
    neg_dg = [j for j in neg if masks[j].bit_count() != nondeg]

    # Why the masks decide.  Let D = dimension - lineality.  Call a set of
    # constraints' size less its rank its excess; a subset's excess is at
    # most the set's.  Let T be the constraints every ray is tight on, and
    # e its excess, so that `floor` = D - 2 + e.  Every mask, and every two
    # rays' common mask, holds T, so its excess is at least e.
    #
    # Adjacent rays span a 2-face, whose tight constraints have rank D - 2
    # and excess at least e, so they share at least `floor` constraints:
    # `_adjacent`'s popcount stays a necessary condition, and its third-ray
    # test does not read `floor`.
    #
    # An extreme ray's tight constraints have rank D - 1, so a nondegenerate
    # ray i (D - 1 + e bits) has excess exactly e, and any `floor` of its
    # bits have rank at least D - 2.  Two nondegenerate rays cannot share all
    # their bits (those cut out the ray i alone).  Sharing `floor` of them,
    # they cut out a face of dimension at most 2 holding both rays, a 2-face,
    # which has exactly two extreme rays.  So they are adjacent exactly when
    # they share a ridge, one ray's mask less one bit: a dict lookup, with no
    # scan.  Removing a bit of T gives no false ridge, for every mask holds
    # that bit.  A ridge lies in exactly two extreme rays, so when two
    # negative rays share one no positive ray has it, and keeping either j
    # is harmless.
    ridges = {}
    for j in neg_nd:
        m = rest = masks[j]
        while rest:
            low = rest & -rest
            ridges[m ^ low] = j
            rest ^= low
    for i in pos_nd:
        m = rest = masks[i]
        while rest:
            low = rest & -rest
            j = ridges.get(m ^ low)
            if j is not None:
                yield i, j
            rest ^= low

    pairs = [(i, neg_dg) for i in pos_nd] + [(i, neg) for i in pos_dg]
    yield from _adjacent(masks, pairs, floor)


def _combine(a: int, x: IVec, b: int, y: IVec) -> IVec:
    """The primitive form of a * x - b * y, for int vectors x and y whose
    combination is not zero."""
    w = [a * p - b * q for p, q in zip(x, y)]
    g = gcd(*w)
    return tuple([p // g for p in w])


def _dd(cons: Sequence[IVec], dim: int) -> tuple[list[IVec], list[IVec], list[int]]:
    """Double description: generators of {y : y . c >= 0 for all c}.

    The constraints are sorted, distinct, nonzero primitive vectors, as a
    Cone stores its rays.  Returns three lists: the canonical lineality
    basis, the extremal rays of the pointed part (distinct primitive int
    vectors) and, per ray, the bitmask of the constraints it is tight on
    (bit i for cons[i]).  The rays come in the order the steps make them;
    `Cone.facet_normals` sorts them.
    """
    lin: list[IVec] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: list[IVec] = []
    masks: list[int] = []  # per ray, the bitmask of its tight constraints
    excess = {0: 0}  # per mask of constraints, its size less its rank

    for idx, a in enumerate(cons):
        bit = 1 << idx
        # Constraints and rays are primitive int tuples of length dim.
        scores = [sum(map(mul, a, v)) for v in rays]
        dl = [sum(map(mul, a, l)) for l in lin]
        pivot = next((j for j, d in enumerate(dl) if d != 0), None)
        if pivot is not None:
            lstar, dstar = lin[pivot], dl[pivot]
            if dstar < 0:
                lstar = tuple(-x for x in lstar)
                dstar = -dstar
            lin = [_combine(dstar, l, d, lstar)
                   for j, (l, d) in enumerate(zip(lin, dl)) if j != pivot]
            rays = [_combine(dstar, v, s, lstar) for v, s in zip(rays, scores)]
            # lstar was in the lineality space, hence tight on every earlier
            # constraint, and a . lstar > 0.
            rays.append(lstar)
            masks = [m | bit for m in masks]
            masks.append(bit - 1)
            continue

        pos = [i for i, s in enumerate(scores) if s > 0]
        neg = [j for j, s in enumerate(scores) if s < 0]
        new_rays = [v for v, s in zip(rays, scores) if s >= 0]
        new_masks = [m | bit if s == 0 else m for m, s in zip(masks, scores) if s >= 0]
        if pos and neg:
            # The constraints every ray is tight on: only an elimination
            # gives their rank.
            t = reduce(and_, masks)
            if t not in excess:
                tight = [c for k, c in enumerate(cons) if t >> k & 1]
                excess[t] = len(tight) - len(rref(tight)[1])
            for i, j in _pairs(masks, pos, neg, dim - len(lin) - 2 + excess[t]):
                # scores[i] > 0 > scores[j]: a positive combination of the
                # two rays, in the relative interior of their 2-face, so it
                # equals no other ray.
                new_rays.append(_combine(scores[i], rays[j], scores[j], rays[i]))
                new_masks.append((masks[i] & masks[j]) | bit)
        rays, masks = new_rays, new_masks

    return _canonical_lineality(lin), rays, masks


def _canonical_lineality(lin: Sequence[IVec]) -> list[IVec]:
    """The one basis of span(lin): primitive rows of its reduced row-echelon
    form, sorted.  No elimination runs when lin is empty."""
    if not lin:
        return []
    m, _ = rref(lin)
    out = [primitive(row) for row in m if any(x != 0 for x in row)]
    return sorted(out)


class Cone:
    """Immutable generator-ray cone with lazily computed facets."""

    def __init__(self, dim: int, rays: Sequence[Sequence]):
        if dim <= 0:
            raise DimensionMismatch("cone dimension must be positive")
        norm: set[IVec] = set()
        for r in rays:
            if len(r) != dim:
                raise DimensionMismatch(
                    f"ray of length {len(r)} in a dimension-{dim} cone"
                )
            norm.add(primitive(r))
        norm.discard((0,) * dim)
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
    def _dual_parts(self) -> tuple[list[IVec], list[IVec], list[int]]:
        return _dd(self.rays, self.dim)

    @cached_property
    def _incidence(self) -> list[int]:
        """Per generator, the bitmask of the facets tight on it (bit i for
        the i-th pointed-part ray of `_dual_parts`): the `_transpose` of the
        DD's masks, padded with empty masks to one per generator.  The
        dual's lineality basis is tight on every generator and has no bit."""
        cols = _transpose(self._dual_parts[2])
        return cols + [0] * (len(self.rays) - len(cols))

    @cached_property
    def facet_normals(self) -> tuple[IVec, ...]:
        """Generators of the dual cone: facet normals plus, when this cone is
        not full-dimensional, +/- pairs spanning the orthogonal complement,
        sorted: the one sort of the DD's output."""
        lin, rays, _ = self._dual_parts
        return tuple(sorted(rays + lin + [tuple(-x for x in l) for l in lin]))

    @cached_property
    def _full_mask(self) -> int:
        """The mask of a generator tight on every facet: one in the lineality space."""
        return (1 << len(self._dual_parts[1])) - 1

    @cached_property
    def _lineality_basis(self) -> list[IVec]:
        """Canonical basis of the lineality space, spanned by the full-mask generators."""
        full = self._full_mask
        return _canonical_lineality([r for r, m in zip(self.rays, self._incidence) if m == full])

    @cached_property
    def lineality_dim(self) -> int:
        return len(self._lineality_basis)

    @cached_property
    def is_pointed(self) -> bool:
        return self.lineality_dim == 0


def cone_from_rays(dim: int, rays: Sequence[Sequence]) -> Cone:
    c = Cone(dim, rays)
    if not c.rays:
        raise EmptyInput("a cone needs at least one nonzero generator")
    return c


def _adopt(dim: int, rays: tuple[IVec, ...]) -> Cone:
    """The Cone over `rays` taken as they are, with no renormalization: they
    must already be sorted, distinct, nonzero, primitive int tuples, the
    form `Cone.__init__` stores."""
    c = Cone.__new__(Cone)
    c.dim, c.rays = dim, rays
    return c


def dual(c: Cone) -> Cone:
    """The dual cone {y : y . x >= 0 for all x in c} by generator rays.

    `facet_normals` are already in stored form: the DD's rays are distinct
    primitive int tuples, and so are the canonical lineality basis and its
    negations, which lie in no ray's direction; they are sorted together."""
    return _adopt(c.dim, c.facet_normals)


def _extremal(c: Cone) -> list[int]:
    """Indices of the generators on extremal faces, read off c's incidence
    masks (Fukuda & Prodon, 1996): k is kept when its mask is neither full
    nor strictly inside another non-full mask.  A generator lies in the
    relative interior of the face its tight facets cut out, faces and masks
    correspond in reverse order, and the full mask cuts out the lineality
    space L.  Below an extremal face lies only L; a higher face contains an
    extremal one, spanned by generators, one outside L with a larger mask."""
    inner = [m for m in c._incidence if m != c._full_mask]
    return [k for k, m in enumerate(c._incidence)
            if m != c._full_mask and not any(o != m and o & m == m for o in inner)]


def extremal_rays(c: Cone) -> Cone:
    """Minimal generator description, canonically sorted, read off the DD
    that c already caches (no second DD).

    A pointed cone gives its extremal generators.  A cone with a lineality
    space L gives +/- the canonical basis of L and, for each extremal face,
    its generators projected orthogonally onto the complement of L, one
    canonical ray per face.
    """
    keep = [c.rays[k] for k in _extremal(c)]
    if c.is_pointed:
        # A sorted subsequence of c.rays, already in stored form.
        return _adopt(c.dim, tuple(keep))
    basis = c._lineality_basis
    gram = [[vdot(a, b) for b in basis] for a in basis]

    def project(r: IVec) -> tuple[Rat, ...]:
        x = solve_unique(gram, [vdot(a, r) for a in basis])
        return tuple(rj - vdot(x, col) for rj, col in zip(r, zip(*basis)))

    gens = [project(r) for r in keep] + basis + [tuple(-x for x in b) for b in basis]
    return Cone(c.dim, gens)


def position(c: Cone, v: Sequence) -> str:
    """Classify a vector (entries read with `rat`) against the cone via its
    facet normals."""
    if len(v) != c.dim:
        raise DimensionMismatch(f"vector of length {len(v)} in dimension {c.dim}")
    vv = tuple(rat(x) for x in v)
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
        vdot(f, r) >= 0 for f in c1.facet_normals for r in c2.rays
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


class CrossSection(NamedTuple):
    """Vertices (rays scaled to functional value 1, lexicographically sorted)
    and edges (index pairs of vertices sharing dim-2 independent tight
    facets)."""

    dim: int
    vertices: tuple[tuple[Rat, ...], ...]
    edges: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [list(map(str, v)) for v in self.vertices],
            "edges": [list(e) for e in self.edges],
        }


def cross_section(c: Cone, normalization=COORD_SUM) -> CrossSection:
    """Cross-section polytope of a pointed cone at functional value 1 of
    `normalization` (COORD_SUM or a vector whose entries are read with
    `rat`).  Its edges come from the combinatorial adjacency test on the
    extremal generators' tight-facet bitmasks."""
    if not c.is_pointed:
        raise NotPointed("cross-sections require a pointed cone")
    if normalization == COORD_SUM:
        w = (1,) * c.dim
    else:
        if len(normalization) != c.dim:
            raise DimensionMismatch("normalizing functional has wrong length")
        w = tuple(rat(x) for x in normalization)
    keep = _extremal(c)
    verts = []
    for k in keep:
        r = c.rays[k]
        s = vdot(w, r)
        if s <= 0:
            raise FunctionalNotPositive(
                f"functional is not strictly positive on ray {r}"
            )
        verts.append(tuple(ratio(x, s) for x in r))
    order = sorted(range(len(verts)), key=lambda i: verts[i])
    masks = [c._incidence[keep[i]] for i in order]
    floor = c.dim - len(c._dual_parts[0]) - 2
    n = len(order)
    edges = _adjacent(masks, ((i, range(i + 1, n)) for i in range(n)), floor)
    return CrossSection(c.dim, tuple(verts[i] for i in order), tuple(edges))
