import random
from fractions import Fraction
from itertools import combinations, islice
from math import comb, gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nestcone.cone as cone_module
from brute_cone import canonical_basis, project_off
from nestcone.cone import (
    COORD_SUM,
    Cone,
    CrossSection,
    Position,
    _adjacent,
    _extremal,
    _pairs,
    _transpose,
    cone_contains,
    cone_equal,
    cone_from_rays,
    cross_section,
    dual,
    extremal_rays,
    position,
    positive_functional,
)
from nestcone.errors import (
    DimensionMismatch,
    EmptyInput,
    FunctionalNotPositive,
    NotPointed,
)
from nestcone.linalg import rref
from test_cone_oracle import cones


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# Basic constructions
# ---------------------------------------------------------------------------

def test_cone_normalization():
    c = cone_from_rays(2, [(2, 4), (1, 2), (Fraction(1, 3), 0)])
    assert c.rays == ((1, 0), (1, 2))


def test_cone_equality_is_equality_of_normalized_generators():
    c = Cone(2, [(1, 0), (1, 2)])
    same = [Cone(2, [(1, 2), (1, 0)]), Cone(2, [(3, 0), (Fraction(1, 2), 1)]),
            Cone(2, [(1, 0), (2, 4), (1, 2), (0, 0)])]
    assert all(c == d and hash(c) == hash(d) for d in same)
    assert c != Cone(2, [(1, 0), (0, 1)])
    assert Cone(2, []) != Cone(3, []) and Cone(2, [(1, 0)]) != Cone(3, [(1, 0, 0)])
    assert c != c.rays and c.rays != c
    # A one-shot iterator with a Fraction zero ray and a repeated direction.
    assert Cone(2, iter([(2, 4), (F(0), F(0)), (1, 0), (Fraction(1, 2), 1)])) == c
    with pytest.raises(DimensionMismatch, match="ray of length 3"):
        Cone(2, [(1, 0), (1, 2, 3)])


def test_primitive_scaling_is_positive_only():
    # A generator pointing into the negative orthant keeps its sign.
    c = cone_from_rays(2, [(-2, -4)])
    assert c.rays == ((-1, -2),)


def test_empty_input():
    with pytest.raises(EmptyInput):
        cone_from_rays(2, [(0, 0)])
    with pytest.raises(EmptyInput):
        cone_from_rays(3, [])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cone_from_rays(2, [(1, 0, 0)])
    c = cone_from_rays(2, [(1, 0)])
    with pytest.raises(DimensionMismatch):
        position(c, (1, 0, 0))
    with pytest.raises(DimensionMismatch, match="^cone dimension must be positive$"):
        Cone(0, [])
    with pytest.raises(DimensionMismatch, match="^cones of different dimensions$"):
        cone_contains(c, cone_from_rays(3, [(1, 0, 0)]))
    with pytest.raises(DimensionMismatch, match="^normalizing functional has wrong length$"):
        cross_section(c, (1, 1, 1))


def test_dual_of_halfplane():
    # The upper half plane (lineality along x) dualizes to the ray (0,1).
    c = cone_from_rays(2, [(1, 0), (-1, 0), (0, 1)])
    d = dual(c)
    assert d.rays == ((0, 1),)
    assert not c.is_pointed
    assert c.lineality_dim == 1


def test_dual_of_orthant():
    c = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    d = dual(c)
    assert set(d.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    # full-dimensional exactly when the dual is pointed
    assert c.is_pointed and d.is_pointed


def test_dual_of_low_dimensional_cone():
    # A single ray in the plane: the dual is a half plane.
    c = cone_from_rays(2, [(1, 1)])
    d = dual(c)
    # dual contains the orthogonal line in both directions
    assert position(d, (1, -1)) != Position.OUTSIDE
    assert position(d, (-1, 1)) != Position.OUTSIDE
    assert position(d, (1, 1)) != Position.OUTSIDE
    assert position(d, (-1, -1)) == Position.OUTSIDE
    # and membership in c itself is cut by the span as well
    assert position(c, (1, 0)) == Position.OUTSIDE


def test_extremal_rays_removes_redundant():
    c = cone_from_rays(2, [(1, 0), (0, 1), (1, 1), (2, 3)])
    assert extremal_rays(c).rays == ((0, 1), (1, 0))


def test_extremal_rays_idempotent():
    c = cone_from_rays(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1), (3, 1, 1)])
    e1 = extremal_rays(c)
    e2 = extremal_rays(e1)
    assert e1.rays == e2.rays


def test_extremal_rays_and_cross_section_reuse_the_cones_dd(monkeypatch):
    import nestcone.cone as cone_module

    inputs = []
    dd = cone_module._dd
    monkeypatch.setattr(cone_module, "_dd", lambda cons, dim: inputs.append(cons) or dd(cons, dim))
    c = cone_from_rays(3, [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1), (0, 0, 1)])
    assert len(extremal_rays(c).rays) == 4
    assert len(cross_section(c, (0, 0, 1)).edges) == 4
    assert inputs == [c.rays]  # one DD, over the generators; none over facet normals


def test_position():
    c = cone_from_rays(2, [(1, 0), (1, 1)])
    assert position(c, (1, Fraction(1, 2))) == Position.INTERIOR
    assert position(c, (1, 0)) == Position.BOUNDARY
    assert position(c, (1, 1)) == Position.BOUNDARY
    assert position(c, (0, 0)) == Position.BOUNDARY
    assert position(c, (0, 1)) == Position.OUTSIDE
    assert position(c, (-1, 0)) == Position.OUTSIDE


def test_contains_and_equal():
    big = cone_from_rays(2, [(1, 0), (0, 1)])
    small = cone_from_rays(2, [(1, 1), (2, 1)])
    assert cone_contains(big, small)
    assert not cone_contains(small, big)
    assert cone_equal(big, cone_from_rays(2, [(0, 1), (1, 0), (1, 5)]))


# ---------------------------------------------------------------------------
# Cross-sections
# ---------------------------------------------------------------------------

def test_cross_section_square():
    # cone over a square in R^4 (products of coordinate rays)
    c = cone_from_rays(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    cs = cross_section(c, COORD_SUM)
    assert len(cs.vertices) == 4
    assert len(cs.edges) == 6  # simplex: every pair of vertices is an edge


def test_cross_section_2d():
    c = cone_from_rays(2, [(1, 0), (1, 2)])
    cs = cross_section(c, COORD_SUM)
    assert len(cs.vertices) == 2
    assert cs.edges == ((0, 1),)


def test_cross_section_square_pyramid():
    # cone over a square: 4 vertices, 4 edges, diagonals excluded
    c = cone_from_rays(3, [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
    cs = cross_section(c, (0, 0, 1))
    assert len(cs.vertices) == 4
    assert len(cs.edges) == 4
    # the diagonal pairs (opposite sign patterns) are not edges
    verts = {v: i for i, v in enumerate(cs.vertices)}
    i1 = verts[(F(1), F(1), F(1))]
    i2 = verts[(F(-1), F(-1), F(1))]
    assert tuple(sorted((i1, i2))) not in cs.edges


def test_cross_section_requires_pointed():
    c = cone_from_rays(2, [(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(NotPointed):
        cross_section(c)


def test_cross_section_requires_positive_functional():
    c = cone_from_rays(2, [(1, -1), (1, 1)])
    with pytest.raises(FunctionalNotPositive):
        cross_section(c, COORD_SUM)
    cs = cross_section(c, (1, 0))
    assert len(cs.vertices) == 2


def test_float_scalars_get_rats_error():
    c = cone_from_rays(2, [(1, 0), (0, 1)])
    with pytest.raises(TypeError, match="cannot build an exact rational from float"):
        cross_section(c, (0.1, 0.3))
    with pytest.raises(TypeError, match="cannot build an exact rational from float"):
        position(c, (0.1, 0.2))
    cs = cross_section(c, (Fraction(1, 10), "3/10"))
    assert cs.vertices == ((0, Fraction(10, 3)), (10, 0))
    assert position(c, ("1/10", Fraction(1, 5))) == Position.INTERIOR


def test_positive_functional():
    c = cone_from_rays(2, [(1, -1), (1, 1)])
    w = positive_functional(c)
    for r in c.rays:
        assert sum(a * b for a, b in zip(w, r)) > 0
    cs = cross_section(c, w)
    assert len(cs.vertices) == 2
    with pytest.raises(NotPointed):
        positive_functional(cone_from_rays(2, [(1, 0), (-1, 0)]))


def test_cross_section_deterministic():
    c = cone_from_rays(3, [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
    a = cross_section(c, (0, 0, 1))
    b = cross_section(c, (0, 0, 1))
    assert a == b
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------------------
# Incidence-mask kernel beyond the brute-force oracle's d <= 5
# ---------------------------------------------------------------------------

def moment_rays(m, d):
    """The rays (1, t, ..., t^d) at t = 1..m: the cone over the cyclic
    polytope C(m, d), all m of whose rays are extremal."""
    return [tuple(t**i for i in range(d + 1)) for t in range(1, m + 1)]


def padded(rays, count, rng):
    """rays plus `count` interior generators, each a combination of all of
    them with weights in 1..3, shuffled."""
    pad = [
        tuple(sum(w * x for w, x in zip(ws, col)) for col in zip(*rays))
        for ws in ([rng.randint(1, 3) for _ in rays] for _ in range(count))
    ]
    gens = rays + pad
    rng.shuffle(gens)
    return gens


def ubt_facets(m, d):
    """The facet count of the cyclic polytope C(m, d), the maximum the upper
    bound theorem allows for m vertices in dimension d."""
    k = d // 2
    if d % 2:
        return 2 * comb(m - k - 1, k)
    return m * comb(m - k, k) // (m - k)


def gale_facets(m, d):
    """The d-sets of C(m, d)'s vertices 0..m-1 that span a facet, by Gale's
    evenness condition: between any two vertices off the set, an even
    number of the set's vertices lie."""
    return {
        s for s in combinations(range(m), d)
        if all(sum(i < x < j for x in s) % 2 == 0
               for i, j in combinations(sorted(set(range(m)) - set(s)), 2))
    }


@pytest.mark.parametrize("d", [6, 7, 8])
def test_dual_of_cyclic_cones_has_gales_facets(d):
    """The facet side of the kernel at d = 6..8: the dual of the cone over
    C(d + 4, d) has the upper bound theorem's facet count, and each facet
    normal is tight on exactly the vertices of one Gale facet."""
    m = d + 4
    rays = moment_rays(m, d)
    normals = dual(cone_from_rays(d + 1, rays)).rays
    assert len(normals) == ubt_facets(m, d)
    tight_sets = set()
    for f in normals:
        vals = [sum(a * b for a, b in zip(f, r)) for r in rays]
        assert min(vals) == 0
        tight_sets.add(tuple(k for k, x in enumerate(vals) if x == 0))
    assert tight_sets == gale_facets(m, d)


@pytest.fixture
def eliminated_rows(monkeypatch):
    """Every row handed to the one elimination behind `linalg.rref` and
    `solve_unique`, collected by a wrapper."""
    import nestcone.linalg as linalg

    rows = []
    real = linalg._gj

    def counted(m):
        rows.extend(tuple(r) for r in m)
        return real(m)

    monkeypatch.setattr(linalg, "_gj", counted)
    return rows


@pytest.mark.parametrize("d", [6, 7, 8])
def test_extremal_rays_of_padded_cyclic_cones(d):
    rays = moment_rays(d + 3, d)
    c = cone_from_rays(d + 1, padded(rays, 4, random.Random(d)))
    assert extremal_rays(c).rays == tuple(sorted(rays))
    assert c.lineality_dim == 0


@pytest.mark.parametrize("d", [6, 7, 8])
def test_extremal_rays_of_cyclic_cones_times_a_line(d):
    rays = moment_rays(d + 3, d)
    line = (1,) * (d + 2)
    gens = [r + (0,) for r in padded(rays, 4, random.Random(d))]
    c = cone_from_rays(d + 2, gens + [line, tuple(-x for x in line)])
    want = {line, tuple(-x for x in line)} | {project_off(r + (0,), [line]) for r in rays}
    assert extremal_rays(c).rays == tuple(sorted(want))
    assert c.lineality_dim == 1
    assert sorted(c.rays[k] for k in _extremal(c)) == sorted(r + (0,) for r in rays)


def test_subspace_cone_has_only_full_masks():
    a, b = (1, 2, 0, 1), (0, 1, 1, -1)
    c = cone_from_rays(4, [a, b, tuple(-x - y for x, y in zip(a, b))])
    assert c._dual_parts[1] == []  # no facets
    assert all(m == c._full_mask for m in c._incidence)
    assert _extremal(c) == []  # no generator lies off the lineality space
    assert c.lineality_dim == 2
    basis = canonical_basis([a, b], 4)
    assert extremal_rays(c).rays == tuple(sorted(basis + [tuple(-x for x in v) for v in basis]))
    whole = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    assert whole.lineality_dim == 3
    assert whole.facet_normals == ()


def test_pointed_cone_questions_run_no_elimination(eliminated_rows):
    c = cone_from_rays(7, padded(moment_rays(9, 6), 4, random.Random(0)))
    assert len(extremal_rays(c).rays) == 9
    assert len(cross_section(c).vertices) == 9
    assert c.lineality_dim == 0
    assert eliminated_rows == []


def test_lineality_eliminates_only_the_full_mask_generators(eliminated_rows):
    line = (1, 1, 1, 1, 1)
    gens = [r + (0,) for r in moment_rays(6, 3)] + [line, tuple(-x for x in line)]
    c = cone_from_rays(5, gens)
    assert c.lineality_dim == 1
    # The DD ranks the constraints tight on every ray, {line, -line}, once,
    # and the lineality basis eliminates the full-mask generators.
    assert set(eliminated_rows) == {line, tuple(-x for x in line)}


# ---------------------------------------------------------------------------
# Randomized properties
# ---------------------------------------------------------------------------

def random_pointed_cone(rng, dim):
    """Random pointed cone: generators confined to the open half-space
    x_0 > 0 (which forces pointedness), entries in [-9, 9]."""
    k = rng.randint(1, dim + 3)
    rays = []
    for _ in range(k):
        v = [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(dim - 1)]
        rays.append(tuple(v))
    return cone_from_rays(dim, rays)


def test_dual_dual_identity_random():
    rng = random.Random(20260823)
    for trial in range(200):
        dim = rng.randint(2, 6)
        c = random_pointed_cone(rng, dim)
        dd = dual(dual(c))
        assert extremal_rays(dd).rays == extremal_rays(c).rays, (trial, c.rays)


def test_dual_reverses_containment_random():
    rng = random.Random(7)
    for _ in range(40):
        dim = rng.randint(2, 5)
        c1 = random_pointed_cone(rng, dim)
        extra = random_pointed_cone(rng, dim)
        c2 = cone_from_rays(dim, list(c1.rays) + list(extra.rays))
        assert cone_contains(c2, c1)
        assert cone_contains(dual(c1), dual(c2))


def test_simplicial_membership_cross_check():
    """For simplicial cones, membership has an independent oracle: solve for
    the coordinates in the ray basis and check signs."""
    from nestcone.linalg import solve_unique

    rng = random.Random(99)
    trials = 0
    while trials < 60:
        dim = rng.randint(2, 5)
        c = random_pointed_cone(rng, dim)
        ext = extremal_rays(c)
        if len(ext.rays) != dim:
            continue
        trials += 1
        mat = [[ext.rays[j][i] for j in range(dim)] for i in range(dim)]
        for _ in range(5):
            v = tuple(rng.randint(-9, 9) for _ in range(dim))
            coeffs = solve_unique(mat, list(v))
            expected_inside = all(x >= 0 for x in coeffs)
            got = position(c, v)
            assert (got != Position.OUTSIDE) == expected_inside, (c.rays, v)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(1, 9),
            st.integers(-9, 9),
            st.integers(-9, 9),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_dual_dual_identity_hypothesis(rays):
    c = cone_from_rays(3, rays)
    dd = dual(dual(c))
    assert cone_equal(c, dd)
    assert extremal_rays(dd).rays == extremal_rays(c).rays


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)),
        min_size=1,
        max_size=5,
    )
)
def test_dual_dual_contains_original_even_with_lineality(rays):
    if all(all(x == 0 for x in r) for r in rays):
        return
    c = cone_from_rays(3, rays)
    dd = dual(dual(c))
    assert cone_contains(dd, c)
    assert cone_equal(c, dd)  # dual-dual is the closure; cones here are closed


_VEC4 = st.tuples(*[st.integers(-5, 5)] * 4)


@settings(max_examples=60, deadline=None)
@given(st.lists(_VEC4, min_size=1, max_size=5), st.lists(_VEC4, min_size=1, max_size=8))
def test_nonnegative_pairings_put_rays_in_the_dual(functionals, candidates):
    """The lemma behind a certificate's single cone test: when every
    pairing w . r is non-negative, cone(R) lies in dual(cone(W))."""
    rays = [
        r for r in candidates if all(sum(a * b for a, b in zip(w, r)) >= 0 for w in functionals)
    ]
    assume(any(any(r) for r in rays) and any(any(w) for w in functionals))
    assert cone_contains(dual(cone_from_rays(4, functionals)), cone_from_rays(4, rays))


# ---------------------------------------------------------------------------
# The bit-matrix kernel: `_transpose` and `_adjacent`
# ---------------------------------------------------------------------------

def scan_adjacent(masks, pairs, floor):
    """The reference test: a scan of every mask for a third ray tight on
    the pair's common constraints."""
    for i, j in pairs:
        common = masks[i] & masks[j]
        if common.bit_count() < floor:
            continue
        tight_on_common = (m for m in masks if m & common == common)
        if next(islice(tight_on_common, 2, None), None) is None:
            yield i, j


_ROWS = st.lists(st.integers(0, 2**9 - 1), max_size=12)


@settings(max_examples=200, deadline=None)
@given(_ROWS)
def test_transpose_is_the_bit_matrix_transpose(rows):
    cols = _transpose(rows)
    assert len(cols) == max(rows, default=0).bit_length()
    for k, col in enumerate(cols):
        assert col == sum((rows[r] >> k & 1) << r for r in range(len(rows)))
    back = _transpose(cols)
    assert back + [0] * (len(rows) - len(back)) == rows


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.just(0), st.integers(0, 2**7 - 1)), min_size=2, max_size=10),
    st.integers(0, 5),
    st.randoms(use_true_random=False),
)
def test_adjacent_matches_the_scan(masks, floor, rng):
    """The grouped pairs of `_dd` (positive x negative rays) and of
    `cross_section` (i < j) give exactly the reference scan's pairs, in its
    order; zero masks make empty common masks, and floor 0 lets them pass."""
    n = len(masks)
    pos = [i for i in range(n) if rng.random() < 0.5]
    neg = [j for j in range(n) if j not in pos]
    assert list(_adjacent(masks, ((i, neg) for i in pos), floor)) == list(
        scan_adjacent(masks, ((i, j) for i in pos for j in neg), floor)
    )
    assert list(_adjacent(masks, ((i, range(i + 1, n)) for i in range(n)), floor)) == list(
        scan_adjacent(masks, combinations(range(n), 2), floor)
    )


def test_two_lone_rays_are_adjacent():
    """With floor 0 and no common constraint, as in a 2-D cross-section,
    two rays are adjacent exactly when there is no third."""
    assert list(_adjacent([0, 0], [(0, [1])], 0)) == [(0, 1)]
    assert list(_adjacent([0, 0, 0], [(0, [1, 2]), (1, [2])], 0)) == []
    assert list(_adjacent([0b01, 0b10], [(0, [1])], 1)) == []


# ---------------------------------------------------------------------------
# The DD pair step: `_pairs` against `_adjacent`
# ---------------------------------------------------------------------------

def dd_steps(c):
    """The (masks, pos, neg, floor) that every pair step of c's DD and of
    dual(c)'s DD is given, recorded by a wrapper around `_pairs`."""
    steps = []
    real = cone_module._pairs

    def recorded(masks, pos, neg, floor):
        steps.append((list(masks), list(pos), list(neg), floor))
        return real(masks, pos, neg, floor)

    with mock.patch.object(cone_module, "_pairs", recorded):
        dual(dual(c))
    return steps


_SMALL = st.integers(-2, 2)


@st.composite
def degenerate_cones(draw):
    """A cone in dimension 2..6 from small entries, with degenerate inputs
    drawn on purpose: several generators on the facet x_1 = 0 of the half
    space x_1 >= 0, repeated directions (scaled copies), +/-v lineality
    pairs, and a lineality space spanned by u_1, ..., u_k and their
    negated sum, k = 2 or 3, with no +/-v pair (a plane spanned by u, v and
    -u-v for k = 2); dimension 2 gives floor 0."""
    d = draw(st.integers(2, 6))
    vec = st.tuples(*[_SMALL] * d)
    rays = draw(st.lists(vec, min_size=1, max_size=8))
    if draw(st.booleans()):
        rays += draw(st.lists(st.tuples(st.just(0), *[_SMALL] * (d - 1)), min_size=2, max_size=5))
        rays = [(abs(r[0]),) + r[1:] for r in rays]
    for r in draw(st.lists(st.sampled_from(rays), max_size=2)):
        rays.append(tuple(2 * x for x in r))
    for line in draw(st.lists(vec, max_size=2)):
        rays += [line, tuple(-x for x in line)]
    if draw(st.booleans()):
        span = draw(st.lists(vec, min_size=2, max_size=3))
        rays += span + [tuple(-sum(col) for col in zip(*span))]
    assume(any(any(r) for r in rays))
    return d, rays


@settings(max_examples=200, deadline=None)
@given(degenerate_cones())
def test_pairs_match_the_third_ray_test(case):
    """At every DD step, the ridge lookup and popcount rule for
    nondegenerate rays give the same pairs as `_adjacent` over pos x neg."""
    d, rays = case
    for masks, pos, neg, floor in dd_steps(Cone(d, rays)):
        want = set(_adjacent(masks, ((i, neg) for i in pos), floor))
        assert set(_pairs(masks, pos, neg, floor)) == want


def pair_steps(cons, dim):
    """The pair steps of `_dd(cons, dim)`: per step, the constraints processed
    before it and the masks, pos, neg and pairs of its `_pairs` call.  The
    DD of cons[:k + 1] repeats the first k steps of the DD of cons, so
    constraint k makes a pair step exactly when that DD calls `_pairs` once
    more than the DD of cons[:k]."""
    calls = []
    real = cone_module._pairs

    def recorded(masks, pos, neg, floor):
        pairs = list(real(masks, pos, neg, floor))
        calls.append((list(masks), list(pos), list(neg), pairs))
        return iter(pairs)

    steps, before = [], 0
    with mock.patch.object(cone_module, "_pairs", recorded):
        for k in range(len(cons)):
            calls.clear()
            cone_module._dd(cons[:k + 1], dim)
            if len(calls) > before:
                steps.append((cons[:k], *calls[-1]))
            before = len(calls)
    return steps


@st.composite
def circuits_first(draw):
    """A cone in dimension 4..6 over u_1, ..., u_k and their negated sum,
    k = 3 .. d - 1, all with x_1 = 0, and over rays with x_1 > 0.  Its DD
    takes the u's and their sum first, and from then on every ray is tight
    on those k + 1 constraints, whose excess is 1 (not (k + 1) // 2)."""
    d = draw(st.integers(4, 6))
    span = draw(st.lists(st.tuples(st.just(0), *[_SMALL] * (d - 1)), min_size=3, max_size=d - 1))
    rays = draw(st.lists(st.tuples(st.integers(1, 2), *[_SMALL] * (d - 1)), min_size=2, max_size=6))
    return d, span + [tuple(-sum(col) for col in zip(*span))] + rays


@settings(max_examples=200, deadline=None)
@given(st.one_of(degenerate_cones(), circuits_first()))
def test_pairs_are_the_adjacent_pairs_of_the_intermediate_cone(case):
    """At every pair step of the DD over c's rays and over dual(c)'s rays,
    `_pairs` returns exactly the adjacent pairs of the cone cut out by the
    constraints processed so far: the pairs (i, j) in pos x neg whose common
    tight constraints have rank D - 2, D the rank of the processed
    constraints (the dimension less the lineality).  The ranks come from
    `linalg.rref`, so the floor `_dd` derives is tested, not assumed."""
    d, rays = case
    c = Cone(d, rays)
    for cons in (c.rays, dual(c).rays):
        for done, masks, pos, neg, got in pair_steps(cons, d):

            def rank(bits):
                return len(rref([a for k, a in enumerate(done) if bits >> k & 1])[1])

            top = rank((1 << len(done)) - 1)
            want = [(i, j) for i in pos for j in neg if rank(masks[i] & masks[j]) == top - 2]
            assert sorted(got) == want


def test_pairs_of_a_nondegenerate_dd_run_no_third_ray_test(monkeypatch):
    """Every ray of the DD over C(16, 8)'s rays is nondegenerate at every
    step, so no bit-matrix transpose is built.  Constraints tight on every
    ray count by their excess, so neither C(12, 6) x a line given as a +/-v
    pair of generators, nor C(12, 6) x a plane or a 3-space spanned by three
    or four generators with no +/-v pair among them, runs a third-ray
    test."""
    transposes, third_ray = [], []
    real_transpose, real_adjacent = cone_module._transpose, cone_module._adjacent
    monkeypatch.setattr(
        cone_module, "_transpose", lambda rows: transposes.append(rows) or real_transpose(rows)
    )

    def adjacent(masks, pairs, floor):
        for pair in real_adjacent(masks, pairs, floor):
            third_ray.append(pair)
            yield pair

    monkeypatch.setattr(cone_module, "_adjacent", adjacent)
    assert len(dual(cone_from_rays(9, moment_rays(16, 8))).rays) == ubt_facets(16, 8)
    assert transposes == [] and third_ray == []

    line = (0,) * 7 + (1,)
    gens = [r + (0,) for r in moment_rays(12, 6)] + [line, tuple(-x for x in line)]
    assert len(dual(cone_from_rays(8, gens)).rays) == ubt_facets(12, 6)
    assert transposes == [] and third_ray == []

    zero = (0,) * 7
    plane = [zero + (1, 0), zero + (0, 1), zero + (-1, -1)]
    gens = [r + (0, 0) for r in moment_rays(12, 6)] + plane
    assert len(dual(cone_from_rays(9, gens)).rays) == ubt_facets(12, 6)
    assert transposes == [] and third_ray == []

    # Three dimensions spanned by four generators: excess 1, not 2.
    space = [zero + (1, 0, 0), zero + (0, 1, 0), zero + (0, 0, 1), zero + (-1, -1, -1)]
    gens = [r + (0, 0, 0) for r in moment_rays(12, 6)] + space
    assert len(dual(cone_from_rays(10, gens)).rays) == ubt_facets(12, 6)
    assert transposes == [] and third_ray == []


def test_a_pm_v_pair_counts_from_its_later_constraint():
    """The constraints -e3 and e3 come after three that already exhaust the
    DD's lineality space, so -e3 goes through a pair step: counting the
    pair there, before e3 makes every ray tight on both, loses a facet."""
    rays = [(-1, -1, 0), (-1, 0, -1), (-1, 0, 0), (0, 0, -1), (0, 0, 1), (0, 1, 0)]
    assert dual(Cone(3, rays)).rays == ((-1, 0, 0), (-1, 1, 0))


def test_pairs_with_an_empty_side_yield_nothing():
    masks = [0b011, 0b110, 0b101]
    assert list(_pairs(masks, [], [0, 1, 2], 1)) == []
    assert list(_pairs(masks, [0, 1, 2], [], 1)) == []
    assert list(_pairs(masks, [0], [1], 1)) == [(0, 1)]


@settings(max_examples=200, deadline=None)
@given(st.one_of(degenerate_cones(), cones()))
def test_dd_returns_distinct_primitive_rays_with_their_tight_masks(case):
    """Over c's rays and over dual(c)'s rays, in whatever order `_dd` makes
    them: every ray is a distinct primitive int vector, nonnegative on every
    constraint, and its mask holds exactly the constraints it is tight on;
    every lineality vector is tight on all constraints."""
    d, rays = case
    c = Cone(d, rays)
    for cons in (c.rays, dual(c).rays):
        lin, out, masks = cone_module._dd(cons, d)
        assert len(out) == len(masks) and len(set(out)) == len(out)
        for v, m in zip(out, masks):
            assert len(v) == d and all(type(x) is int for x in v) and gcd(*v) == 1
            scores = [sum(a * x for a, x in zip(con, v)) for con in cons]
            assert min(scores, default=0) >= 0
            assert m == sum(1 << k for k, s in enumerate(scores) if s == 0)
        assert all(sum(a * x for a, x in zip(con, l)) == 0 for l in lin for con in cons)


# ---------------------------------------------------------------------------
# `dual` and `extremal_rays` adopt rays already in stored form
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(degenerate_cones())
def test_adopted_rays_are_in_stored_form(case):
    """`dual` takes over c's facet normals, and `extremal_rays` of a pointed
    cone its extremal generators, without renormalizing them: they are what
    `Cone.__init__` would store (sorted, distinct, nonzero, primitive), so
    rays and hash agree with the cone built from them."""
    d, rays = case
    c = Cone(d, rays)
    assert dual(c).rays is c.facet_normals
    for adopted in [dual(c)] + ([extremal_rays(c)] if c.is_pointed else []):
        built = Cone(adopted.dim, adopted.rays)
        assert adopted.rays == built.rays and hash(adopted) == hash(built)
