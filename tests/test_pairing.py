import csv
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestcone as nc
from nestcone.errors import Inconsistent, NotK3, RangeError, SpaceMismatch, UnderDetermined
from nestcone.linalg import solve_unique
from nestcone.rationals import canonical_csv


def F(x):
    return Fraction(x)


SURFACES = [nc.p2(), nc.p1xp1(), nc.hirzebruch(1), nc.hirzebruch(2), nc.k3(3)]


def gammas(surface):
    """Curve classes on the surface with small coefficients, including the
    negative-self-intersection section of a Hirzebruch surface."""
    if surface.rank == 1:
        return [(m,) for m in (1, 2, 3)]
    out = [
        (m1, m2)
        for m1 in range(0, 4)
        for m2 in range(0, 4)
        if (m1, m2) != (0, 0)
    ]
    if surface.index:
        out.append((1, -surface.index))  # the section E = H - iF
    return out


def gamma_dot(surface, gamma, j):
    return sum(F(m) * surface.gram[i][j] for i, m in enumerate(gamma))


# ---------------------------------------------------------------------------
# Base pairing rules
# ---------------------------------------------------------------------------

def test_pairing_rules_hilb():
    s, sp = nc.p2(), nc.hilb(3)
    h, b2 = nc.divisor(s, sp, "H"), nc.divisor(s, sp, "B/2")
    c1, a = nc.curve(s, sp, "C1"), nc.curve(s, sp, "A")
    assert nc.pair(h, c1) == 1
    assert nc.pair(b2, c1) == 0
    assert nc.pair(h, a) == 0
    assert nc.pair(b2, a) == -1


def test_pairing_rules_nested():
    s, sp = nc.p2(), nc.nested(3)
    hd, hb = nc.divisor(s, sp, "Hdiff"), nc.divisor(s, sp, "Hb")
    bd, bb = nc.divisor(s, sp, "Bdiff/2"), nc.divisor(s, sp, "Bb/2")
    ca, cb = nc.curve(s, sp, "Ca1"), nc.curve(s, sp, "Cb1")
    aa, ab = nc.curve(s, sp, "Aa"), nc.curve(s, sp, "Ab")
    table = {
        (hd, ca): 1, (hd, cb): 0, (hd, aa): 0, (hd, ab): 0,
        (hb, ca): 0, (hb, cb): 1, (hb, aa): 0, (hb, ab): 0,
        (bd, ca): 0, (bd, cb): 0, (bd, aa): -1, (bd, ab): 1,
        (bb, ca): 0, (bb, cb): 0, (bb, aa): 0, (bb, ab): -1,
    }
    for (d, c), v in table.items():
        assert nc.pair(d, c) == v


def test_pairing_rules_univ():
    s, sp = nc.p2(), nc.univ(3)
    hd, hb, b2 = (
        nc.divisor(s, sp, "Hdiff"),
        nc.divisor(s, sp, "Hb"),
        nc.divisor(s, sp, "B/2"),
    )
    ca, cb, aa = nc.curve(s, sp, "Ca1"), nc.curve(s, sp, "Cb1"), nc.curve(s, sp, "Aa")
    assert nc.pair(hd, ca) == 1 and nc.pair(hb, ca) == 0 and nc.pair(b2, ca) == 0
    assert nc.pair(hd, cb) == 0 and nc.pair(hb, cb) == 1 and nc.pair(b2, cb) == 0
    assert nc.pair(hd, aa) == 0 and nc.pair(hb, aa) == 0 and nc.pair(b2, aa) == -1


def test_pair_requires_classes_on_one_space():
    s = nc.p2()
    with pytest.raises(SpaceMismatch, match="same space: hilb\\(3\\) vs hilb\\(2\\)"):
        nc.pair(nc.divisor(s, nc.hilb(3), "H"), nc.curve(s, nc.hilb(2), "A"))


def test_pairing_gram_coupling_p1xp1():
    s, sp = nc.p1xp1(), nc.hilb(2)
    # C_i . H_j = g_ij with the hyperbolic gram matrix: C1 is dual to H2.
    assert nc.pair(nc.divisor(s, sp, "H1"), nc.curve(s, sp, "C1")) == 0
    assert nc.pair(nc.divisor(s, sp, "H2"), nc.curve(s, sp, "C1")) == 1
    assert nc.pair(nc.divisor(s, sp, "H1"), nc.curve(s, sp, "C2")) == 1


def test_pairing_table_csv():
    t = nc.pairing_table(nc.p2(), nc.hilb(2))
    text = t.to_csv()
    assert text.splitlines()[0] == ",H,B/2"
    assert "A,0,-1" in text
    # Generator names holding a comma or a quote are quoted fields.
    for name in ("H,1", 'H"1'):
        s = nc.SurfaceModel(key="x", rank=1, generator_names=(name,), gram=((1,),), canonical=(0,))
        text = nc.pairing_table(s, nc.hilb(2)).to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows == [["", name, "B/2"], ["C1", "1", "0"], ["A", "0", "-1"]]
        assert canonical_csv(rows) == text


# ---------------------------------------------------------------------------
# Curve families: collision-count oracle
#
# The oracle values are geometric collision counts, frozen here as literals:
# a family sweeping gamma with r points on the curve meets the nonreduced
# loci the stated number of times.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.key)
@pytest.mark.parametrize("n", [2, 4, 7])
def test_collision_counts_hilb(surface, n):
    sp = nc.hilb(n)
    for gamma in gammas(surface):
        for r in range(1, n + 1):
            c = nc.curve_family_a(surface, sp, gamma, r)
            for j, name in enumerate(surface.generator_names):
                d = nc.divisor(surface, sp, name)
                assert nc.pair(d, c) == gamma_dot(surface, gamma, j)
            assert nc.pair(nc.divisor(surface, sp, "B/2"), c) == r - 1


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.key)
@pytest.mark.parametrize("n", [2, 4, 7])
def test_collision_counts_nested(surface, n):
    sp = nc.nested(n)
    bd = nc.divisor(surface, sp, "Bdiff/2")
    bb = nc.divisor(surface, sp, "Bb/2")
    for gamma in gammas(surface):
        for r in range(1, n + 2):
            ca = nc.curve_family_a(surface, sp, gamma, r)
            assert nc.pair(bd, ca) == r - 1
            assert nc.pair(bb, ca) == 0
        for r in range(1, n + 1):
            cb = nc.curve_family_b(surface, sp, gamma, r)
            # the moving smaller subscheme has r-1 collisions; the residual
            # point crosses it exactly once
            assert nc.pair(bd, cb) == 1
            assert nc.pair(bb, cb) == r - 1


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.key)
@pytest.mark.parametrize("n", [2, 4, 7])
def test_collision_counts_univ(surface, n):
    sp = nc.univ(n)
    b2 = nc.divisor(surface, sp, "B/2")
    for gamma in gammas(surface):
        for r in range(1, n):
            ca = nc.curve_family_a(surface, sp, gamma, r)
            assert nc.pair(b2, ca) == r  # marked point rides along: r, not r-1
        for r in range(1, n + 1):
            cb = nc.curve_family_b(surface, sp, gamma, r)
            assert nc.pair(b2, cb) == r - 1


def test_curve_family_ranges():
    s = nc.p2()
    with pytest.raises(RangeError):
        nc.curve_family_a(s, nc.hilb(3), 1, 4)
    with pytest.raises(RangeError):
        nc.curve_family_a(s, nc.hilb(3), 1, 0)
    with pytest.raises(RangeError):
        nc.curve_family_a(s, nc.nested(3), 1, 5)  # max is n+1
    with pytest.raises(RangeError):
        nc.curve_family_b(s, nc.nested(3), 1, 4)  # max is n
    with pytest.raises(RangeError):
        nc.curve_family_a(s, nc.univ(3), 1, 3)  # max is n-1


# ---------------------------------------------------------------------------
# Pushforward identities (the typo regression)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.key)
@pytest.mark.parametrize("n", range(2, 9))
def test_pushforward_identities_nested(surface, n):
    sp = nc.nested(n)
    for gamma in gammas(surface):
        for r in range(1, n + 1):
            cb = nc.curve_family_b(surface, sp, gamma, r)
            up = nc.pushforward_a(cb)
            assert up.coords == nc.curve_family_a(surface, nc.hilb(n + 1), gamma, r + 1).coords
            down = nc.pushforward_b(cb)
            assert down.coords == nc.curve_family_a(surface, nc.hilb(n), gamma, r).coords
        for r in range(1, n + 2):
            ca = nc.curve_family_a(surface, sp, gamma, r)
            up = nc.pushforward_a(ca)
            assert up.coords == nc.curve_family_a(surface, nc.hilb(n + 1), gamma, r).coords
            assert nc.pushforward_b(ca).is_zero()


def test_legacy_b_convention_breaks_pushforward():
    """The constant -A^a coefficient printed in the legacy table violates the
    pushforward identity for r >= 2; the corrected -r A^a passes (see the
    tests above).  This documents the correction."""
    s, n = nc.p2(), 4
    sp = nc.nested(n)
    for r in range(2, n + 1):
        cb_alt = nc.curve_family_b_alt(s, sp, 1, r)
        up = nc.pushforward_a(cb_alt)
        assert up.coords != nc.curve_family_a(s, nc.hilb(n + 1), 1, r + 1).coords


def test_pushforward_nested1_to_surface():
    s = nc.p2()
    sp = nc.nested(1)
    cb = nc.curve(s, sp, "Cb1") + 2 * nc.curve(s, sp, "Ab")
    down = nc.pushforward_b(cb)
    assert down.space == nc.surface_space()
    assert down.coords == (F(1),)  # Ab dies: B and A vanish on X^[1] = X


def test_pushforward_univ():
    s, n = nc.p2(), 3
    sp = nc.univ(n)
    for r in range(1, n):
        ca = nc.curve_family_a(s, sp, 1, r)
        # the a-side family maps to a family with r+1 collisions counted by A
        assert nc.pushforward_a(ca).coords == nc.curve_family_a(s, nc.hilb(n), 1, r + 1).coords
    for r in range(1, n + 1):
        cb = nc.curve_family_b(s, sp, 1, r)
        assert nc.pushforward_a(cb).coords == nc.curve_family_a(s, nc.hilb(n), 1, r).coords
        down = nc.pushforward_b(cb)
        assert down.space == nc.surface_space()
        assert down.coords == (F(1),)


# ---------------------------------------------------------------------------
# K3 nodal curves and the extremal slope
# ---------------------------------------------------------------------------

def test_k3_nodal_curves():
    g, n = 3, 4
    s = nc.k3(g)
    ca, cb = nc.nodal_curves_k3(s, nc.nested(n))
    assert ca.coords == (F(1), F(0), F(-(n + g)), F(0))
    assert cb.coords == (F(0), F(1), F(-(n + g)), F(-(n - 1 + g)))
    ca_u, cb_u = nc.nodal_curves_k3(s, nc.univ(n))
    assert ca_u.coords == (F(1), F(0), F(-(n - 1 + g)))
    assert cb_u.coords == (F(0), F(1), F(-(n - 1 + g)))
    c_h, none = nc.nodal_curves_k3(s, nc.hilb(n))
    assert c_h.coords == (F(1), F(-(n - 1 + g)))
    assert none is None


def test_k3_nodal_validation():
    with pytest.raises(NotK3):
        nc.nodal_curves_k3(nc.p2(), nc.nested(4))
    with pytest.raises(RangeError):
        nc.nodal_curves_k3(nc.k3(3), nc.nested(3))  # needs n > g
    with pytest.raises(SpaceMismatch, match="not surface"):
        nc.nodal_curves_k3(nc.k3(3), nc.surface_space())
    with pytest.raises(SpaceMismatch, match="lives on Hilbert schemes"):
        nc.g1n_curve(nc.k3(3), nc.nested(4))


def test_k3_extremal_slope():
    assert nc.k3_extremal_slope(3, 4) == Fraction(6, 4)
    assert nc.k3_extremal_slope(3, 10) == Fraction(12, 4)
    assert nc.k3_extremal_slope(5, 6) == Fraction(10, 8)


def test_g1n_curve():
    s = nc.k3(3)
    c = nc.g1n_curve(s, nc.hilb(4))
    assert c.coords == (F(1), F(-6))


# ---------------------------------------------------------------------------
# Reconstruction from prescribed pairings
# ---------------------------------------------------------------------------

def test_reconstruction_errors():
    """A divisor is its unique solution of `solve_unique` over the curve
    functionals and the prescribed pairings; too few pairings leave it
    underdetermined, and contradictory ones admit none."""
    s, sp = nc.p2(), nc.nested(3)
    f = {lab: nc.curve_functional(nc.curve(s, sp, lab)) for lab in nc.curve_labels(s, sp)}
    target = (
        2 * nc.divisor(s, sp, "Hdiff")
        - nc.divisor(s, sp, "Bb/2")
        + 5 * nc.divisor(s, sp, "Hb")
    )
    values = [nc.pair(target, nc.curve(s, sp, lab)) for lab in f]
    assert solve_unique(list(f.values()), values) == list(target.coords)
    with pytest.raises(UnderDetermined):
        solve_unique([f["Ca1"]], [1])
    with pytest.raises(Inconsistent):
        solve_unique([f["Ca1"], f["Ca1"], f["Cb1"], f["Aa"], f["Ab"]], [1, 2, 0, 0, 0])


# ---------------------------------------------------------------------------
# Property tests: bilinearity
# ---------------------------------------------------------------------------

coeffs = st.integers(min_value=-5, max_value=5)


@settings(max_examples=30, deadline=None)
@given(a=coeffs, b=coeffs, c=coeffs, d=coeffs)
def test_pair_bilinear(a, b, c, d):
    s, sp = nc.p1xp1(), nc.nested(2)
    d1 = a * nc.divisor(s, sp, "H1diff") + b * nc.divisor(s, sp, "Bb/2")
    d2 = nc.divisor(s, sp, "H2b")
    c1 = c * nc.curve(s, sp, "Ca1") + d * nc.curve(s, sp, "Ab")
    c2 = nc.curve(s, sp, "Aa")
    assert nc.pair(d1 + d2, c1) == nc.pair(d1, c1) + nc.pair(d2, c1)
    assert nc.pair(d1, c1 + c2) == nc.pair(d1, c1) + nc.pair(d1, c2)


# ---------------------------------------------------------------------------
# Property test: the projection formula
# ---------------------------------------------------------------------------

PROJECTION_SURFACES = [nc.p2(), nc.p1xp1(), nc.hirzebruch(2), nc.k3(4)]
small_rats = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def projection_cases(draw):
    """A space X^[n+1,n] or X^[n,1], one of its projections, the space the
    projection maps to, and random classes on both ends."""
    s = draw(st.sampled_from(PROJECTION_SURFACES))
    kind = draw(st.sampled_from(["nested", "univ"]))
    side = draw(st.sampled_from(["a", "b"]))
    if kind == "nested":
        n = draw(st.integers(min_value=1, max_value=6))
        sp = nc.nested(n)
        src = nc.hilb(n + 1) if side == "a" else (nc.hilb(n) if n >= 2 else nc.surface_space())
    else:
        n = draw(st.integers(min_value=2, max_value=6))
        sp = nc.univ(n)
        src = nc.hilb(n) if side == "a" else nc.surface_space()
    d = nc.DivClass(s, src, draw(st.lists(small_rats, min_size=nc.divisor_rank(s, src),
                                          max_size=nc.divisor_rank(s, src))))
    c = nc.CurClass(s, sp, draw(st.lists(small_rats, min_size=nc.curve_rank(s, sp),
                                         max_size=nc.curve_rank(s, sp))))
    return side, sp, d, c


@settings(max_examples=200, deadline=None)
@given(case=projection_cases())
def test_projection_formula(case):
    """pair(pull_x D, C) == pair(D, pushforward_x C) for x in {a, b}."""
    side, sp, d, c = case
    pull = nc.pull_a if side == "a" else nc.pull_b
    push = nc.pushforward_a if side == "a" else nc.pushforward_b
    assert push(c).space == d.space
    assert nc.pair(pull(d, sp), c) == nc.pair(d, push(c))


@st.composite
def paired_classes(draw):
    """A random divisor and a random curve class on one of the spaces X,
    X^[n], X^[n+1,n] or X^[n,1] over a surface of PROJECTION_SURFACES."""
    s = draw(st.sampled_from(PROJECTION_SURFACES))
    kind = draw(st.sampled_from(["surface", "hilb", "nested", "univ"]))
    n = draw(st.integers(min_value=2, max_value=6))
    sp = nc.surface_space() if kind == "surface" else getattr(nc, kind)(n)

    def coords(rank):
        return draw(st.lists(small_rats, min_size=rank, max_size=rank))

    d = nc.DivClass(s, sp, coords(nc.divisor_rank(s, sp)))
    return d, nc.CurClass(s, sp, coords(nc.curve_rank(s, sp)))


@settings(max_examples=200, deadline=None)
@given(case=paired_classes())
def test_curve_functional_matches_pair(case):
    """pair and curve_functional agree with the pairing table summed out
    term by term: sum_r sum_j c_r M[r][j] d_j."""
    d, c = case
    m = nc.pairing_table(d.surface, d.space).matrix
    expected = sum(
        (cr * m[r][j] * dj for r, cr in enumerate(c.coords) for j, dj in enumerate(d.coords)),
        F(0),
    )
    f = nc.curve_functional(c)
    assert sum(x * y for x, y in zip(f, d.coords, strict=True)) == expected
    assert nc.pair(d, c) == expected
    # the normal form vdot returns: an int wherever an entry is integral
    assert all(type(x) is int or x.denominator > 1 for x in f)
