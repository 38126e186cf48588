from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestcone as nc
from nestcone.errors import (
    InvalidGenus,
    InvalidIndex,
    NotK3,
    RangeError,
    SpaceMismatch,
)


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# Surface models
# ---------------------------------------------------------------------------

def test_surface_models():
    s = nc.p2()
    assert s.rank == 1
    assert s.gram == ((F(1),),)
    assert s.canonical == (F(-3),)

    q = nc.p1xp1()
    assert q.rank == 2
    assert q.gram == ((F(0), F(1)), (F(1), F(0)))
    assert q.canonical == (F(-2), F(-2))

    f2 = nc.hirzebruch(2)
    assert f2.gram == ((F(2), F(1)), (F(1), F(0)))
    assert f2.canonical == (F(-2), F(0))

    k = nc.k3(3)
    assert k.rank == 1
    assert k.gram == ((F(4),),)
    assert k.canonical == (F(0),)
    assert k.genus == 3


def test_surface_model_validation():
    with pytest.raises(InvalidGenus):
        nc.k3(2)
    with pytest.raises(InvalidGenus):
        nc.k3(1)
    with pytest.raises(InvalidIndex):
        nc.hirzebruch(-1)
    nc.k3(3)  # boundary accepted


def test_surface_model_factory():
    assert nc.surface_model("p2") == nc.p2()
    assert nc.surface_model("p1xp1") == nc.p1xp1()
    with pytest.raises(nc.UnknownSurface):
        nc.surface_model("f")  # F_i is spelt f<i>
    assert nc.surface_model("f2") == nc.hirzebruch(2)
    assert nc.surface_model("k3", genus=4) == nc.k3(4)


def test_surface_model_f0_and_unknown_kind():
    f0 = nc.surface_model("f0")
    assert f0 == nc.hirzebruch(0)
    assert f0.generator_names == ("H", "F")
    assert f0.gram == nc.p1xp1().gram
    with pytest.raises(nc.UnknownSurface):
        nc.surface_model("p3")
    assert issubclass(nc.UnknownSurface, nc.NestconeError)


# ---------------------------------------------------------------------------
# Spaces, ranks, labels
# ---------------------------------------------------------------------------

def test_space_validation():
    with pytest.raises(RangeError):
        nc.hilb(1)
    with pytest.raises(RangeError):
        nc.nested(0)
    with pytest.raises(RangeError):
        nc.univ(1)
    nc.nested(1)  # the n=1 nested space is allowed


@pytest.mark.parametrize(
    "surface,space,rank",
    [
        (nc.p2(), nc.hilb(3), 2),
        (nc.p2(), nc.nested(3), 4),
        (nc.p2(), nc.univ(3), 3),
        (nc.p1xp1(), nc.hilb(3), 3),
        (nc.p1xp1(), nc.nested(3), 6),
        (nc.p1xp1(), nc.univ(3), 5),
        (nc.k3(3), nc.nested(4), 4),
    ],
)
def test_ranks(surface, space, rank):
    assert nc.divisor_rank(surface, space) == rank
    assert nc.curve_rank(surface, space) == rank


def test_labels():
    assert nc.divisor_labels(nc.p2(), nc.hilb(3)) == ("H", "B/2")
    assert nc.divisor_labels(nc.p2(), nc.nested(3)) == (
        "Hdiff", "Hb", "Bdiff/2", "Bb/2",
    )
    assert nc.divisor_labels(nc.p2(), nc.univ(3)) == ("Hdiff", "Hb", "B/2")
    assert nc.divisor_labels(nc.p1xp1(), nc.univ(3)) == (
        "H1diff", "H2diff", "H1b", "H2b", "B/2",
    )
    assert nc.curve_labels(nc.p2(), nc.hilb(3)) == ("C1", "A")
    assert nc.curve_labels(nc.p2(), nc.nested(3)) == ("Ca1", "Cb1", "Aa", "Ab")
    assert nc.curve_labels(nc.p2(), nc.univ(3)) == ("Ca1", "Cb1", "Aa")


def test_normalize_label():
    assert nc.normalize_label("A^b") == "Ab"
    assert nc.normalize_label("B^b/2") == "Bb/2"
    assert nc.normalize_label("H^diff") == "Hdiff"
    assert nc.normalize_label("Hb") == "Hb"


def test_label_lookup_with_carets():
    s, sp = nc.p2(), nc.nested(2)
    assert nc.curve(s, sp, "A^b") == nc.curve(s, sp, "Ab")
    assert nc.divisor(s, sp, "B^b/2") == nc.divisor(s, sp, "Bb/2")


# ---------------------------------------------------------------------------
# Class arithmetic
# ---------------------------------------------------------------------------

def test_class_arithmetic_and_mismatch():
    s, sp = nc.p2(), nc.hilb(2)
    h = nc.divisor(s, sp, "H")
    b2 = nc.divisor(s, sp, "B/2")
    d = 2 * h - b2
    assert d.coords == (F(2), F(-1))
    assert (d - d).is_zero()
    assert (-d).coords == (F(-2), F(1))
    with pytest.raises(SpaceMismatch):
        h + nc.divisor(s, nc.hilb(3), "H")
    with pytest.raises(SpaceMismatch):
        h + nc.divisor(nc.k3(3), sp, "H")


def test_classes_are_immutable_values():
    s, sp = nc.p2(), nc.hilb(2)
    d = nc.DivClass(s, sp, (1, Fraction(2, 2)))
    same = nc.divisor(s, sp, "H") + nc.divisor(s, sp, "B/2")
    assert d == same and hash(d) == hash(same) and len({d, same}) == 1
    assert d.coords == (1, 1) and type(d.coords[1]) is int
    c = nc.CurClass(s, sp, d.coords)
    assert d != c and c != d and len({d, c}) == 2
    assert d != nc.DivClass(s, nc.hilb(3), d.coords)
    with pytest.raises(AttributeError):
        d.coords = (0, 0)
    with pytest.raises(AttributeError):
        del d.coords
    with pytest.raises(AttributeError):
        d.label = "H + B/2"
    assert d.coords == (1, 1)
    with pytest.raises(SpaceMismatch):
        nc.DivClass(s, sp, (1,))


def test_expression_roundtrip():
    from nestcone.cli import parse_divisor_expr

    s, sp = nc.p1xp1(), nc.nested(3)
    d = (
        Fraction(3, 2) * nc.divisor(s, sp, "H1diff")
        - nc.divisor(s, sp, "Bb/2")
        + 2 * nc.divisor(s, sp, "H2b")
    )
    again = parse_divisor_expr(d.expression(), s, sp)
    assert again.coords == d.coords
    zero = nc.zero_divisor(s, sp)
    assert zero.expression() == "0" and parse_divisor_expr("0", s, sp) == zero


# ---------------------------------------------------------------------------
# Pullbacks, tautological classes, canonical class
# ---------------------------------------------------------------------------

def test_pull_a_to_nested():
    s = nc.p2()
    d = nc.divisor(s, nc.hilb(4), "H") + 3 * nc.divisor(s, nc.hilb(4), "B/2")
    up = nc.pull_a(d, nc.nested(3))
    # H -> Hdiff + Hb, B/2 -> Bdiff/2 + Bb/2
    assert up.coords == (F(1), F(1), F(3), F(3))


def test_pull_b_to_nested():
    s = nc.p2()
    d = nc.divisor(s, nc.hilb(3), "H") - nc.divisor(s, nc.hilb(3), "B/2")
    up = nc.pull_b(d, nc.nested(3))
    assert up.coords == (F(0), F(1), F(0), F(-1))


def test_pull_b_nested1_from_surface():
    s = nc.p2()
    d = nc.surface_divisor(s, 2)
    up = nc.pull_b(d, nc.nested(1))
    assert up.coords == (F(0), F(2), F(0), F(0))


def test_pulls_to_univ():
    s = nc.p2()
    d = nc.divisor(s, nc.hilb(3), "H") + nc.divisor(s, nc.hilb(3), "B/2")
    up = nc.pull_a(d, nc.univ(3))
    assert up.coords == (F(1), F(1), F(1))
    down = nc.pull_b(nc.surface_divisor(s, 5), nc.univ(3))
    assert down.coords == (F(0), F(5), F(0))
    res = nc.pull_res(nc.surface_divisor(s, 5), nc.univ(3))
    assert res.coords == (F(5), F(0), F(0))


def test_tautological_classes():
    s = nc.p2()
    t = nc.tautological(s, 3, 2)
    assert t.coords == (F(2), F(-1))
    ta = nc.tautological_a(s, nc.nested(3), 2)
    assert ta.coords == (F(2), F(2), F(-1), F(-1))
    tb = nc.tautological_b(s, nc.nested(3), 2)
    assert tb.coords == (F(0), F(2), F(0), F(-1))
    tu = nc.tautological_a(s, nc.univ(3), 2)
    assert tu.coords == (F(2), F(2), F(-1))
    q = nc.p1xp1()
    tq = nc.tautological(q, 3, (1, 2))
    assert tq.coords == (F(1), F(2), F(-1))
    with pytest.raises(SpaceMismatch):
        nc.tautological_b(s, nc.nested(1), 1)


def test_surface_coords_match_the_surface_rank():
    q = nc.p1xp1()
    with pytest.raises(SpaceMismatch, match="has rank 2; pass a length-2 vector"):
        nc.surface_divisor(q, 1)
    with pytest.raises(SpaceMismatch, match="^expected 2 surface coefficients, got 3$"):
        nc.surface_divisor(q, (1, 0, 0))


def test_bare_float_coefficient_gets_rats_error():
    for make in (lambda: nc.surface_divisor(nc.p2(), 0.5), lambda: nc.tautological(nc.p2(), 2, 0.5)):
        with pytest.raises(TypeError, match="cannot build an exact rational from float"):
            make()
    assert nc.surface_divisor(nc.p2(), "1/2").coords == (Fraction(1, 2),)


def test_exceptional_class():
    s = nc.p2()
    e = nc.exceptional_class(s, nc.nested(3))
    assert e.coords == (F(0), F(0), F(1), F(0))


def test_canonical_class_p2_nested():
    s = nc.p2()
    for n in range(1, 11):
        k = nc.canonical_class(s, nc.nested(n))
        assert k.coords == (F(-3), F(-3), F(1), F(0))


def test_canonical_class_other_surfaces():
    q = nc.p1xp1()
    k = nc.canonical_class(q, nc.nested(2))
    # K = pull_b(K_hilb) + pull_res(K_X) + Bdiff/2
    assert k.coords == (F(-2), F(-2), F(-2), F(-2), F(1), F(0))
    s3 = nc.k3(3)
    kk = nc.canonical_class(s3, nc.nested(4))
    assert kk.coords == (F(0), F(0), F(1), F(0))


# ---------------------------------------------------------------------------
# Property tests: linearity of the pull maps
# ---------------------------------------------------------------------------

coeffs = st.integers(min_value=-6, max_value=6)


@settings(max_examples=25, deadline=None)
@given(a=coeffs, b=coeffs, c=coeffs)
def test_pull_a_linear(a, b, c):
    s = nc.p2()
    x = a * nc.divisor(s, nc.hilb(4), "H") + b * nc.divisor(s, nc.hilb(4), "B/2")
    y = c * nc.divisor(s, nc.hilb(4), "H")
    lhs = nc.pull_a(x + y, nc.nested(3))
    rhs = nc.pull_a(x, nc.nested(3)) + nc.pull_a(y, nc.nested(3))
    assert lhs.coords == rhs.coords


@settings(max_examples=25, deadline=None)
@given(a=coeffs, b=coeffs)
def test_pull_b_then_pair_matches_surface_degree(a, b):
    # pull_b preserves the b-side pairing: Cb1 . pull_b(D) = deg(D) on P2.
    s = nc.p2()
    d = nc.surface_divisor(s, a)
    up = nc.pull_b(d, nc.univ(3)) + b * nc.divisor(s, nc.univ(3), "B/2")
    cb1 = nc.curve(s, nc.univ(3), "Cb1")
    assert nc.pair(up, cb1) == F(a)


def test_g1n_requires_k3():
    with pytest.raises(NotK3):
        nc.g1n_curve(nc.p2(), nc.hilb(4))
