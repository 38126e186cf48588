import re
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
    for kind, genus in [("p2", 5), ("p1xp1", 3), ("F1", -7)]:  # only k3 takes a genus
        with pytest.raises(InvalidGenus, match=f"only k3 takes a genus, not {kind.lower()!r}"):
            nc.surface_model(kind, genus=genus)


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


# ---------------------------------------------------------------------------
# Shared records: interned surfaces, spaces and unit classes
# ---------------------------------------------------------------------------

def test_surfaces_spaces_and_unit_classes_are_shared():
    s, sp = nc.p2(), nc.nested(3)
    assert nc.p2() is s and nc.p1xp1() is nc.p1xp1()
    assert nc.hirzebruch(2) is nc.hirzebruch(2) and nc.k3(3) is nc.k3(3)
    assert nc.surface_model("p2") is s
    assert nc.hilb(3) is nc.hilb(3) and nc.univ(3) is nc.univ(3) and nc.nested(3) is sp
    assert nc.surface_space() is nc.surface_space()
    assert nc.divisor(s, sp, "Hb") is nc.divisor(s, sp, "Hb")
    assert nc.curve(s, sp, "Ab") is nc.curve(s, sp, "Ab")
    # an equal record built by hand keys the same shared class
    assert nc.divisor(nc.SurfaceModel(*s), nc.SpaceId(*sp), "Hb") is nc.divisor(s, sp, "Hb")


def test_shared_unit_classes_refuse_assignment():
    s, sp = nc.p2(), nc.hilb(2)
    h = nc.divisor(s, sp, "H")
    with pytest.raises(AttributeError):
        h.coords = (0, 0)
    with pytest.raises(AttributeError):
        del h.space
    assert nc.divisor(s, sp, "H").coords == (1, 0)


def test_unknown_label_raises_on_every_call():
    s, sp = nc.p2(), nc.hilb(2)
    for _ in range(3):
        with pytest.raises(SpaceMismatch, match="no divisor basis label 'Hb'"):
            nc.divisor(s, sp, "Hb")
        with pytest.raises(SpaceMismatch, match="no curve basis label 'Ab'"):
            nc.curve(s, sp, "Ab")


def test_class_from_a_generator_of_coordinates():
    s, sp = nc.p2(), nc.nested(2)
    coords = (1, Fraction(1, 2), -3, 0)
    d = nc.DivClass(s, sp, (x for x in coords))
    assert d.coords == coords and d == nc.DivClass(s, sp, coords)
    assert nc.CurClass(s, sp, (x for x in (1, 2, 3, 4))).coords == (1, 2, 3, 4)
    with pytest.raises(TypeError, match="bool is not a rational scalar"):
        nc.DivClass(s, sp, (True, 0, 0, 0))


# (constructor, its parameter, error, the smallest valid int): each bad
# value is refused before and after the equal valid int fills the cache,
# and a keyword call, which the cache would key apart, is refused.
_INT_ARG_CONSTRUCTORS = [
    (nc.hirzebruch, "i", InvalidIndex, 0),
    (nc.k3, "g", InvalidGenus, 3),
    (nc.hilb, "n", RangeError, 2),
    (nc.nested, "n", RangeError, 1),
    (nc.univ, "n", RangeError, 2),
]


@pytest.mark.parametrize("make, param, error, low", _INT_ARG_CONSTRUCTORS)
def test_constructors_refuse_non_int_arguments(make, param, error, low):
    make.cache_clear()
    bad = [True, False, 2.0, 2.5, float(low), float(low + 1)]
    for x in bad:
        with pytest.raises(error, match="must be an int"):
            make(x)
    for x in bad:
        if x == int(x) >= low:
            assert make(int(x)) is make(int(x))
            with pytest.raises(TypeError, match="positional-only"):
                make(**{param: int(x)})
        with pytest.raises(error, match="must be an int"):
            make(x)
        with pytest.raises(TypeError, match="positional-only"):
            make(**{param: x})


def test_hand_built_space_ids_are_checked():
    assert nc.SpaceId("nested", 3) == nc.nested(3)
    assert nc.SpaceId("nested", 3).kind is nc.SpaceKind.NESTED
    for make in (
        lambda: nc.SpaceId(nc.SpaceKind.NESTED, True),
        lambda: nc.SpaceId(nc.SpaceKind.HILB, 2.0),
        lambda: nc.SpaceId(nc.SpaceKind.UNIV),
        lambda: nc.SpaceId(nc.SpaceKind.SURFACE, 0),
        lambda: nc.hilb(3)._replace(n=1),
        lambda: nc.SpaceId._make((nc.SpaceKind.NESTED, 0)),
    ):
        with pytest.raises(RangeError):
            make()
    with pytest.raises(ValueError):
        nc.SpaceId("grassmannian", 2)


def test_surface_model_passes_a_bad_genus_to_k3():
    with pytest.raises(InvalidGenus, match="must be an int"):
        nc.surface_model("k3", genus=3.0)


def _old_basis_map(x, target, rules):
    """`basis_map` as it read before it compiled its rules: every call
    walks the rule strings."""
    _, source = nc.layout(x.surface, x.space, x.layout_table)
    labels, dest = nc.layout(x.surface, target, x.layout_table)
    out = [0] * len(labels)
    for entry, image in rules.items():
        for part in image.split(" + "):
            if part not in dest:
                raise SpaceMismatch(f"{target} has no basis class {part}")
            for k, j in zip(source[entry], dest[part], strict=True):
                out[j] += x.coords[k]
    return type(x)(x.surface, target, tuple(out))


_SURFACES = st.sampled_from(
    [nc.p2(), nc.p1xp1(), nc.hirzebruch(0), nc.hirzebruch(3), nc.k3(3), nc.k3(7)]
)
_RATS = st.fractions(min_value=-9, max_value=9, max_denominator=4).map(nc.rat)


@settings(max_examples=60, deadline=None)
@given(surface=_SURFACES, kind=st.sampled_from(["nested", "univ"]),
       n=st.integers(1, 6), data=st.data())
def test_compiled_maps_agree_with_walking_the_rules(surface, kind, n, data):
    if kind == "univ":
        n = max(n, 2)
    sp = nc.nested(n) if kind == "nested" else nc.univ(n)

    def rand(cls, space):
        rank = len(nc.layout(surface, space, cls.layout_table)[0])
        return cls(surface, space, data.draw(st.lists(_RATS, min_size=rank, max_size=rank)))

    src_a, src_b = nc.pr_a_space(sp), nc.pr_b_space(sp)
    b_rules = {"H_i": "Hb_i", "B/2": "Bb/2"} if src_b.kind is nc.SpaceKind.HILB else {"H_i": "Hb_i"}
    boundary = "Bdiff/2 + Bb/2" if kind == "nested" else "B/2"
    for pull, src, rules in (
        (nc.pull_a, src_a, {"H_i": "Hdiff_i + Hb_i", "B/2": boundary}),
        (nc.pull_b, src_b, b_rules),
        (nc.pull_res, nc.surface_space(), {"H_i": "Hdiff_i"}),
    ):
        d = rand(nc.DivClass, src)
        assert pull(d, sp) == _old_basis_map(d, sp, rules)
        assert nc.basis_map(d, sp, rules) == _old_basis_map(d, sp, rules)
    c = rand(nc.CurClass, sp)
    push_b = {"Cb_i": "C_i", "Ab": "A"} if src_b.kind is nc.SpaceKind.HILB else {"Cb_i": "H_i"}
    for target, rules in (
        (src_a, {"Ca_i": "C_i", "Cb_i": "C_i", "Aa": "A"}),
        (src_b, push_b),
    ):
        assert nc.basis_map(c, target, rules) == _old_basis_map(c, target, rules)
    with pytest.raises(SpaceMismatch, match=f"^{re.escape(str(src_a))} has no basis class Hb_i$"):
        nc.basis_map(d, src_a, {"H_i": "Hb_i"})


def test_a_map_compiled_once_serves_every_n():
    """The compiled moves depend on the layouts only, so one compilation
    serves every n, and a missing class is still named on its own target."""
    from nestcone.spaces import _compiled_map

    s, rules = nc.p1xp1(), {"H_i": "Hdiff_i + Hb_i", "B/2": "B/2"}
    nc.pull_a(nc.DivClass(s, nc.hilb(2), (1, 2, 3)), nc.univ(2))
    hits = _compiled_map.cache_info().hits
    for n in (3, 7):
        d = nc.DivClass(s, nc.hilb(n), (1, 2, 3))
        assert nc.pull_a(d, nc.univ(n)) == _old_basis_map(d, nc.univ(n), rules)
    assert _compiled_map.cache_info().hits == hits + 2
    for n in (2, 5):
        with pytest.raises(SpaceMismatch, match=rf"^univ\({n}\) has no basis class Bb/2$"):
            nc.basis_map(nc.DivClass(s, nc.hilb(n), (1, 2, 3)), nc.univ(n), {"B/2": "Bb/2"})


def test_a_rule_sends_a_block_only_to_a_block_of_its_length():
    """A block of one class per generator cannot go to a single class: on
    P1xP1 "H_i" has two classes and "B/2" one, so the map is refused rather
    than truncated to the first."""
    d = nc.DivClass(nc.p1xp1(), nc.hilb(2), (1, 2, 3))
    with pytest.raises(ValueError):
        nc.basis_map(d, nc.univ(2), {"H_i": "B/2"})


def test_repeated_table_reuses_the_shared_classes(monkeypatch):
    """Pinned: a second `reproduce_table` call builds only the classes its
    rays and witnesses compute, none of the unit classes it names."""
    from nestcone.verify import reproduce_table

    built = []
    for cls in (nc.DivClass, nc.CurClass):
        init = cls.__init__

        def counted(self, *args, _init=init):
            built.append(type(self))
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    reproduce_table("nef_fi_nested", i=1, n=3)
    built.clear()
    reproduce_table("nef_fi_nested", i=1, n=3)
    assert len(built) == 8
