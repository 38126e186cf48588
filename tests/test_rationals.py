import ast
from decimal import Decimal
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestcone.cone import Cone, cone_from_rays
from nestcone.linalg import rref, solve_unique
import nestcone
from nestcone.rationals import primitive, rat, ratio, vdot

# Ints and Fractions mixed: zeros, negatives and values far beyond 64 bits.
_SCALAR = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.integers(-(10**40), 10**40),
    st.fractions(max_denominator=10**12),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)


def _normal_type(value) -> type:
    """The type of `value` in normal form: `int` when integral, else
    `Fraction`."""
    return int if Fraction(value).denominator == 1 else Fraction


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SCALAR, _SCALAR), min_size=0, max_size=8))
def test_vdot_is_the_exact_dot_product(pairs):
    u = [a for a, _ in pairs]
    v = [b for _, b in pairs]
    got = vdot(u, v)
    want = sum((Fraction(a) * Fraction(b) for a, b in pairs), Fraction(0))
    assert got == want
    assert type(got) is _normal_type(want)


@given(st.lists(_SCALAR, max_size=8), st.lists(_SCALAR, max_size=8))
def test_vdot_rejects_unequal_lengths(u, v):
    if len(u) == len(v):
        v = [*v, 1]
    with pytest.raises(ValueError):
        vdot(u, v)


@settings(max_examples=300, deadline=None)
@given(_SCALAR, st.integers(-(10**20), 10**20), st.integers(1, 10**6))
def test_rat_returns_the_normal_form(q, n, d):
    """`rat` of an int, a Fraction (integral or not) or a "p/q" string
    (canonical or not) is the same value, an `int` exactly when it is
    integral; `str` prints both forms alike."""
    for x in (q, Fraction(q), str(q)):
        got = rat(x)
        assert got == q and type(got) is _normal_type(q)
        assert str(got) == str(Fraction(q))
    got = rat(f"{n}/{d}")
    assert got == Fraction(n, d) and type(got) is _normal_type(got)


def _reference_str(q) -> str:
    """The canonical form every printed exact value takes: 'p' for an
    integer, 'p/q' otherwise (the library's former `rat_str`)."""
    if type(q) is int:
        return str(q)
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@settings(max_examples=300, deadline=None)
@given(_SCALAR)
def test_str_prints_the_canonical_form(q):
    """`str` and an f-string print a value in normal form as the reference
    does, and `rat` reads the text back to the same value and type."""
    x = rat(q)
    assert str(x) == f"{x}" == _reference_str(x) == _reference_str(q)
    back = rat(str(x))
    assert back == x and type(back) is type(x)


def test_rat_str_is_gone():
    with pytest.raises(AttributeError):
        nestcone.rat_str


class _Count(int):
    """An `int` subclass other than `bool`."""


def test_rat_of_an_int_subclass_is_a_plain_int():
    got = rat(_Count(-7))
    assert got == -7 and type(got) is int


@pytest.mark.parametrize("x", [True, False, 0.5, 1.0, None])
def test_rat_rejects_bool_and_float(x):
    with pytest.raises(TypeError):
        rat(x)


def test_ratio_of_a_fraction_divisor_is_the_normal_form():
    got = ratio(Fraction(3, 2), Fraction(3, 4))
    assert got == 2 and type(got) is int
    got = ratio(1, Fraction(2, 3))
    assert got == Fraction(3, 2) and type(got) is Fraction


@settings(max_examples=300, deadline=None)
@given(_SCALAR, _SCALAR)
def test_ratio_is_the_exact_quotient(n, d):
    if d == 0:
        d = 1
    got = ratio(n, d)
    want = Fraction(n) / Fraction(d)
    assert got == want and type(got) is _normal_type(want)


def test_only_rationals_builds_a_fraction():
    """No library module but `rationals` imports `fractions` or calls
    `Fraction`: every exact quotient goes through `ratio`."""
    for path in sorted(Path(nestcone.__file__).parent.glob("*.py")):
        if path.stem == "rationals":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "fractions" for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "fractions", path.name
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name != "Fraction", path.name


@pytest.mark.parametrize(
    "build",
    [
        lambda: Cone(2, [(0.1, 1)]),
        lambda: cone_from_rays(2, [(1, Fraction(1, 2)), (0.5, 1)]),
        lambda: rref([[0.5, 1]]),
        lambda: solve_unique([[1, 0], [0, 1]], [Fraction(1, 3), 0.25]),
        lambda: primitive((Decimal("0.5"), 1)),
    ],
    ids=["Cone", "cone_from_rays", "rref", "solve_unique", "primitive-Decimal"],
)
def test_vectors_with_a_float_get_rats_error(build):
    # `primitive` reads an entry that is neither int nor Fraction with
    # `rat`, so the cone engine and the eliminations refuse a float (and a
    # Decimal) as `rat` does.
    with pytest.raises(TypeError, match="^cannot build an exact rational from (float|Decimal)$"):
        build()


def test_primitive_reads_bool_as_a_rational_and_returns_ints():
    got = primitive((True, 2))
    assert got == (1, 2) and [type(a) for a in got] == [int, int]


@pytest.mark.parametrize("zero", [(), (0, 0, 0), [0, 0], (Fraction(0), 0)])
def test_primitive_maps_the_zero_vector_to_itself(zero):
    assert primitive(zero) == tuple(zero)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(10**20), 10**20), max_size=8))
def test_primitive_of_an_int_vector(u):
    """A gcd-1 int vector (list or tuple) comes back as a tuple equal to
    it, the zero vector maps to itself, and any other int vector is divided
    by its gcd."""
    g = gcd(*u)
    for vec in (u, tuple(u)):
        got = primitive(vec)
        assert type(got) is tuple and all(type(a) is int for a in got)
        assert got == (tuple(u) if g in (0, 1) else tuple(a // g for a in u))
    assert primitive([3 * a for a in u]) == primitive(u)


def _primitive_by_fractions(u) -> tuple[int, ...]:
    """The reference: every entry read as a `Fraction`, scaled by the lcm
    of the denominators and divided by the gcd of the results."""
    fr = [Fraction(a) for a in u]
    m = 1
    for a in fr:
        m = m * a.denominator // gcd(m, a.denominator)
    ints = [int(a * m) for a in fr]
    g = gcd(*ints)
    return tuple(a // g for a in ints) if g else tuple(ints)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_SCALAR, st.booleans()), max_size=8))
def test_primitive_equals_the_fraction_computation(u):
    """Mixed ints, Fractions and bools: the numerator/denominator path gives
    what reading every entry through `Fraction` gives, as ints, and the
    zero vector of the same entry types maps to itself."""
    got = primitive(u)
    assert got == _primitive_by_fractions(u)
    assert all(type(a) is int for a in got)
    zero = [type(a)(0) for a in u]
    assert primitive(zero) == tuple(0 for _ in u)


@settings(max_examples=200, deadline=None)
@given(st.lists(_SCALAR, min_size=1, max_size=6), st.fractions(min_value=Fraction(1, 10**6)))
def test_primitive_scales_by_a_positive_rational(u, c):
    got = primitive(u)
    assert all(type(a) is int for a in got)
    if all(a == 0 for a in u):
        assert got == tuple(0 for _ in u)
        return
    assert gcd(*got) == 1
    assert primitive([c * a for a in u]) == got
    # got = q * u for one positive rational q
    k = next(i for i, a in enumerate(u) if a != 0)
    q = Fraction(got[k]) / Fraction(u[k])
    assert q > 0 and all(Fraction(a) * q == b for a, b in zip(u, got))
