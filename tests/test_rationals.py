from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestcone.rationals import rat, rat_str, vdot

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
    integral; `rat_str` prints both forms alike."""
    for x in (q, Fraction(q), rat_str(q)):
        got = rat(x)
        assert got == q and type(got) is _normal_type(q)
        assert rat_str(got) == rat_str(Fraction(q))
    got = rat(f"{n}/{d}")
    assert got == Fraction(n, d) and type(got) is _normal_type(got)


@pytest.mark.parametrize("x", [True, False, 0.5, 1.0, None])
def test_rat_rejects_bool_and_float(x):
    with pytest.raises(TypeError):
        rat(x)
