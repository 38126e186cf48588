from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestcone.rationals import vdot

# Ints and Fractions mixed: zeros, negatives and values far beyond 64 bits.
_SCALAR = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.integers(-(10**40), 10**40),
    st.fractions(max_denominator=10**12),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SCALAR, _SCALAR), min_size=0, max_size=8))
def test_vdot_is_the_exact_dot_product(pairs):
    u = [a for a, _ in pairs]
    v = [b for _, b in pairs]
    got = vdot(u, v)
    assert type(got) is Fraction
    assert got == sum((Fraction(a) * Fraction(b) for a, b in pairs), Fraction(0))


@given(st.lists(_SCALAR, max_size=8), st.lists(_SCALAR, max_size=8))
def test_vdot_rejects_unequal_lengths(u, v):
    if len(u) == len(v):
        v = [*v, 1]
    with pytest.raises(ValueError):
        vdot(u, v)
