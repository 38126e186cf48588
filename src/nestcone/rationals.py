"""Exact rational scalars, the rational dot product, primitive integer
vectors and the canonical JSON and CSV forms.

An exact value in the library is an `int` when it is integral and a
`fractions.Fraction` only when its denominator is above 1 (`Rat`); nothing
in the core ever produces a `float`.  `rat`, `ratio` and `vdot` return this
normal form.  `ratio` is the library's one quotient, and no other module
builds a `Fraction`.  `int` and `Fraction` compare and hash alike, so equal
values stay equal whichever type holds them.  Almost every pairing
multiplies two all-`int` vectors, so `vdot` sums the products in C and only
normalizes a `Fraction` result.  An exact value prints with `str`, which
gives the canonical "p/q" of a `Fraction` and the plain "p" of an `int`,
and every JSON document the library prints goes through `canonical_json`,
every CSV document through `canonical_csv`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

__all__ = ("Rat", "rat", "ratio", "canonical_json", "canonical_csv", "vdot", "primitive")

Rat = int | Fraction


def rat(x) -> Rat:
    """Coerce an int, a Fraction or a 'p' or 'p/q' string to an exact
    rational in normal form: an `int` when integral, else a `Fraction`."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        return rat(Fraction(x.strip()))
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def ratio(n: Rat, d: Rat) -> Rat:
    """The quotient n/d of an exact rational n and a nonzero exact rational
    d in normal form."""
    return n // d if n % d == 0 else Fraction(n, d)


def canonical_json(doc) -> str:
    """The canonical JSON text of `doc`: sorted keys and no whitespace, so
    equal documents print as equal bytes.  A document is a fresh tree the
    library builds, never cyclic, so the encoder skips its cycle scan."""
    import json  # only JSON output needs it

    return json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_csv(rows) -> str:
    """The CSV text of `rows`: one line ending in a newline per row, each
    field printed with `str` (None as an empty field) and quoted only when
    it holds a comma, a quote or a line break."""
    import csv  # only CSV output needs csv and io
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def vdot(u: Sequence, v: Sequence) -> Rat:
    """Dot product of ints or Fractions in normal form (an `int` when
    integral, else a `Fraction`).

    The products are summed by `sum(map(mul, u, v))`, in C: all-`int`
    vectors never leave `int`, and a `Fraction` sum with denominator 1 is
    returned as its numerator.  Vectors of unequal length raise ValueError."""
    if len(u) != len(v):
        raise ValueError(f"dot product of vectors of lengths {len(u)} and {len(v)}")
    s = sum(map(mul, u, v))
    return s.numerator if type(s) is not int and s.denominator == 1 else s


def primitive(u: Sequence) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational to a primitive integer
    vector (cleared denominators, gcd 1).

    The scaling factor is always positive, so the ray direction is preserved;
    flipping signs would change the cone a generator spans.  The zero vector
    maps to itself.  An all-`int` vector (the cone engine's case) is divided
    by its gcd directly, and not at all when the gcd is 0 or 1.  Otherwise
    the `numerator`/`denominator` of each entry give one lcm and one gcd;
    entries that are neither `int` nor `Fraction` are read with `rat` first,
    which refuses a float, and a `bool` through `Fraction`."""
    if not {int}.issuperset(map(type, u)):
        if not {int, Fraction}.issuperset(map(type, u)):
            u = [Fraction(a) if type(a) is bool else rat(a) for a in u]
        m = lcm(*[a.denominator for a in u])
        u = [a.numerator * (m // a.denominator) for a in u]
    g = gcd(*u)
    return tuple(u) if g < 2 else tuple([a // g for a in u])
