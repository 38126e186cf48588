"""Every exact value the library returns is in normal form: an `int` when it
is integral and a `Fraction` only when its denominator is above 1, never a
`float` or a `bool`.

The sweep runs the whole catalog at its defaults, every standard
certificate, the asymptotic study, a cross-section and a Butler scan, and
walks the records they return: NamedTuples and the slotted class types.
A field annotated with `Rat` (`int | Fraction`) holds exact values (class coordinates,
certificate matrices, table cells, cross-section vertices, deviations, ray
coefficients); each of its entries is checked.  No other field may hold a
float either.
"""

from collections import Counter
from fractions import Fraction

import nestcone as nc
from nestcone.verify import EFF_MOVING, NEF_DUAL, certified_tables


def _entries(x):
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _entries(y)
    else:
        yield x


def _fields(obj) -> dict[str, str]:
    """{name: annotation text} of the fields of a record, a NamedTuple or a
    class with `__slots__`; empty for any other value."""
    mro = type(obj).__mro__
    names = getattr(obj, "_fields", None) or [n for k in mro for n in vars(k).get("__slots__", ())]
    hints = {}
    for k in reversed(mro):
        hints.update(vars(k).get("__annotations__", {}))
    return {n: str(hints[n]) for n in names if n in hints}


def _sweep(obj, seen: Counter, bad: list) -> None:
    """Count the exact values under `obj` by (record type, field) in `seen`;
    append every value not in normal form, and every float, to `bad`."""
    fields = _fields(obj)
    if fields:
        for name, hint in fields.items():
            value = getattr(obj, name)
            if "Fraction" not in hint:  # Rat is int | Fraction
                _sweep(value, seen, bad)
                continue
            for q in _entries(value):
                seen[type(obj).__name__, name] += 1
                normal = type(q) is int or (type(q) is Fraction and q.denominator > 1)
                if not (normal or (q is None and "None" in hint)):
                    bad.append((type(obj).__name__, name, q))
    elif isinstance(obj, (tuple, list)):
        for y in obj:
            _sweep(y, seen, bad)
    elif isinstance(obj, dict):
        for y in obj.values():
            _sweep(y, seen, bad)
    elif isinstance(obj, float):
        bad.append(("float", "", obj))


def test_no_float_and_no_integral_fraction_anywhere():
    results = [nc.reproduce_table(t) for t in sorted(nc.CATALOG)]
    results += [nc.standard_eff_certificate(t) for t in certified_tables(EFF_MOVING)]
    results += [nc.standard_nef_certificate(t) for t in certified_tables(NEF_DUAL)]
    results.append(nc.asymptotic_report(20))
    results.append(nc.table_cross_section("nef_p2_nested"))
    results.append(nc.butler_check(nc.ButlerInput(i=1, a=1, b=1, n=4, k_range=(1, 3))))
    seen: Counter = Counter()
    bad: list = []
    _sweep(results, seen, bad)
    assert bad == []
    for where in [
        ("DivClass", "coords"),
        ("CurClass", "coords"),
        ("Certificate", "matrix"),
        ("CellCheck", "computed"),
        ("CellCheck", "expected"),
        ("CrossSection", "vertices"),
        ("AsymptoticStep", "deviation_1"),
        ("AsymptoticStep", "section_distance"),
        ("ButlerStep", "ray_coefficients"),
    ]:
        assert seen[where] > 0, where
