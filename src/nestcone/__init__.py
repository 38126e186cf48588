"""nestcone: exact-rational intersection pairings and polyhedral cone-duality
certificates for Hilbert schemes of points, nested Hilbert schemes, and
universal families over rational and K3 surfaces.

All core arithmetic is exact: a value is an ``int`` when it is integral and
a ``fractions.Fraction`` otherwise, and no code path produces a float - even
the SVG emitter rounds by integer arithmetic.  Records (surfaces, spaces,
certificates, reports, cross-sections, study steps) are `typing.NamedTuple`s
and so plain tuples; divisor and curve classes are immutable slotted values.

The package imports none of its modules itself.  ``nestcone.<name>`` for a
public name is resolved on first use (PEP 562): the modules ``errors``,
``rationals``, ``spaces``, ``pairing``, ``cone``, ``verify`` and ``studies``
are searched in that order, each imported when the search reaches it, and
the first one's module-level value of that name is returned.  Modules of
the package therefore import names from one another (``from .linalg import
rref``), never ``from . import <module>``: that form consults this search
first, which would import ``verify`` while ``cone`` is half initialised.
"""

import sys as _sys

__version__ = "0.1.0"

_SEARCHED = ("errors", "rationals", "spaces", "pairing", "cone", "verify", "studies")


def __getattr__(name: str):
    if not name.startswith("_"):
        for module in _SEARCHED:
            qualified = f"{__name__}.{module}"
            __import__(qualified)
            namespace = vars(_sys.modules[qualified])
            if name in namespace:
                return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
