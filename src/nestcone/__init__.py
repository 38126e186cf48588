"""nestcone: exact-rational intersection pairings and polyhedral cone-duality
certificates for Hilbert schemes of points, nested Hilbert schemes, and
universal families over rational and K3 surfaces.

All core arithmetic is exact: a value is an ``int`` when it is integral and
a ``fractions.Fraction`` otherwise, and no code path produces a float - even
the SVG emitter rounds by integer arithmetic.  Records (surfaces, spaces,
certificates, reports, cross-sections, study steps) are `typing.NamedTuple`s
and so plain tuples; divisor and curve classes are immutable slotted values.

The package imports none of its modules itself.  ``nestcone.<name>`` is
resolved on first use (PEP 562) from the ``__all__`` of the modules
``errors``, ``rationals``, ``spaces``, ``pairing``, ``cone``, ``verify`` and
``studies``, searched in that order, each imported when the search reaches
it; ``dir(nestcone)`` lists those names, and any other is an AttributeError.
Modules of the package import names from one another (``from .linalg
import rref``), never ``from . import <module>``, which consults this search
first and would import ``verify`` while ``cone`` is half initialised.
"""

import sys as _sys

__version__ = "0.1.0"

_SEARCHED = ("errors", "rationals", "spaces", "pairing", "cone", "verify", "studies")


def _module(name: str):
    __import__(f"{__name__}.{name}")
    return _sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if not name.startswith("_"):
        for module in map(_module, _SEARCHED):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(name for module in map(_module, _SEARCHED) for name in module.__all__)
