"""Exception types shared across the library."""

__all__ = (
    "NestconeError", "SpaceMismatch", "InvalidGenus", "InvalidIndex", "UnknownSurface",
    "RangeError", "NotK3", "DimensionMismatch", "EmptyInput", "NotPointed",
    "FunctionalNotPositive", "UnderDetermined", "Inconsistent", "UnknownTable",
    "InvalidInput", "ParseError", "UsageError",
)


class NestconeError(Exception):
    """Base class for all library errors."""


class SpaceMismatch(NestconeError):
    """A class or map was used with a space it does not live on."""


class InvalidGenus(NestconeError):
    """K3 surface requested with genus g <= 2 (or with no genus), or a genus
    given for a surface other than K3."""


class InvalidIndex(NestconeError):
    """Hirzebruch surface requested with a negative index."""


class UnknownSurface(NestconeError):
    """A surface was requested by a kind the library does not know."""


class RangeError(NestconeError):
    """A numeric parameter is outside its admissible range."""


class NotK3(NestconeError):
    """An operation requiring a K3 surface was called on another surface."""


class DimensionMismatch(NestconeError):
    """Vectors or cones of incompatible dimensions were combined."""


class EmptyInput(NestconeError):
    """A cone was requested from no (or all-zero) generators."""


class NotPointed(NestconeError):
    """A cross-section was requested of a cone with nonzero lineality."""


class FunctionalNotPositive(NestconeError):
    """The normalizing functional is not strictly positive on every ray."""


class UnderDetermined(NestconeError):
    """A linear reconstruction problem does not pin down a unique class."""


class Inconsistent(NestconeError):
    """A linear reconstruction problem has no solution."""


class UnknownTable(NestconeError):
    """An unknown table id was requested from the catalog."""


class InvalidInput(NestconeError):
    """A study input failed validation (e.g. a non-ample polarization)."""


class ParseError(NestconeError):
    """A class expression failed to parse; carries a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.message = message
        self.offset = offset


class UsageError(NestconeError):
    """A command line names an unknown command or option, misses or
    misspells a value, or combines flags that exclude each other."""
