"""Surface lattices, moduli-space descriptors, bases, pullbacks, and named
divisor classes.

Spaces
------
For a smooth surface X with Neron-Severi generators H_1..H_rho the library
models numerical divisor/curve classes on four kinds of spaces:

* ``Surface``     - X itself (rank rho).
* ``Hilb(n)``     - the Hilbert scheme of n points X^[n], n >= 2
                    (rank rho + 1, basis H_1[n]..H_rho[n], B[n]/2).
* ``Nested(n)``   - the nested Hilbert scheme X^[n+1,n], n >= 1
                    (rank 2 rho + 2, basis Hdiff_*, Hb_*, Bdiff/2, Bb/2).
* ``Univ(n)``     - the universal family X^[n,1], n >= 2
                    (rank 2 rho + 1, basis Hdiff_*, Hb_*, B/2).

The nonreduced-locus generator is always the half class B/2, which is the
integral Picard generator.  The divisor and curve bases of every kind are
written once, in `DIVISOR_LAYOUT` and `CURVE_LAYOUT`; ranks, labels, the
pairing table and every pull and push map are read from them.  All
serialization uses these labels.

Surfaces, space descriptors and unit basis classes are shared immutable
records: each constructor takes its argument by position only, returns one
record per argument, and refuses an argument that is not an `int` (a `bool`
or `float` included) whatever its cache holds.  `SpaceId` checks its fields
itself, so a descriptor built by hand cannot stand in for a shared one.
Each pull or push map is compiled once per pair of layouts and rule set,
whatever n, into (source, target) coordinate moves.
"""

from collections.abc import Sequence
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Union

from .errors import InvalidGenus, InvalidIndex, RangeError, SpaceMismatch, UnknownSurface
from .rationals import Rat, canonical_json, rat

__all__ = (
    "SurfaceModel", "p2", "p1xp1", "hirzebruch", "k3", "surface_model", "SpaceKind",
    "SpaceId", "surface_space", "hilb", "nested", "univ", "DIVISOR_LAYOUT",
    "CURVE_LAYOUT", "is_block", "layout", "divisor_labels", "curve_labels",
    "divisor_rank", "curve_rank", "normalize_label", "DivClass", "CurClass",
    "zero_divisor", "zero_curve", "divisor", "curve", "pr_a_space", "pr_b_space",
    "basis_map", "pull_a", "pull_b", "pull_res", "MVec", "surface_coords",
    "tautological", "surface_divisor", "tautological_a", "tautological_b",
    "exceptional_class", "canonical_class",
)


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

class SurfaceModel(NamedTuple):
    """A surface's Neron-Severi lattice with its intersection form."""

    key: str
    rank: int
    generator_names: tuple[str, ...]
    gram: tuple[tuple[Rat, ...], ...]
    canonical: tuple[Rat, ...]
    genus: int | None = None
    index: int | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.key


def _int_arg(x, error: type[Exception], what: str) -> None:
    """Refuse an argument that is not an `int`.  The constructors' caches
    are `typed`, so 1, 1.0 and True are keyed apart and each reaches this
    check: a `bool` or `float` is never served an equal int's record, nor
    built into a key like "fTrue" or "k3-g3.5"."""
    if type(x) is not int:
        raise error(f"{what} must be an int, got {x!r}")


@lru_cache(maxsize=None)
def p2() -> SurfaceModel:
    """The projective plane: rank 1, H^2 = 1, K = -3H."""
    return SurfaceModel(
        key="p2",
        rank=1,
        generator_names=("H",),
        gram=((1,),),
        canonical=(-3,),
    )


@lru_cache(maxsize=None)
def p1xp1() -> SurfaceModel:
    """P1 x P1 with the two rulings H1, H2: H1.H2 = 1, Hi^2 = 0, K = -2H1-2H2."""
    return SurfaceModel(
        key="p1xp1",
        rank=2,
        generator_names=("H1", "H2"),
        gram=((0, 1), (1, 0)),
        canonical=(-2, -2),
    )


@lru_cache(maxsize=None, typed=True)
def hirzebruch(i: int, /) -> SurfaceModel:
    """The Hirzebruch surface F_i in the (H, F) basis: H^2 = i, H.F = 1,
    F^2 = 0; the negative section is E = H - iF; K = -2H + (i-2)F."""
    _int_arg(i, InvalidIndex, "Hirzebruch index")
    if i < 0:
        raise InvalidIndex(f"Hirzebruch index must be non-negative, got {i}")
    return SurfaceModel(
        key=f"f{i}",
        rank=2,
        generator_names=("H", "F"),
        gram=((i, 1), (1, 0)),
        canonical=(-2, i - 2),
        index=i,
    )


@lru_cache(maxsize=None, typed=True)
def k3(g: int, /) -> SurfaceModel:
    """A general polarized K3 surface of genus g > 2: rank 1, H^2 = 2g-2, K = 0."""
    _int_arg(g, InvalidGenus, "K3 genus")
    if g <= 2:
        raise InvalidGenus(f"K3 genus must exceed 2, got {g}")
    return SurfaceModel(
        key=f"k3-g{g}",
        rank=1,
        generator_names=("H",),
        gram=((2 * g - 2,),),
        canonical=(0,),
        genus=g,
    )


def surface_model(kind: str, *, genus: int | None = None) -> SurfaceModel:
    """Build a surface lattice from a textual kind: 'p2', 'p1xp1' (basis H1,
    H2), 'f<i>' (the Hirzebruch surface F_i, basis H, F, i in ASCII digits;
    so 'f0' is F_0, the lattice of 'p1xp1' under other names), or 'k3' with
    genus=....  A genus given with any other kind is an InvalidGenus."""
    kind = kind.lower()
    if genus is not None and kind != "k3":
        raise InvalidGenus(f"only k3 takes a genus, not {kind!r}")
    if kind == "p2":
        return p2()
    if kind == "p1xp1":
        return p1xp1()
    if kind == "k3":
        if genus is None:
            raise InvalidGenus("k3 requires a genus")
        return k3(genus)
    index = kind[1:]
    if kind.startswith("f") and index.isascii() and index.isdigit():
        return hirzebruch(int(index))
    raise UnknownSurface(f"unknown surface kind {kind!r} (use p2, p1xp1, f<i>, k3)")


# ---------------------------------------------------------------------------
# Space descriptors
# ---------------------------------------------------------------------------

class SpaceKind(str, Enum):
    SURFACE = "surface"
    HILB = "hilb"
    NESTED = "nested"
    UNIV = "univ"


class _SpaceFields(NamedTuple):
    kind: SpaceKind
    n: int | None = None


# The least n of each space kind with an n, and its name in messages.
_LEAST_N = {SpaceKind.HILB: (2, "Hilb(n)"), SpaceKind.NESTED: (1, "Nested(n)"),
            SpaceKind.UNIV: (2, "Univ(n)")}


class SpaceId(_SpaceFields):
    """Descriptor of the moduli space a class lives on.  The kind is read
    through `SpaceKind` and n is checked here, so a descriptor built by
    hand is valid too, and none equals another yet prints otherwise (as
    nested(True) would equal nested(1))."""

    __slots__ = ()

    def __new__(cls, kind: SpaceKind, n: int | None = None):
        kind = SpaceKind(kind)
        if kind is SpaceKind.SURFACE:
            if n is not None:
                raise RangeError(f"the surface space takes no n, got {n!r}")
        else:
            least, name = _LEAST_N[kind]
            _int_arg(n, RangeError, f"n of {name}")
            if n < least:
                raise RangeError(f"{name} requires n >= {least}, got {n}")
        return super().__new__(cls, kind, n)

    @classmethod
    def _make(cls, iterable) -> "SpaceId":
        """The descriptor from its two fields, checked like the constructor;
        `_replace` builds through here too."""
        return cls(*iterable)

    def __str__(self) -> str:
        if self.kind is SpaceKind.SURFACE:
            return "surface"
        return f"{self.kind.value}({self.n})"


@lru_cache(maxsize=None)
def surface_space() -> SpaceId:
    return SpaceId(SpaceKind.SURFACE)


@lru_cache(maxsize=None, typed=True)
def hilb(n: int, /) -> SpaceId:
    return SpaceId(SpaceKind.HILB, n)


@lru_cache(maxsize=None, typed=True)
def nested(n: int, /) -> SpaceId:
    return SpaceId(SpaceKind.NESTED, n)


@lru_cache(maxsize=None, typed=True)
def univ(n: int, /) -> SpaceId:
    return SpaceId(SpaceKind.UNIV, n)


# ---------------------------------------------------------------------------
# Basis layout
# ---------------------------------------------------------------------------
# The divisor and curve bases of each space kind, in the notation of the
# docstrings.  An entry ending in "_i" is a block of one class per surface
# generator: "Hdiff_i" is H1diff, H2diff, ... (the generator names in place
# of H) and "Ca_i" is Ca1, Ca2, ....  The k-th divisor block and the k-th
# curve block are one side of the space and pair through the surface's Gram
# matrix.

_LayoutTable = dict[SpaceKind, tuple[str, ...]]
_Basis = tuple[tuple[str, ...], dict[str, range]]  # labels, positions of each entry

DIVISOR_LAYOUT: _LayoutTable = {
    SpaceKind.SURFACE: ("H_i",),
    SpaceKind.HILB: ("H_i", "B/2"),
    SpaceKind.NESTED: ("Hdiff_i", "Hb_i", "Bdiff/2", "Bb/2"),
    SpaceKind.UNIV: ("Hdiff_i", "Hb_i", "B/2"),
}
CURVE_LAYOUT: _LayoutTable = {
    SpaceKind.SURFACE: ("H_i",),
    SpaceKind.HILB: ("C_i", "A"),
    SpaceKind.NESTED: ("Ca_i", "Cb_i", "Aa", "Ab"),
    SpaceKind.UNIV: ("Ca_i", "Cb_i", "Aa"),
}


def is_block(entry: str) -> bool:
    """Whether a layout entry stands for one class per surface generator."""
    return entry.endswith("_i")


@lru_cache(maxsize=None)
def _expand(entries: tuple[str, ...], gens: tuple[str, ...]) -> _Basis:
    labels: list[str] = []
    positions = {}
    for entry in entries:
        if not is_block(entry):
            block = [entry]
        elif entry.startswith("H"):
            block = [g + entry[1:-2] for g in gens]
        else:
            block = [f"{entry[:-2]}{i}" for i in range(1, len(gens) + 1)]
        positions[entry] = range(len(labels), len(labels) + len(block))
        labels += block
    return tuple(labels), positions


def layout(surface: SurfaceModel, space: SpaceId, table: _LayoutTable) -> _Basis:
    """The basis labels of `space` under `table` (`DIVISOR_LAYOUT` or
    `CURVE_LAYOUT`) and the coordinate positions of each layout entry.  The
    result is shared: do not mutate it."""
    return _expand(table[space.kind], surface.generator_names)


def divisor_labels(surface: SurfaceModel, space: SpaceId) -> tuple[str, ...]:
    return layout(surface, space, DIVISOR_LAYOUT)[0]


def curve_labels(surface: SurfaceModel, space: SpaceId) -> tuple[str, ...]:
    return layout(surface, space, CURVE_LAYOUT)[0]


def divisor_rank(surface: SurfaceModel, space: SpaceId) -> int:
    return len(divisor_labels(surface, space))


def curve_rank(surface: SurfaceModel, space: SpaceId) -> int:
    """The curve basis pairs perfectly with the divisor basis."""
    return len(curve_labels(surface, space))


def normalize_label(label: str) -> str:
    """Accept caret spellings ('A^b', 'B^b/2', 'H^diff') alongside the flat
    ASCII labels ('Ab', 'Bb/2', 'Hdiff')."""
    return label.replace("^", "").strip()


# ---------------------------------------------------------------------------
# Classes
# ---------------------------------------------------------------------------

class _BaseClass:
    """Shared arithmetic for divisor and curve classes (immutable values).
    Two classes are equal when they are of one type and agree in surface,
    space and coordinates; a divisor never equals a curve."""

    __slots__ = ("surface", "space", "coords")
    surface: SurfaceModel
    space: SpaceId
    coords: tuple[Rat, ...]
    layout_table: _LayoutTable  # set by DivClass and CurClass

    def __init__(self, surface: SurfaceModel, space: SpaceId, coords: Sequence) -> None:
        coords = tuple(map(rat, coords))
        expected = len(_expand(self.layout_table[space.kind], surface.generator_names)[0])
        if len(coords) != expected:
            raise SpaceMismatch(f"expected {expected} coordinates, got {len(coords)}")
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.surface, self.space, self.coords

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _check(self, other: "_BaseClass") -> None:
        if self.surface != other.surface or self.space != other.space:
            raise SpaceMismatch(
                f"cannot combine classes on {self.surface}/{self.space} "
                f"and {other.surface}/{other.space}"
            )

    def __add__(self, other):
        self._check(other)
        coords = tuple(a + b for a, b in zip(self.coords, other.coords))
        return type(self)(self.surface, self.space, coords)

    def __sub__(self, other):
        self._check(other)
        coords = tuple(a - b for a, b in zip(self.coords, other.coords))
        return type(self)(self.surface, self.space, coords)

    def __neg__(self):
        return type(self)(self.surface, self.space, tuple(-a for a in self.coords))

    def __mul__(self, scalar):
        s = rat(scalar)
        return type(self)(self.surface, self.space, tuple(s * a for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _labels(self) -> tuple[str, ...]:
        return layout(self.surface, self.space, self.layout_table)[0]

    def expression(self) -> str:
        """Human/machine readable label arithmetic; re-parses to the same
        coordinates."""
        parts = []
        for c, label in zip(self.coords, self._labels()):
            if c == 0:
                continue
            parts.append(f"{c}*{label}")
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        return {
            "surface": self.surface.key,
            "space": {"kind": self.space.kind.value, "n": self.space.n},
            "basis": list(self._labels()),
            "coords": list(map(str, self.coords)),
        }

    def json_str(self) -> str:
        return canonical_json(self.to_json())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.surface}, {self.space}, {self.expression()})"


class DivClass(_BaseClass):
    __slots__ = ()
    layout_table = DIVISOR_LAYOUT


class CurClass(_BaseClass):
    __slots__ = ()
    layout_table = CURVE_LAYOUT


def zero_divisor(surface: SurfaceModel, space: SpaceId) -> DivClass:
    return DivClass(surface, space, (0,) * divisor_rank(surface, space))


def zero_curve(surface: SurfaceModel, space: SpaceId) -> CurClass:
    return CurClass(surface, space, (0,) * curve_rank(surface, space))


def _unit(dim: int, i: int) -> tuple[Rat, ...]:
    return (0,) * i + (1,) + (0,) * (dim - i - 1)


@lru_cache(maxsize=None)
def _basis_unit(cls, what: str, surface, space, label: str):
    """The one shared unit class of `label`; an unknown label raises, and
    an error is never cached."""
    labels = layout(surface, space, cls.layout_table)[0]
    try:
        i = labels.index(normalize_label(label))
    except ValueError:
        raise SpaceMismatch(
            f"no {what} basis label {label!r} on {surface}/{space}; "
            f"valid labels: {', '.join(labels)}"
        ) from None
    return cls(surface, space, _unit(len(labels), i))


def divisor(surface: SurfaceModel, space: SpaceId, label: str) -> DivClass:
    """The unit basis divisor of a label (caret spellings accepted), one shared
    value per (surface, space, label)."""
    return _basis_unit(DivClass, "divisor", surface, space, label)


def curve(surface: SurfaceModel, space: SpaceId, label: str) -> CurClass:
    """The unit basis curve of a label (caret spellings accepted), one shared
    value per (surface, space, label)."""
    return _basis_unit(CurClass, "curve", surface, space, label)


# ---------------------------------------------------------------------------
# Projections, pullbacks and the residue map
# ---------------------------------------------------------------------------

def pr_a_space(space: SpaceId) -> SpaceId:
    """Where the forget-one-point projection pr_a maps a space:
    Nested(n) -> Hilb(n+1), Univ(n) -> Hilb(n)."""
    if space.kind is SpaceKind.NESTED:
        return hilb(space.n + 1)
    if space.kind is SpaceKind.UNIV:
        return hilb(space.n)
    raise SpaceMismatch(f"pr_a is defined on nested or universal spaces, not {space}")


def pr_b_space(space: SpaceId) -> SpaceId:
    """Where the forget-the-big-scheme projection pr_b maps a space:
    Nested(n) -> Hilb(n) for n >= 2, Nested(1) -> Surface (X^[1] = X),
    Univ(n) -> Surface."""
    if space.kind is SpaceKind.NESTED and space.n >= 2:
        return hilb(space.n)
    if space.kind in (SpaceKind.NESTED, SpaceKind.UNIV):
        return surface_space()
    raise SpaceMismatch(f"pr_b is defined on nested or universal spaces, not {space}")


def basis_map(x, target: SpaceId, rules: dict[str, str]):
    """The image on `target` of a divisor or curve class x under the linear
    map that sends each basis class of x's space to the sum of the target
    basis classes `rules` gives for it, both in layout notation (for example
    ``{"H_i": "Hdiff_i + Hb_i", "B/2": "B/2"}``).  Basis classes the rules
    leave out map to zero."""
    cls = type(x)
    rank, moves, missing = _compiled_map(cls, x.surface.generator_names, x.space.kind,
                                         target.kind, tuple(rules.items()))
    if missing is not None:
        raise SpaceMismatch(f"{target} has no basis class {missing}")
    out = [0] * rank
    coords = x.coords
    for k, j in moves:
        out[j] += coords[k]
    return cls(x.surface, target, tuple(out))


@lru_cache(maxsize=None)
def _compiled_map(cls, gens: tuple[str, ...], source: SpaceKind, target: SpaceKind,
                  rules: tuple[tuple[str, str], ...]):
    """`basis_map`'s rules read once per pair of layouts, whatever n: the
    target rank, the (source coordinate, target coordinate) moves, one per
    basis class sent, and the first rule image the target lacks (None when
    there is none)."""
    _, at = _expand(cls.layout_table[source], gens)
    labels, dest = _expand(cls.layout_table[target], gens)
    moves: list[tuple[int, int]] = []
    for entry, image in rules:
        for part in image.split(" + "):
            if part not in dest:
                return len(labels), (), part
            moves += zip(at[entry], dest[part], strict=True)
    return len(labels), tuple(moves), None


def _pull(d: DivClass, target: SpaceId, source: SpaceId, rules: dict[str, str],
          name: str) -> DivClass:
    if d.space != source:
        raise SpaceMismatch(f"{name} to {target} needs a class on {source}, got {d.space}")
    return basis_map(d, target, rules)


def pull_a(d: DivClass, target: SpaceId) -> DivClass:
    """Pullback along the forget-one-point projection pr_a.

    Nested(n): source Hilb(n+1); H_i -> Hdiff_i + Hb_i, B/2 -> Bdiff/2 + Bb/2.
    Univ(n):   source Hilb(n);   H_i -> Hdiff_i + Hb_i, B/2 -> B/2.
    """
    boundary = "Bdiff/2 + Bb/2" if target.kind is SpaceKind.NESTED else "B/2"
    rules = {"H_i": "Hdiff_i + Hb_i", "B/2": boundary}
    return _pull(d, target, pr_a_space(target), rules, "pull_a")


def pull_b(d: DivClass, target: SpaceId) -> DivClass:
    """Pullback along the forget-the-big-scheme projection pr_b.

    Nested(n), n >= 2: source Hilb(n); H_i -> Hb_i, B/2 -> Bb/2.
    Nested(1):         source Surface (X^[1] = X); H_i -> Hb_i.
    Univ(n):           source Surface; H_i -> Hb_i.
    """
    source = pr_b_space(target)
    rules = {"H_i": "Hb_i", "B/2": "Bb/2"} if source.kind is SpaceKind.HILB else {"H_i": "Hb_i"}
    return _pull(d, target, source, rules, "pull_b")


def pull_res(d: DivClass, target: SpaceId) -> DivClass:
    """Pullback along the residual-point map from the surface to a nested or
    universal space: H_i -> Hdiff_i."""
    return _pull(d, target, surface_space(), {"H_i": "Hdiff_i"}, "pull_res")


# ---------------------------------------------------------------------------
# Named divisor classes
# ---------------------------------------------------------------------------

MVec = Union[int, Rat, Sequence]


def surface_coords(surface: SurfaceModel, m: MVec) -> tuple[Rat, ...]:
    """Coefficients m_i of a class sum m_i H_i on the surface: a vector of
    length rho, or a bare number when rho = 1.  Coefficients may be negative
    (the section E = H - iF of a Hirzebruch surface).  A bare value goes
    through `rat`, so a float is refused."""
    if isinstance(m, str) or not isinstance(m, Sequence):
        value = rat(m)
        if surface.rank != 1:
            raise SpaceMismatch(
                f"{surface} has rank {surface.rank}; pass a length-{surface.rank} vector"
            )
        return (value,)
    out = tuple(rat(x) for x in m)
    if len(out) != surface.rank:
        raise SpaceMismatch(f"expected {surface.rank} surface coefficients, got {len(out)}")
    return out


def tautological(surface: SurfaceModel, n: int, m: MVec) -> DivClass:
    """The tautological divisor D_m[n] = sum m_i H_i[n] - B[n]/2 on Hilb(n)."""
    mm = surface_coords(surface, m)
    return DivClass(surface, hilb(n), mm + (-1,))


def surface_divisor(surface: SurfaceModel, m: MVec) -> DivClass:
    """A divisor sum m_i H_i on the surface itself."""
    return DivClass(surface, surface_space(), surface_coords(surface, m))


def tautological_a(surface: SurfaceModel, space: SpaceId, m: MVec) -> DivClass:
    """D^a_m = pull_a of the tautological divisor (from Hilb(n+1) for nested
    spaces, Hilb(n) for universal families)."""
    return pull_a(tautological(surface, pr_a_space(space).n, m), space)


def tautological_b(surface: SurfaceModel, space: SpaceId, m: MVec) -> DivClass:
    """D^b_m = pull_b of the tautological divisor from Hilb(n); nested(n),
    n >= 2, only."""
    source = pr_b_space(space)
    if source.kind is not SpaceKind.HILB:
        raise SpaceMismatch(f"tautological_b lives on nested(n), n >= 2, not {space}")
    return pull_b(tautological(surface, source.n, m), space)


def exceptional_class(surface: SurfaceModel, space: SpaceId) -> DivClass:
    """The exceptional half class E = Bdiff/2 on a nested space."""
    if space.kind is not SpaceKind.NESTED:
        raise SpaceMismatch(f"the exceptional class lives on nested spaces, not {space}")
    return divisor(surface, space, "Bdiff/2")


def canonical_class(surface: SurfaceModel, space: SpaceId) -> DivClass:
    """Canonical class of a nested space:
    K = pull_b(K_{X^[n]}) + pull_res(K_X) + Bdiff/2,
    with K_{X^[n]} the Hilbert-scheme class induced by K_X (zero B-part)."""
    if space.kind is not SpaceKind.NESTED:
        raise SpaceMismatch(f"canonical_class is implemented for nested spaces, not {space}")
    kx = DivClass(surface, surface_space(), surface.canonical)
    k_b = basis_map(kx, pr_b_space(space), {"H_i": "H_i"})
    return pull_b(k_b, space) + pull_res(kx, space) + exceptional_class(surface, space)
