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
integral Picard generator.  Basis orders are fixed exactly as listed above;
all serialization uses these labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

from .errors import InvalidGenus, InvalidIndex, RangeError, SpaceMismatch, UnknownSurface
from .rationals import Rat, rat, rat_str, vadd, vneg, vscale, vsub, vzero


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceModel:
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


def p2() -> SurfaceModel:
    """The projective plane: rank 1, H^2 = 1, K = -3H."""
    return SurfaceModel(
        key="p2",
        rank=1,
        generator_names=("H",),
        gram=((Fraction(1),),),
        canonical=(Fraction(-3),),
    )


def p1xp1() -> SurfaceModel:
    """P1 x P1 with the two rulings H1, H2: H1.H2 = 1, Hi^2 = 0, K = -2H1-2H2."""
    return SurfaceModel(
        key="p1xp1",
        rank=2,
        generator_names=("H1", "H2"),
        gram=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        canonical=(Fraction(-2), Fraction(-2)),
    )


def hirzebruch(i: int) -> SurfaceModel:
    """The Hirzebruch surface F_i in the (H, F) basis: H^2 = i, H.F = 1,
    F^2 = 0; the negative section is E = H - iF; K = -2H + (i-2)F."""
    if i < 0:
        raise InvalidIndex(f"Hirzebruch index must be non-negative, got {i}")
    return SurfaceModel(
        key=f"f{i}",
        rank=2,
        generator_names=("H", "F"),
        gram=((Fraction(i), Fraction(1)), (Fraction(1), Fraction(0))),
        canonical=(Fraction(-2), Fraction(i - 2)),
        index=i,
    )


def k3(g: int) -> SurfaceModel:
    """A general polarized K3 surface of genus g > 2: rank 1, H^2 = 2g-2, K = 0."""
    if g <= 2:
        raise InvalidGenus(f"K3 genus must exceed 2, got {g}")
    return SurfaceModel(
        key=f"k3-g{g}",
        rank=1,
        generator_names=("H",),
        gram=((Fraction(2 * g - 2),),),
        canonical=(Fraction(0),),
        genus=g,
    )


def surface_model(kind: str, *, index: int | None = None, genus: int | None = None) -> SurfaceModel:
    """Build a surface lattice from a textual kind: 'p2', 'p1xp1' (basis H1,
    H2), 'f<i>' or 'f' with index=... (the Hirzebruch surface F_i, basis H,
    F; so 'f0' is F_0, the lattice of 'p1xp1' under other names), or 'k3'
    with genus=...."""
    kind = kind.lower()
    if kind == "p2":
        return p2()
    if kind == "p1xp1":
        return p1xp1()
    if kind == "k3":
        if genus is None:
            raise InvalidGenus("k3 requires a genus")
        return k3(genus)
    if kind == "f":
        if index is None:
            raise InvalidIndex("f requires an index")
        return hirzebruch(index)
    if kind.startswith("f") and kind[1:].isdigit():
        return hirzebruch(int(kind[1:]))
    raise UnknownSurface(f"unknown surface kind {kind!r} (use p2, p1xp1, f<i>, k3)")


# ---------------------------------------------------------------------------
# Space descriptors
# ---------------------------------------------------------------------------

class SpaceKind(str, Enum):
    SURFACE = "surface"
    HILB = "hilb"
    NESTED = "nested"
    UNIV = "univ"


@dataclass(frozen=True)
class SpaceId:
    """Descriptor of the moduli space a class lives on."""

    kind: SpaceKind
    n: int | None = None

    def __str__(self) -> str:
        if self.kind is SpaceKind.SURFACE:
            return "surface"
        return f"{self.kind.value}({self.n})"


def surface_space() -> SpaceId:
    return SpaceId(SpaceKind.SURFACE)


def hilb(n: int) -> SpaceId:
    if n < 2:
        raise RangeError(f"Hilb(n) requires n >= 2, got {n}")
    return SpaceId(SpaceKind.HILB, n)


def nested(n: int) -> SpaceId:
    if n < 1:
        raise RangeError(f"Nested(n) requires n >= 1, got {n}")
    return SpaceId(SpaceKind.NESTED, n)


def univ(n: int) -> SpaceId:
    if n < 2:
        raise RangeError(f"Univ(n) requires n >= 2, got {n}")
    return SpaceId(SpaceKind.UNIV, n)


def divisor_rank(surface: SurfaceModel, space: SpaceId) -> int:
    rho = surface.rank
    if space.kind is SpaceKind.SURFACE:
        return rho
    if space.kind is SpaceKind.HILB:
        return rho + 1
    if space.kind is SpaceKind.NESTED:
        return 2 * rho + 2
    return 2 * rho + 1


def curve_rank(surface: SurfaceModel, space: SpaceId) -> int:
    """The curve basis pairs perfectly with the divisor basis."""
    return divisor_rank(surface, space)


def divisor_labels(surface: SurfaceModel, space: SpaceId) -> tuple[str, ...]:
    gens = surface.generator_names
    if space.kind is SpaceKind.SURFACE:
        return gens
    if space.kind is SpaceKind.HILB:
        return gens + ("B/2",)
    diff = tuple(f"{g}diff" for g in gens)
    back = tuple(f"{g}b" for g in gens)
    if space.kind is SpaceKind.NESTED:
        return diff + back + ("Bdiff/2", "Bb/2")
    return diff + back + ("B/2",)


def curve_labels(surface: SurfaceModel, space: SpaceId) -> tuple[str, ...]:
    rho = surface.rank
    if space.kind is SpaceKind.SURFACE:
        return surface.generator_names
    if space.kind is SpaceKind.HILB:
        return tuple(f"C{i}" for i in range(1, rho + 1)) + ("A",)
    a = tuple(f"Ca{i}" for i in range(1, rho + 1))
    b = tuple(f"Cb{i}" for i in range(1, rho + 1))
    if space.kind is SpaceKind.NESTED:
        return a + b + ("Aa", "Ab")
    return a + b + ("Aa",)


def normalize_label(label: str) -> str:
    """Accept caret spellings ('A^b', 'B^b/2', 'H^diff') alongside the flat
    ASCII labels ('Ab', 'Bb/2', 'Hdiff')."""
    return label.replace("^", "").strip()


# ---------------------------------------------------------------------------
# Classes
# ---------------------------------------------------------------------------

def _coerce_coords(coords: Sequence, expected: int) -> tuple[Rat, ...]:
    out = tuple(rat(c) for c in coords)
    if len(out) != expected:
        raise SpaceMismatch(f"expected {expected} coordinates, got {len(out)}")
    return out


class _BaseClass:
    """Shared arithmetic for divisor and curve classes (immutable values)."""

    surface: SurfaceModel
    space: SpaceId
    coords: tuple[Rat, ...]

    def _check(self, other: "_BaseClass") -> None:
        if self.surface != other.surface or self.space != other.space:
            raise SpaceMismatch(
                f"cannot combine classes on {self.surface}/{self.space} "
                f"and {other.surface}/{other.space}"
            )

    def __add__(self, other):
        self._check(other)
        return type(self)(self.surface, self.space, vadd(self.coords, other.coords))

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.surface, self.space, vsub(self.coords, other.coords))

    def __neg__(self):
        return type(self)(self.surface, self.space, vneg(self.coords))

    def __mul__(self, scalar):
        return type(self)(self.surface, self.space, vscale(rat(scalar), self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _labels(self) -> tuple[str, ...]:
        raise NotImplementedError

    def expression(self) -> str:
        """Human/machine readable label arithmetic; re-parses to the same
        coordinates."""
        parts = []
        for c, label in zip(self.coords, self._labels()):
            if c == 0:
                continue
            parts.append(f"{rat_str(c)}*{label}")
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        return {
            "surface": self.surface.key,
            "space": {"kind": self.space.kind.value, "n": self.space.n},
            "basis": list(self._labels()),
            "coords": [rat_str(c) for c in self.coords],
        }

    def json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.surface}, {self.space}, {self.expression()})"


@dataclass(frozen=True, eq=True)
class DivClass(_BaseClass):
    surface: SurfaceModel
    space: SpaceId
    coords: tuple[Rat, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coords", _coerce_coords(self.coords, divisor_rank(self.surface, self.space))
        )

    def _labels(self) -> tuple[str, ...]:
        return divisor_labels(self.surface, self.space)


@dataclass(frozen=True, eq=True)
class CurClass(_BaseClass):
    surface: SurfaceModel
    space: SpaceId
    coords: tuple[Rat, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coords", _coerce_coords(self.coords, curve_rank(self.surface, self.space))
        )

    def _labels(self) -> tuple[str, ...]:
        return curve_labels(self.surface, self.space)


def zero_divisor(surface: SurfaceModel, space: SpaceId) -> DivClass:
    return DivClass(surface, space, vzero(divisor_rank(surface, space)))


def zero_curve(surface: SurfaceModel, space: SpaceId) -> CurClass:
    return CurClass(surface, space, vzero(curve_rank(surface, space)))


def _unit(dim: int, i: int) -> tuple[Rat, ...]:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(dim))


def _basis_unit(cls, what: str, labels: tuple[str, ...], surface, space, label: str):
    try:
        i = labels.index(normalize_label(label))
    except ValueError:
        raise SpaceMismatch(
            f"no {what} basis label {label!r} on {surface}/{space}; "
            f"valid labels: {', '.join(labels)}"
        ) from None
    return cls(surface, space, _unit(len(labels), i))


def divisor(surface: SurfaceModel, space: SpaceId, label: str) -> DivClass:
    """Unit basis divisor by label (caret spellings accepted)."""
    return _basis_unit(DivClass, "divisor", divisor_labels(surface, space), surface, space, label)


def curve(surface: SurfaceModel, space: SpaceId, label: str) -> CurClass:
    """Unit basis curve by label (caret spellings accepted)."""
    return _basis_unit(CurClass, "curve", curve_labels(surface, space), surface, space, label)


def divisor_basis(surface: SurfaceModel, space: SpaceId) -> tuple[tuple[str, DivClass], ...]:
    """Ordered (label, unit class) descriptors of the divisor basis."""
    labels = divisor_labels(surface, space)
    return tuple(
        (lab, DivClass(surface, space, _unit(len(labels), i))) for i, lab in enumerate(labels)
    )


def curve_basis(surface: SurfaceModel, space: SpaceId) -> tuple[tuple[str, CurClass], ...]:
    labels = curve_labels(surface, space)
    return tuple(
        (lab, CurClass(surface, space, _unit(len(labels), i))) for i, lab in enumerate(labels)
    )


# ---------------------------------------------------------------------------
# Pullback / residue maps
# ---------------------------------------------------------------------------

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SpaceMismatch(msg)


def pull_a(d: DivClass, target: SpaceId) -> DivClass:
    """Pullback along the forget-one-point projection pr_a.

    Nested(n): source Hilb(n+1); H_i[n+1] -> Hdiff_i + Hb_i and
    B[n+1]/2 -> Bdiff/2 + Bb/2.
    Univ(n):   source Hilb(n);   H_i[n] -> Hdiff_i + Hb_i and B[n]/2 -> B/2.
    """
    s = d.surface
    rho = s.rank
    if target.kind not in (SpaceKind.NESTED, SpaceKind.UNIV):
        raise SpaceMismatch(f"pull_a targets nested or universal spaces, not {target}")
    source = hilb(target.n + 1) if target.kind is SpaceKind.NESTED else hilb(target.n)
    _require(d.space == source, f"pull_a to {target} needs a class on {source}, got {d.space}")
    out = list(vzero(divisor_rank(s, target)))
    for i in range(rho):
        out[i] += d.coords[i]
        out[rho + i] += d.coords[i]
    for k in range(2 * rho, len(out)):  # Bdiff/2 and Bb/2, or B/2
        out[k] += d.coords[rho]
    return DivClass(s, target, tuple(out))


def pull_b(d: DivClass, target: SpaceId) -> DivClass:
    """Pullback along the forget-the-big-scheme projection pr_b.

    Nested(n), n >= 2: source Hilb(n); H_i[n] -> Hb_i, B[n]/2 -> Bb/2.
    Nested(1):         source Surface (X^[1] = X); H_i -> Hb_i.
    Univ(n):           source Surface; H_i -> Hb_i.
    """
    s = d.surface
    rho = s.rank
    if target.kind not in (SpaceKind.NESTED, SpaceKind.UNIV):
        raise SpaceMismatch(f"pull_b targets nested or universal spaces, not {target}")
    from_hilb = target.kind is SpaceKind.NESTED and target.n >= 2
    source = hilb(target.n) if from_hilb else surface_space()
    _require(d.space == source, f"pull_b to {target} needs a class on {source}, got {d.space}")
    out = list(vzero(divisor_rank(s, target)))
    for i in range(rho):
        out[rho + i] += d.coords[i]
    if from_hilb:
        out[2 * rho + 1] += d.coords[rho]  # B/2 -> Bb/2
    return DivClass(s, target, tuple(out))


def pull_res(d: DivClass, target: SpaceId) -> DivClass:
    """Pullback along the residual-point map: H_i -> Hdiff_i."""
    s = d.surface
    rho = s.rank
    _require(
        d.space.kind is SpaceKind.SURFACE,
        f"pull_res needs a surface class, got {d.space}",
    )
    if target.kind not in (SpaceKind.NESTED, SpaceKind.UNIV):
        raise SpaceMismatch(f"pull_res targets nested or universal spaces, not {target}")
    out = list(vzero(divisor_rank(s, target)))
    for i in range(rho):
        out[i] += d.coords[i]
    return DivClass(s, target, tuple(out))


# ---------------------------------------------------------------------------
# Named divisor classes
# ---------------------------------------------------------------------------

MVec = Union[int, Rat, Sequence]


def _coerce_m(surface: SurfaceModel, m: MVec) -> tuple[Rat, ...]:
    if isinstance(m, (int, Fraction, str)):
        if surface.rank != 1:
            raise SpaceMismatch(
                f"{surface} has rank {surface.rank}; pass a length-{surface.rank} vector"
            )
        return (rat(m),)
    out = tuple(rat(x) for x in m)
    if len(out) != surface.rank:
        raise SpaceMismatch(f"expected {surface.rank} line-bundle coefficients, got {len(out)}")
    return out


def tautological(surface: SurfaceModel, n: int, m: MVec) -> DivClass:
    """The tautological divisor D_m[n] = sum m_i H_i[n] - B[n]/2 on Hilb(n)."""
    mm = _coerce_m(surface, m)
    return DivClass(surface, hilb(n), mm + (Fraction(-1),))


def surface_divisor(surface: SurfaceModel, m: MVec) -> DivClass:
    """A divisor sum m_i H_i on the surface itself."""
    return DivClass(surface, surface_space(), _coerce_m(surface, m))


def tautological_a(surface: SurfaceModel, space: SpaceId, m: MVec) -> DivClass:
    """D^a_m = pull_a of the tautological divisor (from Hilb(n+1) for nested
    spaces, Hilb(n) for universal families)."""
    if space.kind is SpaceKind.NESTED:
        return pull_a(tautological(surface, space.n + 1, m), space)
    if space.kind is SpaceKind.UNIV:
        return pull_a(tautological(surface, space.n, m), space)
    raise SpaceMismatch(f"tautological_a lives on nested or universal spaces, not {space}")


def tautological_b(surface: SurfaceModel, space: SpaceId, m: MVec) -> DivClass:
    """D^b_m = pull_b of the tautological divisor from Hilb(n); nested only."""
    if space.kind is not SpaceKind.NESTED or space.n < 2:
        raise SpaceMismatch(f"tautological_b lives on nested(n), n >= 2, not {space}")
    return pull_b(tautological(surface, space.n, m), space)


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
    if space.n == 1:
        k_b = pull_b(kx, space)
    else:
        k_hilb = DivClass(surface, hilb(space.n), surface.canonical + (Fraction(0),))
        k_b = pull_b(k_hilb, space)
    return k_b + pull_res(kx, space) + exceptional_class(surface, space)
