"""Intersection pairing between curve and divisor bases, derived curve
families, nodal curves on K3 surfaces, and pushforwards.

Pairing rules (g = surface Gram matrix): each curve block of the basis
layout pairs through g with the divisor block of its side, and the boundary
classes pair by `_BOUNDARY_PAIRINGS`; every other pairing is zero.

* Hilb(n):   C_i . H_j[n] = g_ij, C_i . B/2 = 0, A . H_j = 0, A . B/2 = -1.
* Nested(n): Ca_i . Hdiff_j = g_ij (zero elsewhere);
             Cb_i . Hb_j = g_ij (zero elsewhere);
             Aa . Bdiff/2 = -1; Ab . Bdiff/2 = +1, Ab . Bb/2 = -1.
* Univ(n):   Ca_i . Hdiff_j = g_ij; Cb_i . Hb_j = g_ij; Aa . B/2 = -1.

`curve_functional` is the one place the table meets a curve: it adds up the
table's rows, each weighted by the curve's matching nonzero coordinate.
Every pairing is a dot product with that functional, and a certificate
keeps its witnesses' functionals (`verify.Certificate.functionals`).

Curve families (gamma = sum m_i H_i a curve class on X, r = number of points
of the configuration constrained to lie on the moving curve):

* Hilb:   C_{gamma,r}  = sum m_i C_i  - (r-1) A,        1 <= r <= n.
* Nested: Ca_{gamma,r} = sum m_i Ca_i - (r-1) Aa,       1 <= r <= n+1.
          Cb_{gamma,r} = sum m_i Cb_i - r Aa - (r-1) Ab, 1 <= r <= n.
* Univ:   Ca_{gamma,r} = sum m_i Ca_i - r Aa,           1 <= r <= n-1
          (the marked point lies on the curve, adding one collision).
          Cb_{gamma,r} = sum m_i Cb_i - (r-1) Aa,       1 <= r <= n.

The nested Cb coefficient on Aa is -r (not the constant -1 sometimes seen in
informal tables): only -r is compatible with the pushforward identity
pr_a(Cb_{gamma,r}) = C_{gamma,r+1}[n+1].  The constant-coefficient variant
is `curve_family_b_alt`, and the catalog reads every nested label
C^b_{gamma,r} with it, in one place (`verify._chart_curve`): so
`eff_p2_3_2` certifies with the row C_{2,0} = C^b_{l,2} = Cb1 - Aa - Ab,
and the `eff_summary` chart decodes its nested b-curves the same way.
Which of the two readings the paper means is an open question.
"""

from functools import lru_cache
from typing import NamedTuple

from .errors import NotK3, RangeError, SpaceMismatch
from .rationals import Rat, canonical_csv, rat, ratio, vdot
from .spaces import (
    CURVE_LAYOUT,
    DIVISOR_LAYOUT,
    CurClass,
    DivClass,
    MVec,
    SpaceId,
    SpaceKind,
    SurfaceModel,
    basis_map,
    is_block,
    layout,
    pr_a_space,
    pr_b_space,
    surface_coords,
)

__all__ = (
    "PairingTable", "pairing_table", "pair", "curve_functional", "curve_family_a",
    "curve_family_b", "curve_family_b_alt", "curve_family_a_alt", "nodal_curves_k3",
    "g1n_curve", "k3_extremal_slope", "pushforward_a", "pushforward_b",
)


# ---------------------------------------------------------------------------
# The pairing table
# ---------------------------------------------------------------------------

class PairingTable(NamedTuple):
    """Curve-basis x divisor-basis intersection matrix of a space."""

    surface: SurfaceModel
    space: SpaceId
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    matrix: tuple[tuple[Rat, ...], ...]

    def to_csv(self) -> str:
        rows = [(label, *row) for label, row in zip(self.row_labels, self.matrix)]
        return canonical_csv([("", *self.col_labels), *rows])


# (boundary curve, boundary divisor) -> intersection number, for every space
# kind whose layout holds both classes.
_BOUNDARY_PAIRINGS = {
    ("A", "B/2"): -1,
    ("Aa", "B/2"): -1,
    ("Aa", "Bdiff/2"): -1,
    ("Ab", "Bdiff/2"): 1,
    ("Ab", "Bb/2"): -1,
}


@lru_cache(maxsize=None)
def pairing_table(surface: SurfaceModel, space: SpaceId) -> PairingTable:
    rows, row_at = layout(surface, space, CURVE_LAYOUT)
    cols, col_at = layout(surface, space, DIVISOR_LAYOUT)
    m = [[0] * len(cols) for _ in rows]
    sides = zip(filter(is_block, row_at), filter(is_block, col_at))
    for curve_block, divisor_block in sides:
        for r, gram_row in zip(row_at[curve_block], surface.gram):
            for c, g in zip(col_at[divisor_block], gram_row):
                m[r][c] = g
    for (cur, div), value in _BOUNDARY_PAIRINGS.items():
        if cur in row_at and div in col_at:
            m[row_at[cur][0]][col_at[div][0]] = value
    return PairingTable(surface, space, rows, cols, tuple(map(tuple, m)))


def pair(d: DivClass, c: CurClass) -> Rat:
    """Intersection number of a divisor class with a curve class."""
    if d.surface != c.surface or d.space != c.space:
        raise SpaceMismatch(f"pairing requires classes on the same space: {d.space} vs {c.space}")
    return vdot(curve_functional(c), d.coords)


def curve_functional(c: CurClass) -> tuple[Rat, ...]:
    """The functional f on divisor coordinates with f . d = pair(d, c): the
    rows of the pairing table weighted by the nonzero coordinates of c and
    added up, in the normal form `vdot` returns."""
    table = pairing_table(c.surface, c.space)
    f = [0] * len(table.col_labels)
    for x, row in zip(c.coords, table.matrix):
        if x:
            for j, g in enumerate(row):
                if g:
                    f[j] += x * g
    return tuple(f) if {int}.issuperset(map(type, f)) else tuple(map(rat, f))


# ---------------------------------------------------------------------------
# Derived curve families
# ---------------------------------------------------------------------------

def _check_r(r: int, lo: int, hi: int, what: str) -> None:
    if not isinstance(r, int) or not (lo <= r <= hi):
        raise RangeError(f"{what} requires {lo} <= r <= {hi}, got r={r}")


def _combo(surface, space, gamma: MVec, block: str, boundary: dict[str, int]) -> CurClass:
    """sum gamma_i times the curve block (e.g. "Ca_i") plus the boundary
    curves with the given coefficients, all addressed by layout label."""
    labels, at = layout(surface, space, CURVE_LAYOUT)
    out = [0] * len(labels)
    for k, mi in zip(at[block], surface_coords(surface, gamma), strict=True):
        out[k] = mi
    for label, coeff in boundary.items():
        out[at[label][0]] = coeff
    return CurClass(surface, space, tuple(out))


def curve_family_a(surface: SurfaceModel, space: SpaceId, gamma: MVec, r: int) -> CurClass:
    """Moving-point curve family on the 'a' side (or the single family on a
    Hilbert scheme): one point of the configuration moves along a curve of
    class gamma while r points of the configuration lie on that curve."""
    if space.kind is SpaceKind.HILB:
        _check_r(r, 1, space.n, "Hilb C_{gamma,r}")
        return _combo(surface, space, gamma, "C_i", {"A": -(r - 1)})
    if space.kind is SpaceKind.NESTED:
        _check_r(r, 1, space.n + 1, "nested Ca_{gamma,r}")
        return _combo(surface, space, gamma, "Ca_i", {"Aa": -(r - 1)})
    if space.kind is SpaceKind.UNIV:
        _check_r(r, 1, space.n - 1, "universal Ca_{gamma,r}")
        return _combo(surface, space, gamma, "Ca_i", {"Aa": -r})
    raise SpaceMismatch(f"curve_family_a is not defined on {space}")


def curve_family_b(surface: SurfaceModel, space: SpaceId, gamma: MVec, r: int) -> CurClass:
    """Moving-point curve family on the 'b' side."""
    if space.kind is SpaceKind.NESTED:
        _check_r(r, 1, space.n, "nested Cb_{gamma,r}")
        return _combo(surface, space, gamma, "Cb_i", {"Aa": -r, "Ab": -(r - 1)})
    if space.kind is SpaceKind.UNIV:
        _check_r(r, 1, space.n, "universal Cb_{gamma,r}")
        return _combo(surface, space, gamma, "Cb_i", {"Aa": -(r - 1)})
    raise SpaceMismatch(f"curve_family_b is not defined on {space}")


def curve_family_b_alt(surface: SurfaceModel, space: SpaceId, gamma: MVec, r: int) -> CurClass:
    """Constant-Aa-coefficient variant of the nested 'b' family:
    sum m_i Cb_i - Aa - (r-1) Ab.

    This convention appears in some legacy tables; it agrees with
    `curve_family_b` at r = 1 but violates the pushforward identity for
    r >= 2.  Kept for decoding those tables and for regression tests."""
    if space.kind is not SpaceKind.NESTED:
        raise SpaceMismatch(f"curve_family_b_alt is only defined on nested spaces, not {space}")
    _check_r(r, 1, space.n, "nested alt Cb_{gamma,r}")
    return _combo(surface, space, gamma, "Cb_i", {"Aa": -1, "Ab": -(r - 1)})


def curve_family_a_alt(surface: SurfaceModel, space: SpaceId, gamma: MVec, r: int) -> CurClass:
    """Variant of the universal-family 'a' curve with coefficient -(r-1) on
    Aa (marked point counted off the curve): sum m_i Ca_i - (r-1) Aa.

    Legacy tables index their universal-family curves this way; agrees with
    `curve_family_a` after shifting r by one."""
    if space.kind is not SpaceKind.UNIV:
        raise SpaceMismatch(f"curve_family_a_alt is only defined on universal spaces, not {space}")
    _check_r(r, 1, space.n, "universal alt Ca_{gamma,r}")
    return _combo(surface, space, gamma, "Ca_i", {"Aa": -(r - 1)})


# ---------------------------------------------------------------------------
# Nodal curves on K3 surfaces
# ---------------------------------------------------------------------------

def nodal_curves_k3(surface: SurfaceModel, space: SpaceId) -> tuple[CurClass, CurClass | None]:
    """Curve classes traced by a nodal genus-g curve in |H| on a K3 surface
    (requires n > g so the curve carries a g^1_n).

    Nested(n): Ca_nodal = Ca1 - (n+g) Aa,
               Cb_nodal = Cb1 - (n+g) Aa - (n-1+g) Ab.
    Hilb(n):   C_nodal  = C1 - (n-1+g) A (the g^1_n fiber class); second
               component of the return value is None.
    Univ(n):   Ca_nodal = Ca1 - (n-1+g) Aa, Cb_nodal = Cb1 - (n-1+g) Aa:
               the n-1+g collision count (2g at the nodes, n-2-g extra
               points of the scheme on the curve, one at the marked point)
               is the unique value dual to the extremal tautological ray.
    """
    g = surface.genus
    if g is None:
        raise NotK3(f"nodal curve classes require a K3 surface, got {surface}")
    n = space.n
    if space.kind is SpaceKind.SURFACE or n is None:
        raise SpaceMismatch(f"nodal curves live on hilb/nested/univ spaces, not {space}")
    if n <= g:
        raise RangeError(f"nodal curve classes require n > g, got n={n}, g={g}")
    if space.kind is SpaceKind.HILB:
        return _combo(surface, space, 1, "C_i", {"A": -(n - 1 + g)}), None
    if space.kind is SpaceKind.NESTED:
        ca = _combo(surface, space, 1, "Ca_i", {"Aa": -(n + g)})
        return ca, _combo(surface, space, 1, "Cb_i", {"Aa": -(n + g), "Ab": -(n - 1 + g)})
    collisions = {"Aa": -(n - 1 + g)}
    ca = _combo(surface, space, 1, "Ca_i", collisions)
    return ca, _combo(surface, space, 1, "Cb_i", collisions)


def g1n_curve(surface: SurfaceModel, space: SpaceId) -> CurClass:
    """Fiber class of a g^1_n on a genus-g curve in |H|, as a Hilbert-scheme
    curve class; alias of the Hilb nodal curve."""
    if space.kind is not SpaceKind.HILB:
        raise SpaceMismatch(f"the g^1_n class lives on Hilbert schemes, not {space}")
    return nodal_curves_k3(surface, space)[0]


def k3_extremal_slope(g: int, m: int) -> Rat:
    """f(m) = (m - 1 + g) / (2g - 2): slope of the extremal tautological nef
    ray on the Hilbert scheme of a genus-g K3 surface."""
    return ratio(m - 1 + g, 2 * g - 2)


# ---------------------------------------------------------------------------
# Pushforwards
# ---------------------------------------------------------------------------

def pushforward_a(c: CurClass) -> CurClass:
    """Pushforward of a curve class along pr_a.

    Nested(n) -> Hilb(n+1): Ca_i, Cb_i -> C_i; Aa -> A; Ab -> 0.
    Univ(n)   -> Hilb(n):   Ca_i, Cb_i -> C_i; Aa -> A.
    """
    return basis_map(c, pr_a_space(c.space), {"Ca_i": "C_i", "Cb_i": "C_i", "Aa": "A"})


def pushforward_b(c: CurClass) -> CurClass:
    """Pushforward of a curve class along pr_b.

    Nested(n), n >= 2 -> Hilb(n): Cb_i -> C_i; Ab -> A; Ca_i, Aa -> 0.
    Nested(1) -> Surface (X^[1] = X): Cb_i -> H_i; everything else -> 0.
    Univ(n) -> Surface: Cb_i -> H_i; Ca_i, Aa -> 0.
    """
    target = pr_b_space(c.space)
    rules = {"Cb_i": "C_i", "Ab": "A"} if target.kind is SpaceKind.HILB else {"Cb_i": "H_i"}
    return basis_map(c, target, rules)
