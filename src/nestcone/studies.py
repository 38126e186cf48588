"""End-to-end studies built on the kernel.

* Butler criterion: on the universal family F_i^[2,1] of a Hirzebruch
  surface, the adjoint-type classes F_k - K attached to L = nA (A ample)
  must lie in the interior of the nef cone; interior membership for every k
  is the projective-normality certificate for n >= 4.
* Asymptotic study: in a fixed 4-dimensional frame (H1, H2, B1, B2) the
  effective cones E_k form a decreasing nest whose limit is the coordinate
  orthant; the k-dependent facet data deviates from the limit by exactly
  k/(2a_k) with a_k = binom(k+2,2)-1.  E_k is the dual of its four
  moving-curve functionals W_k, each annihilating one stated ray of R_k;
  the diagonal rule on W_k . R_k^T certifies E_k = cone(R_k) with no DD.
  A step's flags are sign tests on R_k (nested: W_{k-1} . R_k >= 0;
  contains the limit: W_k >= 0 on its rays), its section distance integer
  arithmetic on R_k; at deviation 0 the rays must be the orthant's.
"""

from math import comb
from typing import NamedTuple, Sequence

from .cone import Cone, IVec, Position, cone_from_rays
from .errors import FunctionalNotPositive, InvalidInput, NotPointed, RangeError
from .linalg import rref
from .rationals import Rat, canonical_json, primitive, ratio, vdot
from .spaces import (
    DivClass,
    SurfaceModel,
    divisor,
    hirzebruch,
    p1xp1,
    pull_b,
    pull_res,
    surface_divisor,
    tautological_a,
    univ,
)
from .verify import TableInputs, certify_nef, diagonal_failure, table_inputs

__all__ = (
    "ORDER_B", "ORDER_RES", "butler_table", "ButlerInput", "half_b_a", "butler_class",
    "ButlerStep", "ButlerReport", "butler_check", "FRAME_DIM", "a_k", "MovingCurve",
    "asymptotic_moving_curves", "limit_cone", "AsymptoticStep", "AsymptoticReport",
    "asymptotic_report",
)

# Each study runs and keeps one step per value of k, so its time, memory and
# output grow with the range of k: either study takes at most this many.
_MAX_STEPS = 10_000

# ---------------------------------------------------------------------------
# Butler criterion on F_i^[2,1]
# ---------------------------------------------------------------------------

ORDER_B = "b"      # F_{k+1} = F_k + pull_b(L): the displayed recursion
ORDER_RES = "res"  # variant with the extra copies pulled back along res


def butler_table(i: int) -> TableInputs:
    """Inputs of the catalog nef table of F_i^[2,1], whose rays span the
    simplicial nef cone; for i = 0 that is the P1xP1 table, F_0 and P1xP1
    having the same lattice."""
    if i == 0:
        return table_inputs("nef_f0_univ", n=2)
    return table_inputs("nef_fi_univ", i=i, n=2)


class _ButlerFields(NamedTuple):
    i: int
    a: int
    b: int
    n: int
    k_range: tuple[int, int]


class ButlerInput(_ButlerFields):
    """Ample class A = aH + bF on F_i and the line bundle L = nA.

    Ampleness on a Hirzebruch surface is the positivity test against the
    fiber F (A.F = a) and the section of self-intersection -i (A.E = b).
    `k_range` holds at most `_MAX_STEPS` values of k.
    """

    __slots__ = ()

    def __new__(cls, i: int, a: int, b: int, n: int, k_range: tuple[int, int] = (1, 5)):
        if i < 0:
            raise InvalidInput(f"Hirzebruch index must be >= 0, got {i}")
        if a < 1:
            raise InvalidInput(f"A.F = a must be positive, got {a}")
        if b < 1:
            raise InvalidInput(f"A.E = b must be positive, got {b}")
        if n < 4:
            raise InvalidInput(f"the criterion needs n >= 4, got {n}")
        lo, hi = k_range
        if lo < 1 or hi < lo:
            raise InvalidInput(f"k_range must be an inclusive range >= 1, got {k_range}")
        if hi - lo >= _MAX_STEPS:
            raise InvalidInput(f"k_range may hold at most {_MAX_STEPS} values of k")
        return super().__new__(cls, i, a, b, n, (lo, hi))

    @classmethod
    def _make(cls, iterable) -> "ButlerInput":
        """The input from its five fields, checked like the constructor;
        `_replace` builds through here too."""
        return cls(*iterable)

    @property
    def surface(self) -> SurfaceModel:
        return _surface(self.i)


def _surface(i: int) -> SurfaceModel:
    """The surface of `butler_table(i)`, read without building the table."""
    return p1xp1() if i == 0 else hirzebruch(i)


def half_b_a(i: int) -> tuple[DivClass, DivClass]:
    """Both sides of the exact identity (H+F)^b + (H+F)^diff - D^a_{1,1}
    = (1/2)B^a on F_i^[2,1] (B^a = pull_a of the full nonreduced locus)."""
    s = _surface(i)
    sp = univ(2)
    hf = surface_divisor(s, (1, 1))
    lhs = pull_b(hf, sp) + pull_res(hf, sp) - tautological_a(s, sp, (1, 1))
    rhs = divisor(s, sp, "B/2")  # pull_a(B)/2 = B/2 on the universal family
    return lhs, rhs


def butler_class(inp: ButlerInput, k: int, ordering: str = ORDER_B) -> DivClass:
    """The class F_k - K on F_i^[2,1] for L = nA.

    k = 1: (na-2)H^b + (nb-2)F^b + (na-2)H^diff + (nb-2)F^diff + 2D^a_{1,1}.
    k > 1: adds (k-1) copies of L pulled back along pr_b (ordering "b",
    the displayed recursion) or along res (ordering "res"); the two
    orderings coincide at k = 1.
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if ordering not in (ORDER_B, ORDER_RES):
        raise InvalidInput(f"unknown ordering {ordering!r}")
    s = inp.surface
    sp = univ(2)
    na, nb = inp.n * inp.a, inp.n * inp.b
    hb_part = pull_b(surface_divisor(s, (na - 2, nb - 2)), sp)
    diff_part = pull_res(surface_divisor(s, (na - 2, nb - 2)), sp)
    cls = hb_part + diff_part + 2 * tautological_a(s, sp, (1, 1))
    if k > 1:
        extra = surface_divisor(s, ((k - 1) * na, (k - 1) * nb))
        cls = cls + (pull_b(extra, sp) if ordering == ORDER_B else pull_res(extra, sp))
    return cls


class ButlerStep(NamedTuple):
    k: int
    coords: tuple[Rat, ...]
    ray_labels: tuple[str, ...]
    ray_coefficients: tuple[Rat, ...]
    position: str


class ButlerReport(NamedTuple):
    input: ButlerInput
    ordering: str
    steps: tuple[ButlerStep, ...]

    @property
    def all_interior(self) -> bool:
        return all(s.position == Position.INTERIOR for s in self.steps)

    def to_json(self) -> dict:
        return {
            "input": {
                "i": self.input.i,
                "a": self.input.a,
                "b": self.input.b,
                "n": self.input.n,
                "k_range": list(self.input.k_range),
            },
            "ordering": self.ordering,
            "all_interior": self.all_interior,
            "steps": [
                {
                    "k": s.k,
                    "coords": list(map(str, s.coords)),
                    "rays": list(s.ray_labels),
                    "ray_coefficients": list(map(str, s.ray_coefficients)),
                    "position": s.position,
                }
                for s in self.steps
            ],
        }

    def json_str(self) -> str:
        return canonical_json(self.to_json())

    def text(self) -> str:
        inp = self.input
        lines = [
            f"butler i={inp.i} A={inp.a}H+{inp.b}F n={inp.n} "
            f"ordering={self.ordering}: "
            f"{'all interior' if self.all_interior else 'NOT all interior'}"
        ]
        for s in self.steps:
            coeffs = ", ".join(f"{lab}: {c}" for lab, c in zip(s.ray_labels, s.ray_coefficients))
            lines.append(f"  k={s.k}: {s.position} [{coeffs}]")
        return "\n".join(lines) + "\n"


def butler_check(inp: ButlerInput, ordering: str = ORDER_B) -> ButlerReport:
    """Per-k position of F_k - K in the nef cone of F_i^[2,1], with the
    coefficient vector on the five spanning rays: the table's nef
    certificate holds, so the witness functionals w_j it keeps and its rays
    obey the diagonal rule, and the coefficient on ray j is (w_j . x) / D_jj,
    signed like x on the facet w_j."""
    table = butler_table(inp.i)
    cert = certify_nef(table.surface, table.space, table.rays, table.witnesses)
    if not cert.ok:
        raise InvalidInput(f"the nef table of F_{inp.i}^[2,1] is not certified: {cert.verdict}")
    steps = []
    for k in range(inp.k_range[0], inp.k_range[1] + 1):
        cls = butler_class(inp, k, ordering)
        coeffs = tuple(ratio(vdot(f, cls.coords), row[j])
                       for j, (f, row) in enumerate(zip(cert.functionals, cert.matrix)))
        low = min(coeffs)
        where = Position.OUTSIDE if low < 0 else Position.BOUNDARY if low == 0 else Position.INTERIOR
        steps.append(ButlerStep(k, cls.coords, cert.ray_labels, coeffs, where))
    return ButlerReport(inp, ordering, tuple(steps))


# ---------------------------------------------------------------------------
# Asymptotic limit cone
# ---------------------------------------------------------------------------

# All the cones E_k live in one fixed 4-dimensional frame, basis (H1, H2,
# B1, B2); the identification between consecutive spaces acts as the
# identity on these coordinates.  Translation assumption (flagged): B1 is
# the same-support nonreduced locus (Bdiff) and B2 the locus where the
# smaller subscheme is nonreduced (Bb).
FRAME_DIM = 4


def a_k(k: int) -> int:
    """binom(k+2,2) - 1, the dimension count for degree-k plane curves."""
    return comb(k + 2, 2) - 1


class MovingCurve(NamedTuple):
    """One of the four facet functionals cutting out E_k, together with the
    extremal ray of E_k it annihilates and that ray's deviation from the
    corresponding limit ray."""

    name: str
    functional: tuple[Rat, ...]
    annihilated_ray: tuple[Rat, ...]
    deviation: Rat


def _moving_curves(d: Rat) -> list[MovingCurve]:
    """The four facet functionals with deviation d: the two fixed
    coordinate-plane functionals and the normals of the extremal rays
    H1 - d B1 and H2 - d B2."""
    z, one = 0, 1
    return [
        MovingCurve("plane(H2,B1,B2)", (one, z, z, z), (z, z, one, z), z),
        MovingCurve("plane(H1,B1,B2)", (z, one, z, z), (z, z, z, one), z),
        MovingCurve(f"normal of H1-{d}B1", (d, z, one, z), (one, z, -d, z), d),
        MovingCurve(f"normal of H2-{d}B2", (z, d, z, one), (z, one, z, -d), d),
    ]


def asymptotic_moving_curves(k: int) -> list[MovingCurve]:
    """The four moving-curve functionals cutting out E_k in the frame
    (H1, H2, B1, B2).  Their deviations k/(2 a_k) and k/(2(a'_k - 1)) are
    one number, since a'_k - 1 = a_k."""
    if k < 1:
        raise RangeError(f"k must be >= 1, got {k}")
    return _moving_curves(ratio(k, 2 * a_k(k)))


def _certified(curves: list[MovingCurve]) -> tuple[list[IVec], list[IVec]]:
    """The curves' functionals W and sorted rays R, primitive, once the
    diagonal rule on W'.R^T certifies dual(W) = cone(R); row j of W' is the
    first functional positive on ray j (W_j if none).  On failure, a W that
    does not span the frame raises NotPointed, else InvalidInput names the cell."""
    functionals = [primitive(m.functional) for m in curves]
    rays = sorted(primitive(m.annihilated_ray) for m in curves)
    pairs = [[vdot(w, r) for r in rays] for w in functionals]
    rows = [next((i for i, row in enumerate(pairs) if row[j] > 0), j) for j in range(len(rays))]
    cell = diagonal_failure([pairs[i] for i in rows], FRAME_DIM)
    if cell and len(rref(functionals)[1]) < FRAME_DIM:
        raise NotPointed("cross-sections require a pointed cone")
    if cell:
        i, j = rows[cell[0]], cell[1]
        raise InvalidInput(f"moving curve {curves[i].name} pairs to {pairs[i][j]} with ray {rays[j]}")
    return functionals, rays


def limit_cone() -> Cone:
    return cone_from_rays(
        FRAME_DIM,
        [tuple(1 if j == i else 0 for j in range(FRAME_DIM)) for i in range(FRAME_DIM)],
    )


class AsymptoticStep(NamedTuple):
    k: int
    deviation_1: Rat
    deviation_2: Rat
    nested_in_previous: bool
    contains_limit: bool
    section_distance: Rat  # max-coordinate distance of vertices to the limit square


class AsymptoticReport(NamedTuple):
    k_max: int
    steps: tuple[AsymptoticStep, ...]
    limit_is_orthant: bool

    @property
    def ok(self) -> bool:
        monotone = all(
            self.steps[i].deviation_1 > self.steps[i + 1].deviation_1
            and self.steps[i].deviation_2 > self.steps[i + 1].deviation_2
            for i in range(len(self.steps) - 1)
        )
        return (
            self.limit_is_orthant
            and monotone
            and all(
                s.nested_in_previous
                and s.contains_limit
                and s.section_distance * s.k <= 1
                for s in self.steps
            )
        )

    def to_json(self) -> dict:
        return {
            "k_max": self.k_max,
            "ok": self.ok,
            "limit_is_orthant": self.limit_is_orthant,
            "steps": [
                {
                    "k": s.k,
                    "deviation_1": str(s.deviation_1),
                    "deviation_2": str(s.deviation_2),
                    "nested_in_previous": s.nested_in_previous,
                    "contains_limit": s.contains_limit,
                    "section_distance": str(s.section_distance),
                }
                for s in self.steps
            ],
        }

    def json_str(self) -> str:
        return canonical_json(self.to_json())

    def text(self) -> str:
        lines = [
            f"asymptotic study up to k={self.k_max}: {'OK' if self.ok else 'FAIL'}",
            f"  limit cone is the coordinate orthant: {self.limit_is_orthant}",
        ]
        for s in self.steps:
            lines.append(
                f"  k={s.k}: deviations {s.deviation_1}, {s.deviation_2}; "
                f"nested={s.nested_in_previous}; section distance {s.section_distance}"
            )
        return "\n".join(lines) + "\n"


def _nonnegative(functionals: Sequence[IVec], rays: Sequence[IVec]) -> bool:
    """Whether every functional is >= 0 on every ray: the rays lie in the
    dual of the functionals, since y is in dual(W) exactly when W . y >= 0."""
    return all(vdot(f, r) >= 0 for f in functionals for r in rays)


def _section_distance(rays: Sequence[IVec]) -> Rat:
    """Max-coordinate distance between the coordsum cross-section vertices
    r/s (s the coordinate sum of r) of the extreme rays and the nearest
    vertex of the limit square, a unit vector e_i.  In integers,
    |r_j/s - e_ij| = |r_j - s e_ij| / s, with one ratio at the end."""
    num, den = 0, 1
    for r in rays:
        s = sum(r)
        if s <= 0:
            raise FunctionalNotPositive(f"functional is not strictly positive on ray {r}")
        n = min(
            max(abs(x - s) if j == i else abs(x) for j, x in enumerate(r))
            for i in range(len(r))
        )
        if n * den > num * s:
            num, den = n, s
    return ratio(num, den)


def asymptotic_report(k_max: int) -> AsymptoticReport:
    """Steps k = 2..k_max, each reading E_k = cone(R_k) off the diagonal
    rule on W_k . R_k^T, and the limit check at deviation 0; no DD runs.
    k_max is at most `_MAX_STEPS` + 1, one step per k."""
    if k_max < 2:
        raise RangeError(f"k_max must be >= 2, got {k_max}")
    if k_max > _MAX_STEPS + 1:
        raise RangeError(f"k_max must be <= {_MAX_STEPS + 1}")
    limit = limit_cone()
    steps = []
    prev = [primitive(m.functional) for m in asymptotic_moving_curves(1)]
    for k in range(2, k_max + 1):
        curves = asymptotic_moving_curves(k)
        functionals, rays = _certified(curves)
        steps.append(
            AsymptoticStep(
                k=k,
                deviation_1=curves[2].deviation,
                deviation_2=curves[3].deviation,
                nested_in_previous=_nonnegative(prev, rays),
                contains_limit=_nonnegative(functionals, limit.rays),
                section_distance=_section_distance(rays),
            )
        )
        prev = functionals
    # The deviations shrink to 0, so the E_k decrease to the cone cut out at
    # deviation 0, whose primitive rays must be the limit's.
    limit_ok = set(_certified(_moving_curves(0))[1]) == set(limit.rays)
    return AsymptoticReport(k_max, tuple(steps), limit_ok)
