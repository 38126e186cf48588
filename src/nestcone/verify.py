"""Certificate workflows and the embedded table catalog.

Two kinds of certificates are produced:

* ``NefDual``   - a claimed nef cone is certified by exhibiting, for each
  spanning divisor ray, an effective curve dual to it; the pairing matrix
  alone decides, by the diagonal rule (``diagonal_failure``), that the cone
  of rays equals the dual of the cone of witness-curve functionals.
* ``EffMoving`` - a claimed pseudoeffective cone is certified against moving
  curves: all pairings non-negative and cone(rays) equal to the dual of the
  moving-curve functionals, decided by the double-description engine (the
  only certificate that runs it).  The identity holds exactly when every
  generator of their dual, read off one DD over the functionals, lies in
  cone(rays); a generator that is one of the rays needs no more, and only
  when one is not does a second DD, over the rays, test it.

Whether an individual ray really is nef/effective (and whether a curve
really moves) is geometric input, not something a lattice computation can
decide; every ray therefore carries a provenance tag and the certified
statement is exactly the convex-duality identity.

The registry is ``CATALOG``: each table id maps to one ``TableSpec``, its
default parameters, its kind (``NEF_DUAL`` or ``EFF_MOVING`` for the 11
certified tables, else None) and its builder.  ``certified_tables`` reads
the kind.  One helper, ``_lookup``, reads the registry once per call of
``table_params``, ``table_sections``, ``table_inputs``,
``standard_{nef,eff}_certificate`` and ``reproduce_table``: it raises
``UnknownTable`` for an id that is unknown or of the wrong kind, then
``RangeError`` for a parameter the table does not take.

Every table flows one way: its builder returns one ``SectionInputs`` per
section (``table_sections``), a ``TableInputs`` (rays, witnesses, expected
pairings) with what the section prints, and ``reproduce_table`` makes each
section alike.  One ``Certificate`` decides a section whose kind is set and
whose labels all resolve, and its matrix gives the cells; any other section
is paired cell by cell, with a kind's check skipped.  So the chart is
certified entry by entry, and a certified table's one section gives
``table_inputs``: its cone for cross-sections (``TableInputs.cone``) and
the Butler study's nef certificate; ``standard_{nef,eff}_certificate``
certify it under its own kind.  Each witness's functional is computed
once, from the pairing table's rows: every cell is a dot product with it,
the dual-cone check reads it, and ``Certificate.functionals`` keeps it.

The catalog reproduces reference intersection tables cell by cell.  The
P^2 pairing and eff tables are data: each is a ``_LabelTable`` of (printed
label, reading) rows and columns, such as (H_1, H^diff) or (C_{2,0},
C^b_{l,2}), and its expected matrix.  One reader, ``_read``, decodes their
readings and the summary chart's labels through ``_chart_divisor`` and
``_chart_curve``, so each class a label names is decided in one place; a
label with no known definition (C^c_*, E_1, 2D^a_{3/2}, 2D^b_{3/2})
decodes to None, stays unresolved, and its cells are reported as SKIPPED,
never silently passed.
"""

import re
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .cone import (
    COORD_SUM,
    Cone,
    CrossSection,
    cone_contains,
    cone_from_rays,
    cross_section,
    dual,
    positive_functional,
)
from .errors import EmptyInput, FunctionalNotPositive, RangeError, SpaceMismatch, UnknownTable
from .pairing import (
    curve_family_a,
    curve_family_a_alt,
    curve_family_b,
    curve_family_b_alt,
    curve_functional,
    g1n_curve,
    k3_extremal_slope,
    nodal_curves_k3,
)
from .rationals import Rat, canonical_csv, canonical_json, primitive, vdot
from .spaces import (
    CurClass,
    DivClass,
    SurfaceModel,
    SpaceId,
    SpaceKind,
    curve,
    divisor,
    divisor_rank,
    hilb,
    hirzebruch,
    k3,
    nested,
    p1xp1,
    p2,
    tautological,
    tautological_a,
    tautological_b,
    univ,
)

__all__ = (
    "PULLBACK_OF_NEF", "RESIDUE_OF_NEF", "ASSERTED", "Provenance", "RaySpec",
    "WitnessSpec", "TableInputs", "NEF_DUAL", "EFF_MOVING", "CERTIFIED", "Certificate",
    "diagonal_failure", "certify_nef", "certify_eff", "MATCH", "DIFF", "SKIPPED",
    "CellCheck", "SectionCheck", "TableSection", "TableReport", "SectionInputs",
    "EFF_P2_3_2_PRINTED_VARIANT", "TableSpec", "CATALOG", "certified_tables",
    "table_params", "table_sections", "table_inputs", "standard_nef_certificate",
    "standard_eff_certificate", "reproduce_table", "table_cross_section",
)

# ---------------------------------------------------------------------------
# Provenance and certificates
# ---------------------------------------------------------------------------

PULLBACK_OF_NEF = "pullback-of-nef"
RESIDUE_OF_NEF = "residue-of-nef"
ASSERTED = "asserted"


class Provenance(NamedTuple):
    """Why a ray is believed nef/effective (geometric input, cited)."""

    tag: str
    note: str = ""


class RaySpec(NamedTuple):
    label: str
    cls: DivClass
    provenance: Provenance


class WitnessSpec(NamedTuple):
    label: str
    cls: CurClass


class TableInputs(NamedTuple):
    """What a table section is built from: its rays and witnesses on
    `space` over `surface` (a class is None where a label is unresolved),
    and the exact pairings the reference prints (rows = witnesses, cols =
    rays; None where nothing is printed)."""

    surface: SurfaceModel
    space: SpaceId
    rays: Sequence[RaySpec]
    witnesses: Sequence[WitnessSpec]
    expected: Sequence[Sequence] | None

    @property
    def cone(self) -> Cone:
        """cone(rays) in the divisor lattice of the space."""
        return cone_from_rays(
            divisor_rank(self.surface, self.space), [r.cls.coords for r in self.rays]
        )


NEF_DUAL = "NefDual"
EFF_MOVING = "EffMoving"

CERTIFIED = "certified"


class Certificate(NamedTuple):
    kind: str
    surface: str
    space: str
    ray_labels: tuple[str, ...]
    rays: tuple[DivClass, ...]
    provenance: tuple[Provenance, ...]
    witness_labels: tuple[str, ...]
    witnesses: tuple[CurClass, ...]
    matrix: tuple[tuple[Rat, ...], ...]  # rows = witnesses, cols = rays
    verdict: str
    functionals: tuple[tuple[Rat, ...], ...]  # one per witness; not in the JSON

    @property
    def ok(self) -> bool:
        return self.verdict == CERTIFIED

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "surface": self.surface,
            "space": self.space,
            "rays": [
                {
                    "label": lab,
                    "coords": list(map(str, ray.coords)),
                    "provenance": {"tag": p.tag, "note": p.note},
                }
                for lab, ray, p in zip(self.ray_labels, self.rays, self.provenance)
            ],
            "witnesses": [
                {"label": lab, "coords": list(map(str, w.coords))}
                for lab, w in zip(self.witness_labels, self.witnesses)
            ],
            "matrix": [list(map(str, row)) for row in self.matrix],
            "verdict": self.verdict,
        }

    def json_str(self) -> str:
        return canonical_json(self.to_json())


def _pair_all(curves: Sequence[CurClass | None], divisors: Sequence[DivClass | None]):
    """(functionals, matrix) of curves against divisors: each curve's
    functional is computed once and each cell (rows = curves, cols =
    divisors) is one dot product with it; None where a class is unresolved."""
    fs = [None if c is None else curve_functional(c) for c in curves]
    cells = [[None if f is None or d is None else vdot(f, d.coords) for d in divisors] for f in fs]
    return fs, tuple(map(tuple, cells))


def diagonal_failure(matrix: Sequence[Sequence[Rat]], rank: int) -> tuple[int, int] | None:
    """The first cell (row, col) at which `matrix` breaks the diagonal rule,
    or None: the rule asks for a square matrix of size `rank`, positive on
    the diagonal and zero elsewhere.  Then W.R^T = D makes the rays R and
    witness functionals W of a rank-`rank` lattice bases, and cone(R) =
    dual(W): y = R^T c lies in dual(W) <=> D c >= 0 <=> c >= 0.  No DD runs.
    Cells are read row by row; a matrix that is not square (tested first)
    or of the wrong size (tested last) fails at (n, n), n its smaller side."""
    n = min([len(matrix), *map(len, matrix)])
    if any(len(row) != len(matrix) for row in matrix):
        return n, n
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            if x <= 0 if i == j else x != 0:
                return i, j
    return None if n == rank else (n, n)


def _certify(kind: str, inp: TableInputs) -> Certificate:
    """The certificate of `kind` for `inp`: NefDual is decided by the
    diagonal rule on its matrix alone, EffMoving by whether cone(rays)
    holds every generator of the dual of the witness functionals."""
    surface, space, rays, witnesses, _ = inp
    for x in (*rays, *witnesses):
        if (x.cls.surface, x.cls.space) != (surface, space):
            raise SpaceMismatch(f"{x.label} is not a class on {surface.key}/{space}")
    if not rays or not witnesses:
        raise EmptyInput("a cone needs at least one nonzero generator")
    functionals, matrix = _pair_all([w.cls for w in witnesses], [r.cls for r in rays])
    negative = next(((x, w, r) for w, row in zip(witnesses, matrix)
                     for r, x in zip(rays, row) if x < 0), None)
    larger = "failed: dual cone strictly larger than the span of the rays"
    if negative:
        x, w, r = negative
        verdict = f"failed: negative pairing {x} between witness {w.label} and ray {r.label}"
    elif kind == EFF_MOVING:
        # No pairing is negative, so cone(R) lies in dual(W), W the
        # moving-curve functionals: the identity holds exactly when every
        # generator of dual(W), read off W's one DD, lies in cone(R).  The
        # quick test, that each is a ray of cone(R), is complete when
        # dual(W) is pointed: if it equals cone(R), each of its extreme rays
        # is a positive multiple of a ray of cone(R), and equal to it, both
        # being primitive.  Only a dual with a lineality space, or a failing
        # certificate, runs a second DD, over R.
        ray_cone = inp.cone
        dual_w = dual(cone_from_rays(ray_cone.dim, functionals))
        holds = set(dual_w.rays) <= set(ray_cone.rays) or cone_contains(ray_cone, dual_w)
        verdict = CERTIFIED if holds else larger
    elif (cell := diagonal_failure(matrix, divisor_rank(surface, space))) is None:
        verdict = CERTIFIED
    elif len(rays) != len(witnesses):
        verdict = "failed: matrix not diagonal-compatible (not square)"
    elif cell[0] < len(witnesses):
        w, r = witnesses[cell[0]], rays[cell[1]]
        verdict = f"failed: matrix not diagonal-compatible at ({w.label}, {r.label})"
    else:
        verdict = larger
    return Certificate(
        kind=kind,
        surface=surface.key,
        space=str(space),
        ray_labels=tuple(r.label for r in rays),
        rays=tuple(r.cls for r in rays),
        provenance=tuple(r.provenance for r in rays),
        witness_labels=tuple(w.label for w in witnesses),
        witnesses=tuple(w.cls for w in witnesses),
        matrix=matrix,
        verdict=verdict,
        functionals=tuple(functionals),
    )


def certify_nef(
    surface: SurfaceModel,
    space: SpaceId,
    rays: Sequence[RaySpec],
    witnesses: Sequence[WitnessSpec],
) -> Certificate:
    """Certify a nef cone: the rays span the dual of the witness cone, as
    the diagonal rule on their pairing matrix decides with no
    double-description run.  No rays or no witnesses raise EmptyInput."""
    return _certify(NEF_DUAL, TableInputs(surface, space, rays, witnesses, None))


def certify_eff(
    surface: SurfaceModel,
    space: SpaceId,
    rays: Sequence[RaySpec],
    moving: Sequence[WitnessSpec],
) -> Certificate:
    """Certify a pseudoeffective cone against moving curves: all pairings
    non-negative and cone(rays) equal to the dual of the moving-curve
    functionals.  No rays or no moving curves raise EmptyInput."""
    return _certify(EFF_MOVING, TableInputs(surface, space, rays, moving, None))


# ---------------------------------------------------------------------------
# Table reports
# ---------------------------------------------------------------------------

MATCH = "match"
DIFF = "diff"
SKIPPED = "skipped"


class CellCheck(NamedTuple):
    row: str
    col: str
    expected: Rat | None
    computed: Rat | None
    status: str


class SectionCheck(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""


class TableSection(NamedTuple):
    title: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: tuple[CellCheck, ...]
    checks: tuple[SectionCheck, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.status != DIFF for c in self.cells) and all(
            c.status != "fail" for c in self.checks
        )


class TableReport(NamedTuple):
    table_id: str
    params: dict
    sections: tuple[TableSection, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.sections)

    def to_json(self) -> dict:
        sections = [
            {
                "title": s.title,
                "rows": list(s.row_labels),
                "cols": list(s.col_labels),
                "cells": [
                    {
                        "row": c.row,
                        "col": c.col,
                        "expected": None if c.expected is None else str(c.expected),
                        "computed": None if c.computed is None else str(c.computed),
                        "status": c.status,
                    }
                    for c in s.cells
                ],
                "checks": [
                    {"name": c.name, "status": c.status, "detail": c.detail}
                    for c in s.checks
                ],
                "notes": list(s.notes),
                "ok": s.ok,
            }
            for s in self.sections
        ]
        return {
            "table": self.table_id,
            "params": self.params,
            "ok": all(s["ok"] for s in sections),
            "sections": sections,
        }

    def json_str(self) -> str:
        return canonical_json(self.to_json())

    def text(self) -> str:
        lines = [f"table {self.table_id} {self.params}: {'OK' if self.ok else 'FAIL'}"]
        for s in self.sections:
            lines.append(f"  [{s.title}] {'OK' if s.ok else 'FAIL'}")
            for c in s.cells:
                if c.status != MATCH:
                    exp = "-" if c.expected is None else str(c.expected)
                    got = "-" if c.computed is None else str(c.computed)
                    lines.append(
                        f"    cell ({c.row}, {c.col}): {c.status} expected={exp} computed={got}"
                    )
            for c in s.checks:
                lines.append(f"    check {c.name}: {c.status} {c.detail}".rstrip())
            for n in s.notes:
                lines.append(f"    note: {n}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        """One row per cell; a missing value (None) is an empty field."""
        header = ("section", "row", "col", "expected", "computed", "status")
        return canonical_csv([header] + [
            (s.title, c.row, c.col, c.expected, c.computed, c.status)
            for s in self.sections for c in s.cells
        ])


class SectionInputs(NamedTuple):
    """One section of a catalog table: its inputs, title and notes, the kind
    of certificate that decides it (None: its cells are only paired), the
    name of its check and the fixed detail of a passing check (None: the
    verdict; a failing check always prints its verdict)."""

    inputs: TableInputs
    title: str
    kind: str | None = None
    check: str = ""
    detail: str | None = None
    notes: tuple[str, ...] = ()


def _section(sec: SectionInputs) -> TableSection:
    """The section `sec` prints: certified when its kind is set and every
    label resolves, else paired cell by cell with a kind's check skipped.
    A cell matches its expected value or, where none is printed, is >= 0."""
    _, _, rays, witnesses, expected = inp = sec.inputs
    rows, cols = tuple(w.label for w in witnesses), tuple(r.label for r in rays)
    unresolved = [x.label for x in (*witnesses, *rays) if x.cls is None]
    if sec.kind is None or unresolved:
        matrix = _pair_all([w.cls for w in witnesses], [r.cls for r in rays])[1]
        status, detail = SKIPPED, "unresolved labels: " + ", ".join(unresolved)
    else:
        cert = _certify(sec.kind, inp)
        matrix = cert.matrix
        status, detail = ("pass", sec.detail or cert.verdict) if cert.ok else ("fail", cert.verdict)
    cells = []
    expected = expected or [[None] * len(cols)] * len(rows)
    for rl, got_row, exp_row in zip(rows, matrix, expected, strict=True):
        for cl, got, exp in zip(cols, got_row, exp_row, strict=True):
            if got is None:
                cell = SKIPPED
            elif exp is None:
                cell = MATCH if got >= 0 else DIFF
            else:
                cell = MATCH if got == exp else DIFF
            cells.append(CellCheck(rl, cl, exp, got, cell))
    checks = (SectionCheck(sec.check, status, detail),) if sec.kind else ()
    return TableSection(sec.title, rows, cols, tuple(cells), checks, sec.notes)


_CHECK_NAMES = {NEF_DUAL: "nef duality certificate", EFF_MOVING: "moving-curve duality certificate"}


def _certified(table_id: str, kind: str, inp: TableInputs, *notes: str) -> tuple[SectionInputs]:
    """The one section of a table certified by `kind`."""
    title = f"{table_id} ({inp.surface.key}, {inp.space})"
    return (SectionInputs(inp, title, kind, _CHECK_NAMES[kind], None, notes),)


# ---------------------------------------------------------------------------
# Tables in legacy labels: the pairing tables, the eff tables and the chart
# ---------------------------------------------------------------------------

# The legacy source prints the row C_{1,0} of the Eff(P^2[3,2]) table as
# (1, 0, 2, 0, 0); that is incompatible with the exact divisor identity
# B_1 = 2H_1 - 2D_{1,1} + 2D_{2,1} (the B_1/B_2 cells are transposed).  The
# catalog stores the corrected row; the variant is kept for regression.
EFF_P2_3_2_PRINTED_VARIANT = {"C_{1,0}": (1, 0, 2, 0, 0)}


# The summary chart, entry by entry: (space, ray labels, moving-curve labels).
# Each label is its own reading.
_CHART = [
    (univ(3), ("H^diff", "B", "H^b", "D^a_1"),
     ("C^a_{l,1}", "C^b_{l,1}", "C^a_{l,2}", "C^b_{l,2}")),
    (univ(4), ("H^diff", "B", "H^b", "2D^a_{3/2}"),
     ("C^a_{l,1}", "C^b_{l,1}", "C^a_{q,4}", "C^b_{q,4}")),
    (univ(5), ("H^diff", "B", "H^b", "D^a_2"),
     ("C^a_{l,1}", "C^b_{l,1}", "C^a_{q,5}", "C^b_{q,5}")),
    (univ(6), ("H^diff", "B", "H^b", "D^a_2"),
     ("C^a_{l,1}", "C^b_{l,1}", "C^a_{q,5}", "C^b_{q,5}")),
    (nested(2), ("H^diff", "B^a", "B^b", "D^a_1", "D^b_1"),
     ("C^a_{l,1}", "C^b_{l,1}", "C^a_{l,2}", "C^b_{l,2}", "C^c_{l,2}")),
    (nested(3), ("H^diff", "B^a", "B^b", "D^b_1", "E_1"),
     ("C^a_{l,1}", "C^b_{l,1}", "C^b_{l,2}", "C^c_{l,2}", "C^a_{q,4}", "C^b_{q,3}")),
    (nested(4), ("H^diff", "B^a", "B^b", "2D^b_{3/2}", "E_1"),
     ("C^a_{l,1}", "C^b_{l,1}", "C^c_{l,2}", "C^a_{q,5}", "C^b_{q,4}", "C^c_{q,4}")),
]

_TAUTOLOGICAL_LABEL = re.compile(r"D\^([ab])_(\d+)")
_SWEPT_LABEL = re.compile(r"C\^([abc])_\{([lq]),(\d+)\}")


def _chart_divisor(sp: SpaceId, label: str) -> DivClass | None:
    """A ray on P^2 by its reading: an H label is a basis divisor; B, B^diff
    and B^b are twice their basis halves; B^a is the pullback of the full
    nonreduced locus, B^a = B^diff + B^b; D^a_k and D^b_k are tautological
    classes.  E_1 and 2D^?_{3/2} have no printed definition and resolve to
    None."""
    s = p2()
    if label == "B^a":
        return _chart_divisor(sp, "B^diff") + _chart_divisor(sp, "B^b")
    if label in ("B", "B^b", "B^diff"):
        return 2 * divisor(s, sp, label + "/2")
    if label.startswith("H"):
        return divisor(s, sp, label)
    m = _TAUTOLOGICAL_LABEL.fullmatch(label)
    if m is None:
        return None
    return (tautological_a if m[1] == "a" else tautological_b)(s, sp, int(m[2]))


def _chart_curve(sp: SpaceId, label: str) -> CurClass | None:
    """A curve on P^2 by its reading: C^a_{gamma,r} and C^b_{gamma,r} sweep
    the line l or the conic q through r points, in legacy indexing: on a
    universal family the marked point is not counted in r
    (curve_family_a_alt), and on Nested(n) the b side keeps a constant Aa
    coefficient (curve_family_b_alt).  C^c_* has no printed definition and
    resolves to None.  A reading 'X - Y' is X minus Y, and any other
    reading is a basis curve."""
    m = _SWEPT_LABEL.fullmatch(label)
    if m is None:
        head, _, tail = label.partition(" - ")
        return _chart_curve(sp, head) - _chart_curve(sp, tail) if tail else curve(p2(), sp, label)
    side, gamma, r = m.groups()
    if side == "c":
        return None
    if sp.kind is SpaceKind.UNIV:
        family = curve_family_a_alt if side == "a" else curve_family_b
    else:
        family = curve_family_a if side == "a" else curve_family_b_alt
    return family(p2(), sp, {"l": 1, "q": 2}[gamma], int(r))


# Every ray of a table in legacy labels is tagged an asserted effective
# generator; only a certificate reads a ray's provenance, and a section
# without a kind prints none.
_EFFECTIVE = Provenance(ASSERTED, "effective generator of the claimed cone")


def _read(sp: SpaceId, rows, cols, expected) -> TableInputs:
    """Inputs on P^2 of (label, reading) rows against (label, reading) cols:
    of an eff table or chart entry (moving curves against effective rays)
    and of a pairing table.  _chart_curve reads each row's reading and
    _chart_divisor each col's."""
    rays = [RaySpec(lab, _chart_divisor(sp, r), _EFFECTIVE) for lab, r in cols]
    # Asserted geometric input: each moving curve's irreducible
    # representatives cover a dense open set.
    moving = [WitnessSpec(lab, _chart_curve(sp, r)) for lab, r in rows]
    return TableInputs(p2(), sp, rays, moving, expected)


def _eff_summary(table_id: str) -> tuple[SectionInputs, ...]:
    """One section per chart entry, certified against its moving curves;
    an entry with an unresolved label has its resolvable cells paired and
    its dual-cone check skipped."""
    return tuple(
        SectionInputs(
            _read(sp, zip(curve_labels, curve_labels), zip(ray_labels, ray_labels), None),
            f"Eff(P2[{sp.n},1])" if sp.kind is SpaceKind.UNIV else f"Eff(P2[{sp.n + 1},{sp.n}])",
            EFF_MOVING, "dual-cone equality", "cone(rays) == dual(moving-curve functionals)",
        )
        for sp, ray_labels, curve_labels in _CHART
    )


class _LabelTable(NamedTuple):
    """Builder of a P^2 table in printed labels: each moving curve (row) and
    ray (column) is a (printed label, reading) pair, read by `_read`.  A
    table on `space(n)` is a pairing table, paired cell by cell; a table on
    a fixed space, `space()`, is an eff table, certified against its moving
    curves with its `notes`."""

    space: Callable
    rows: tuple[tuple[str, str], ...]
    cols: tuple[tuple[str, str], ...]
    expected: tuple[tuple[int, ...], ...]
    notes: tuple[str, ...] = ()

    def __call__(self, table_id: str, **params) -> tuple[SectionInputs, ...]:
        sp = self.space(*params.values())
        inp = _read(sp, self.rows, self.cols, self.expected)
        if params:
            return (SectionInputs(inp, f"{table_id} (n={params['n']})"),)
        return _certified(table_id, EFF_MOVING, inp, *self.notes)


# ---------------------------------------------------------------------------
# Nef tables: one template per space kind, fed by one record per surface
# ---------------------------------------------------------------------------
# A surface record is (X, labels of the nef generators H_j of X, the
# extremal curves gamma_j dual to them as (label, class)).  A K3 record has
# no such curves: its witnesses are the nodal curves, with gamma . H = 2g-2,
# and its extremal tautological slope is f(m) = k3_extremal_slope(g, m).
# A template returns its space and its rows in printed order, a row being
# (ray label, ray, provenance, witness label, witness, diagonal).  Each row
# is named by a side and a point count alone: the side ('' on X^[n], 'a'
# or 'b' on a nested space or universal family) fixes the basis suffix, the
# D/A heads, the tautological map and the provenance, and the count (n + 1,
# n or n - 1) every label written in n.

def _nef_p2():
    return p2(), ("H",), (("l", 1),)


def _nef_f0():
    return p1xp1(), ("H_1", "H_2"), (("(0,1)", (0, 1)), ("(1,0)", (1, 0)))


def _nef_fi(i: int):
    return hirzebruch(i), ("H", "F"), (("F", (0, 1)), ("E", (1, -i)))


def _nef_k3(g: int):
    return k3(g), ("H",), None


def _in_n(sp: SpaceId, m: int) -> str:
    """The count m written in the n of sp: n, n+1 or n-1."""
    return "n" if m == sp.n else f"n{m - sp.n:+d}"


def _pulled(record, sp: SpaceId, side: str, r: int) -> list[tuple]:
    """The rows pairing each nef generator of X, pulled back to sp (by the
    residue map on side 'a', basis suffix diff), with its dual curve swept
    along `side` through r points."""
    s, gens, curves = record
    suffix, head = ("diff" if side == "a" else side), (f"C^{side}" if side else "C")
    if curves is None:
        ca, cb = nodal_curves_k3(s, sp)
        wits = [(f"{head}_nodal", cb if side == "b" else ca, 2 * s.genus - 2)]
    else:
        family = curve_family_b if side == "b" else curve_family_a
        wits = [(f"{head}_{{{lab},{_in_n(sp, r)}}}", family(s, sp, gamma, r), 1)
                for lab, gamma in curves]
    prov = (Provenance(RESIDUE_OF_NEF, "pull_res of a nef class") if side == "a"
            else Provenance(PULLBACK_OF_NEF, "pull_b of a nef class") if side
            else Provenance(ASSERTED, "induced nef class on the Hilbert scheme"))
    return [
        (f"{lab}^{suffix}" if suffix else lab, divisor(s, sp, name + suffix), prov, *wit)
        for lab, name, wit in zip(gens, s.generator_names, wits)
    ]


def _extremal(record, sp: SpaceId, side: str, m: int) -> tuple:
    """The row of the extremal tautological class of X^[m], pulled back to
    sp along `side`, against the curve A on that side."""
    s, sup = record[0], f"^{side}" if side else ""
    if s.genus is not None:
        sub, slope = f"f({m})", k3_extremal_slope(s.genus, m)
    else:
        k = _in_n(sp, m - 1)
        sub, slope = (k if s.rank == 1 else f"({k},{k})"), (m - 1,) * s.rank
    ray = (tautological_a(s, sp, slope) if side == "a" else tautological_b(s, sp, slope) if side
           else tautological(s, sp.n, slope))
    prov = (Provenance(PULLBACK_OF_NEF, f"pull_{side} of a nef tautological class") if side
            else Provenance(ASSERTED, "tautological class of a spanning line bundle"))
    label = f"D{sup}_{sub}" if len(sub) == 1 else f"D{sup}_{{{sub}}}"
    return label, ray, prov, f"A{sup}", curve(s, sp, f"A{sup}"), 1


def _hilb_template(record, n: int):
    sp = hilb(n)
    return sp, [*_pulled(record, sp, "", n), _extremal(record, sp, "", n)]


def _nested_template(record, n: int):
    """Rank 1 prints the b side first, each side's generators before its
    extremal class; rank 2 prints the generators of both sides first."""
    sp = nested(n)
    diff, b = _pulled(record, sp, "a", n + 1), _pulled(record, sp, "b", n)
    da, db = _extremal(record, sp, "a", n + 1), _extremal(record, sp, "b", n)
    return sp, [*b, db, *diff, da] if record[0].rank == 1 else [*diff, *b, da, db]


def _univ_template(record, n: int):
    sp = univ(n)
    return sp, [*_pulled(record, sp, "a", n - 1), *_pulled(record, sp, "b", n),
                _extremal(record, sp, "a", n)]


class _NefTable(NamedTuple):
    """Builder of a catalog nef table: `template` fed by the surface
    `record` gives its rows; the expected matrix is diagonal, and the rays
    keep their provenance notes where the table `cite`s them."""

    template: Callable
    record: Callable
    cite: bool = False

    def __call__(self, table_id: str, n: int, **surface_params) -> tuple[SectionInputs, ...]:
        record = self.record(**surface_params)
        sp, rows = self.template(record, n)
        k = len(rows)
        rays = [RaySpec(lab, ray, p if self.cite else Provenance(p.tag))
                for lab, ray, p, _, _, _ in rows]
        wits = [WitnessSpec(lab, cls) for _, _, _, lab, cls, _ in rows]
        expected = [[0] * i + [d] + [0] * (k - i - 1) for i, (*_, d) in enumerate(rows)]
        return _certified(table_id, NEF_DUAL, TableInputs(record[0], sp, rays, wits, expected))


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

class TableSpec(NamedTuple):
    """A catalog table: its default parameters, its kind (NEF_DUAL or
    EFF_MOVING for a certified table, which has one section, else None) and
    its builder, `build(table_id, **params)`, which returns one
    SectionInputs per section."""

    defaults: dict
    kind: str | None
    build: Callable


def _k3_g1n(table_id: str, g: int, n: int) -> tuple[SectionInputs, ...]:
    s = k3(g)
    sp = hilb(n)
    wits = [WitnessSpec("g^1_n", g1n_curve(s, sp)), WitnessSpec("A", curve(s, sp, "A"))]
    rays = [RaySpec("H", divisor(s, sp, "H"), _EFFECTIVE),
            RaySpec(f"D_{{f({n})}}", tautological(s, n, k3_extremal_slope(g, n)), _EFFECTIVE)]
    inp = TableInputs(s, sp, rays, wits, [[2 * g - 2, 0], [0, 1]])
    return (SectionInputs(inp, f"{table_id} (g={g}, n={n})"),)


CATALOG: dict[str, TableSpec] = {
    # nef cone of P2^[n]: spanning rays against dual curves
    "hilb_p2_nef": TableSpec({"n": 3}, NEF_DUAL, _NefTable(_hilb_template, _nef_p2, cite=True)),
    # nef cone of P2^[n+1,n]: spanning rays against dual curves
    "nef_p2_nested": TableSpec({"n": 3}, NEF_DUAL, _NefTable(_nested_template, _nef_p2, cite=True)),
    # nef cone of (P1xP1)^[n+1,n]
    "nef_f0_nested": TableSpec({"n": 3}, NEF_DUAL, _NefTable(_nested_template, _nef_f0)),
    # nef cone of F_i^[n+1,n]
    "nef_fi_nested": TableSpec({"i": 1, "n": 3}, NEF_DUAL, _NefTable(_nested_template, _nef_fi)),
    # nef cone of K3^[n+1,n] for a general genus-g K3 (n >= g+1)
    "nef_k3_nested": TableSpec({"g": 3, "n": 4}, NEF_DUAL, _NefTable(_nested_template, _nef_k3)),
    # nef cone of the universal family P2^[n,1]
    "nef_p2_univ": TableSpec({"n": 3}, NEF_DUAL, _NefTable(_univ_template, _nef_p2)),
    # nef cone of (P1xP1)^[n,1]
    "nef_f0_univ": TableSpec({"n": 3}, NEF_DUAL, _NefTable(_univ_template, _nef_f0)),
    # nef cone of F_i^[n,1]
    "nef_fi_univ": TableSpec({"i": 1, "n": 3}, NEF_DUAL, _NefTable(_univ_template, _nef_fi)),
    # nef cone of K3^[n,1] (n >= g+1)
    "nef_k3_univ": TableSpec({"g": 3, "n": 4}, NEF_DUAL, _NefTable(_univ_template, _nef_k3)),
    # intersection table of the P2 Hilbert-scheme bases
    "pairing_p2_hilb": TableSpec({"n": 3}, None, _LabelTable(
        hilb,
        (("C_0", "C^a_{l,2}"), ("C_1", "C1"), ("A", "A")),
        (("H", "H"), ("B", "B")),
        ((1, 2), (1, 0), (0, -2)),
    )),
    # intersection table of the P2 nested bases; C^b_0 is read as
    # C^b_{l,1} - A^b, which is C^b_{l,2} on Nested(n >= 2) and also holds on
    # Nested(1), where no b-curve passes through 2 points
    "pairing_p2_nested": TableSpec({"n": 3}, None, _LabelTable(
        nested,
        (("C^a_0", "C^a_{l,2}"), ("C^a_1", "C^a_{l,1}"), ("A^a", "Aa"),
         ("C^b_0", "C^b_{l,1} - Ab"), ("C^b_1", "Cb1"), ("A^b", "Ab")),
        (("H^diff", "H^diff"), ("B^diff", "B^diff"), ("H^b", "H^b"), ("B^b", "B^b")),
        ((1, 2, 0, 0), (1, 0, 0, 0), (0, -2, 0, 0), (0, 0, 1, 2), (0, 0, 1, 0), (0, 2, 0, -2)),
    )),
    # effective cone of P2^[2,1] against its moving curves, modeled on the
    # universal family Univ(2): the formal nested(1) lattice is
    # rank-degenerate (the subscheme is a single reduced point, so Bb and Ab
    # vanish), and Univ(2) carries exactly the three independent directions
    # plus the tautological ray
    "eff_p2_2_1": TableSpec({}, EFF_MOVING, _LabelTable(
        partial(univ, 2),
        (("C_{2,1,1}", "C^a_{l,2}"), ("C_{1,1,2}", "C^b_{l,2}"), ("C_{1,1}", "C^a_{l,1}"),
         ("C_{2,1}", "C^b_{l,1}")),
        (("H_1", "H^diff"), ("H_2", "H^b"), ("B", "B"), ("D_{1,1}", "D^a_1")),
        ((1, 0, 2, 0), (0, 1, 2, 0), (1, 0, 0, 1), (0, 1, 0, 1)),
    )),
    # effective cone of P2^[3,2] against its moving curves, on Nested(2) in
    # the legacy frame H_1 = Hdiff, B_1 = Bdiff, B_2 = Bb,
    # D_{1,k} = k(H_1+H_2) - (B_1+B_2)/2, D_{2,k} = kH_2 - B_2/2; its row
    # C_{1,0} is corrected (EFF_P2_3_2_PRINTED_VARIANT)
    "eff_p2_3_2": TableSpec({}, EFF_MOVING, _LabelTable(
        partial(nested, 2),
        (("C_{1,1}", "C^a_{l,1}"), ("C_{2,1}", "Cb1"), ("C_{1,0}", "C^a_{l,2}"),
         ("C_{2,0}", "C^b_{l,2}"), ("C_{1,1,1}", "C^b_{l,1}")),
        (("H_1", "H^diff"), ("B_1", "B^diff"), ("B_2", "B^b"), ("D_{1,1}", "D^a_1"),
         ("D_{2,1}", "D^b_1")),
        ((1, 0, 0, 1, 0), (0, 0, 0, 1, 1), (1, 2, 0, 0, 0), (0, 0, 2, 0, 0), (0, 2, 0, 0, 1)),
        ("row C_{1,0}: the legacy source prints (1,0,2,0,0); the B_1/B_2 cells are "
         "transposed there and the catalog stores the corrected row (1,2,0,0,0)",),
    )),
    # summary chart of effective cones; unresolved labels are skipped
    "eff_summary": TableSpec({}, None, _eff_summary),
    # g^1_n fiber-class pairings on K3^[n]
    "k3_g1n": TableSpec({"g": 3, "n": 4}, None, _k3_g1n),
}


def certified_tables(*kinds: str) -> list[str]:
    """Sorted ids of the catalog tables certified by one of `kinds`."""
    return sorted(tid for tid, spec in CATALOG.items() if spec.kind in kinds)


def _lookup(table_id: str, given: dict, *kinds: str) -> tuple[TableSpec, dict]:
    """The entry of `table_id`, certified by one of `kinds` if any are given
    (else an UnknownTable), and its parameters as `table_params` merges them."""
    spec = CATALOG.get(table_id)
    if spec is None or (kinds and spec.kind not in kinds):
        known = [tid for tid, s in CATALOG.items() if not kinds or s.kind in kinds]
        what = "/".join(kinds) + " " if kinds else ""
        raise UnknownTable(f"unknown {what}table {table_id!r}; known: {', '.join(sorted(known))}")
    given = {k: v for k, v in given.items() if v is not None}
    stray = [k for k in given if k not in spec.defaults]
    if stray:
        raise RangeError(f"table {table_id} takes no parameter {stray[0]!r}")
    return spec, {**spec.defaults, **given}


def table_params(table_id: str, **given) -> dict:
    """The table's default parameters, overridden by the values given that
    are not None; a value for a parameter the table does not take is a
    RangeError."""
    return _lookup(table_id, given)[1]


def table_sections(table_id: str, **params) -> tuple[SectionInputs, ...]:
    """The inputs of each section of a catalog table, in order."""
    spec, merged = _lookup(table_id, params)
    return spec.build(table_id, **merged)


def table_inputs(table_id: str, **params) -> TableInputs:
    """(surface, space, rays, witnesses, expected) of a certified table."""
    spec, merged = _lookup(table_id, params, NEF_DUAL, EFF_MOVING)
    return spec.build(table_id, **merged)[0].inputs


def _standard(table_id: str, params: dict, kind: str) -> Certificate:
    """The certificate of a table certified by `kind`, decided under the
    kind of its one section."""
    spec, merged = _lookup(table_id, params, kind)
    return _certify((sec := spec.build(table_id, **merged)[0]).kind, sec.inputs)


def standard_nef_certificate(table_id: str, **params) -> Certificate:
    return _standard(table_id, params, NEF_DUAL)


def standard_eff_certificate(table_id: str) -> Certificate:
    return _standard(table_id, {}, EFF_MOVING)


def reproduce_table(table_id: str, **params) -> TableReport:
    """Recompute every cell of a catalog table from the pairing engine and
    report exact equality (or, for generator charts, non-negativity), with
    unresolved labels reported as SKIPPED."""
    spec, merged = _lookup(table_id, params)
    return TableReport(table_id, merged, tuple(map(_section, spec.build(table_id, **merged))))


def table_cross_section(table_id: str, **params) -> tuple[CrossSection, list[str]]:
    """Cross-section of a table's cone at coordinate sum 1 (at the cone's
    positive functional where the coordinate sum is not positive on every
    ray), with each vertex labelled by the first table ray through it.  Every
    vertex has one: it is an extremal generator of the table's cone, stored
    as the primitive form of a table ray, and a positive multiple of a vector
    has the same primitive form."""
    inp = table_inputs(table_id, **params)
    cone = inp.cone
    try:
        cs = cross_section(cone, COORD_SUM)
    except FunctionalNotPositive:
        cs = cross_section(cone, positive_functional(cone))
    label = {primitive(r.cls.coords): r.label for r in reversed(inp.rays)}
    return cs, [label[primitive(v)] for v in cs.vertices]
