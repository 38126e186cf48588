import csv
import io
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nestcone as nc
import nestcone.cone
from brute_cone import BruteCone, dot, rank, rref
from nestcone.cone import cone_equal, cone_from_rays, dual
from nestcone.errors import EmptyInput, RangeError, SpaceMismatch, UnknownTable
from nestcone.pairing import curve_functional
from nestcone.rationals import canonical_csv, vdot
from nestcone.spaces import univ
from nestcone.verify import (
    EFF_MOVING,
    EFF_P2_3_2_PRINTED_VARIANT,
    NEF_DUAL,
    RaySpec,
    WitnessSpec,
    _pair_all,
    certified_tables,
    diagonal_failure,
    table_inputs,
)


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# Catalog reproduction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("table_id", sorted(nc.CATALOG))
def test_catalog_defaults_ok(table_id):
    report = nc.reproduce_table(table_id)
    assert report.ok, report.text()


def test_pairing_tables_reproduce_on_their_smallest_space():
    """Hilb(2) and Nested(1); on Nested(1) no b-curve passes through 2
    points, and C^b_0 still reads, as C^b_{l,1} - A^b."""
    for table_id, n in (("pairing_p2_hilb", 2), ("pairing_p2_nested", 1)):
        report = nc.reproduce_table(table_id, n=n)
        assert {c.status for s in report.sections for c in s.cells} == {"match"}, report.text()


def test_unknown_table():
    with pytest.raises(UnknownTable):
        nc.reproduce_table("no_such_table")
    with pytest.raises(RangeError):
        nc.reproduce_table("eff_p2_2_1", n=5)  # takes no parameters


@pytest.mark.parametrize(
    "lookup, table_id",
    [
        (table_inputs, "pairing_p2_hilb"),  # no certificate
        (nc.standard_nef_certificate, "eff_p2_2_1"),
        (nc.standard_eff_certificate, "nef_p2_nested"),
        (nc.standard_eff_certificate, "no_such_table"),
        (nc.table_params, "no_such_table"),
    ],
)
def test_table_of_the_wrong_kind_is_unknown(lookup, table_id):
    """The known list is the sorted ids of the kinds the lookup asks for,
    or every id when it asks for none."""
    kinds = {table_inputs: (NEF_DUAL, EFF_MOVING), nc.standard_nef_certificate: (NEF_DUAL,),
             nc.standard_eff_certificate: (EFF_MOVING,)}.get(lookup, ())
    known = certified_tables(*kinds) if kinds else sorted(nc.CATALOG)
    with pytest.raises(UnknownTable) as e:
        lookup(table_id)
    assert str(e.value).endswith(f"table {table_id!r}; known: {', '.join(known)}")


class _CountingCatalog(dict):
    """The registry, counting its reads by id."""

    reads = 0

    def get(self, *args):
        self.reads += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize(
    "call, table_id",
    [
        (nc.reproduce_table, "nef_p2_nested"),
        (nc.reproduce_table, "eff_summary"),
        (nc.table_sections, "pairing_p2_hilb"),
        (table_inputs, "nef_k3_univ"),
        (nc.standard_nef_certificate, "nef_fi_univ"),
        (nc.standard_eff_certificate, "eff_p2_3_2"),
    ],
)
def test_a_catalog_call_reads_the_registry_once(monkeypatch, call, table_id):
    catalog = _CountingCatalog(nc.CATALOG)
    monkeypatch.setattr(nestcone.verify, "CATALOG", catalog)
    call(table_id)
    assert catalog.reads == 1


def test_expected_cells_arrive_in_normal_form():
    """Every expected cell a builder writes is None, an int or a Fraction
    that is not integral, so a report takes it as it is."""
    from test_golden import NON_DEFAULT

    for tid in sorted(nc.CATALOG):
        for params in ({}, NON_DEFAULT.get(tid)):
            if params is None:
                continue
            for sec in nc.table_sections(tid, **params):
                for x in (x for row in sec.inputs.expected or () for x in row):
                    assert x is None or type(x) is int or (
                        type(x) is Fraction and x.denominator > 1), (tid, params, x)


def test_k3_param_validation():
    with pytest.raises(RangeError):
        nc.reproduce_table("nef_k3_nested", g=3, n=3)  # needs n >= g+1
    with pytest.raises(RangeError):
        nc.reproduce_table("k3_g1n", g=3, n=3)
    assert nc.reproduce_table("nef_k3_nested", g=4, n=5).ok


def test_report_json_ok_follows_its_sections():
    good = nc.TableSection("a", ("r",), ("c",), (nc.CellCheck("r", "c", 1, 1, "match"),))
    bad_cell = good._replace(title="b", cells=(nc.CellCheck("r", "c", 1, 2, "diff"),))
    bad_check = good._replace(title="c", checks=(nc.SectionCheck("x", "fail"),))
    for sections, oks in [((good,), [True]), ((good, bad_cell, bad_check), [True, False, False])]:
        report = nc.TableReport("t", {}, sections)
        doc = report.to_json()
        assert [s["ok"] for s in doc["sections"]] == oks
        assert doc["ok"] is report.ok is all(oks)


def test_report_serialization_deterministic():
    a = nc.reproduce_table("nef_p2_nested", n=4)
    b = nc.reproduce_table("nef_p2_nested", n=4)
    assert a.json_str() == b.json_str()
    assert a.to_csv() == b.to_csv()
    payload = a.to_json()
    assert payload["ok"] is True
    assert payload["params"] == {"n": 4}


# The chart entries left uncertified, each with its unresolved labels
# (moving curves first, then rays).
_UNRESOLVED = {
    "Eff(P2[4,1])": ["2D^a_{3/2}"],
    "Eff(P2[3,2])": ["C^c_{l,2}"],
    "Eff(P2[4,3])": ["C^c_{l,2}", "E_1"],
    "Eff(P2[5,4])": ["C^c_{l,2}", "C^c_{q,4}", "2D^b_{3/2}", "E_1"],
}


def test_table_sections_walk_every_section_of_the_catalog(monkeypatch):
    """`table_sections` reads all 21 sections of the 15 tables; a section is
    certified exactly when its kind is set and every label resolves: the 11
    certified tables and 3 chart entries."""
    certified = []
    certify = nestcone.verify._certify
    monkeypatch.setattr(nestcone.verify, "_certify",
                        lambda kind, inp: certified.append(inp) or certify(kind, inp))
    walked = {tid: nc.table_sections(tid) for tid in sorted(nc.CATALOG)}
    assert sum(map(len, walked.values())) == 21
    assert certified == []  # reading the inputs certifies nothing
    reports = {tid: nc.reproduce_table(tid) for tid in walked}
    unresolved = {
        s.title: [x.label for x in (*s.inputs.witnesses, *s.inputs.rays) if x.cls is None]
        for sections in walked.values() for s in sections
    }
    assert {title: labels for title, labels in unresolved.items() if labels} == _UNRESOLVED
    decided = [s.inputs for sections in walked.values() for s in sections
               if s.kind and not unresolved[s.title]]
    assert len(certified) == 14 and certified == decided
    chart = {s.title: s.checks for s in reports["eff_summary"].sections}
    for title, labels in _UNRESOLVED.items():
        detail = "unresolved labels: " + ", ".join(labels)
        assert chart[title] == (nc.SectionCheck("dual-cone equality", "skipped", detail),)
    for tid in certified_tables(NEF_DUAL, EFF_MOVING):
        assert len(walked[tid]) == 1 and walked[tid][0].inputs == table_inputs(tid)


def test_a_failing_chart_entry_states_its_verdict(monkeypatch):
    """A chart entry whose certificate fails prints the certificate's
    verdict as its detail, not the equality the entry claims; every other
    entry keeps its check."""
    before = {s.title: s.checks for s in nc.reproduce_table("eff_summary").sections}
    chart_divisor = nestcone.verify._chart_divisor

    def wrong(sp, label):  # D^a_1 on univ(3) read as 2 D^a_1 + H^b
        d = chart_divisor(sp, label)
        return 2 * d + chart_divisor(sp, "H^b") if (sp, label) == (univ(3), "D^a_1") else d

    monkeypatch.setattr(nestcone.verify, "_chart_divisor", wrong)
    after = {s.title: s.checks for s in nc.reproduce_table("eff_summary").sections}
    verdict = "failed: dual cone strictly larger than the span of the rays"
    assert after.pop("Eff(P2[3,1])") == (nc.SectionCheck("dual-cone equality", "fail", verdict),)
    assert before.pop("Eff(P2[3,1])")[0].status == "pass"
    assert after == before


@pytest.mark.parametrize("table_id", certified_tables(NEF_DUAL, EFF_MOVING))
def test_a_certified_tables_one_section_carries_its_catalog_kind(table_id):
    """The standard certificate is decided under the kind of the table's
    one section, which is the table's kind in `CATALOG`."""
    kind = nc.CATALOG[table_id].kind
    (section,) = nc.table_sections(table_id)
    assert section.kind == kind
    standard = nc.standard_nef_certificate if kind == NEF_DUAL else nc.standard_eff_certificate
    assert standard(table_id).kind == kind


def test_a_section_with_an_unresolved_label_is_paired_not_certified(monkeypatch):
    inp = table_inputs("eff_p2_2_1")
    *rays, last = inp.rays
    stub = nc.SectionInputs(inp._replace(rays=[*rays, last._replace(cls=None)]), "stub",
                            EFF_MOVING, "stub check")
    monkeypatch.setitem(nc.CATALOG, "stub", nc.TableSpec({}, None, lambda table_id: (stub,)))

    def no_certificate(kind, inp):
        raise AssertionError("a section with an unresolved label was certified")

    monkeypatch.setattr(nestcone.verify, "_certify", no_certificate)
    (section,) = nc.reproduce_table("stub").sections
    assert section.checks == (nc.SectionCheck("stub check", "skipped", "unresolved labels: D_{1,1}"),)
    assert {(c.col, c.status) for c in section.cells} == {
        *((r.label, "match") for r in rays), (last.label, "skipped")
    }
    assert section.ok


# ---------------------------------------------------------------------------
# Nef certificates: positive and negative controls
# ---------------------------------------------------------------------------

def test_nef_certificate_identity_matrix():
    cert = nc.standard_nef_certificate("nef_p2_nested", n=5)
    assert cert.ok
    k = len(cert.matrix)
    for i in range(k):
        for j in range(k):
            assert cert.matrix[i][j] == (1 if i == j else 0)


def test_nef_certificate_k3_diagonal():
    cert = nc.standard_nef_certificate("nef_k3_nested", g=4, n=6)
    assert cert.ok
    diag = [cert.matrix[i][i] for i in range(4)]
    assert diag == [F(6), F(1), F(6), F(1)]  # (2g-2, 1, 2g-2, 1)


def test_nef_certificate_swapped_witnesses_fails():
    s, sp, rays, wits, _ = table_inputs("nef_p2_nested", n=3)
    swapped = [wits[1], wits[0]] + list(wits[2:])
    cert = nc.certify_nef(s, sp, rays, swapped)
    assert not cert.ok
    assert "diagonal" in cert.verdict


def test_nef_certificate_bad_ray_fails():
    s, sp, rays, wits, _ = table_inputs("nef_p2_univ", n=3)
    # Replace one spanning ray by a non-nef class: pairing goes negative.
    bad = RaySpec(
        "bad", rays[0].cls - nc.divisor(s, sp, "Hb") * 5, rays[0].provenance
    )
    cert = nc.certify_nef(s, sp, [bad] + list(rays[1:]), wits)
    assert not cert.ok
    assert cert.verdict.startswith("failed")


@pytest.mark.parametrize(
    "surface, space", [(nc.k3(5), nc.nested(3)), (nc.p2(), nc.nested(7))],
    ids=["wrong-surface", "wrong-n"],
)
def test_certificate_rejects_classes_off_its_space(surface, space):
    _, _, rays, wits, _ = table_inputs("nef_p2_nested", n=3)
    with pytest.raises(SpaceMismatch, match=re.escape(rays[0].label)):
        nc.certify_nef(surface, space, rays, wits)
    with pytest.raises(SpaceMismatch, match=re.escape(wits[0].label)):
        nc.certify_eff(surface, space, [], wits)


def test_nef_certificate_not_square_fails():
    s, sp, rays, wits, _ = table_inputs("nef_p2_nested", n=3)
    cert = nc.certify_nef(s, sp, rays[:3], wits)
    assert cert.verdict == "failed: matrix not diagonal-compatible (not square)"


def test_nef_certificate_missing_ray_fails_cone_equality():
    s, sp, rays, wits, _ = table_inputs("nef_p2_nested", n=3)
    cert = nc.certify_nef(s, sp, rays[:3], wits[:3])
    # dual of 3 witnesses in rank 4 is bigger than 3 rays
    assert cert.verdict == "failed: dual cone strictly larger than the span of the rays"


# One non-default parameter set per NefDual table, next to its defaults.
_NEF_PARAMS = {
    "hilb_p2_nef": {"n": 5},
    "nef_f0_nested": {"n": 5},
    "nef_f0_univ": {"n": 4},
    "nef_fi_nested": {"i": 2, "n": 4},
    "nef_fi_univ": {"i": 3, "n": 5},
    "nef_k3_nested": {"g": 4, "n": 6},
    "nef_k3_univ": {"g": 5, "n": 6},
    "nef_p2_nested": {"n": 6},
    "nef_p2_univ": {"n": 5},
}


def _dd_identity(inp) -> bool:
    """cone(rays) = dual(witness functionals), decided by the DD engine."""
    functionals = [curve_functional(w.cls) for w in inp.witnesses]
    return cone_equal(inp.cone, dual(cone_from_rays(inp.cone.dim, functionals)))


def test_nef_params_cover_every_nef_table():
    assert sorted(_NEF_PARAMS) == certified_tables(NEF_DUAL)


@pytest.mark.parametrize(
    "table_id, params",
    [(t, {}) for t in certified_tables(NEF_DUAL)] + sorted(_NEF_PARAMS.items()),
)
def test_nef_certificate_agrees_with_dd_cross_check(table_id, params):
    """The diagonal theorem certifies these tables with no DD; the DD
    engine confirms the cone identity it stands for."""
    assert nc.standard_nef_certificate(table_id, **params).verdict == "certified"
    assert _dd_identity(table_inputs(table_id, **params))


@pytest.fixture
def dd_calls(monkeypatch):
    """The number of `cone._dd` runs so far, counted by a wrapper."""
    calls = []
    real = nestcone.cone._dd

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(nestcone.cone, "_dd", counted)
    return calls


def test_full_rank_nef_certificate_runs_no_dd(dd_calls):
    assert nc.standard_nef_certificate("nef_p2_nested", n=3).ok
    assert dd_calls == []
    s, sp, rays, wits, _ = table_inputs("nef_p2_nested", n=3)
    nc.certify_nef(s, sp, rays[:3], wits[:3])  # k < dim: the matrix decides too
    assert dd_calls == []


@pytest.mark.parametrize(
    "table_id, params",
    [(t, {}) for t in certified_tables(NEF_DUAL)] + sorted(_NEF_PARAMS.items()),
)
def test_nef_tables_run_no_dd(dd_calls, table_id, params):
    assert nc.standard_nef_certificate(table_id, **params).ok
    assert dd_calls == []


def test_certify_nef_without_rays_is_empty_input():
    s, sp = nc.p2(), nc.nested(3)
    with pytest.raises(EmptyInput, match="^a cone needs at least one nonzero generator$"):
        nc.certify_nef(s, sp, [], [])


@pytest.mark.parametrize("certify, table_id", [
    (nc.certify_nef, "nef_p2_nested"), (nc.certify_eff, "eff_p2_3_2"),
])
@pytest.mark.parametrize("empty_side", ["rays", "witnesses"])
def test_an_empty_side_is_empty_input_for_both_kinds(certify, table_id, empty_side):
    s, sp, rays, wits, _ = table_inputs(table_id)
    args = ([], wits) if empty_side == "rays" else (rays, [])
    with pytest.raises(EmptyInput, match="^a cone needs at least one nonzero generator$"):
        certify(s, sp, *args)


@pytest.mark.parametrize(
    "matrix, rank, cell",
    [
        ([[2, 0], [0, Fraction(1, 3)]], 2, None),
        ([[1, 0, 0], [0, 1, 0]], 3, (2, 2)),  # not square: past the shorter side
        ([[1, 5], [0]], 2, (1, 1)),  # a short row is not square either
        ([[1, 0], [0, 1], [0, 0]], 2, (2, 2)),
        ([[1, 0, 0], [0, 1, -1], [0, 0, 1]], 3, (1, 2)),  # nonzero off the diagonal
        ([[1, 0, 0], [0, 0, 0], [0, 0, 1]], 3, (1, 1)),  # zero on the diagonal
        ([[1, 0], [0, -2]], 2, (1, 1)),  # negative on the diagonal
        ([[0, 1], [1, 0]], 2, (0, 0)),  # a permuted diagonal fails at its first cell
        ([[1, 0], [0, 1]], 3, (2, 2)),  # diagonal but smaller than the rank
        ([], 1, (0, 0)),
    ],
)
def test_diagonal_failure_names_the_first_failing_cell(matrix, rank, cell):
    assert diagonal_failure(matrix, rank) == cell


_ENTRY = st.integers(-6, 6)


def _witness(rays, i: int, d: int):
    """The curve W with pair(R_j, W) = d for j = i and 0 otherwise, solved by
    the independent Fraction elimination `brute_cone.rref`."""
    s, sp = rays[0].cls.surface, rays[0].cls.space
    m = nc.pairing_table(s, sp).matrix
    dim = len(m)
    system = [
        [*(dot(row, ray.cls.coords) for row in m), d if j == i else 0]
        for j, ray in enumerate(rays)
    ]
    reduced, pivots = rref(system, dim + 1)
    assert pivots == list(range(dim))
    return nc.CurClass(s, sp, tuple(row[-1] for row in reduced))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(_ENTRY, min_size=4, max_size=4), min_size=4, max_size=4),
    st.lists(st.integers(1, 50), min_size=4, max_size=4),
)
def test_diagonal_theorem_hypothesis(r, diagonal):
    """Any basis R of the p2/nested(3) divisor lattice and positive diagonal
    D: the curves with W.R^T = D certify cone(R) as nef, and the DD engine
    agrees that cone(R) = dual(W).  The first k < 4 rays and witnesses fail,
    and the DD engine agrees that cone(R) != dual(W) there."""
    assume(rank(r, 4) == 4)
    s, sp = nc.p2(), nc.nested(3)
    why = nc.Provenance(nc.ASSERTED)
    rays = [RaySpec(f"R{j}", nc.DivClass(s, sp, row), why) for j, row in enumerate(r)]
    wits = [WitnessSpec(f"W{i}", _witness(rays, i, d)) for i, d in enumerate(diagonal)]
    cert = nc.certify_nef(s, sp, rays, wits)
    assert cert.verdict == "certified"
    assert [cert.matrix[i][i] for i in range(4)] == diagonal
    assert _dd_identity(nc.TableInputs(s, sp, rays, wits, None))
    for k in range(1, 4):
        cert = nc.certify_nef(s, sp, rays[:k], wits[:k])
        assert cert.verdict == "failed: dual cone strictly larger than the span of the rays"
        assert not _dd_identity(nc.TableInputs(s, sp, rays[:k], wits[:k], None))


def test_certificate_provenance_and_json():
    cert = nc.standard_nef_certificate("nef_fi_univ", i=2, n=4)
    assert cert.ok
    tags = {p.tag for p in cert.provenance}
    assert tags <= {nc.PULLBACK_OF_NEF, nc.RESIDUE_OF_NEF, nc.ASSERTED}
    assert nc.RESIDUE_OF_NEF in tags and nc.PULLBACK_OF_NEF in tags
    a = cert.json_str()
    b = nc.standard_nef_certificate("nef_fi_univ", i=2, n=4).json_str()
    assert a == b
    assert '"verdict":"certified"' in a


@pytest.mark.parametrize("table_id", certified_tables(NEF_DUAL, EFF_MOVING))
def test_certificate_keeps_its_witness_functionals(table_id):
    """One functional per witness, in witness order: the one each cell of
    the matrix is paired with.  The JSON does not print them."""
    s, sp, rays, wits, _ = table_inputs(table_id)
    certify = nc.certify_nef if nc.CATALOG[table_id].kind == NEF_DUAL else nc.certify_eff
    cert = certify(s, sp, rays, wits)
    assert cert.functionals == tuple(curve_functional(w.cls) for w in wits)
    assert cert.matrix == tuple(tuple(nc.pair(r.cls, w.cls) for r in rays) for w in wits)
    assert "functionals" not in cert.to_json()


_PAIR_SPACES = [(nc.p2(), nc.hilb(3)), (nc.p2(), nc.nested(2)), (nc.k3(3), nc.univ(2)), (nc.k3(4), nc.nested(3))]
_FRACTION = st.fractions(-3, 3, max_denominator=6)
_SMALL = st.integers(-3, 3)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pair_all_is_vdot_cell_by_cell(data):
    """Every cell of `_pair_all` equals `vdot` of the curve's functional
    with the divisor's coordinates, in value and in type (an `int` when
    integral), for divisors with `Fraction` coordinates and all-`int`
    ones, against curves with `int` or `Fraction` coordinates; an
    unresolved class gives None."""
    s, sp = data.draw(st.sampled_from(_PAIR_SPACES))
    d, c = nc.divisor_rank(s, sp), nc.curve_rank(s, sp)
    divisors = [nc.DivClass(s, sp, coords) for coords in data.draw(st.lists(
        st.tuples(*[st.one_of(_FRACTION, _SMALL)] * d), min_size=1, max_size=4))]
    curves = [nc.CurClass(s, sp, coords) for coords in data.draw(st.lists(
        st.one_of(st.tuples(*[_SMALL] * c), st.tuples(*[_FRACTION] * c)), min_size=1, max_size=3))]
    functionals, matrix = _pair_all([*curves, None], [None, *divisors])
    assert functionals == [*map(curve_functional, curves), None]
    assert matrix[-1] == (None,) * (len(divisors) + 1)
    for cur, row in zip(curves, matrix):
        expected = [vdot(curve_functional(cur), div.coords) for div in divisors]
        assert row[0] is None and list(row[1:]) == expected
        assert [type(x) for x in row[1:]] == [type(x) for x in expected]


def test_provenance_tags_are_reconstructible():
    """Rays tagged pullback/residue really are pull_b/pull_a/pull_res images."""
    s, sp, rays, _, _ = table_inputs("nef_p2_nested", n=4)
    by_label = {r.label: r for r in rays}
    assert by_label["H^b"].cls.coords == nc.pull_b(
        nc.divisor(s, nc.hilb(4), "H"), sp
    ).coords
    assert by_label["H^diff"].cls.coords == nc.pull_res(
        nc.surface_divisor(s, 1), sp
    ).coords
    assert by_label["D^a_n"].cls.coords == nc.pull_a(
        nc.tautological(s, 5, 4), sp
    ).coords
    assert by_label["D^b_{n-1}"].cls.coords == nc.pull_b(
        nc.tautological(s, 4, 3), sp
    ).coords


# ---------------------------------------------------------------------------
# Effective certificates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("table_id", ["eff_p2_2_1", "eff_p2_3_2"])
def test_eff_certificates(table_id):
    cert = nc.standard_eff_certificate(table_id)
    assert cert.ok
    for row in cert.matrix:
        assert all(x >= 0 for x in row)


def test_certify_eff_public_api():
    s, sp, rays, moving, _ = table_inputs("eff_p2_2_1")
    cert = nc.certify_eff(s, sp, rays, moving)
    assert cert.ok
    assert cert.json_str() == nc.standard_eff_certificate("eff_p2_2_1").json_str()
    # A moving curve negated pairs negatively with some ray.
    flipped = WitnessSpec(moving[0].label, -moving[0].cls)
    cert = nc.certify_eff(s, sp, rays, [flipped] + list(moving[1:]))
    assert not cert.ok
    assert cert.verdict.startswith("failed: negative pairing -")
    assert f"witness {flipped.label} and ray" in cert.verdict


def test_eff_contains_nef():
    # Eff(P2[2,1]) on Univ(2) contains Nef(P2[2,1]).
    eff = nc.table_inputs("eff_p2_2_1").cone
    nef = nc.table_inputs("nef_p2_univ", n=2).cone
    assert nc.cone_contains(eff, nef)
    assert not nc.cone_equal(eff, nef)
    # Eff(P2[3,2]) on Nested(2) contains Nef(P2[3,2]).
    eff2 = nc.table_inputs("eff_p2_3_2").cone
    nef2 = nc.table_inputs("nef_p2_nested", n=2).cone
    assert nc.cone_contains(eff2, nef2)


def test_printed_variant_regression():
    """The corrected row passes; the printed row (with the transposed B
    cells) provably cannot: it contradicts the exact class dictionary."""
    s, sp, rays, moving, expected = table_inputs("eff_p2_3_2")
    c10 = next(w.cls for w in moving if w.label == "C_{1,0}")
    printed = EFF_P2_3_2_PRINTED_VARIANT["C_{1,0}"]
    computed = tuple(nc.pair(r.cls, c10) for r in rays)
    assert computed == (F(1), F(2), F(0), F(0), F(0))
    assert computed != tuple(F(x) for x in printed)
    # the discrepancy is exactly a B_1/B_2 transposition
    assert printed == (1, 0, 2, 0, 0)


def test_eff_summary_skip_handling():
    report = nc.reproduce_table("eff_summary")
    assert report.ok
    statuses = {c.status for s in report.sections for c in s.cells}
    assert statuses == {"match", "skipped"}
    skipped_rows = {
        c.row for s in report.sections for c in s.cells if c.status == "skipped"
    }
    skipped_cols = {
        c.col for s in report.sections for c in s.cells if c.status == "skipped"
    }
    assert any(lbl.startswith("C^c") for lbl in skipped_rows)
    assert "E_1" in skipped_cols
    assert "2D^a_{3/2}" in skipped_cols
    assert "2D^b_{3/2}" in skipped_cols
    # rows with every label resolved additionally get the dual-cone check
    by_title = {s.title: s for s in report.sections}
    for title in ("Eff(P2[3,1])", "Eff(P2[5,1])", "Eff(P2[6,1])"):
        checks = {c.name: c.status for c in by_title[title].checks}
        assert checks["dual-cone equality"] == "pass"
    for title in ("Eff(P2[4,1])", "Eff(P2[3,2])", "Eff(P2[4,3])", "Eff(P2[5,4])"):
        checks = {c.name: c.status for c in by_title[title].checks}
        assert checks["dual-cone equality"] == "skipped"


@pytest.mark.parametrize("table_id", ["eff_p2_2_1", "eff_p2_3_2"])
def test_eff_certificate_runs_one_dd(dd_calls, table_id):
    # The moving curves span the lattice, so the DD over them decides alone.
    assert nc.standard_eff_certificate(table_id).ok
    assert len(dd_calls) == 1


def test_eff_summary_runs_one_dd_per_certified_entry(dd_calls):
    assert nc.reproduce_table("eff_summary").ok
    assert len(dd_calls) == 3


def _curve_with_functional(s, sp, w):
    """The curve whose functional is w, solved by the independent Fraction
    elimination `brute_cone.rref`: sum_i c_i M[i][j] = w_j."""
    m = nc.pairing_table(s, sp).matrix
    dim = len(m)
    reduced, pivots = rref([[*(row[j] for row in m), w[j]] for j in range(dim)], dim + 1)
    assert pivots == list(range(dim))
    return nc.CurClass(s, sp, tuple(row[-1] for row in reduced))


def _brute_dual(d, functionals):
    """Generators of dual(W) by `brute_cone`: the facet normals of cone(W)
    and +/- a basis of its orthogonal complement, the dual's lineality."""
    oracle = BruteCone(d, functionals)
    return oracle.facets + oracle.perp + [tuple(-x for x in p) for p in oracle.perp]


def _brute_is_dual(d, rays, functionals) -> bool:
    """cone(R) = dual(W) by `brute_cone`: all pairings are >= 0, and every
    generator of dual(W) satisfies cone(R)'s facet inequalities and lies in
    span(R)."""
    if any(dot(w, r) < 0 for w in functionals for r in rays):
        return False
    cone = BruteCone(d, rays)
    gens = _brute_dual(d, functionals)
    return all(dot(f, g) >= 0 for f in cone.facets for g in gens) and all(
        dot(p, g) == 0 for p in cone.perp for g in gens
    )


_EFF_SPACES = [(nc.p2(), nc.hilb(3)), (nc.p2(), nc.univ(2)), (nc.p2(), nc.nested(3))]


@st.composite
def _eff_cases(draw):
    """A space of divisor rank d = 2..4, functionals W spanning a k-dim
    subspace (k < d: their dual has a lineality space; half the cases have
    k = d), and rays R drawn around dual(W): its generators at random
    positive scales, those plus a sum of some of them, those with one
    replaced by such a sum or dropped, nonnegative combinations of them, or
    random vectors."""
    s, sp = draw(st.sampled_from(_EFF_SPACES))
    d = nc.divisor_rank(s, sp)
    k = d if draw(st.booleans()) else draw(st.integers(1, d - 1))
    ws = draw(st.lists(st.tuples(*[_SMALL] * k), min_size=k, max_size=k + 2))
    if k < d:
        embed = draw(st.lists(st.tuples(*[_SMALL] * k), min_size=d, max_size=d))
        ws = [tuple(dot(row, w) for row in embed) for w in ws]
    assume(any(any(w) for w in ws))
    gens = _brute_dual(d, ws)
    shape = draw(st.sampled_from(["exact", "extra", "swap", "drop", "combos", "random"]))
    if shape == "random" or not gens:
        rays = draw(st.lists(st.tuples(*[_SMALL] * d), min_size=1, max_size=6))
    elif shape == "combos":
        weights = st.lists(st.integers(0, 2), min_size=len(gens), max_size=len(gens))
        rays = [
            tuple(sum(c * g[j] for c, g in zip(cs, gens)) for j in range(d))
            for cs in draw(st.lists(weights, min_size=1, max_size=6))
        ]
    else:
        scales = draw(st.lists(st.integers(1, 3), min_size=len(gens), max_size=len(gens)))
        rays = [tuple(c * x for x in g) for c, g in zip(scales, gens)]
        some = tuple(map(sum, zip(*draw(st.lists(st.sampled_from(gens), min_size=2, max_size=3)))))
        if shape in ("swap", "drop"):
            del rays[draw(st.integers(0, len(rays) - 1))]
        if shape in ("extra", "swap"):
            rays.append(some)
    assume(any(any(r) for r in rays))
    return s, sp, rays, ws


@settings(max_examples=200, deadline=None)
@given(_eff_cases())
def test_one_dd_eff_rule_matches_brute_force(case):
    """The eff certificate's verdict, from the generators of dual(W) read
    off one DD over W (a second DD, over R, only for a generator that is
    not a ray of cone(R)), is the brute-force verdict on cone(R) = dual(W),
    and, once no pairing is negative, the two-DD verdict
    cone_contains(cone(R), dual(W))."""
    s, sp, rays, ws = case
    why = nc.Provenance(nc.ASSERTED)
    specs = [RaySpec(f"R{j}", nc.DivClass(s, sp, r), why) for j, r in enumerate(rays)]
    moving = [WitnessSpec(f"W{i}", _curve_with_functional(s, sp, w)) for i, w in enumerate(ws)]
    cert = nc.certify_eff(s, sp, specs, moving)
    d = nc.divisor_rank(s, sp)
    assert cert.ok == _brute_is_dual(d, rays, ws)
    if not cert.verdict.startswith("failed: negative pairing"):
        two_dd = nc.cone_contains(cone_from_rays(d, rays), dual(cone_from_rays(d, ws)))
        assert cert.ok == two_dd


@pytest.mark.parametrize(
    "ws, rays, ok, dds",
    [
        # dual(W) = {y : y_1 = 0}, a plane, and cone(R) is that plane.
        ([(1, 0, 0), (-1, 0, 0)], [(0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], True, 1),
        # ... and cone(R) a half-plane of it.
        ([(1, 0, 0), (-1, 0, 0)], [(0, 1, 0), (0, -1, 0), (0, 0, 1)], False, 2),
        # dual(W) = {y : y_1 >= 0}, a half-space.
        ([(1, 0, 0)], [(1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], True, 1),
        ([(1, 0, 0)], [(1, 1, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], True, 2),
        ([(1, 0, 0)], [(1, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)], False, 2),
    ],
    ids=["ws0-rays0-True", "ws1-rays1-False", "ws2-rays2-True", "ws3-rays3-True", "ws4-rays4-False"],
)
def test_eff_rule_when_the_dual_has_lineality(dd_calls, ws, rays, ok, dds):
    """W does not span the lattice: the DD over W finds the dual's lineality
    space.  When R holds every generator of dual(W) that DD decides alone;
    otherwise a second DD, over R, decides the containment."""
    s, sp = nc.p2(), nc.univ(2)
    why = nc.Provenance(nc.ASSERTED)
    specs = [RaySpec(f"R{j}", nc.DivClass(s, sp, r), why) for j, r in enumerate(rays)]
    moving = [WitnessSpec(f"W{i}", _curve_with_functional(s, sp, w)) for i, w in enumerate(ws)]
    assert nc.certify_eff(s, sp, specs, moving).ok == ok == _brute_is_dual(3, rays, ws)
    assert len(dd_calls) == dds


# ---------------------------------------------------------------------------
# Cross-section helper
# ---------------------------------------------------------------------------

def test_table_cross_section_labels():
    from test_golden import NON_DEFAULT

    cone = nc.table_inputs("eff_p2_2_1").cone
    assert len(cone.rays) == 4
    cs, labels = nc.table_cross_section("eff_p2_2_1")
    assert cs == nc.cross_section(cone)
    assert len(cs.vertices) == 4 and len(cs.edges) == 4
    assert set(labels) == {"H_1", "H_2", "B", "D_{1,1}"}
    # Every certified table, at its defaults and at a second point: one
    # label per vertex, all distinct, each a ray label of the table.
    for tid in certified_tables(NEF_DUAL, EFF_MOVING):
        for params in ({}, NON_DEFAULT.get(tid, {})):
            cs, labels = nc.table_cross_section(tid, **params)
            rays = {r.label for r in table_inputs(tid, **params).rays}
            assert len(labels) == len(cs.vertices) == len(set(labels)), (tid, params)
            assert set(labels) <= rays, (tid, params)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("table_id", sorted(nc.CATALOG))
def test_csv_rows_have_six_fields(table_id):
    report = nc.reproduce_table(table_id)
    text = report.to_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["section", "row", "col", "expected", "computed", "status"]
    cells = [(s.title, c.row, c.col, c.status) for s in report.sections for c in s.cells]
    assert [(r[0], r[1], r[2], r[5]) for r in rows[1:]] == cells
    assert all(len(r) == 6 for r in rows)
    assert canonical_csv(rows) == text
