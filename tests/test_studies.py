import re
from fractions import Fraction
from math import comb

import pytest

import nestcone as nc
import nestcone.cone
import nestcone.linalg
import nestcone.pairing
import nestcone.studies
import nestcone.verify
from nestcone.errors import FunctionalNotPositive, InvalidInput, NotPointed, RangeError
from nestcone.studies import FRAME_DIM, ORDER_B, ORDER_RES, _moving_curves, a_k, butler_table


F = Fraction


# ---------------------------------------------------------------------------
# Butler criterion
# ---------------------------------------------------------------------------

def test_butler_input_validation():
    with pytest.raises(InvalidInput):
        nc.ButlerInput(i=-1, a=1, b=1, n=4)
    with pytest.raises(InvalidInput):
        nc.ButlerInput(i=1, a=0, b=1, n=4)  # A.F = 0: not ample
    with pytest.raises(InvalidInput):
        nc.ButlerInput(i=1, a=1, b=0, n=4)  # A.E = 0: not ample
    with pytest.raises(InvalidInput):
        nc.ButlerInput(i=1, a=1, b=1, n=3)  # criterion needs n >= 4
    with pytest.raises(InvalidInput):
        nc.ButlerInput(i=1, a=1, b=1, n=4, k_range=(3, 2))
    # `_make`, and `_replace` through it, check like the constructor.
    inp = nc.ButlerInput(1, 1, 1, 4)
    assert inp._replace(n=5) == nc.ButlerInput(1, 1, 1, 5)
    assert nc.ButlerInput._make([1, 1, 1, 4, [2, 3]]).k_range == (2, 3)
    with pytest.raises(InvalidInput, match="n >= 4, got 0"):
        inp._replace(n=0)
    with pytest.raises(InvalidInput, match="k_range"):
        nc.ButlerInput._make((1, 1, 1, 4, (5, 2)))
    assert not hasattr(inp, "__dict__")
    with pytest.raises(InvalidInput):
        nc.butler_class(nc.ButlerInput(i=1, a=1, b=1, n=4), 0)
    with pytest.raises(InvalidInput):
        nc.butler_class(nc.ButlerInput(i=1, a=1, b=1, n=4), 1, ordering="x")


def test_each_study_takes_at_most_10000_values_of_k(monkeypatch):
    assert nc.ButlerInput(1, 1, 1, 4, k_range=(1, 10_000)).k_range == (1, 10_000)
    assert nc.ButlerInput(1, 1, 1, 4, k_range=(2, 10_001)).k_range == (2, 10_001)
    for k_range in ((1, 10_001), (5, 10_005), (1, 10**1000)):
        with pytest.raises(InvalidInput, match="at most 10000 values of k"):
            nc.ButlerInput(1, 1, 1, 4, k_range=k_range)
    for k_max in (10_002, 10**5000):
        with pytest.raises(RangeError, match="k_max must be <= 10001"):
            nc.asymptotic_report(k_max)

    # 10,001 passes the cap: the report's first step after it is reached,
    # and no test runs 10,000 steps.
    class Reached(Exception):
        pass

    def reached():
        raise Reached

    monkeypatch.setattr(nestcone.studies, "limit_cone", reached)
    with pytest.raises(Reached):
        nc.asymptotic_report(10_001)


def test_butler_inputs_compare_by_value(monkeypatch):
    # Equal inputs give equal, equally hashed reports, and each check builds
    # the nef table once, for its functionals; the input's surface is read
    # without it.
    built = []
    table = butler_table
    monkeypatch.setattr(nestcone.studies, "butler_table", lambda i: built.append(i) or table(i))
    inp, same = nc.ButlerInput(1, 1, 1, 4), nc.ButlerInput(i=1, a=1, b=1, n=4, k_range=[1, 5])
    assert inp == same and hash(inp) == hash(same) and inp != nc.ButlerInput(1, 1, 1, 5)
    assert repr(inp) == "ButlerInput(i=1, a=1, b=1, n=4, k_range=(1, 5))"
    rep = nc.butler_check(inp)
    assert built == [1]
    assert rep == nc.butler_check(same) and hash(rep) == hash(nc.butler_check(same))


def test_butler_check_pairs_each_witness_once(monkeypatch):
    """The scan reads the functionals its nef certificate keeps: each
    witness's functional is computed once, so the pairing table is read
    once per witness, whatever module computes it."""
    witnesses = butler_table(2).witnesses
    reads = []
    real = nestcone.pairing.pairing_table
    monkeypatch.setattr(nestcone.pairing, "pairing_table", lambda *a: reads.append(a) or real(*a))
    nc.butler_check(nc.ButlerInput(2, 1, 1, 4, (1, 9)))
    assert len(reads) == len(witnesses) == 5


def test_butler_check_refuses_an_uncertified_table(monkeypatch):
    # Without one of its rays the nef table's certificate fails, and the
    # error quotes its verdict.
    table = butler_table
    monkeypatch.setattr(
        nestcone.studies, "butler_table", lambda i: table(i)._replace(rays=table(i).rays[1:])
    )
    with pytest.raises(InvalidInput, match=re.escape(
        "the nef table of F_1^[2,1] is not certified: "
        "failed: matrix not diagonal-compatible (not square)"
    )):
        nc.butler_check(nc.ButlerInput(1, 1, 1, 4))


@pytest.mark.parametrize("i", range(7))
def test_butler_surface_is_the_tables_surface(i):
    s = butler_table(i).surface
    assert nc.ButlerInput(i, 1, 1, 4).surface == s
    assert all(side.surface == s for side in nc.half_b_a(i))


def test_butler_class_k1_coords():
    inp = nc.ButlerInput(i=1, a=1, b=1, n=4)
    cls = nc.butler_class(inp, 1)
    # canonical coordinates (Hdiff, Fdiff, Hb, Fb, B/2) = (na, nb, na, nb, -2)
    assert cls.coords == (F(4), F(4), F(4), F(4), F(-2))


def test_butler_k1_reference_coefficients():
    inp = nc.ButlerInput(i=1, a=1, b=1, n=4, k_range=(1, 1))
    rep = nc.butler_check(inp)
    assert rep.steps[0].ray_coefficients == (F(2), F(2), F(2), F(2), F(2))
    assert rep.steps[0].position == "Interior"


def test_butler_k2_adds_pullback():
    inp = nc.ButlerInput(i=1, a=1, b=1, n=4)
    c1 = nc.butler_class(inp, 1)
    c2 = nc.butler_class(inp, 2)
    delta = c2 - c1
    # pull_b(nA) = 4H^b + 4F^b
    assert delta.coords == (F(0), F(0), F(4), F(4), F(0))


def test_butler_orderings_coincide_at_k1_and_differ_after():
    inp = nc.ButlerInput(i=2, a=1, b=2, n=5)
    assert nc.butler_class(inp, 1, ORDER_B).coords == nc.butler_class(inp, 1, ORDER_RES).coords
    b3 = nc.butler_class(inp, 3, ORDER_B)
    r3 = nc.butler_class(inp, 3, ORDER_RES)
    assert b3.coords != r3.coords
    # the two orderings distribute the same total between the b and res legs
    assert sum(b3.coords) == sum(r3.coords)


def test_butler_telescoping():
    inp = nc.ButlerInput(i=1, a=2, b=1, n=6, k_range=(1, 5))
    s = inp.surface
    ell = nc.surface_divisor(s, (inp.n * inp.a, inp.n * inp.b))
    pulled = nc.pull_b(ell, nc.univ(2))
    for k in range(1, 5):
        delta = nc.butler_class(inp, k + 1) - nc.butler_class(inp, k)
        assert delta.coords == pulled.coords


def test_butler_grid_interior():
    for i in (0, 1, 2):
        for a in (1, 2):
            for b in (1, 2):
                for n in (4, 6, 8):
                    inp = nc.ButlerInput(i=i, a=a, b=b, n=n, k_range=(1, 5))
                    rep = nc.butler_check(inp)
                    assert rep.all_interior, rep.text()


def test_butler_synthetic_boundary():
    # A class with a zero ray coefficient sits on the boundary of the
    # simplicial nef cone.
    table = butler_table(1)
    rays = [r.cls for r in table.rays]
    boundary = sum(rays[1:], 0 * rays[0])
    assert nc.position(table.cone, boundary.coords) == "Boundary"
    interior = boundary + rays[0]
    assert nc.position(table.cone, interior.coords) == "Interior"


@pytest.mark.parametrize("i", [0, 1, 2, 5])
def test_butler_check_matches_the_cone_engine(monkeypatch, i):
    """Coefficients and positions read off the witness functionals equal
    what `solve_unique` and `position` on the table's cone give, for
    classes inside, on the boundary of and outside the nef cone."""
    table = butler_table(i)
    rays = [r.cls for r in table.rays]
    zero = 0 * rays[0]
    weights = [(2, 2, 2, 2, 2), (0, 1, F(1, 2), 3, 1), (1, -1, 0, 2, 5), (F(-1, 3), 0, 0, 0, 0)]
    classes = [sum((w * r for w, r in zip(ws, rays)), zero) for ws in weights]
    monkeypatch.setattr(nestcone.studies, "butler_class", lambda inp, k, ordering: classes[k - 1])
    rep = nc.butler_check(nc.ButlerInput(i=i, a=1, b=1, n=4, k_range=(1, len(classes))))
    ray_matrix = [list(row) for row in zip(*(r.coords for r in rays))]
    for step, cls in zip(rep.steps, classes):
        coeffs = nestcone.linalg.solve_unique(ray_matrix, list(cls.coords))
        assert step.ray_coefficients == tuple(coeffs)
        assert all(type(c) is int or c.denominator > 1 for c in step.ray_coefficients)
        assert step.position == nc.position(table.cone, cls.coords)
    assert [s.position for s in rep.steps] == ["Interior", "Boundary", "Outside", "Outside"]


def test_half_b_a_identity_all_indices():
    for i in range(0, 4):
        lhs, rhs = nc.half_b_a(i)
        assert (lhs - rhs).is_zero()


def test_butler_report_serialization():
    inp = nc.ButlerInput(i=1, a=1, b=1, n=4, k_range=(1, 2))
    rep = nc.butler_check(inp)
    assert rep.json_str() == nc.butler_check(inp).json_str()
    assert '"all_interior":true' in rep.json_str()
    assert "k=1: Interior" in rep.text()


# ---------------------------------------------------------------------------
# Asymptotic study
# ---------------------------------------------------------------------------

def test_a_k_values():
    assert a_k(2) == 5
    assert a_k(10) == 65


def test_one_deviation_for_both_moving_curves():
    # a'_k - 1 = a_k, so the deviations k/(2 a_k) and k/(2(a'_k - 1)) of
    # the two moving curves are one number.
    for k in range(1, 500):
        assert comb(k + 2, 2) - 1 == a_k(k)
        curves = nc.asymptotic_moving_curves(k)
        assert curves[2].deviation == curves[3].deviation == F(k, 2 * a_k(k))


def test_moving_curves_exact():
    curves = nc.asymptotic_moving_curves(2)
    assert len(curves) == 4
    assert curves[0].functional == (1, 0, 0, 0)
    assert curves[1].functional == (0, 1, 0, 0)
    assert curves[2].deviation == F(1) / 5  # k/(2 a_k) = 2/10
    assert curves[3].deviation == F(1) / 5  # k/(2 (a'_k - 1)) = 2/10
    assert curves[2].annihilated_ray == (1, 0, -F(1, 5), 0)
    assert curves[3].annihilated_ray == (0, 1, 0, -F(1, 5))
    # each functional annihilates its stated extremal ray
    for m in curves:
        assert sum(f * r for f, r in zip(m.functional, m.annihilated_ray)) == 0


def _cut_out(curves):
    """The cone cut out by the curves' functionals: the DD of their span."""
    return nc.dual(nc.cone_from_rays(FRAME_DIM, [m.functional for m in curves]))


def _asymptotic_cone(k):
    """E_k as the DD of its four moving-curve functionals: the reference the
    study's diagonal rule is checked against."""
    return _cut_out(nc.asymptotic_moving_curves(k))


def test_moving_curves_validation():
    with pytest.raises(RangeError):
        nc.asymptotic_moving_curves(0)
    with pytest.raises(RangeError):
        nc.asymptotic_report(1)


def test_asymptotic_cone_extremal_rays():
    c = _asymptotic_cone(2)
    ext = nc.extremal_rays(c)
    assert set(ext.rays) == {
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (5, 0, -1, 0),  # primitive form of H1 - (1/5) B1
        (0, 5, 0, -1),
    }


def test_asymptotic_report():
    rep = nc.asymptotic_report(30)
    assert rep.ok
    assert rep.limit_is_orthant
    by_k = {s.k: s for s in rep.steps}
    assert by_k[10].deviation_1 == F(1, 13)
    assert by_k[10].deviation_2 == F(1, 13)
    # deviations strictly decreasing and equal to 1/(k+3)
    for k in range(2, 31):
        assert by_k[k].deviation_1 == F(1, k + 3)
    # section distance is exactly 1/(k+2) <= 1/k
    for k in range(2, 31):
        assert by_k[k].section_distance == F(1, k + 2)
        assert by_k[k].section_distance <= F(1, k)


def test_limit_is_the_cone_cut_out_at_deviation_zero():
    # limit_is_orthant compares limit_cone() with the cone the E_k
    # functionals cut out at deviation 0; a nonzero deviation must differ.
    assert nc.cone_equal(nc.limit_cone(), _cut_out(_moving_curves(F(0))))
    assert not nc.cone_equal(nc.limit_cone(), _cut_out(_moving_curves(F(1, 5))))


def test_asymptotic_nesting_chain():
    prev = _asymptotic_cone(2)
    for k in range(3, 12):
        cur = _asymptotic_cone(k)
        assert nc.cone_contains(prev, cur)
        assert nc.cone_contains(cur, nc.limit_cone())
        prev = cur


def test_asymptotic_report_serialization():
    rep = nc.asymptotic_report(4)
    assert rep.json_str() == nc.asymptotic_report(4).json_str()
    assert "asymptotic study up to k=4: OK" in rep.text()


@pytest.fixture
def engine_calls(monkeypatch):
    """Names of the `cone._dd` and `linalg.solve_unique` runs so far,
    counted by a wrapper at every binding of them in the package."""
    calls = []
    for real in (nestcone.cone._dd, nestcone.linalg.solve_unique):
        def counted(*args, real=real):
            calls.append(real.__name__)
            return real(*args)

        for module in (nestcone.cone, nestcone.linalg, nestcone.studies, nestcone.verify):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_asymptotic_report_runs_no_dd(engine_calls):
    # The diagonal rule on W_k . R_k^T decides every step and the limit
    # check.
    for k_max in (2, 3, 10, 60):
        nc.asymptotic_report(k_max)
    assert engine_calls == []


def test_butler_check_runs_no_dd_and_no_elimination(engine_calls):
    for i in (0, 1, 2, 3):
        for ordering in (ORDER_B, ORDER_RES):
            nc.butler_check(nc.ButlerInput(i=i, a=1, b=1, n=4, k_range=(1, 20)), ordering)
    assert engine_calls == []


def _engine_steps(curves, k_max):
    """Per step k = 2..k_max: (nested, contains limit, section distance),
    read off E_k's own DD by cone_contains and cross_section, with the
    moving curves curves(k)."""
    limit = nc.limit_cone()
    square = nc.cross_section(limit).vertices
    out = []
    for k in range(2, k_max + 1):
        prev, cone_k = _cut_out(curves(k - 1)), _cut_out(curves(k))
        distance = max(
            min(max(abs(a - b) for a, b in zip(v, w)) for w in square)
            for v in nc.cross_section(cone_k).vertices
        )
        out.append((nc.cone_contains(prev, cone_k), nc.cone_contains(cone_k, limit), distance))
    return out


def _deviations(d1, d2):
    """Moving curves with deviation d1 on the H1 side and d2 on the H2 side."""
    return [*_moving_curves(d1)[:3], _moving_curves(d2)[3]]


@pytest.mark.parametrize(
    "curves, k_max",
    [
        (nc.asymptotic_moving_curves, 60),  # the study's own curves
        (lambda k: _moving_curves(F(1, 2) - F(1, k + 3)), 12),  # growing: not nested
        (lambda k: _moving_curves(F(-1, k)), 12),  # negative: the limit is not inside
        (lambda k: _moving_curves(F(1, 3) if k % 2 else F(-1, 5)), 12),  # alternating
        # Distances 1/4 on the H1 side and 2/9 < 1/4 on the H2 side, whose
        # ray (0, 11, 0, -2) has the larger numerator.
        (lambda k: _deviations(F(1, 5), F(2, 11)), 3),
        (lambda k: _deviations(F(k, 11), F(1, 5)), 4),
    ],
)
def test_asymptotic_steps_match_the_cone_engine(monkeypatch, curves, k_max):
    """The sign tests on W and the integer section distance give what
    cone_contains and cross_section give on E_k itself."""
    expected = _engine_steps(curves, k_max)
    monkeypatch.setattr(nestcone.studies, "asymptotic_moving_curves", curves)
    rep = nc.asymptotic_report(k_max)
    got = [(s.nested_in_previous, s.contains_limit, s.section_distance) for s in rep.steps]
    assert got == expected
    assert all(type(d) is int or d.denominator > 1 for _, _, d in got)


def test_asymptotic_report_errors_match_the_cone_engine(monkeypatch):
    # A coordinate sum <= 0 on a ray of E_k: deviation 1 gives H2 - B2
    # (and H1 - B1, later in the rays' order).
    monkeypatch.setattr(nestcone.studies, "asymptotic_moving_curves", lambda k: _moving_curves(F(1)))
    message = "functional is not strictly positive on ray (0, 1, 0, -1)"
    with pytest.raises(FunctionalNotPositive, match=re.escape(message)):
        nc.cross_section(_cut_out(_moving_curves(F(1))))
    with pytest.raises(FunctionalNotPositive, match=re.escape(message)):
        nc.asymptotic_report(2)
    # Functionals that span three dimensions: E_k contains a line.
    def flat(k):
        curves = _moving_curves(F(1, 5))
        return [*curves[:3], curves[2]]

    monkeypatch.setattr(nestcone.studies, "asymptotic_moving_curves", flat)
    with pytest.raises(NotPointed):
        nc.cross_section(_cut_out(flat(2)))
    with pytest.raises(NotPointed):
        nc.asymptotic_report(2)


def test_asymptotic_report_names_the_cell_of_a_misstated_ray(monkeypatch):
    # H1 - (1/4) B1 stated for the functional of H1 - (1/5) B1: the
    # functionals span the frame, but the stated ray is not one of E_k's.
    def perturbed(k):
        curves = _moving_curves(F(1, 5))
        curves[2] = curves[2]._replace(annihilated_ray=(1, 0, -F(1, 4), 0))
        return curves

    assert (4, 0, -1, 0) not in _cut_out(perturbed(2)).rays
    monkeypatch.setattr(nestcone.studies, "asymptotic_moving_curves", perturbed)
    message = "moving curve normal of H1-1/5B1 pairs to -1 with ray (4, 0, -1, 0)"
    with pytest.raises(InvalidInput, match=re.escape(message)):
        nc.asymptotic_report(2)
