"""`catalog` workload: the paper's acceptance gate, in process.

One operation is one `reproduce_table` call plus its `json_str()`; for the
nef and eff tables it also builds the matching certificate and its JSON.
Each pass holds every one of the 15 catalog tables `COPIES` times, with
`n`, `g` and `i` drawn from the seed over their valid ranges, in a seeded
order.  Table cost hardly depends on the parameters, so the per-run
distribution of operation times is the same for every seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import oracle
from harness import Op

import nestcone.pairing as P
import nestcone.spaces as S
import nestcone.verify as V

COPIES = 4


def _n(r):
    return {"n": r.randint(2, 20)}


def _i_n(r):
    return {"i": r.randint(0, 6), "n": r.randint(2, 20)}


def _g_n(r):
    g = r.randint(3, 30)
    return {"g": g, "n": r.randint(g + 1, g + 10)}


# table id -> (parameter sampler, space kind used for the projection check)
TABLES = {
    "hilb_p2_nef": (_n, "univ"),
    "nef_p2_nested": (_n, "nested"),
    "nef_f0_nested": (_n, "nested"),
    "nef_fi_nested": (_i_n, "nested"),
    "nef_k3_nested": (_g_n, "nested"),
    "nef_p2_univ": (_n, "univ"),
    "nef_f0_univ": (_n, "univ"),
    "nef_fi_univ": (_i_n, "univ"),
    "nef_k3_univ": (_g_n, "univ"),
    "pairing_p2_hilb": (_n, "univ"),
    "pairing_p2_nested": (lambda r: {"n": r.randint(1, 20)}, "nested"),
    "eff_p2_2_1": (lambda r: {}, "univ"),
    "eff_p2_3_2": (lambda r: {}, "nested"),
    "eff_summary": (lambda r: {}, "nested"),
    "k3_g1n": (_g_n, "univ"),
}
EFF_CERT = ("eff_p2_2_1", "eff_p2_3_2")


def _surface(tid: str, params: dict):
    if "k3" in tid:
        return S.k3(params["g"])
    if "_f0_" in tid:
        return S.p1xp1()
    if "_fi_" in tid:
        return S.hirzebruch(params["i"])
    return S.p2()


def _run(tid: str, params: dict):
    report = V.reproduce_table(tid, **params)
    cert = None
    if tid in EFF_CERT:
        cert = V.standard_eff_certificate(tid)
    elif "nef" in tid:
        cert = V.standard_nef_certificate(tid, **params)
    return report, report.json_str(), cert, None if cert is None else cert.json_str()


def _check_report(tid, params, report, report_json) -> str | None:
    if not report.ok:
        return "report not ok"
    for s in report.sections:
        for c in s.cells:
            if c.status == "diff":
                return f"diff cell ({c.row}, {c.col})"
            if c.status == "match" and c.expected is not None and c.expected != c.computed:
                return f"cell ({c.row}, {c.col}) marked match but differs"
        for chk in s.checks:
            if chk.status == "fail":
                return f"section check {chk.name} failed"
    doc = json.loads(report_json)
    if doc["table"] != tid or doc["ok"] is not True:
        return "report JSON disagrees"
    for k, v in params.items():
        if doc["params"].get(k) != v:
            return f"report JSON param {k} != {v}"
    return None


def _check_cert(cert, cert_json, nef: bool) -> str | None:
    """Recompute W . M . R^T with integers from the coordinates and the
    pairing table, and predict the verdict from it."""
    table = P.pairing_table(cert.rays[0].surface, cert.rays[0].space)
    m_int, m_scale = oracle.clear([x for row in table.matrix for x in row])
    ncols = len(table.matrix[0])
    m_rows = [m_int[k:k + ncols] for k in range(0, len(m_int), ncols)]
    ws = [oracle.clear(w.coords) for w in cert.witnesses]
    rs = [oracle.clear(r.coords) for r in cert.rays]
    prod = oracle.matmul(
        oracle.matmul([w for w, _ in ws], m_rows), oracle.transpose([r for r, _ in rs])
    )
    for i, (_, a) in enumerate(ws):
        for j, (_, b) in enumerate(rs):
            if cert.matrix[i][j] * a * b * m_scale != prod[i][j]:
                return f"pairing matrix cell ({i}, {j}) disagrees with W.M.R^T"
    if nef:
        k = len(prod)
        predicted = (
            all(len(row) == k for row in prod)
            and oracle.int_rank(prod) == k
            and all(prod[i][i] > 0 for i in range(k))
            and all(prod[i][j] == 0 for i in range(k) for j in range(k) if i != j)
        )
    else:
        predicted = all(x >= 0 for row in prod for x in row)
    if predicted != cert.ok:
        return f"verdict {cert.verdict!r} disagrees with the integer check"
    if not cert.ok:
        return f"catalog certificate not certified: {cert.verdict}"
    if json.loads(cert_json)["verdict"] != cert.verdict:
        return "certificate JSON verdict disagrees"
    return None


def _check_projection(surface, kind: str, n: int, seed: int) -> str | None:
    """pair(pull_x D, C) == pair(D, pushforward_x C) for x in {a, b} on
    seeded random classes."""
    r = random.Random(seed)

    def rnd(k):
        return tuple(Fraction(r.randint(-9, 9), r.choice((1, 2, 3))) for _ in range(k))

    if kind == "nested":
        sp, src_a = S.nested(n), S.hilb(n + 1)
        src_b = S.surface_space() if n == 1 else S.hilb(n)
    else:
        n = max(n, 2)
        sp, src_a, src_b = S.univ(n), S.hilb(n), S.surface_space()
    c = S.CurClass(surface, sp, rnd(S.curve_rank(surface, sp)))
    for name, src, pull, push in (
        ("a", src_a, S.pull_a, P.pushforward_a),
        ("b", src_b, S.pull_b, P.pushforward_b),
    ):
        d = S.DivClass(surface, src, rnd(S.divisor_rank(surface, src)))
        if P.pair(pull(d, sp), c) != P.pair(d, push(c)):
            return f"projection formula fails for pull_{name} on {surface.key}/{sp}"
    return None


class Catalog:
    name = "catalog"
    nominal_pass_s = 0.45

    def __init__(self, seed: int, ctx):
        if set(V.CATALOG) != set(TABLES):
            raise SystemExit(f"catalog ids changed: {sorted(V.CATALOG)}")
        r = random.Random(f"catalog-{seed}")
        items = [tid for tid in TABLES for _ in range(COPIES)]
        r.shuffle(items)
        self.ops = [self._op(tid, r) for tid in items]

    @staticmethod
    def _op(tid: str, r: random.Random) -> Op:
        sampler, kind = TABLES[tid]
        params = sampler(r)
        proj_n = params.get("n", 2 if kind == "univ" else 3)
        proj_seed = r.getrandbits(32)
        nef = "nef" in tid

        def check(out):
            report, report_json, cert, cert_json = out
            err = _check_report(tid, params, report, report_json)
            if err is None and cert is not None:
                err = _check_cert(cert, cert_json, nef)
            if err is None:
                err = _check_projection(_surface(tid, params), kind, proj_n, proj_seed)
            return err

        return Op(f"{tid} {params}", lambda: _run(tid, params), check)

    def warm_up(self):
        """One untimed pass fills the pairing-table cache for every
        parameter set the timed passes use."""
        for op in self.ops:
            op.run()
