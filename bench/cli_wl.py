"""`cli` workload: real `python -m nestcone.cli` processes, one at a time.

This is what a user at the shell waits for: interpreter start-up and import
are most of a short command, and `asymptotic --k-max 60` is the tail.  Each
pass runs the 15 commands below in a seeded order; the seed draws the table
parameters.  Table ids are fixed so every seed costs about the same.

Children run with the benchmark's own bytecode cache, filled before any
timing starts (see `harness.Context.child_env`).  The traced run calls
`nestcone.cli.main` in process with the same argument lists and checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import xml.etree.ElementTree as ET
from fractions import Fraction

import oracle
from harness import Op

SVG = "{http://www.w3.org/2000/svg}"
VERIFY_LINE = re.compile(r"^(\w+): OK \(\d+ cells(, \d+ skipped)?\)$")
F0_FAULT = (
    "cli._surface_from_flags maps f0 to P1xP1 (labels H1, H2) while "
    "spaces.surface_model maps it to F_0 (labels H, F)"
)


def _expect_stdout(text: str):
    def check(res):
        code, out, err = res
        if code != 0 or out.strip() != text:
            return f"exit {code}, stdout {out.strip()[:60]!r}, stderr {err.strip()[:200]!r}"
        return None

    return check


def _json_doc(res):
    code, out, err = res
    if code != 0:
        raise ValueError(f"exit {code}: {err.strip()[:200]}")
    return json.loads(out)


def _check_verify(res):
    code, out, _ = res
    lines = out.splitlines()
    if code != 0:
        return f"exit {code}"
    bad = [ln for ln in lines if not VERIFY_LINE.match(ln)]
    ids = {ln.split(":")[0] for ln in lines}
    if bad or len(lines) != 15 or len(ids) != 15:
        return f"verify --all printed {len(lines)} lines, not OK: {bad[:2]}"
    return None


def _check_table_csv(res):
    code, out, _ = res
    lines = out.splitlines()
    if code != 0 or lines[0] != "section,row,col,expected,computed,status" or len(lines) < 2:
        return f"exit {code} or bad CSV header"
    for ln in lines[1:]:
        # Section titles and labels may hold commas; the last four fields cannot.
        _, expected, computed, status = ln.rsplit(",", 3)
        if status not in ("match", "skipped"):
            return f"cell status {status}: {ln}"
        if status == "match" and expected and Fraction(expected) != Fraction(computed):
            return f"cell marked match but differs: {ln}"
    return None


def _check_nef(res):
    doc = _json_doc(res)
    mat = [[Fraction(x) for x in row] for row in doc["matrix"]]
    k = len(mat)
    square = k == len(doc["rays"]) == len(doc["witnesses"]) and all(len(r) == k for r in mat)
    if not square or doc["verdict"] != "certified":
        return f"verdict {doc['verdict']!r}, square={square}"
    diag = all(mat[i][i] > 0 for i in range(k)) and all(
        mat[i][j] == 0 for i in range(k) for j in range(k) if i != j
    )
    ints = [oracle.clear(row)[0] for row in mat]
    if not diag or oracle.int_rank(ints) != k:
        return "certified matrix is not diagonal, positive and full rank"
    return None


def _check_eff(res):
    doc = _json_doc(res)
    if doc["verdict"] != "certified" or any(Fraction(x) < 0 for row in doc["matrix"] for x in row):
        return f"verdict {doc['verdict']!r} or a negative pairing"
    return None


def _check_labels(labels, rays: int):
    if len(labels) != rays or "?" in labels or len(set(labels)) != rays:
        return f"labels {labels}, expected {rays} distinct ray labels"
    return None


def _check_svg(rays: int):
    def check(res):
        code, out, _ = res
        if code != 0:
            return f"exit {code}"
        root = ET.fromstring(out)
        circles = root.findall(f"{SVG}circle")
        if len(circles) != rays:
            return f"{len(circles)} vertices, expected {rays}"
        return _check_labels([t.text for t in root.findall(f"{SVG}text")], rays)

    return check


def _check_tikz(rays: int):
    def check(res):
        code, out, _ = res
        lines = out.splitlines()
        if code != 0 or lines[0] != "\\begin{tikzpicture}[scale=2.5]" or lines[-1] != "\\end{tikzpicture}":
            return f"exit {code} or not a tikzpicture"
        coords = [ln for ln in lines if ln.lstrip().startswith("\\coordinate (v")]
        if len(coords) != rays:
            return f"{len(coords)} vertices, expected {rays}"
        return _check_labels(re.findall(r"\{\$(.*)\$\};$", out, re.M), rays)

    return check


def _check_asymptotic(res):
    doc = _json_doc(res)
    ks = [s["k"] for s in doc["steps"]]
    if doc["ok"] is not True or ks != list(range(2, 61)):
        return f"ok={doc['ok']}, steps {ks[:3]}..."
    for s in doc["steps"]:
        # k / (2 a_k) with a_k = binom(k+2, 2) - 1 is 1 / (k+3).
        if Fraction(s["deviation_1"]) != Fraction(1, s["k"] + 3):
            return f"deviation_1 at k={s['k']} is {s['deviation_1']}"
    return None


def _check_butler(n: int, k_max: int):
    def check(res):
        doc = _json_doc(res)
        if doc["all_interior"] is not True or [s["k"] for s in doc["steps"]] != list(range(1, k_max + 1)):
            return "not all interior or wrong k range"
        for s in doc["steps"]:
            # F_k - K = (n, n, k n, k n, -2) in (Hdiff, Fdiff, Hb, Fb, B/2) for A = H + F.
            k = s["k"]
            want = [n, n, k * n, k * n, -2]
            if [Fraction(x) for x in s["coords"]] != want:
                return f"coords at k={k}: {s['coords']}"
            if s["position"] != "Interior" or min(Fraction(x) for x in s["ray_coefficients"]) <= 0:
                return f"k={k} is not interior"
        return None

    return check


def _commands(r: random.Random):
    """(argv, check, known fault) for one pass, before shuffling."""
    n1, n2, n3 = r.randint(1, 20), r.randint(2, 20), r.randint(2, 20)
    g1 = r.randint(3, 30)
    n4 = r.randint(g1 + 1, g1 + 10)
    g2 = r.randint(3, 30)
    n5 = r.randint(g2 + 1, g2 + 10)
    i1, i2 = r.randint(0, 6), r.randint(0, 5)
    pair = ["pair", "--surface", "p2", "--space", "nested", "--n", "3", "A^b", "B^b/2"]
    asym = ["asymptotic", "--k-max", "60", "--format", "json"]
    verify = ["verify", "--all"]
    return [
        (pair, _expect_stdout("-1"), None),
        (["pair", "--surface", "f0", "--space", "nested", "--n", "2", "Fb", "Cb1"],
         _expect_stdout("1"), F0_FAULT),
        (verify, _check_verify, None),
        (verify, _check_verify, None),
        (["table", "--table", "pairing_p2_nested", "--n", str(n1), "--format", "csv"],
         _check_table_csv, None),
        (["table", "--table", "nef_k3_univ", "--g", str(g1), "--n", str(n4), "--format", "csv"],
         _check_table_csv, None),
        (["nef", "--table", "nef_fi_nested", "--i", str(i1), "--n", str(n2), "--format", "json"],
         _check_nef, None),
        (["nef", "--table", "nef_k3_nested", "--g", str(g2), "--n", str(n5), "--format", "json"],
         _check_nef, None),
        (["eff", "--table", "eff_p2_3_2", "--format", "json"], _check_eff, None),
        (["cross-section", "--table", "nef_f0_univ", "--n", str(n3), "--format", "svg"],
         _check_svg(5), None),
        (["cross-section", "--table", "eff_p2_2_1", "--format", "tikz"], _check_tikz(4), None),
        (asym, _check_asymptotic, None),
        (asym, _check_asymptotic, None),
        (asym, _check_asymptotic, None),
        (["butler", "--i", str(i2), "--n", "4", "--k-max", "20", "--format", "json"],
         _check_butler(4, 20), None),
    ]


def run_in_process(argv):
    """`nestcone.cli.main(argv)` with stdout and stderr captured."""
    import nestcone.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nestcone.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class Cli:
    name = "cli"
    nominal_pass_s = 3.2
    nominal_pass_s_in_process = 1.6

    def __init__(self, seed: int, ctx, in_process: bool = False):
        self.ctx = ctx
        self.peak_kb = 0
        r = random.Random(f"cli-{seed}")
        cmds = _commands(r)
        r.shuffle(cmds)
        if in_process:
            os.environ["NESTCONE_NO_COLOR"] = "1"
        run = run_in_process if in_process else self._spawn
        self.ops = [
            Op(" ".join(argv), (lambda a=argv: run(a)), check, fault=fault)
            for argv, check, fault in cmds
        ]

    def _spawn(self, argv):
        """One CLI process; records its peak RSS from its own rusage."""
        ctx = self.ctx
        with open(ctx.run_dir / "stdout", "w+b") as out, open(ctx.run_dir / "stderr", "w+b") as err:
            p = subprocess.Popen(
                [ctx.python, "-m", "nestcone.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=ctx.child_env(), cwd=ctx.run_dir,
            )
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            result = p.returncode, out.read().decode(), err.read().decode()
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return result

    def warm_up(self):
        """One `pair` process, whatever the seeded order puts first."""
        next(op for op in self.ops if op.label.startswith("pair --surface p2")).run()
        self.peak_kb = 0
