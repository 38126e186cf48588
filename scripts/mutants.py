#!/usr/bin/env python3
"""Run the committed mutants: each is a rule the tests must defend.

Usage:
    mutants.py

A mutant is a file, one exact snippet of it, the snippet's replacement and
the test files that must kill it.  For each mutant the script copies `src`,
`tests`, `pyproject.toml` and `README.md` into a temporary directory,
replaces the snippet there and runs `pytest -q -x` on the mutant's test
files from that directory, where `pyproject.toml` puts the copy's `src` on
pytest's path.  A mutant is killed when pytest reports a failed test or a
collection error.  First the same test files run once on an unmutated copy,
which must pass.  The script prints one line per mutant and exits 1 when a
snippet does not occur exactly once in its file, when the unmutated tests
fail, or when a mutant survives; else 0.

It uses only the standard library and pytest and is not part of Tier-1;
`tests/test_mutants.py` checks every snippet, which is fast.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("diagonal rule accepts a zero", "src/nestcone/verify.py",
           "if x <= 0 if i == j else x != 0:", "if x < 0 if i == j else x != 0:",
           ("tests/test_verify.py",)),
    Mutant("pair step drops | bit", "src/nestcone/cone.py",
           "new_masks.append((masks[i] & masks[j]) | bit)", "new_masks.append(masks[i] & masks[j])",
           ("tests/test_cone.py",)),
    Mutant("_extremal keeps full-mask generators", "src/nestcone/cone.py",
           "if m != c._full_mask and not any(", "if not any(",
           ("tests/test_cone.py",)),
    Mutant("_certify loses its EmptyInput guard", "src/nestcone/verify.py",
           "    if not rays or not witnesses:\n"
           '        raise EmptyInput("a cone needs at least one nonzero generator")\n', "",
           ("tests/test_verify.py",)),
    Mutant("_transpose shifts a bit", "src/nestcone/cone.py",
           "cols[low.bit_length() - 1] |= bit", "cols[low.bit_length() - 1] |= bit << 1",
           ("tests/test_cone.py",)),
    Mutant("excess always zero", "src/nestcone/cone.py",
           "excess[t] = len(tight) - len(rref(tight)[1])", "excess[t] = 0",
           ("tests/test_cone.py",)),
    Mutant("excess one too large", "src/nestcone/cone.py",
           "excess[t] = len(tight) - len(rref(tight)[1])",
           "excess[t] = len(tight) - len(rref(tight)[1]) + 1",
           ("tests/test_cone.py",)),
    Mutant("excess counts every tight facet but one", "src/nestcone/cone.py",
           "excess[t] = len(tight) - len(rref(tight)[1])", "excess[t] = len(tight) - 1",
           ("tests/test_cone.py",)),
    Mutant("excess is half the tight facets", "src/nestcone/cone.py",
           "excess[t] = len(tight) - len(rref(tight)[1])", "excess[t] = len(tight) // 2",
           ("tests/test_cone.py",)),
    Mutant("vdot drops its normal form", "src/nestcone/rationals.py",
           "return s.numerator if type(s) is not int and s.denominator == 1 else s", "return s",
           ("tests/test_rationals.py",)),
    Mutant("curve_functional drops its normal form", "src/nestcone/pairing.py",
           "return tuple(f) if {int}.issuperset(map(type, f)) else tuple(map(rat, f))",
           "return tuple(f)",
           ("tests/test_pairing.py",)),
    Mutant("curve_functional drops the last row", "src/nestcone/pairing.py",
           "zip(c.coords, table.matrix)", "zip(c.coords[:-1], table.matrix)",
           ("tests/test_pairing.py",)),
    Mutant("_chart_curve reads nested b-curves canonically", "src/nestcone/verify.py",
           'family = curve_family_a if side == "a" else curve_family_b_alt',
           'family = curve_family_a if side == "a" else curve_family_b',
           ("tests/test_verify.py",)),
    Mutant("NefDual always certifies", "src/nestcone/verify.py",
           "(matrix, divisor_rank(surface, space))) is None:",
           "(matrix, divisor_rank(surface, space))) is None or True:",
           ("tests/test_verify.py",)),
    Mutant("the reader nests one level deeper", "src/nestcone/cli.py",
           "if depth == _MAX_DEPTH:", "if depth > _MAX_DEPTH:",
           ("tests/test_cli.py",)),
    Mutant("a parse error cites a character offset", "src/nestcone/cli.py",
           'len(src[:e.offset].encode("utf-8"))', "e.offset",
           ("tests/test_cli.py",)),
    Mutant("the reader accepts a zero denominator", "src/nestcone/cli.py",
           "                if not src[j + 1:k].strip(\"0\"):\n"
           '                    raise ParseError("zero denominator", j + 1)\n', "",
           ("tests/test_cli.py",)),
    Mutant("a bare number adds to a class", "src/nestcone/cli.py",
           "isinstance(v, (DivClass, CurClass)) != isinstance(w, (DivClass, CurClass))",
           "isinstance(v, (DivClass, CurClass)) and not isinstance(w, (DivClass, CurClass))",
           ("tests/test_cli.py",)),
    Mutant("a compiled map drops a move", "src/nestcone/spaces.py",
           "return len(labels), tuple(moves), None", "return len(labels), tuple(moves[1:]), None",
           ("tests/test_spaces.py",)),
    Mutant("SpaceId takes any n", "src/nestcone/spaces.py",
           '            _int_arg(n, RangeError, f"n of {name}")\n', "",
           ("tests/test_spaces.py",)),
    Mutant("_basis_unit is not cached", "src/nestcone/spaces.py",
           "@lru_cache(maxsize=None)\ndef _basis_unit(", "def _basis_unit(",
           ("tests/test_spaces.py",)),
    Mutant("a compiled map zips unequal lengths", "src/nestcone/spaces.py",
           "zip(at[entry], dest[part], strict=True)", "zip(at[entry], dest[part])",
           ("tests/test_spaces.py",)),
    Mutant("basis_map compiles its map on every call", "src/nestcone/spaces.py",
           "rank, moves, missing = _compiled_map(", "rank, moves, missing = _compiled_map.__wrapped__(",
           ("tests/test_spaces.py",)),
    Mutant("butler_check pairs its witnesses again", "src/nestcone/studies.py",
           "zip(cert.functionals, cert.matrix)",
           'zip([__import__("nestcone.pairing").pairing.curve_functional(w.cls)'
           " for w in table.witnesses], cert.matrix)",
           ("tests/test_studies.py",)),
)


def mismatches(root: Path = ROOT) -> list[str]:
    """One line per mutant whose snippet does not occur exactly once in its
    file under `root`, or whose test file is missing."""
    out = []
    for m in MUTANTS:
        count = (root / m.path).read_text().count(m.snippet)
        if count != 1:
            out.append(f"{m.name}: the snippet occurs {count} times in {m.path}")
        out += [f"{m.name}: no test file {t}" for t in m.tests if not (root / t).is_file()]
    return out


def _pytest(mutant: Mutant | None, tests: tuple[str, ...]) -> int:
    """pytest's exit code on `tests` in a fresh copy of the repository,
    with `mutant` applied (None: unmutated)."""
    with tempfile.TemporaryDirectory(prefix="mutant_") as tmp:
        copy = Path(tmp)
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, copy / sub,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for name in ("pyproject.toml", "README.md"):  # tests/test_cli.py reads both
            shutil.copy2(ROOT / name, copy)
        if mutant:
            target = copy / mutant.path
            target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode


def main() -> int:
    bad = mismatches()
    for line in bad:
        print(line)
    if bad:
        return 1
    tests = tuple(sorted({t for m in MUTANTS for t in m.tests}))
    if code := _pytest(None, tests):
        print(f"the unmutated tests fail (pytest exit {code}): {' '.join(tests)}")
        return 1
    survivors = 0
    for m in MUTANTS:
        t0 = time.perf_counter()
        code = _pytest(m, m.tests)
        killed = code in (1, 2)  # a failed test, or a collection error
        survivors += not killed
        verdict = "killed" if killed else "SURVIVED" if code == 0 else f"ERROR (pytest exit {code})"
        print(f"{verdict:<8} {m.name} ({time.perf_counter() - t0:.1f} s)")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
