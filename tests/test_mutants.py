"""`scripts/mutants.py` applies each mutant by replacing one exact snippet:
every snippet must occur exactly once in its file, and every test file it
names must exist.  Running the mutants is not part of this suite."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
_M = importlib.util.module_from_spec(spec)
spec.loader.exec_module(_M)


def test_every_snippet_occurs_exactly_once():
    assert len(_M.MUTANTS) >= 24
    assert _M.mismatches() == []


def test_a_mutant_changes_its_file():
    for m in _M.MUTANTS:
        assert m.snippet != m.replacement and m.tests, m.name


def test_a_snippet_that_moved_is_reported(tmp_path):
    for sub in ("src/nestcone", "tests"):
        (tmp_path / sub).mkdir(parents=True)
    for path in {m.path for m in _M.MUTANTS} | {t for m in _M.MUTANTS for t in m.tests}:
        (tmp_path / path).write_text("")
    assert len(_M.mismatches(tmp_path)) == len(_M.MUTANTS)
