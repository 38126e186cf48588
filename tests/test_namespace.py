"""The package namespace: `nestcone.<name>` is resolved lazily from the
library modules, and importing one module loads only what it imports."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import nestcone as nc

SRC = str(Path(nc.__file__).resolve().parents[1])
MODULES = sorted(m.name for m in pkgutil.iter_modules(nc.__path__))
LIBRARY = ("errors", "rationals", "spaces", "pairing", "cone", "verify", "studies")


def _python(code, *flags):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _defined_names(module):
    """The public names a module binds itself at top level: its functions,
    classes and assignments, not what it imports."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return sorted(n for n in names if not n.startswith("_"))


def test_the_library_modules_are_searched_in_order():
    assert nc._SEARCHED == LIBRARY
    assert set(LIBRARY) < set(MODULES)


@pytest.mark.parametrize("module", LIBRARY)
def test_every_public_name_resolves_to_its_defining_module(module):
    mod = importlib.import_module(f"nestcone.{module}")
    names = _defined_names(mod)
    assert names
    for name in names:
        assert getattr(nc, name) is getattr(mod, name), name


def test_private_and_unknown_names_raise_attribute_error():
    for name in ("_dd", "_certify", "no_such_name"):
        assert not hasattr(nc, name)
    assert nc.__version__ == "0.1.0"


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # A `from . import <submodule>` inside the package asks the package's
    # __getattr__ first, which would import the other library modules while
    # this one is half initialised.
    _python(f"import nestcone.{module}")


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("cone", ["cone", "errors", "linalg", "rationals"]),
        ("cli", MODULES),  # the benchmark's tracer wraps functions in all of them
    ],
)
def test_import_loads_only_what_the_module_needs(module, loaded):
    code = (
        f"import sys, nestcone.{module}\n"
        "print(sorted(m for m in sys.modules if m.startswith('nestcone.')))"
    )
    assert _python(code) == f"{[f'nestcone.{m}' for m in loaded]}\n"


def test_cli_import_defers_the_output_modules():
    # Under -S no `site` preloads anything: `json` is imported by the first
    # JSON document, `csv` by the first CSV table and `shutil` by --help.
    code = (
        "import sys, nestcone.cli\n"
        "print([m for m in ('json', 'csv', 'shutil') if m in sys.modules])"
    )
    assert _python(code, "-S") == "[]\n"
