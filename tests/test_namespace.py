"""The package namespace: `nestcone.<name>` resolves exactly the names the
library modules declare in `__all__`, lazily, and importing one module
loads only what it imports."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import nestcone as nc
import nestcone.cli  # noqa: F401  - loads every module of the package

SRC = str(Path(nc.__file__).resolve().parents[1])
BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = sorted(m.name for m in pkgutil.iter_modules(nc.__path__))
LIBRARY = ("errors", "rationals", "spaces", "pairing", "cone", "verify", "studies")
# Names the library modules import, which `nestcone.<name>` used to resolve.
BORROWED = (
    "Callable", "Enum", "Fraction", "Iterable", "Iterator", "NamedTuple", "Sequence",
    "Union", "annotations", "cached_property", "comb", "gcd", "lcm", "lru_cache", "mul",
    "re", "rref", "solve_unique",
)


def _python(code, *flags):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _module(name):
    return importlib.import_module(f"nestcone.{name}")


def _bound_elsewhere(module, name):
    """Whether another module binds `name` to the same object: the module
    `module` imported it from, or a module of the package that imports it."""
    obj = vars(module)[name]
    if isinstance(obj, ModuleType):
        return True
    others = [m for k, m in sys.modules.items() if k.startswith("nestcone.")]
    others.append(sys.modules.get(getattr(obj, "__module__", None)))
    return any(vars(other).get(name) is obj for other in others if other not in (None, module))


def _bench_reads(path):
    """The (module, attribute) pairs a benchmark workload reads through
    `import nestcone.<module> as <alias>`."""
    text = path.read_text()
    return {
        (module, attr)
        for module, alias in re.findall(r"^import nestcone\.(\w+) as (\w+)$", text, re.M)
        for attr in re.findall(rf"\b{alias}\.(\w+)", text)
    }


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_library_modules_are_searched_in_order():
    assert nc._SEARCHED == LIBRARY
    assert set(LIBRARY) < set(MODULES)


@pytest.mark.parametrize("module", LIBRARY)
def test_every_public_name_resolves_to_its_defining_module(module):
    mod = _module(module)
    assert mod.__all__
    for name in mod.__all__:
        assert getattr(nc, name) is getattr(mod, name), name


def test_dir_lists_each_declared_name_once():
    declared = [name for module in LIBRARY for name in _module(module).__all__]
    assert len(declared) == len(set(declared))
    assert dir(nc) == sorted(declared)


def test_borrowed_names_are_not_the_package_api():
    for name in BORROWED:
        assert any(name in vars(_module(m)) for m in LIBRARY), name
        with pytest.raises(AttributeError):
            getattr(nc, name)
    assert nc.linalg.rref is vars(_module("cone"))["rref"]


@pytest.mark.parametrize("module", LIBRARY)
def test_every_public_binding_is_declared_or_imported(module):
    # A public helper that no other module of the package imports must be
    # declared in `__all__`, renamed with a leading underscore, or deleted.
    mod = _module(module)
    stray = [
        name for name in vars(mod)
        if not name.startswith("_") and name not in mod.__all__ and not _bound_elsewhere(mod, name)
    ]
    assert stray == []


def test_every_name_the_benchmark_reads_is_declared():
    t = _tracer()
    wrapped = {(m.removeprefix("nestcone."), a) for m, a, _ in t.FUNCTIONS + t.CONSTRUCTORS}
    read = _bench_reads(BENCH / "catalog_wl.py") | _bench_reads(BENCH / "dd_wl.py")
    assert ("pairing", "pushforward_a") in read and ("cone", "extremal_rays") in read
    for module, attr in wrapped | read:
        if module in LIBRARY and not attr.startswith("_"):
            assert attr in _module(module).__all__, f"{module}.{attr}"


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


def test_no_module_imports_a_private_name_of_a_sibling():
    # A name with a leading underscore belongs to its module: a sibling that
    # needs it should use a public name instead.
    borrowed = [
        f"{path.name}:{node.lineno} imports {alias.name} from .{node.module}"
        for path in sorted(Path(nc.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert borrowed == []
