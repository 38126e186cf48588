"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every binding of each traced function across the
loaded `nestcone.*` modules (`verify` and `cone` import `pair`, `cone_equal`
and `primitive` by name, so patching only the defining module would miss
most calls) and the constructors of the class types.  Each wrapper records
calls, total time and self time (total minus the time of traced callees).
Wrappers only record while `active` is set, so the benchmark's own checks,
which call the same functions, are not counted.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, metric name); names ending in "." get a suffix from
# the call's first argument.
FUNCTIONS = [
    ("nestcone.rationals", "primitive", "rationals.primitive"),
    ("nestcone.linalg", "rref", "linalg.rref"),
    ("nestcone.spaces", "pull_a", "spaces"),
    ("nestcone.spaces", "pull_b", "spaces"),
    ("nestcone.spaces", "pull_res", "spaces"),
    ("nestcone.spaces", "tautological", "spaces"),
    ("nestcone.spaces", "tautological_a", "spaces"),
    ("nestcone.spaces", "tautological_b", "spaces"),
    ("nestcone.spaces", "surface_divisor", "spaces"),
    ("nestcone.spaces", "divisor", "spaces"),
    ("nestcone.spaces", "curve", "spaces"),
    ("nestcone.pairing", "pair", "pairing.pair"),
    ("nestcone.pairing", "curve_functional", "pairing.curve_functional"),
    ("nestcone.cone", "_dd", "cone.dd"),
    ("nestcone.cone", "dual", "cone.dual"),
    ("nestcone.cone", "extremal_rays", "cone.extremal_rays"),
    ("nestcone.cone", "cone_equal", "cone.cone_equal"),
    ("nestcone.cone", "cross_section", "cone.cross_section"),
    ("nestcone.verify", "_certify", "verify.certify"),
    ("nestcone.verify", "reproduce_table", "verify.reproduce_table."),
    ("nestcone.studies", "asymptotic_report", "studies.asymptotic_report"),
    ("nestcone.studies", "butler_check", "studies.butler_check"),
    ("nestcone.render", "cross_section_svg", "render"),
    ("nestcone.render", "cross_section_tikz", "render"),
    ("nestcone.render", "cross_section_csv", "render"),
    ("nestcone.render", "_layout", "render"),
    ("nestcone.render", "_projection_axes", "render"),
    ("nestcone.render", "_fixed", "render"),
    ("nestcone.cli", "main", "cli.main."),
]
CONSTRUCTORS = [("nestcone.spaces", "DivClass", "spaces"), ("nestcone.spaces", "CurClass", "spaces")]


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = defaultdict(lambda: [0, 0, 0])  # name -> calls, total ns, self ns
        self.dd_constraints = 0
        self.dd_rays_out = 0
        self.dd_repeats = 0
        self._dd_seen: set = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def new_pass(self):
        """`cone.dd.repeat_ratio` counts inputs already seen in this pass."""
        self._dd_seen.clear()

    def _wrap(self, fn, name: str):
        stats, stack, clock = self.stats, self._stack, time.perf_counter_ns
        keyed = name.endswith(".")
        is_dd = name == "cone.dd"

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name + str(args[0][0] if name == "cli.main." else args[0]) if keyed else name
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                s = stats[label]
                s[0] += 1
                s[1] += dt
                s[2] += dt - child
                if stack:
                    stack[-1] += dt
            if is_dd:
                self._count_dd(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_dd(self, args, result):
        constraints, dim = args[0], args[1]
        key = (dim, tuple(tuple(c) for c in constraints))
        self.dd_constraints += len(key[1])
        self.dd_rays_out += len(result[0]) + len(result[1])
        if key in self._dd_seen:
            self.dd_repeats += 1
        self._dd_seen.add(key)

    def install(self):
        import nestcone.cli  # noqa: F401  - every module must be loaded first

        mods = [m for n, m in sorted(sys.modules.items()) if n == "nestcone" or n.startswith("nestcone.")]
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(orig, name)
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._undo.append((m, k, v))
                        setattr(m, k, wrapper)
        for modname, cls_name, name in CONSTRUCTORS:
            cls = getattr(sys.modules[modname], cls_name)
            self._undo.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap(cls.__init__, name)

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def self_ms(self, name: str) -> float:
        return self.stats[name][2] / 1e6 if name in self.stats else 0.0

    def mean_ms(self, name: str) -> float:
        s = self.stats.get(name)
        return s[1] / s[0] / 1e6 if s and s[0] else 0.0


COMMANDS = ("pair", "verify", "table", "nef", "eff", "cross-section", "asymptotic", "butler")


def layer_metrics(tr: Tracer, cache_hits: int, cache_misses: int, interp_ms: float,
                  import_ms: float, overhead: float) -> dict:
    """Every per-layer metric as name -> (value, unit).

    `.calls` and `.self_ms` are totals over the traced passes; `.ms` is the
    mean inclusive time of one call.  A layer the workload never calls reads 0.
    """
    from catalog_wl import TABLES

    m = {}
    for name in ("rationals.primitive", "linalg.rref", "spaces", "pairing.pair",
                 "pairing.curve_functional", "cone.dd", "verify.certify"):
        m[f"{name}.calls"] = (tr.calls(name), "count")
        m[f"{name}.self_ms"] = (tr.self_ms(name), "ms")
    lookups = cache_hits + cache_misses
    m["pairing.pairing_table.hit_ratio"] = (cache_hits / lookups if lookups else 0.0, "ratio")
    m["cone.dd.constraints"] = (tr.dd_constraints, "count")
    m["cone.dd.rays_out"] = (tr.dd_rays_out, "count")
    dd_calls = tr.calls("cone.dd")
    m["cone.dd.repeat_ratio"] = (tr.dd_repeats / dd_calls if dd_calls else 0.0, "ratio")
    for name in ("cone.dual", "cone.extremal_rays", "cone.cone_equal", "cone.cross_section",
                 "studies.asymptotic_report", "studies.butler_check"):
        m[f"{name}.ms"] = (tr.mean_ms(name), "ms")
    for tid in sorted(TABLES):
        m[f"verify.reproduce_table.{tid}.ms"] = (tr.mean_ms(f"verify.reproduce_table.{tid}"), "ms")
    m["render.self_ms"] = (tr.self_ms("render"), "ms")
    m["cli.interp_ms"] = (interp_ms, "ms")
    m["cli.import_ms"] = (import_ms, "ms")
    for cmd in COMMANDS:
        m[f"cli.main.{cmd}.ms"] = (tr.mean_ms(f"cli.main.{cmd}"), "ms")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m
