"""Run orchestration: bytecode cache, set-up samples, timed passes, metrics.

A run does a whole number of passes over its workload's operation list; it
never stops on a timer inside a pass, so every run with the same seed and
`--seconds` times the same operations and fills the same caches.

Times are reported at reference machine speed.  On the shared 2-core host
this benchmark was developed on, the same work runs up to 25% slower or
faster from one ten-second stretch to the next (other tenants share the
host), more than any useful regression bound.  So a fixed pure-Python
reference kernel that shares no code with nestcone runs before the first
operation and again after each CAL_EVERY_S of operation time, and every
time measured in between is multiplied by REF_MS over the mean of the two
kernel times around it.  The raw figures are printed too.
"""

from __future__ import annotations

import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"
RUN_PY = BENCH / "run.py"

WORKLOADS = {"catalog": ("catalog_wl", "Catalog"), "dd_stress": ("dd_wl", "DDStress"), "cli": ("cli_wl", "Cli")}
MIN_OPS = 100          # so that at least ten samples lie beyond op_ms_p90
SETUP_SAMPLES = 7      # fresh interpreters per run; setup_s is their median
CHILD_SAMPLES = 7      # `python -c ...` samples for cli.interp_ms / cli.import_ms
REF_MS = 3.7           # reference-kernel time that reported figures are scaled to
REF_REPS = 3
CAL_EVERY_S = 0.25


@dataclass
class Op:
    """One operation: `run` is timed, `check` (None when correct) is not.

    `fault` names the program fault behind an operation known to fail.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    fault: str | None = None


class Context:
    """Per-run scratch directory holding the children's bytecode cache."""

    def __init__(self, run_dir: Path | None = None):
        self.python = sys.executable
        self.run_dir = run_dir or OUT / f"run-{os.getpid()}-{time.time_ns()}"
        self.pycache = self.run_dir / "pycache"

    @classmethod
    def attach(cls):
        """The context of the run that spawned this set-up probe."""
        return cls(Path.cwd())

    def __enter__(self):
        self.pycache.mkdir(parents=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    def child_env(self, write_bytecode: bool = False) -> dict:
        """The whole environment of every child interpreter.

        Nothing is inherited but PATH, so the caller's Python settings do not
        leak in.  Bytecode is read from this run's own cache, filled once by
        `fill_cache`; children never write it, so each sees the same state.
        """
        env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(SRC),
            "PYTHONPYCACHEPREFIX": str(self.pycache),
            "PYTHONHASHSEED": "0",
            "PYTHONNOUSERSITE": "1",
            "NESTCONE_NO_COLOR": "1",
            "LC_ALL": "C.UTF-8",
        }
        if not write_bytecode:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env

    def fill_cache(self):
        """Compile everything a child imports into this run's cache."""
        subprocess.run(
            [self.python, str(RUN_PY), "--fill"],
            env=self.child_env(write_bytecode=True), cwd=self.run_dir,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True, timeout=120,
        )

    def startup_ms(self) -> tuple[float, float]:
        """Median wall times of `python -c pass` and of
        `python -c "import nestcone.cli"`, sampled alternately so that both
        see the same machine, after one unmeasured child."""
        codes = ["pass", "import nestcone.cli"]
        samples = {code: [] for code in codes}
        for i in range(2 * CHILD_SAMPLES + 1):
            code = codes[i % 2]
            t0 = time.perf_counter_ns()
            # No timeout: with one, wait() polls with growing sleeps and
            # rounds the measured time up to the next poll.
            subprocess.run(
                [self.python, "-c", code], env=self.child_env(), cwd=self.run_dir,
                stdin=subprocess.DEVNULL, check=True,
            )
            if i:
                samples[code].append(time.perf_counter_ns() - t0)
        return tuple(statistics.median(samples[code]) / 1e6 for code in codes)


def fill():
    """Body of `run.py --fill`: import and run everything once, writing
    bytecode into the cache named by PYTHONPYCACHEPREFIX."""
    import compileall

    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, rx=re.compile(r"/out/"))
    for mod, _ in WORKLOADS.values():
        __import__(mod)
    import cli_wl

    for argv in (
        ["pair", "--space", "nested", "--n", "3", "A^b", "B^b/2"],
        ["verify", "--table", "k3_g1n"],
        ["table", "--table", "k3_g1n", "--format", "csv"],
        ["nef", "--table", "hilb_p2_nef", "--format", "json"],
        ["eff", "--table", "eff_p2_2_1", "--format", "json"],
        ["cross-section", "--table", "eff_p2_2_1", "--format", "svg"],
        ["cross-section", "--table", "eff_p2_2_1", "--format", "tikz"],
        ["asymptotic", "--k-max", "3", "--format", "json"],
        ["butler", "--k-max", "1", "--format", "json"],
    ):
        cli_wl.run_in_process(argv)


def _reference_kernel():
    """Fixed work in the style of nestcone's (exact rationals, big-integer
    gcds, tuples and dicts) that shares no code with it."""
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
    big = 3 ** 70
    g = sum(gcd(big * i + 1, big * (i + 3) - 7) for i in range(400))
    d = {}
    for i in range(2000):
        d[(i, i % 7)] = tuple(range(i % 5))
    return s, g, len(d)


def machine_ms() -> float:
    """Median time of the reference kernel now, in ms."""
    samples = []
    for _ in range(REF_REPS):
        t0 = time.perf_counter_ns()
        _reference_kernel()
        samples.append(time.perf_counter_ns() - t0)
    return statistics.median(samples) / 1e6


def load(name: str, seed: int, ctx, **kwargs):
    mod, cls = WORKLOADS[name]
    return getattr(__import__(mod), cls)(seed, ctx, **kwargs)


def passes_for(pass_s: float, ops_per_pass: int, seconds: int) -> int:
    """Fixed by the workload's nominal pass time, not measured, so the
    amount of work does not depend on how fast this run happens to go."""
    return max(math.ceil(seconds / pass_s), math.ceil(MIN_OPS / ops_per_pass))


def setup_samples(ctx, workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the point where it would
    start its first timed operation (import, inputs and warm-up), each
    scaled by the reference kernel timed just before and after it."""
    samples = []
    ref = machine_ms()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter_ns()
        p = subprocess.Popen(
            [ctx.python, str(RUN_PY), "--probe", "--workload", workload, "--seed", str(seed)],
            env=ctx.child_env(), cwd=ctx.run_dir, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        line = p.stdout.readline()
        t1 = time.perf_counter_ns()
        p.stdout.close()
        if p.wait(timeout=60) != 0 or line != b"ready\n":
            raise RuntimeError(f"set-up probe for {workload} failed (exit {p.returncode})")
        ref_after = machine_ms()
        samples.append((t1 - t0) / 1e9 * REF_MS / ((ref + ref_after) / 2))
        ref = ref_after
    return samples


@dataclass
class PassResult:
    latencies_ns: list[float]   # at reference machine speed
    raw_ns: list[int]           # as measured
    attempted: int
    failed: int
    unexpected: int
    reasons: dict


def timed_passes(ops: list[Op], passes: int, tracer=None) -> PassResult:
    lat: list[int] = []
    scaled: list[float] = []
    failed = unexpected = 0
    reasons: dict[str, tuple[str, int]] = {}
    clock = time.perf_counter_ns
    ref = machine_ms()

    def calibrate():
        nonlocal ref
        ref_after = machine_ms()
        scale = REF_MS / ((ref + ref_after) / 2)
        scaled.extend(x * scale for x in lat[len(scaled):])
        ref = ref_after

    for _ in range(passes):
        if tracer:
            tracer.new_pass()
        for op in ops:
            err = None
            if tracer:
                tracer.active = True
            t0 = clock()
            try:
                out = op.run()
            except Exception as e:  # a failing operation must not end the run
                err = f"{type(e).__name__}: {e}"
            t1 = clock()
            if tracer:
                tracer.active = False
            lat.append(t1 - t0)
            if sum(lat[len(scaled):]) >= CAL_EVERY_S * 1e9:
                calibrate()
            if err is None:
                try:  # a malformed output fails its check, not the run
                    err = op.check(out)
                except Exception as e:
                    err = f"{type(e).__name__}: {e}"
            if err is not None:
                failed += 1
                unexpected += op.fault is None
                reasons[op.label] = (err, reasons.get(op.label, ("", 0))[1] + 1)
    if len(scaled) < len(lat):
        calibrate()
    return PassResult(scaled, lat, passes * len(ops), failed, unexpected, reasons)


def end_to_end(res: PassResult, setup: list[float], peak_kb: int) -> dict:
    lat = res.latencies_ns
    return {
        "ops_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        "op_ms_p50": (statistics.median(lat) / 1e6, "ms"),
        "op_ms_p90": (statistics.quantiles(lat, n=10)[8] / 1e6, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def raw_summary(res: PassResult) -> str:
    raw = res.raw_ns
    return (f"as measured: ops_per_s {len(raw) / (sum(raw) / 1e9):.4g}, "
            f"op_ms_p50 {statistics.median(raw) / 1e6:.4g}, "
            f"op_ms_p90 {statistics.quantiles(raw, n=10)[8] / 1e6:.4g}; "
            f"machine factor {sum(res.latencies_ns) / sum(raw):.3f}")


def self_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def report_failures(res: PassResult):
    for label, (err, count) in sorted(res.reasons.items()):
        print(f"failed x{count}: {label}: {err}", file=sys.stderr)
