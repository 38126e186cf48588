#!/usr/bin/env python3
"""Record a before/after benchmark comparison into BENCH_<pr>.json.

Usage:
    bench_record.py --pr N --parent REV --change REV
    bench_record.py --aa REV

Both revisions are exported with `git archive` into a temporary directory,
and each runs its own, unchanged `bench/run.py`.  With `--aa`, one revision
is exported twice and runs on both sides, so the record shows how far the
benchmark tells identical code apart.  For every workload and seed the two
sides run back to back, alternating which goes first, so that a drift of
the host's speed hits both sides alike.  The workloads, the run length and
each metric's direction come from the change's `BENCHMARK.json`; the seeds
are 1..10, ten pairs per workload.  The benchmark's own check reads these
process runs.

The JSON holds every result line as `bench/run.py` printed it; per
workload and end-to-end metric, each side's median and quartiles, the
pairs the change won (ties count for neither side), the ratio of the
change's median to the parent's and a verdict (`gain`, `worse`,
`unresolved` or `flat`, see `_verdict`); each side's failed operations; the
git sha of both revisions, the Python version, the core count and the
interpreter's environment flags.  When the change commits a `BENCH_AA.json`
and the run is not `--aa`, every metric also carries that record's median
ratio as `aa_median_ratio`.

`paired` is the in-repo evidence of whether a change costs or gains
anything in process.  For `catalog` and `dd_stress`, each of 4 batches
starts three fresh workers (`PYTHONHASHSEED=0`), one on the change and two
on the parent (`parent` and `parent_aa`), that load their tree's
`bench/<workload>_wl.py` (seed 1) and warm it up.  In each of a batch's 12
rounds every worker answers one pass per mode; every workload runs warm,
and also cold (each pass after clearing `nestcone`'s `functools` caches)
when its warmed-up worker holds any.  The order of the modes swaps every
round, and the order of the three sides cycles through their six
permutations, so each mode's and each side's pass times come from the same
stretch of host time.  A worker times a pass with `time.process_time` and
checks its outputs untimed.  `paired.<workload>.<mode>` holds each batch's
median speed ratio (the `parent` pass time over the other side's, both
ratios of a round dividing its one `parent` pass) for the change and the
A/A, each side's median pass time, failed checks and Python opcodes of one
pass (`sys.settrace`, counted once: exact, but blind to work in C), and a
`verdict` (see `_paired_verdict`).  Within one set of workers a process's
own speed offset reads as an effect; over fresh batches it is spread.

Last, each side runs every workload once more traced (`--trace 1`, seed 1,
the same run length); `layers` holds, per workload, each side's exact
counts (`*.calls`, `cone.dd.constraints`, `cone.dd.rays_out`),
`counts_differ`, the names of the counts that differ (a count does not
drift with the host, so one that moves is a finding), and `failed`, each
side's failed operations in its traced run.  The record is
written to `BENCH_<pr>.json`, or `BENCH_AA.json` for an A/A run, at the
repository root.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
ENV_FLAGS = (
    "PYTHONDONTWRITEBYTECODE",
    "PYTHONHASHSEED",
    "PYTHONOPTIMIZE",
    "PYTHONUNBUFFERED",
    "PYTHONDEVMODE",
    "PYTHONNOUSERSITE",
    "PYTHONWARNINGS",
    "PYTHONINTMAXSTRDIGITS",
)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Write the committed tree of `rev` under `dest`; return its full sha."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=BytesIO(_git("archive", sha))) as tar:
        # The "data" filter exists from Python 3.10.12 / 3.11.4 on; the
        # archive is the repository's own, so older releases extract plainly.
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return sha


COUNTS = ("cone.dd.constraints", "cone.dd.rays_out")  # besides every `*.calls`


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree.name} {workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(lines[-1])


def _layers(parent: dict, change: dict) -> dict:
    """Each side's exact counts from the per-layer metrics of its traced
    run's result, `counts_differ`, the sorted names of the counts that
    differ (a count only one side reports differs too), and `failed`, each
    side's failed operations in that run."""
    sides = (("parent", parent), ("change", change))
    counts = {
        side: {k: v["value"] for k, v in res["metrics"].items() if k.endswith(".calls") or k in COUNTS}
        for side, res in sides
    }
    p, c = counts["parent"], counts["change"]
    counts["counts_differ"] = sorted(k for k in p.keys() | c.keys() if p.get(k) != c.get(k))
    counts["failed"] = {side: res["failed"] for side, res in sides}
    return counts


def _verdict(parent: list[float], change: list[float], sign: int, wins: int, bound: float) -> str:
    """`gain` when the change won at least 9 of 10 pairs and its median
    beats the parent's by more than the parent's quartile spread; `worse`
    when its median is worse than the parent's by more than `bound`, a
    fraction of the parent's median; `unresolved` when the parent's
    quartile spread is wider than that bound and not every change run beats
    every parent run; `flat` otherwise."""
    q1, median, q3 = statistics.quantiles(parent, n=4)
    gap = sign * (statistics.median(change) - median)
    if 10 * wins >= 9 * len(parent) and gap > q3 - q1:
        return "gain"
    if gap < -bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved"
    return "flat"


def _summary(runs: list[dict], workload: str, better: dict[str, str], aa: dict,
             bounds: dict[str, float]) -> dict:
    """Per metric: each side's quartiles and the pairs the change won, the
    median ratio of `aa`, an A/A record's summary of this workload, when it
    has the metric, and a `verdict` under its bound from BENCHMARK.json
    (`bounds`); and each side's failed operations over all its runs."""
    by_seed: dict[int, dict] = {}
    for r in runs:
        if r["workload"] == workload:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
    pairs = list(by_seed.values())
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        values = {side: [p[side][name]["value"] for p in pairs] for side in ("parent", "change")}
        out[name] = {
            side: dict(zip(("q1", "median", "q3"), statistics.quantiles(v, n=4)))
            for side, v in values.items()
        }
        out[name]["change_wins"] = sum(
            sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])
        )
        out[name]["median_ratio"] = statistics.median(values["change"]) / statistics.median(
            values["parent"]
        )
        out[name]["pairs"] = len(pairs)
        if name in aa:
            out[name]["aa_median_ratio"] = aa[name]["median_ratio"]
        out[name]["verdict"] = _verdict(values["parent"], values["change"], sign,
                                        out[name]["change_wins"], bounds[name])
    out["failed"] = {
        side: sum(r["result"]["failed"] for r in runs if r["workload"] == workload and r["side"] == side)
        for side in ("parent", "change")
    }
    return out


PAIRED = ("catalog", "dd_stress")  # the workloads whose operations run in process
BATCHES, ROUNDS = 4, 12  # each order of the three sides twice per batch
SIDES = ("parent", "change", "parent_aa")


def _median_ratio(base: list[float], other: list[float]) -> float:
    """The median of the per-round speed ratios base/other, above 1 when
    `other` took less time."""
    return statistics.median(b / o for b, o in zip(base, other, strict=True))


def _paired_verdict(change: list[float], aa: list[float], failed: dict[str, int]) -> str:
    """`gain` when every change batch median beats every A/A batch median
    (for 4 and 4 exchangeable medians, a chance of 1 in 70) and no side
    failed a check; `worse` when every change batch median falls below
    every A/A batch median; `flat` otherwise."""
    if min(change) > max(aa) and not any(failed.values()):
        return "gain"
    if max(change) < min(aa):
        return "worse"
    return "flat"


def _section(batches: list[list[dict]], opcodes: dict[str, int]) -> dict:
    """One mode's paired section from its batches of rounds, each round
    {side: {"s": seconds, "failed": checks}}, and its opcodes.  The change
    and the A/A ratio of a round divide the same `parent` pass.  The
    section's resolution is its largest A/A batch median: only a change
    batch median above it can read `gain`."""
    def ratios(other: str) -> list[float]:
        return [_median_ratio([r["parent"]["s"] for r in rounds],
                              [r[other]["s"] for r in rounds]) for rounds in batches]

    passes = [(side, p) for rounds in batches for r in rounds for side, p in r.items()]
    failed = {side: sum(p["failed"] for s, p in passes if s == side) for side in SIDES}
    change, aa = ratios("change"), ratios("parent_aa")
    return {"change_ratios": change, "aa_ratios": aa, "resolution": max(aa),
            "failed": failed, "opcodes": opcodes,
            "pass_s": {side: statistics.median(p["s"] for s, p in passes if s == side) for side in SIDES},
            "verdict": _paired_verdict(change, aa, failed)}


def _pass(ops: list) -> list:
    """Each operation's output, or the exception it raised."""
    outs = []
    for op in ops:
        try:
            outs.append(op.run())
        except Exception as e:  # a failing operation must not end the run
            outs.append(e)
    return outs


def _opcodes(ops: list) -> int:
    """The Python opcodes that one pass of `ops` executes."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        _pass(ops)
    finally:
        sys.settrace(outer)
    return count


def worker(tree: str, workload: str) -> None:
    """Load the tree's workload (seed 1), warm it up, print how many
    `functools` caches `nestcone` holds, and answer each line of stdin, a
    mode (`cold` first clears every cache): with one timed pass, its
    process time and the outputs that fail their check; or, with the mode
    followed by `opcodes`, with the opcodes of one pass."""
    sys.path[:0] = [f"{tree}/bench", f"{tree}/src"]
    import harness

    wl = harness.load(workload, 1, None)
    wl.warm_up()
    caches = [
        f for name, mod in list(sys.modules.items()) if name.split(".")[0] == "nestcone"
        for f in vars(mod).values() if callable(getattr(f, "cache_clear", None))
    ]
    print(json.dumps({"caches": len(caches)}), flush=True)
    for line in sys.stdin:
        mode, *opcodes = line.split()
        if mode == "cold":
            for f in caches:
                f.cache_clear()
        if opcodes:
            print(json.dumps({"opcodes": _opcodes(wl.ops)}), flush=True)
            continue
        t0 = time.process_time()
        outs = _pass(wl.ops)
        seconds = time.process_time() - t0
        failed = 0
        for op, out in zip(wl.ops, outs):
            try:
                failed += isinstance(out, Exception) or op.check(out) is not None
            except Exception:
                failed += 1
        print(json.dumps({"s": seconds, "failed": failed}), flush=True)


def _batch(trees: dict[str, Path], workload: str, count: bool) -> tuple[dict, dict]:
    """One batch of paired passes of `workload` on fresh workers: per mode,
    its rounds (see `_section`), and with `count`, per mode, each side's
    opcodes of one pass.  Every round asks each side for one pass per mode,
    every other round swaps the order of the modes, and the sides' order
    cycles through their six permutations, so that a drift of the host's
    speed hits both modes and all three sides alike."""
    procs = {
        side: subprocess.Popen(
            [sys.executable, "-B", "-c", "import bench_record; bench_record.worker"
             f"({str(trees[side.removesuffix('_aa')])!r}, {workload!r})"],
            env=dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(Path(__file__).parent)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for side in SIDES
    }

    def reply(side: str, request: str | None = None) -> dict:
        if request:
            procs[side].stdin.write(request + "\n")
            procs[side].stdin.flush()
        line = procs[side].stdout.readline()
        if not line:
            raise SystemExit(f"the {side} {workload} worker stopped")
        return json.loads(line)

    try:
        modes = ("warm", "cold") if sum(reply(side)["caches"] for side in SIDES) else ("warm",)
        opcodes = {mode: {side: reply(side, f"{mode} opcodes")["opcodes"] for side in SIDES}
                   for mode in modes if count}
        rounds = {mode: [] for mode in modes}
        orders = list(itertools.permutations(SIDES))
        for i in range(ROUNDS):
            for mode in modes[::1 if i % 2 == 0 else -1]:
                rounds[mode].append({side: reply(side, mode) for side in orders[i % len(orders)]})
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    return rounds, opcodes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int)
    ap.add_argument("--parent", help="git revision of the baseline")
    ap.add_argument("--change", help="git revision of the change")
    ap.add_argument("--aa", metavar="REV", help="run REV on both sides (an A/A record)")
    args = ap.parse_args()
    if args.aa:
        if args.pr is not None or args.parent or args.change:
            ap.error("--aa takes no --pr, --parent or --change")
        args.parent = args.change = args.aa
    elif args.pr is None or not args.parent or not args.change:
        ap.error("give --pr, --parent and --change, or --aa")

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        aa_path = trees["change"] / "BENCH_AA.json"
        aa = {} if args.aa or not aa_path.exists() else json.loads(aa_path.read_text())["summary"]
        workloads = [w["name"] for w in spec["workloads"]]
        seconds = spec["run_seconds"]
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for workload in workloads:
            for n, seed in enumerate(SEEDS):
                order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
                for side in order:
                    res = _run(trees[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side, "result": res})
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps({k: round(v['value'], 4) for k, v in res['metrics'].items()})}",
                          file=sys.stderr)
        paired = {}
        for w in PAIRED:  # the first batch counts the opcodes
            batches = [_batch(trees, w, count=b == 0) for b in range(BATCHES)]
            paired[w] = {mode: _section([rounds[mode] for rounds, _ in batches], opcodes)
                         for mode, opcodes in batches[0][1].items()}
        traced = {
            workload: {side: _run(trees[side], workload, 1, seconds, trace=1)
                       for side in ("parent", "change")}
            for workload in workloads
        }

    record = {
        "pr": args.pr,
        "aa": bool(args.aa),
        "command": f"bench/run.py --seconds {seconds} --trace 0",
        "layers_command": f"bench/run.py --seconds {seconds} --trace 1 --seed 1",
        "paired_command": f"{BATCHES} batches of {ROUNDS} rounds of bench/<workload>_wl.py seed 1 passes",
        "parent": {"rev": args.parent, "sha": shas["parent"]},
        "change": {"rev": args.change, "sha": shas["change"]},
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cores": os.cpu_count(),
            "env": {k: os.environ[k] for k in ENV_FLAGS if k in os.environ},
        },
        "summary": {w: _summary(runs, w, better, aa.get(w, {}), bounds) for w in workloads},
        "layers": {w: _layers(traced[w]["parent"], traced[w]["change"]) for w in workloads},
        "paired": paired,
        "runs": runs,
    }
    out = ROOT / ("BENCH_AA.json" if args.aa else f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
