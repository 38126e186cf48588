#!/usr/bin/env python3
"""Record a before/after benchmark comparison into BENCH_<pr>.json.

Usage:
    bench_record.py --pr N --parent REV --change REV
    bench_record.py --aa REV

Both revisions are exported with `git archive` into a temporary directory,
and each runs its own, unchanged `bench/run.py`.  With `--aa`, one revision
is exported twice and runs on both sides, so the record shows how far the
benchmark tells identical code apart: a claimed change should clear that
spread.  For every workload and seed the two sides run back to back,
alternating which goes first, so that a drift of the host's speed hits both
sides alike.  The workloads, the run length and each metric's direction
come from the change's `BENCHMARK.json`; the seeds are 1..10, ten pairs per
workload.

The JSON holds every result line as `bench/run.py` printed it; per
workload and end-to-end metric, each side's median and quartiles and the
number of pairs the change won (ties count for neither side), and the
ratio of the change's median to the parent's, and a verdict (`gain`,
`worse`, `unresolved` or `flat`, see `_verdict`); each side's failed
operations; the git sha of both revisions, the Python version, the core
count and the interpreter's environment flags.  When the change commits a
`BENCH_AA.json` and the run is not `--aa`, every metric also carries that
A/A record's median ratio as `aa_median_ratio`, so the record states the
spread a claimed change has to clear.  After the timed pairs, each side runs
every workload once more traced (`--trace 1`, seed 1, the same run length),
and `layers` holds, per workload, each side's exact counts (`*.calls`,
`cone.dd.constraints`, `cone.dd.rays_out`) and `counts_differ`, the names of
the counts that differ: a count does not drift with the host, so one that
moves is a finding.  It is written to
`BENCH_<pr>.json`, or `BENCH_AA.json` for an A/A run, at the repository
root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
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
    """Each side's exact counts from the per-layer metrics of one traced
    run, and `counts_differ`, the sorted names of the counts that differ
    (a count only one side reports differs too)."""
    counts = {
        side: {k: v["value"] for k, v in metrics.items() if k.endswith(".calls") or k in COUNTS}
        for side, metrics in (("parent", parent), ("change", change))
    }
    p, c = counts["parent"], counts["change"]
    counts["counts_differ"] = sorted(k for k in p.keys() | c.keys() if p.get(k) != c.get(k))
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
             bounds: dict[str, float] | None = None) -> dict:
    """Per metric: each side's quartiles and the pairs the change won, the
    median ratio of `aa`, an A/A record's summary of this workload, when it
    has the metric, and with `bounds` (each metric's bound from
    BENCHMARK.json) a `verdict`; and each side's failed operations over all
    its runs."""
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
        if bounds is not None:
            out[name]["verdict"] = _verdict(values["parent"], values["change"], sign,
                                            out[name]["change_wins"], bounds[name])
    out["failed"] = {
        side: sum(r["result"]["failed"] for r in runs if r["workload"] == workload and r["side"] == side)
        for side in ("parent", "change")
    }
    return out


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
        traced = {
            workload: {side: _run(trees[side], workload, 1, seconds, trace=1)["metrics"]
                       for side in ("parent", "change")}
            for workload in workloads
        }

    record = {
        "pr": args.pr,
        "aa": bool(args.aa),
        "command": f"bench/run.py --seconds {seconds} --trace 0",
        "layers_command": f"bench/run.py --seconds {seconds} --trace 1 --seed 1",
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
        "runs": runs,
    }
    out = ROOT / ("BENCH_AA.json" if args.aa else f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
