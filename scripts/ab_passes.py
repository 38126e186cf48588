#!/usr/bin/env python3
"""Paired in-process passes of one workload on two git revisions.

Usage:
    ab_passes.py --parent REV --change REV --workload catalog|dd_stress --pairs N
                 [--seed S] [--cold]

Both revisions are exported with `git archive` by `bench_record.export`.
Three worker processes then load a tree's own, unchanged
`bench/<workload>_wl.py` (seed S, default 1) and warm it up: one on the
change and two on the parent.  The script asks them for passes over a pipe,
one at a time: each round is a parent/change pair and then a parent/parent
pair (the A/A), and every round swaps the order within both pairs, so that
a drift of the host's speed hits both sides alike.  A worker times each pass
of its workload's operations with `time.process_time` and then checks every
output, untimed.  With `--cold` it first clears every `functools` cache in
`nestcone`, so a pass measures what a first call costs.

One JSON line is printed.  For the pair (`change_vs_parent`) and for the
A/A (`aa`) it holds, over the per-pair speed ratios (parent's pass time over the other
side's, above 1 when the other side is faster): the median, the quartiles,
the pairs the other side won and a one-sided sign-test p of that many wins
or more.  It also holds each worker's median pass time and failed checks.
A committed `BENCH_*.json` still decides a claim; this script shows, with
far less host drift, whether a change costs anything.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from math import comb
from pathlib import Path

WORKLOADS = ("catalog", "dd_stress")
SIDES = ("parent", "change", "parent_aa")


def sign_p(wins: int, pairs: int) -> float:
    """One-sided sign-test p: the chance of `wins` or more wins in `pairs`
    fair coin flips."""
    return sum(comb(pairs, k) for k in range(wins, pairs + 1)) / 2 ** pairs


def paired(base: list[float], other: list[float]) -> dict:
    """Median and quartiles of the speed ratios base/other, one per pair,
    the pairs `other` won (took less time) and their sign-test p."""
    ratios = [b / o for b, o in zip(base, other, strict=True)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    wins = sum(o < b for b, o in zip(base, other))
    return {"median_ratio": median, "q1": q1, "q3": q3, "wins": wins,
            "pairs": len(ratios), "sign_p": sign_p(wins, len(ratios))}


def worker(tree: Path, workload: str, seed: int) -> None:
    """Load the tree's workload, warm it up and answer each line of stdin,
    `warm` or `cold`, with one timed pass: its process time in seconds and
    the number of its outputs that fail their check."""
    sys.dont_write_bytecode = True  # leave nothing behind in the tree
    sys.path[:0] = [str(tree / "bench"), str(tree / "src")]
    import harness

    wl = harness.load(workload, seed, None)
    wl.warm_up()
    caches = [
        f for name, mod in list(sys.modules.items()) if name.split(".")[0] == "nestcone"
        for f in vars(mod).values() if callable(getattr(f, "cache_clear", None))
    ]
    print(json.dumps({"ops": len(wl.ops), "caches": len(caches)}), flush=True)
    for line in sys.stdin:
        if line.strip() == "cold":
            for f in caches:
                f.cache_clear()
        outs = []
        t0 = time.process_time()
        for op in wl.ops:
            try:
                outs.append(op.run())
            except Exception as e:  # a failing operation must not end the run
                outs.append(e)
        seconds = time.process_time() - t0
        failed = 0
        for op, out in zip(wl.ops, outs):
            try:
                failed += isinstance(out, Exception) or op.check(out) is not None
            except Exception:
                failed += 1
        print(json.dumps({"s": seconds, "failed": failed}), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="git revision of the baseline")
    ap.add_argument("--change", help="git revision of the change")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cold", action="store_true", help="clear nestcone's caches before each pass")
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.worker, args.workload, args.seed)
        return 0
    if not args.parent or not args.change or not args.workload:
        ap.error("give --parent, --change and --workload")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    from bench_record import export  # the sibling script

    mode = "cold" if args.cold else "warm"
    with tempfile.TemporaryDirectory(prefix="ab_passes_") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        procs = {
            side: subprocess.Popen(
                [sys.executable, __file__, "--worker", str(trees[side.removesuffix("_aa")]),
                 "--workload", args.workload, "--seed", str(args.seed)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for side in SIDES
        }
        try:
            for side, proc in procs.items():
                if not proc.stdout.readline():
                    raise SystemExit(f"the {side} worker failed to start")

            def run(side: str) -> dict:
                procs[side].stdin.write(mode + "\n")
                procs[side].stdin.flush()
                return json.loads(procs[side].stdout.readline())

            rounds = []
            for i in range(args.pairs):
                pairs = {}
                for name, pair in (("change_vs_parent", ("parent", "change")),
                                   ("aa", ("parent", "parent_aa"))):
                    pairs[name] = {side: run(side) for side in (pair if i % 2 == 0 else pair[::-1])}
                rounds.append(pairs)
        finally:
            for proc in procs.values():
                proc.stdin.close()
                proc.wait()

    def seconds(name: str, side: str) -> list[float]:
        return [r[name][side]["s"] for r in rounds]

    passes = [(side, p) for r in rounds for pair in r.values() for side, p in pair.items()]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": mode,
        "parent": shas["parent"],
        "change": shas["change"],
        "change_vs_parent": paired(seconds("change_vs_parent", "parent"),
                                   seconds("change_vs_parent", "change")),
        "aa": paired(seconds("aa", "parent"), seconds("aa", "parent_aa")),
        "pass_s": {side: statistics.median(p["s"] for s, p in passes if s == side) for side in SIDES},
        "failed": {side: sum(p["failed"] for s, p in passes if s == side) for side in SIDES},
    }
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
