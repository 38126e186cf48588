"""Steadiness check: run two sets of benchmark runs of the same code and compare.

    python3 bench/steady.py

Each set runs every workload in BENCHMARK.json RUNS times for run_seconds,
each run with its own seed.  For every end-to-end metric it prints the
larger spread of the two sets (the distance between the first and third
quartile as a share of the median) and how far the second set's median
moved from the first set's, in either direction, both against the metric's
bound in BENCHMARK.json, and whether the share of failed operations is the
same in both sets.  Raw results go to bench/out/steady-<time>.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def one_run(cmd, workload: str, seed: int, seconds: int) -> dict:
    p = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            for w in workloads:
                seed = 1000 * (s + 1) + i
                t0 = time.time()
                res = one_run(spec["command"], w, seed, spec["run_seconds"])
                results[w][s].append(res)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"set {s + 1} {w} seed {seed} ({time.time() - t0:.0f} s): "
                      f"failed {res['failed']}/{res['attempted']} {vals}", flush=True)

    ok = True
    print(f"\n{'workload':10} {'metric':12} {'median':>12} {'spread':>8} {'moved':>8} {'bound':>6}")
    for w in workloads:
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in results[w]}
        if len(shares) != 1:
            ok = False
            print(f"{w}: failed share differs between sets: {sorted(shares)}")
        for name, m in metrics.items():
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            first, second = (statistics.median(v) for v in sets)
            moved = abs(second - first) / first
            worst_spread = max(spread(v) for v in sets)
            bad = moved > m["bound"] or worst_spread > m["bound"]
            ok &= not bad
            print(f"{w:10} {name:12} {first:12.5g} {worst_spread:8.3f} {moved:8.3f} {m['bound']:6.2f}"
                  f"{'  FAIL' if bad else ''}")
    out = ROOT / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"steady-{int(time.time())}.json").write_text(json.dumps(results))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
