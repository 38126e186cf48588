"""nestcone benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload catalog|dd_stress|cli --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` they are the per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import sys

if "--fill" not in sys.argv:
    sys.dont_write_bytecode = True  # leave nothing behind in src/

import argparse
import json
import math
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _result(res, metrics: dict) -> str:
    return json.dumps({
        "correct": res.unexpected == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def end_to_end_run(h, workload: str, seed: int, seconds: int) -> str:
    with h.Context() as ctx:
        ctx.fill_cache()
        setup = h.setup_samples(ctx, workload, seed)
        wl = h.load(workload, seed, ctx)
        wl.warm_up()
        passes = h.passes_for(wl.nominal_pass_s, len(wl.ops), seconds)
        print(f"{workload}: {passes} passes of {len(wl.ops)} ops; setup samples {setup}")
        res = h.timed_passes(wl.ops, passes)
        peak_kb = getattr(wl, "peak_kb", 0) or h.self_peak_kb()
    print(h.raw_summary(res))
    h.report_failures(res)
    return _result(res, h.end_to_end(res, setup, peak_kb))


def traced_run(h, workload: str, seed: int, seconds: int) -> str:
    import nestcone.pairing
    import tracer

    with h.Context() as ctx:
        ctx.fill_cache()
        interp_ms, cli_ms = ctx.startup_ms()
        import_ms = cli_ms - interp_ms
        in_process = {"in_process": True} if workload == "cli" else {}
        wl = h.load(workload, seed, ctx, **in_process)
        wl.warm_up()
        pass_s = getattr(wl, "nominal_pass_s_in_process", wl.nominal_pass_s)
        passes = max(1, math.ceil(seconds / 3 / pass_s))
        plain = h.timed_passes(wl.ops, passes)
        tr = tracer.Tracer()
        tr.install()
        info0 = nestcone.pairing.pairing_table.cache_info()
        try:
            res = h.timed_passes(wl.ops, passes, tr)
        finally:
            tr.uninstall()
        info1 = nestcone.pairing.pairing_table.cache_info()
    print(f"{workload} traced: {passes} passes of {len(wl.ops)} ops, untraced then traced")
    h.report_failures(plain)
    h.report_failures(res)
    overhead = sum(plain.latencies_ns) / sum(res.latencies_ns)
    metrics = tracer.layer_metrics(
        tr, info1.hits - info0.hits, info1.misses - info0.misses, interp_ms, import_ms, overhead
    )
    res.attempted += plain.attempted
    res.failed += plain.failed
    res.unexpected += plain.unexpected
    return _result(res, metrics)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["catalog", "dd_stress", "cli"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--fill", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "nestcone" / "__init__.py").is_file():
        print(f"error: no nestcone sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness as h

    if args.fill:
        h.fill()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.probe:
        # Set-up sample: everything a run does before its first timed operation.
        h.load(args.workload, args.seed, h.Context.attach()).warm_up()
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    if args.seconds is None:
        ap.error("--seconds is required")
    run = traced_run if args.trace else end_to_end_run
    print(run(h, args.workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
