#!/usr/bin/env python3
"""Compare confidence mechanisms on a batch of synthetic scenes.

Each method keeps its primary detector fixed (the deep extractor) and only
changes how per-pixel confidence is assigned, so the table isolates the value
of the selection rule itself.  The no-selection row evaluates every pixel.

    python3 scripts/benchmark_methods.py --scenes 10 --sigma 0.1 -k 10
"""

import argparse
import sys

from cdconf import (
    RcvaConfig,
    SceneSpec,
    SmoothingConfig,
    confusion,
    default_primary_spec,
    default_secondary_spec,
    detect_pair,
    format_table,
    generate,
    metrics,
    normalize_pair,
)
from cdconf.baselines import METHODS, run_method
from cdconf.metrics import aggregate_mean, aggregate_pooled
from cdconf.pool import default_threads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenes", type=int, default=10, help="number of scene seeds")
    ap.add_argument("--size", type=int, default=128)
    ap.add_argument("--sigma", type=float, default=0.1)
    ap.add_argument("-k", "--iterations", type=int, default=10)
    ap.add_argument("--conf-threshold", type=float, default=1.0)
    ap.add_argument("--change-fraction", type=float, default=0.08)
    ap.add_argument("--change-contrast", type=float, default=0.35)
    ap.add_argument("--sensor-noise", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0, help="master seed for weights/noise")
    ap.add_argument("--aggregate", choices=("pooled", "mean"), default="pooled")
    ap.add_argument("--threads", type=int, default=default_threads(),
                    help="worker threads inside each detection: its strips of rows, in "
                         "both passes (cap and default as for cdconf detect --threads)")
    args = ap.parse_args(argv)
    for flag in ("scenes", "threads"):
        if getattr(args, flag) < 1:
            ap.error(f"--{flag} must be >= 1, got {getattr(args, flag)}")

    f1 = default_primary_spec(args.seed)
    f2 = default_secondary_spec(args.seed)
    sm = SmoothingConfig(sigma=args.sigma, iterations=args.iterations,
                         conf_threshold=args.conf_threshold, master_seed=args.seed)
    rcfg = RcvaConfig(window_radius=1)

    per_method = {m.title: [] for m in METHODS.values()}
    totals = 0
    for s in range(args.scenes):
        spec = SceneSpec(width=args.size, height=args.size,
                         change_fraction=args.change_fraction,
                         change_contrast=args.change_contrast,
                         sensor_noise=args.sensor_noise, seed=s)
        t1, t2, ref = generate(spec)
        x1, x2 = normalize_pair(t1, t2)
        total = ref.changed.size
        totals += total
        primary = detect_pair(x1, x2, f1, threads=args.threads)
        for m in METHODS.values():
            det = run_method(m, x1, x2, f1, f2, sm, rcfg, threads=args.threads,
                             primary=primary)
            per_method[m.title].append(
                metrics(confusion(det.primary.labels, ref, det.confidence), total)
            )
        print(f"scene {s} done", file=sys.stderr)

    rows = []
    for name, reports in per_method.items():
        if args.aggregate == "mean":
            rows.append((name, aggregate_mean(reports)))
        else:
            rows.append((name, aggregate_pooled([r.counts for r in reports], totals)))
    print(format_table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
