#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload cli-512

Runs the benchmark once for each of the seeds 1-10, one run at a time and
``run_seconds`` long, and prints for each end-to-end metric its median and
its quartile spread (Q3 - Q1 over the median) next to the bound in
``BENCHMARK.json``.  A spread at or above a third of the bound is flagged.
The per-run result lines go to ``.bench_out/spread/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out = ROOT / ".bench_out" / "spread"
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    for seed in SEEDS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        (out / f"{args.workload}-seed{seed}.json").write_text(line + "\n")
        run = json.loads(line)
        runs.append(run)
        print(f"seed {seed}: correct={run['correct']} attempted={run['attempted']} "
              f"failed={run['failed']}", file=sys.stderr)

    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    print(f"{args.workload}: {len(runs)} runs, seeds {SEEDS.start}-{SEEDS.stop - 1}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        spread = quartile_spread(values)
        flag = "" if spread < m["bound"] / 3 else "  <-- spread >= bound/3"
        ok = ok and not flag
        print(f"  {m['name']:<20} median {statistics.median(values):>12.6g} {m['unit']:<9} "
              f"spread {spread:7.4f}  bound {m['bound']}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
