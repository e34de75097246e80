#!/usr/bin/env python3
"""cdconf benchmark: run one workload in a fresh child process and report it.

    python3 perfbench/run.py --workload rcva-vote-128 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``, nothing needs installing.  The workloads and metrics are named in
``BENCHMARK.json`` at the root:

* ``cli-512``: fresh-process ``cdconf detect --iterations 2 --threads 2`` on a
  512x512 scene written in set-up, then ``cdconf evaluate`` on its output.
* ``rcva-vote-128``: run_conf_rcva in-process, 128x128, misregistered by one
  pixel, K=50.

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` hold every ``end_to_end`` metric; with ``--trace 1`` they hold
every ``per_layer`` metric.  The lines above it are the same figures for a
reader, with sample counts, the error rate and the environment.  The full
result, with all samples and (traced) the spans, is written under
``.bench_out/results/``.

A workload counts a detection as failed when it raises, a child exits
non-zero, or an output check fails: labels must equal rho > tau, a confident
pixel must keep its primary label, and 0 <= K' <= K with the counts shaped
like the scene.  ``cli-512`` also replays one run and compares every
artifact byte for byte.

Memory is in MB of 2**20 bytes.  ``peak_rss_mb`` is the workload child's
``ru_maxrss`` from ``os.wait4``, which covers its own children too.

Quality (``f1_macro_all``, ``f1_macro_confident``, ``retained_pct``) is
the workload's method on small scenes after the loop, untimed; see
``worker.py``.

``perfbench/spread.py`` repeats a workload over ten seeds and prints each
metric's quartile spread against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from proc import run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKER_TIMEOUT_S = 170.0

QUALITY = ("f1_macro_all", "f1_macro_confident", "retained_pct")


def end_to_end(result: dict) -> dict[str, float]:
    """End-to-end figures from a worker result plus the child's peak RSS."""
    loop = result["loop"]
    figures = {
        "setup_s": result["setup_s"],
        "mpix_per_s": loop["mpix_per_s"],
        "detect_mean_s": loop["detect_mean_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    quality = result["quality"] or {}
    figures.update({k: quality[k] for k in QUALITY if k in quality})
    return figures


def per_layer(result: dict) -> dict[str, float]:
    figures = dict(result["per_layer"])
    quality = result["quality"] or {}
    if "vote_agreement" in quality:
        figures["smoothing.vote_agreement"] = quality["vote_agreement"]
    return figures


def select(spec_metrics: list[dict], figures: dict[str, float]) -> dict[str, dict]:
    """The named metrics with their units; raises KeyError naming any missing one."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in figures]
    if missing:
        raise KeyError("metrics not measured: " + ", ".join(missing))
    return {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def report_lines(result: dict, metrics: dict[str, dict]) -> list[str]:
    e = result["env"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"seconds {result['seconds']:g}  trace {result['trace']}",
        f"env nproc={e['nproc']} cpu={e['cpu_model']!r} python={e['python']} "
        f"numpy={e['numpy']} blas={e['blas']!r} blas_threads={e['blas_threads']} "
        f"commit={e['git_commit']} src_sha256={e['src_sha256'][:12]}",
    ]
    notes = {"setup_s": f"(median of {len(result['setup']['repeats_s'])} imports "
                        "+ median of as many set-ups)"}
    notes.update({name: f"(pooled over {result['quality_scenes']} scenes, untimed)"
                  for name in QUALITY})
    if "loop" in result:
        notes["detect_mean_s"] = f"(n={result['loop']['detect_n']})"
    for name, m in metrics.items():
        lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<9} {notes.get(name, '')}")
    rate = result["failed"] / result["attempted"]
    lines.append(f"  {'error_rate':<44} {rate:>14.6g} ratio     "
                 f"({result['failed']}/{result['attempted']}, not a gated metric)")
    if result["trace"]:
        extra = {k: v for k, v in result["per_layer"].items() if k not in metrics and v}
        if extra:
            lines.append("  also measured (not in BENCHMARK.json):")
            for name, value in extra.items():
                unit = "count" if name.endswith(".calls") else "MB" if name.endswith(".mb") else "s"
                lines.append(f"  {name:<44} {value:>14.6g} {unit}")
    for err in result["errors"]:
        lines.append(f"  error: {err}")
    return lines


def run_worker(args, work: Path, result_path: Path, spans_path: Path) -> tuple[int, int]:
    """Run the workload child in its own session; (exit code, peak RSS bytes)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result_path), "--spans", str(spans_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return run_child(cmd, sys.stderr, WORKER_TIMEOUT_S, env=env, session=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cdconf" / "__init__.py").is_file():
        print(f"error: no cdconf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{tag}.json"
    spans_path = results / f"{tag}-spans.json"
    result_path.unlink(missing_ok=True)
    try:
        rc, peak_rss = run_worker(args, work, result_path, spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rc != 0 or not result_path.is_file():
        print(f"error: workload child exited with code {rc}", file=sys.stderr)
        return 1

    result = json.loads(result_path.read_text())
    result["peak_rss_mb"] = peak_rss / float(1 << 20)
    try:
        if args.trace:
            metrics = select(spec["per_layer"], per_layer(result))
        else:
            metrics = select(spec["end_to_end"], end_to_end(result))
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    result["metrics"] = metrics
    result_path.write_text(json.dumps(result, indent=1))

    for line in report_lines(result, metrics):
        print(line)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
