"""Run one benchmark workload in this fresh process; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --result FILE [--spans FILE]

Every workload is a closed loop: one scene at a time from this one process.
Scenes and the detector's master seed derive from ``--seed``; the library
only ever sees the generated inputs.

Without tracing the loop runs each scene once, then keeps cycling through
them until ``--seconds`` have passed, and the result carries the end-to-end
figures.  With tracing each scene runs exactly once untraced and once
traced, then the first scene once more under ``tracemalloc``; the result
carries the per-layer figures and the traced minus the untraced wall time,
which is the tracing overhead.  Set-up (imports, scene generation, input
files, weight cache) is timed apart from the loop, SETUP_REPEATS times
before it and as many times at the end of the run, so that a brief slow
spell of the machine weighs less in the median.

Quality comes from an untimed, untraced pass after the loop: the workload's
method and ensemble size on QUALITY_SCENES small scenes, each with its own
detector weights, pooled.  One weight draw can make or break a scene's
confident changed class, so pooling many draws is what makes the figures
comparable from seed to seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import cdconf as cd  # noqa: E402
import cdconf.cli  # noqa: E402,F401  (loaded now so tracing patches its bindings)
from cdconf.raster import (  # noqa: E402
    ConfidenceState,
    load_confidence_map,
    load_label_map,
)

import env  # noqa: E402
from layers import (  # noqa: E402
    BENCH_ROOT,
    BENCH_SETUP,
    CLI_PROCESS,
    LAYERS,
    SIZERS,
    layer_metrics,
    peak_alloc_metrics,
)
from proc import run_child  # noqa: E402
from stats import mean_with_count  # noqa: E402
from tracer import Tracer, instrument, spans_from_json, spans_to_json  # noqa: E402

SETUP_REPEATS = 5
QUALITY_SCENES = 16
QUALITY_SIZE = 64
QUALITY_INDEX = 1 << 15  # scene indices of the quality pass, apart from the loop's
CHILD_TIMEOUT_S = 150.0
CLI_ARTIFACTS = ("change.pgm", "magnitude.cdr", "tau.json", "confidence.ppm",
                 "counts.cdr", "run.json")


def time_setup(wl, tracer: Tracer, imports: list, setups: list, *,
               trace_last: bool = False) -> None:
    """Append SETUP_REPEATS import times of fresh interpreters and as many
    set-up times; with ``trace_last`` the last set-up records spans."""
    code = ("import time; t = time.perf_counter(); import numpy, cdconf, cdconf.cli; "
            "print(time.perf_counter() - t)")
    for rep in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, check=True)
        imports.append(float(proc.stdout))
        tracer.enabled = trace_last and rep == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        if tracer.enabled:
            with tracer.span(BENCH_SETUP):
                wl.setup()
        else:
            wl.setup()
        setups.append(time.perf_counter() - t0)
        tracer.enabled = False


def scene_seed(seed: int, index: int) -> int:
    return (seed << 16) | index


# ---------------------------------------------------------------------------
# output checks


def check_outputs(changed: np.ndarray, rho: np.ndarray, tau: float, states: np.ndarray,
                  k_prime: np.ndarray, k: int, shape: tuple[int, int]) -> list[str]:
    """The invariants every detection must keep; one message per broken one."""
    errors = []
    if changed.shape != shape or rho.shape != shape or states.shape != shape:
        errors.append(f"map shapes {changed.shape}/{rho.shape}/{states.shape} != scene {shape}")
        return errors
    if not np.array_equal(changed, rho > np.float64(tau)):
        errors.append("labels != rho > tau")
    flipped = (changed & (states == int(ConfidenceState.CONFIDENT_UNCHANGED))) | (
        ~changed & (states == int(ConfidenceState.CONFIDENT_CHANGED)))
    if flipped.any():
        errors.append(f"{int(flipped.sum())} confident pixels differ from the primary label")
    if k_prime.shape != shape:
        errors.append(f"counts shape {k_prime.shape} != scene {shape}")
    elif k_prime.min() < 0 or k_prime.max() > k:
        errors.append(f"K' outside [0, {k}]")
    return errors


@dataclass
class Quality:
    """Pooled confusion counts and votes over the scenes of the quality pass."""

    full: list = field(default_factory=list)
    confident: list = field(default_factory=list)
    pixels: int = 0
    agree: int = 0
    cast: int = 0

    def add(self, full, confident, changed: np.ndarray, k_prime: np.ndarray, k: int):
        self.full.append(full)
        self.confident.append(confident)
        self.pixels += changed.size
        self.agree += int(k_prime[changed].sum()) + int((k - k_prime[~changed]).sum())
        self.cast += k * changed.size

    def report(self) -> dict:
        full = cd.aggregate_pooled(self.full, self.pixels)
        conf = cd.aggregate_pooled(self.confident, self.pixels)
        return {
            "f1_macro_all": full.f1_macro,
            "f1_macro_confident": conf.f1_macro,
            "retained_pct": conf.pixel_pct,
            "vote_agreement": self.agree / self.cast,
        }


@dataclass
class Sample:
    detect_s: float
    pixels: int
    errors: list


@contextmanager
def paused(tracer: Tracer):
    """Stops span recording for the benchmark's own checks."""
    was, tracer.enabled = tracer.enabled, False
    try:
        yield
    finally:
        tracer.enabled = was


def ensemble_config(iterations: int, master_seed: int) -> cd.SmoothingConfig:
    return cd.SmoothingConfig(sigma=0.1, iterations=iterations, conf_threshold=1.0,
                              master_seed=master_seed)


def detect_checked(method: str, scene, cfg: cd.SmoothingConfig, f1, f2, tracer: Tracer,
                   quality: Quality | None = None) -> Sample:
    """``normalize_pair`` plus one ensemble method on a generated scene, checked.

    A detection that raises or breaks an invariant is a failed sample; any
    detection that returns adds its confusion counts to ``quality``.
    """
    t1, t2, ref = scene
    t0 = time.perf_counter()
    try:
        x1, x2 = cd.normalize_pair(t1, t2)
        if method == "proposed":
            det = cd.run_proposed(x1, x2, f1, f2, cfg, threads=1)
        else:
            det = cd.run_conf_rcva(x1, x2, f1, cfg, cd.RcvaConfig(window_radius=1), threads=1)
    except Exception as exc:  # a failed detection is counted, not fatal
        return Sample(time.perf_counter() - t0, 0, [f"{type(exc).__name__}: {exc}"])
    dt = time.perf_counter() - t0
    p = det.primary
    with paused(tracer):
        errors = check_outputs(p.labels.changed, p.magnitude.rho, p.tau,
                               det.confidence.states, det.counts.k_prime,
                               cfg.iterations, ref.changed.shape)
        if quality is not None:
            quality.add(cd.confusion(p.labels, ref), cd.confusion(p.labels, ref, det.confidence),
                        p.labels.changed, det.counts.k_prime, det.counts.k)
    return Sample(dt, 0 if errors else ref.changed.size, errors)


def quality_pass(seed: int, method: str, iterations: int, shift: int,
                 tracer: Tracer) -> tuple[dict | None, list[Sample]]:
    """Pooled quality of ``method`` over QUALITY_SCENES small scenes.

    Scene i and its detector weights both take the seed
    ``scene_seed(seed, QUALITY_INDEX + i)``.  Returns the figures (None if
    no detection returned) and the checked samples.
    """
    quality, samples = Quality(), []
    for i in range(QUALITY_SCENES):
        s = scene_seed(seed, QUALITY_INDEX + i)
        scene = cd.generate(cd.SceneSpec(width=QUALITY_SIZE, height=QUALITY_SIZE,
                                         misregistration_shift=shift, seed=s))
        samples.append(detect_checked(method, scene, ensemble_config(iterations, s),
                                      cd.default_primary_spec(s), cd.default_secondary_spec(s),
                                      tracer, quality))
    return (quality.report() if quality.full else None), samples


# ---------------------------------------------------------------------------
# workloads


class InProcess:
    """``normalize_pair`` plus ``run_conf_rcva``, called in this process."""

    method = "rcva"

    def __init__(self, seed: int, tracer: Tracer, *, size: int, scenes: int, shift: int,
                 iterations: int):
        self.seed = seed
        self.tracer = tracer
        self.size = size
        self.n_scenes = scenes
        self.shift = shift
        self.iterations = iterations
        self.cfg = ensemble_config(iterations, seed)
        self.scenes: list = []

    def setup(self) -> None:
        # as in a fresh process: no scenes yet, and every repeat draws the weights
        self.scenes = []
        cd.features._conv_weights.cache_clear()
        self.scenes = [
            cd.generate(cd.SceneSpec(width=self.size, height=self.size,
                                     misregistration_shift=self.shift,
                                     seed=scene_seed(self.seed, i)))
            for i in range(self.n_scenes)
        ]
        self.f1 = cd.default_primary_spec(self.seed)
        # fill the weight cache, as the first detection would
        cd.features._conv_weights(self.f1, self.scenes[0][0].bands)

    def iteration(self, idx: int) -> Sample:
        return detect_checked(self.method, self.scenes[idx], self.cfg, self.f1, None,
                              self.tracer)

    def finish(self) -> list[str]:
        return []


class Cli:
    """Fresh-process ``cdconf detect`` then ``cdconf evaluate`` on files written in set-up."""

    method = "proposed"
    iterations = 2
    threads = 2
    shift = 0

    def __init__(self, seed: int, tracer: Tracer, work: Path, *, size: int, scenes: int):
        self.seed = seed
        self.tracer = tracer
        self.work = work
        self.size = size
        self.n_scenes = scenes
        self.scenes: list[Path] = []
        self.runs = 0
        self.first_run: Path | None = None

    def setup(self) -> None:
        self.scenes = []
        for i in range(self.n_scenes):
            t1, t2, ref = cd.generate(cd.SceneSpec(width=self.size, height=self.size,
                                                   seed=scene_seed(self.seed, i)))
            d = self.work / f"scene{i}"
            d.mkdir(parents=True, exist_ok=True)
            cd.save_raster(t1, d / "t1.cdr")
            cd.save_raster(t2, d / "t2.cdr")
            cd.render_change(ref, d / "reference.pgm")
            self.scenes.append(d)

    def _cli(self, argv: list[str]) -> tuple[int, float]:
        """Run one subcommand in a fresh process; (exit code, wall seconds)."""
        cmd = [sys.executable, str(HERE / "cli_child.py")]
        spans_file = None
        if self.tracer.enabled:
            spans_file = self.work / f"spans-{len(self.tracer.spans)}.json"
            cmd += ["--spans", str(spans_file)] + (["--memory"] if self.tracer.memory else [])
        cmd += ["--", *argv]
        with open(self.work / "cli.log", "ab") as log:
            idx = self.tracer.begin(CLI_PROCESS) if self.tracer.enabled else None
            t0 = time.perf_counter()
            rc = run_child(cmd, log, CHILD_TIMEOUT_S)[0]
            wall = time.perf_counter() - t0
            if idx is not None:
                self.tracer.end(idx)
        if spans_file is not None and spans_file.is_file():
            self._adopt(spans_file, idx)
        return rc, wall

    def _adopt(self, path: Path, parent: int) -> None:
        """Merge a child's spans under its ``cli.process`` span."""
        spans = spans_from_json(json.loads(path.read_text()))
        offset = len(self.tracer.spans)
        for s in spans:
            s.parent = parent if s.parent is None else s.parent + offset
            s.thread = f"{path.stem}:{s.thread}"
            s.scene = self.tracer.scene
            self.tracer.add(s)

    def iteration(self, idx: int) -> Sample:
        scene = self.scenes[idx]
        out = self.work / f"run{self.runs}"
        self.runs += 1
        rc, wall = self._cli([
            "detect", "--t1", str(scene / "t1.cdr"), "--t2", str(scene / "t2.cdr"),
            "--method", "proposed", "--iterations", str(self.iterations),
            "--threads", str(self.threads), "--seed", str(self.seed), "--out", str(out),
        ])
        errors = [] if rc == 0 else [f"detect exit code {rc}"]
        if not errors:
            rc_eval, _ = self._cli(["evaluate", "--pred", str(out),
                                    "--reference", str(scene / "reference.pgm")])
            if rc_eval != 0:
                errors.append(f"evaluate exit code {rc_eval}")
        with paused(self.tracer):
            missing = [a for a in CLI_ARTIFACTS + ("metrics.json",) if not (out / a).is_file()]
            if missing:
                errors.append("missing artifacts: " + ", ".join(missing))
            else:
                try:
                    errors += self._check(out)
                except (cd.ChangeDetectionError, OSError, ValueError, KeyError) as exc:
                    errors.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
        if self.first_run is None and not errors:
            self.first_run = out
        elif out != self.first_run:
            shutil.rmtree(out, ignore_errors=True)
        return Sample(wall, 0 if errors else self.size * self.size, errors)

    def _check(self, out: Path) -> list[str]:
        changed = load_label_map(out / "change.pgm").changed
        rho = cd.load_raster(out / "magnitude.cdr").data[0]
        tau = json.loads((out / "tau.json").read_text())["tau"]
        states = load_confidence_map(out / "confidence.ppm").states
        k_prime = cd.load_raster(out / "counts.cdr").data[0].astype(np.int64)
        return check_outputs(changed, rho, tau, states, k_prime, self.iterations,
                             (self.size, self.size))

    def finish(self) -> list[str]:
        """Replay the first run in a fresh process and compare every artifact byte for byte."""
        if self.first_run is None:
            return ["no successful run to replay"]
        with paused(self.tracer):
            replay = self.work / "replay"
            cmd = [sys.executable, str(HERE / "cli_child.py"), "--", "detect",
                   "--replay", str(self.first_run / "run.json"), "--out", str(replay)]
            with open(self.work / "cli.log", "ab") as log:
                rc = run_child(cmd, log, CHILD_TIMEOUT_S)[0]
        if rc != 0:
            return [f"replay exit code {rc}"]
        differ = [a for a in CLI_ARTIFACTS if not (replay / a).is_file()
                  or (replay / a).read_bytes() != (self.first_run / a).read_bytes()]
        return ["replay differs in " + ", ".join(differ)] if differ else []


WORKLOADS = {
    "cli-512": lambda seed, tracer, work: Cli(seed, tracer, work, size=512, scenes=2),
    "rcva-vote-128": lambda seed, tracer, work: InProcess(
        seed, tracer, size=128, scenes=16, shift=1, iterations=50),
}


# ---------------------------------------------------------------------------
# loop and entry point


def run_loop(wl, seconds: float, tracer: Tracer,
             at_least: int | None = None) -> tuple[list, float]:
    """Closed loop: ``at_least`` iterations (default: every scene once), then
    cycle through the scenes until ``seconds`` have passed."""
    at_least = wl.n_scenes if at_least is None else at_least
    samples = []
    start = time.perf_counter()
    i = 0
    while i < at_least or time.perf_counter() - start < seconds:
        idx = i % wl.n_scenes
        tracer.scene = idx
        samples.append(wl.iteration(idx))
        i += 1
    return samples, time.perf_counter() - start


def traced_passes(wl, tracer: Tracer) -> tuple[list, dict, dict]:
    """Per-layer figures: (samples, metrics, spans by pass).

    Each scene runs once untraced and once traced, the order alternating
    from scene to scene, so both sides see the same machine state; the
    traced iterations' wall time minus the untraced ones' is the tracing
    overhead.  ``tracemalloc`` slows every Python
    allocation, so the peaks come from one more traced pass over the first
    scene, from which no times are taken.
    """
    samples, roots, untraced_wall = [], [], 0.0
    for idx in range(wl.n_scenes):
        tracer.scene = idx
        for traced in (False, True) if idx % 2 == 0 else (True, False):
            if traced:
                tracer.enabled = True
                with tracer.span(BENCH_ROOT) as root:
                    samples.append(wl.iteration(idx))
                tracer.enabled = False
                roots.append(root)
            else:
                t0 = time.perf_counter()
                samples.append(wl.iteration(idx))
                untraced_wall += time.perf_counter() - t0
    per_layer = layer_metrics(tracer.spans, roots)
    per_layer["trace.untraced_wall_s"] = untraced_wall
    per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - untraced_wall
    timing = tracer.spans

    tracer.spans, tracer.memory = [], True
    tracemalloc.start()
    tracer.enabled = True
    try:
        samples += run_loop(wl, 0.0, tracer, at_least=1)[0]
    finally:
        tracer.enabled = False
        tracemalloc.stop()
    per_layer.update(peak_alloc_metrics(tracer.spans))
    return samples, per_layer, {"timing": spans_to_json(timing),
                                "memory": spans_to_json(tracer.spans)}


def summarize(samples: list[Sample], wall: float) -> dict:
    detect_mean, n = mean_with_count([s.detect_s for s in samples])
    return {
        "mpix_per_s": sum(s.pixels for s in samples) / wall / 1e6,
        "detect_mean_s": detect_mean,
        "detect_n": n,
        "detect_s": [s.detect_s for s in samples],
        "loop_wall_s": wall,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True, help="scratch directory for this run")
    ap.add_argument("--result", required=True, help="where to write the result JSON")
    ap.add_argument("--spans", help="where to write the traced spans")
    args = ap.parse_args(argv)

    if not Path(cd.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported cdconf from {cd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    tracer = Tracer()
    if traced:
        instrument(tracer, LAYERS, SIZERS)
    wl = WORKLOADS[args.workload](args.seed, tracer, work)

    imports, setup_times = [], []
    time_setup(wl, tracer, imports, setup_times, trace_last=traced)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env.record(ROOT, args.seed),
        "setup": {"import_s": imports, "repeats_s": setup_times},
    }
    if not traced:
        samples, wall = run_loop(wl, args.seconds, tracer)
        result["loop"] = summarize(samples, wall)
    else:
        samples, per_layer, spans = traced_passes(wl, tracer)
        result["per_layer"] = per_layer
        if args.spans:
            Path(args.spans).write_text(json.dumps(spans))
    finish_errors = wl.finish()
    result["quality"], quality_samples = quality_pass(args.seed, wl.method, wl.iterations,
                                                      wl.shift, tracer)
    result["quality_scenes"] = QUALITY_SCENES
    samples += quality_samples
    time_setup(wl, tracer, imports, setup_times)

    errors = [e for s in samples for e in s.errors]
    failed = sum(1 for s in samples if s.errors)
    result["setup_s"] = statistics.median(imports) + statistics.median(setup_times)
    result["attempted"] = len(samples)
    result["failed"] = failed
    result["errors"] = (errors + finish_errors)[:20]
    result["correct"] = failed == 0 and not finish_errors
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
