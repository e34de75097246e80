"""The cdconf layers the traced run wraps, and the per-layer metrics built
from their spans.

A layer is a ``cdconf`` module; its traced functions are the public ones the
workloads reach.  Metric names are ``<module>.<function>.<quantity>``.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Span, overlap_time, self_times, subtree

LAYERS: dict[str, tuple[str, ...]] = {
    "raster": ("load_raster", "save_raster", "normalize_pair", "render_change",
               "render_confidence"),
    "features": ("extract", "standardize_pair"),
    "dcva": ("detect_pair", "detect", "magnitude", "otsu_threshold", "threshold_labels"),
    "smoothing": ("perturb", "ensemble_counts_with", "fuse_confidence", "run_proposed"),
    "baselines": ("rcva_magnitude", "run_conf_rcva"),
    "metrics": ("confusion", "metrics", "aggregate_pooled"),
    "cli": ("main",),
    "synth": ("generate",),
}

# Span names the benchmark itself records.  ``cli.process`` covers one child
# process from spawn to exit; its self time is interpreter start and import.
BENCH_ROOT = "bench.loop"
BENCH_SETUP = "bench.setup"
CLI_PROCESS = "cli.process"

MB = float(1 << 20)


def conv_gflop(spec, height: int, width: int, bands: int) -> float:
    """Computed work of one random-conv extraction: sum of 2*H*W*c_out*c_in*k^2."""
    if getattr(spec.kind, "value", None) != "random_conv":
        return 0.0
    k2 = spec.kernel_size ** 2
    flop, c_in = 0, bands
    for _ in range(spec.depth):
        flop += 2 * height * width * spec.channels * c_in * k2
        c_in = spec.channels
    return flop / 1e9


def _extract_size(args, kwargs, out):
    spec, x = args[0], args[1]
    return {"gflop": conv_gflop(spec, x.height, x.width, x.bands)}


SIZERS = {
    "features.extract": _extract_size,
    "raster.load_raster": lambda a, k, out: {"mb": out.data.nbytes / MB},
    "raster.save_raster": lambda a, k, out: {"mb": a[0].data.nbytes / MB},
    "raster.normalize_pair": lambda a, k, out: {
        "mb": (a[0].data.nbytes + a[1].data.nbytes) / MB},
    "raster.render_change": lambda a, k, out: {"mb": a[0].changed.size / MB},
    "raster.render_confidence": lambda a, k, out: {"mb": 3 * a[0].states.size / MB},
}

# Functions whose peak allocation is reported.
PEAK_ALLOC = ("features.extract", "features.standardize_pair", "smoothing.perturb")

def traced_names() -> list[str]:
    return [f"{m}.{f}" for m, names in LAYERS.items() for f in names]


def layer_metrics(spans: list[Span], roots: list[int]) -> dict[str, float]:
    """Per-function totals over all spans, plus shares of the traced loop.

    ``<fn>.calls``, ``<fn>.self_s``, ``<fn>.mb`` (bytes each raster function
    read, wrote or normalized) and the computed conv work cover every span,
    set-up included, which is where ``synth.generate`` runs.  The traced loop is the subtrees under ``roots``, and ``trace.wall_s`` is
    their summed duration.  ``<module>.self_pct`` is the module's share of
    the loop's summed self times, which equal the wall time plus
    ``trace.overlap_s``, the time worker threads ran side by side;
    ``trace.layers_pct`` is all layers' share, short of 100 by the
    benchmark's own bookkeeping.
    """
    st = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    mb: dict[str, float] = defaultdict(float)
    gflop: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_s[s.name] += st[i]
        mb[s.name] += s.mb
        gflop[s.name] += s.gflop

    out: dict[str, float] = {}
    for name in traced_names():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in SIZERS:
        if name.startswith("raster."):
            out[f"{name}.mb"] = mb[name]
    ext = "features.extract"
    out[f"{ext}.gflop"] = gflop[ext]
    out[f"{ext}.gflop_per_s"] = gflop[ext] / self_s[ext] if self_s[ext] > 0 else 0.0
    out["cli.process_s"] = self_s[CLI_PROCESS]

    loop = sorted(i for r in roots for i in subtree(spans, r))
    wall = sum(spans[r].duration for r in roots)
    by_module: dict[str, float] = defaultdict(float)
    for i in loop:
        by_module[spans[i].name.split(".")[0]] += st[i]
    busy = sum(by_module.values())
    for module in LAYERS:
        out[f"{module}.self_pct"] = 100.0 * by_module[module] / busy
    out["trace.wall_s"] = wall
    out["trace.overlap_s"] = overlap_time(spans, loop)
    out["trace.layers_pct"] = 100.0 * sum(by_module[m] for m in LAYERS) / busy
    return out


def peak_alloc_metrics(spans: list[Span]) -> dict[str, float]:
    """``<fn>.peak_alloc_mb``: the largest peak allocation over the function's calls."""
    peak: dict[str, int] = defaultdict(int)
    for s in spans:
        peak[s.name] = max(peak[s.name], s.peak_alloc)
    return {f"{name}.peak_alloc_mb": peak[name] / MB for name in PEAK_ALLOC}
