"""Core change detection: feature differencing, change magnitude, automatic
thresholding, and binary labeling.

The per-pixel pipeline is: difference hypervector over feature dims, Euclidean
magnitude, histogram threshold selection (between-class variance maximization
on a 256-bin min-max histogram), label Changed wherever magnitude exceeds the
threshold.

``detect_pair`` runs that pipeline on the pooled-standardized features of a
raster pair without holding either feature stack, in two passes over the
strips of rows of the pair's extractions.  The first runs the two rasters
through each strip in lockstep, writing the strip's rows of the difference
stack g = f2 - f1 and taking the per-dim moments of both; once the pooled
std s is merged from those, the second takes each strip's rho =
sqrt(sum_d (g_d / s_d)^2).  g keeps only the dims that are dear to
recompute: the extraction's leading dims that are cheaper to recompute
(half the stock secondary extractor's) are recomputed in the second pass
instead.  Both passes run on up to ``threads`` workers, each of which
holds one strip's buffers, the same in both passes, and nothing beside
them: a detection holds the held part of g, its magnitude map and one
strip's buffers a worker, and its result does not depend on how many
workers run.

Threshold selection compares between-class variances with exact integer
arithmetic (cross-multiplied rationals over Python ints), so the chosen bin is
the true argmax with ties broken at the lowest bin index, immune to float
rounding in the comparison itself.  Float64 ratios of exact int64
numerators, taken over every bin at once, only narrow the bins to compare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .features import _PIXELS, ExtractorSpec, _Extraction, _moments, _pooled, _strip_magnitude
from .pool import _pool_map
from .raster import LabelMap, Raster


@dataclass(frozen=True, eq=False)
class MagnitudeMap:
    """Per-pixel non-negative change magnitude; ``rho`` is float32 (height, width)."""

    rho: np.ndarray

    def __post_init__(self):
        if self.rho.ndim != 2 or self.rho.dtype != np.float32:
            raise ValueError("rho must be a 2-d float32 array")
        # the min, NaN when any pixel is, takes no pixel-sized mask
        if self.rho.size and not self.rho.min() >= 0:
            raise ValueError("rho must be non-negative everywhere")


@dataclass(frozen=True, eq=False)
class ChangeResult:
    """Magnitude map, the threshold applied to it, and the resulting labels.

    Invariant: ``labels.changed`` equals ``rho > tau`` pixel for pixel, so the
    label map can always be recomputed from (magnitude, tau) alone.
    """

    magnitude: MagnitudeMap
    tau: float
    labels: LabelMap


def hypervector(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Per-pixel, per-dim feature difference f2 - f1 (anti-symmetric)."""
    if f1.shape != f2.shape:
        raise ShapeMismatch(f"feature stacks differ: {f1.shape} vs {f2.shape}")
    return f2 - f1


def magnitude(g: np.ndarray) -> MagnitudeMap:
    """Euclidean norm over feature dims; zero exactly where the difference is zero."""
    rho64 = np.sqrt(np.sum(g.astype(np.float64) ** 2, axis=-1))
    return MagnitudeMap(rho64.astype(np.float32))


def otsu_bin(m: MagnitudeMap, bins: int = 256) -> int:
    """Histogram bin maximizing between-class variance, ties to the lowest index.

    Values are min-max binned (the max lands in the last bin).  The argmax is
    decided in exact integer arithmetic: sigma_b^2(t) is proportional to
    A(t)/B(t) with A = (n*s0 - S*c0)^2 and B = c0*(n - c0), and candidates are
    compared by cross-multiplication over Python ints.  Raises ValueError on a
    constant map (no histogram spread to split).
    """
    lo, hi = float(m.rho.min()), float(m.rho.max())
    if hi == lo:
        raise ValueError("constant map has no threshold bin")
    return _otsu_bin(m, lo, hi, bins)


def _otsu_bin(m: MagnitudeMap, lo: float, hi: float, bins: int) -> int:
    """``otsu_bin`` given rho's min and max, lo < hi.  Taken from the float32
    map, both are exact in float64, so callers need no float64 copy of rho
    to find them.

    The histogram is binned in blocks of ``features._PIXELS`` pixels, each
    widened to float64 and indexed in one reused pair of buffers, and their
    int64 counts are summed: each pixel's bin is the whole-map arithmetic's,
    so the histogram is too."""
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    flat = m.rho.reshape(-1)
    values = np.empty(min(flat.size, _PIXELS))
    idx = np.empty(len(values), np.int64)
    counts = np.zeros(bins, np.int64)
    for start in range(0, flat.size, _PIXELS):
        block = flat[start:start + _PIXELS]
        v, k = values[:len(block)], idx[:len(block)]
        np.subtract(block, lo, out=v, dtype=np.float64)
        v /= hi - lo
        v *= bins
        k[...] = v
        np.minimum(k, bins - 1, out=k)
        counts += np.bincount(k, minlength=bins)
    return _otsu_split(counts)


def _otsu_split(counts: np.ndarray) -> int:
    """The bin t of a histogram of non-negative int64 ``counts`` whose split
    into bins [0, t] and the rest maximizes between-class variance, ties to
    the lowest bin (0 when no split leaves both classes occupied).

    With c0 and s0 the count and the bin-index sum of bins [0, t], n and S
    their totals, sigma_b^2(t) is proportional to A/B with A = (n*s0 -
    S*c0)^2 and B = c0*(n - c0).  Where (bins - 1)*n^2 fits in int64,
    n*s0 - S*c0 is exact in int64, and its float64 ratio A/B is within a
    few units in the last place of the true one, so only the bins whose
    ratio is within 1e-9 of the largest can hold the argmax; those, or
    else every split, are compared by cross-multiplication over Python
    ints."""
    c0 = np.cumsum(counts, dtype=np.int64)
    s0 = np.cumsum(np.arange(len(counts), dtype=np.int64) * counts)
    n, total = int(c0[-1]), int(s0[-1])
    splits = np.flatnonzero((c0 > 0) & (c0 < n))
    if len(splits) and (len(counts) - 1) * n * n <= np.iinfo(np.int64).max:
        c, s = c0[splits], s0[splits]
        ratio = np.square((n * s - total * c).astype(np.float64)) / (c * (n - c))
        splits = splits[ratio >= ratio.max() * (1 - 1e-9)]
    best_t, best_a, best_b = 0, -1, 1
    for t in splits.tolist():
        c, s = int(c0[t]), int(s0[t])
        a = (n * s - total * c) ** 2
        b = c * (n - c)
        if a * best_b > best_a * b:
            best_t, best_a, best_b = t, a, b
    return best_t


def otsu_threshold(m: MagnitudeMap, bins: int = 256) -> float:
    """Threshold maximizing between-class variance over a min-max histogram.

    Returns the upper edge of the bin chosen by otsu_bin, in data units; a
    constant map returns the constant itself (every pixel then labels
    Unchanged under a strict > comparison).
    """
    lo, hi = float(m.rho.min()), float(m.rho.max())
    if hi == lo:
        return lo
    return lo + (_otsu_bin(m, lo, hi, bins) + 1) * (hi - lo) / bins


def threshold_labels(m: MagnitudeMap, tau: float) -> LabelMap:
    """Changed wherever rho strictly exceeds tau (compared in float64)."""
    return LabelMap(m.rho > np.float64(tau))


def threshold_magnitude(m: MagnitudeMap) -> ChangeResult:
    """Threshold a magnitude map by Otsu and label it."""
    tau = otsu_threshold(m)
    return ChangeResult(magnitude=m, tau=tau, labels=threshold_labels(m, tau))


def detect(f1: np.ndarray, f2: np.ndarray) -> ChangeResult:
    """Full chain on feature stacks: hypervector, magnitude, threshold, labels."""
    return threshold_magnitude(magnitude(hypervector(f1, f2)))


def detect_pair(x1: Raster, x2: Raster, spec: ExtractorSpec,
                threads: int | None = None) -> ChangeResult:
    """Detect changes between two co-registered rasters with one extractor:
    build the difference stack of their features strip by strip, take the
    magnitude of its pooled-standardized form, then threshold and label as
    ``detect`` does.  ``threads`` bounds the worker threads of the strips
    in both passes (None: ``pool.default_threads()``); the result is
    bit-identical for every value.

    g is float32 of shape (D - L, height, width): every dim but the L
    leading ones of the extraction's ``lead`` (all of an identity
    extraction's, 48 of the stock secondary's 96).  A worker takes one set
    of scratch buffers (``_Extraction.scratch``) for the whole pair, in
    both passes.  In the first, a strip takes the moments of f1's rows and
    writes its held dims into g, then takes the moments of f2's rows and
    subtracts g's rows from the held ones in place; the moments take their
    float64 copies in the worker's patch block, idle while the extraction
    yields a tapped layer.  The strips depend on the extractor and the
    image alone, and their moment blocks are merged in strip order into the
    pooled std and its live mask (``_pooled``).  In the second, a strip
    recomputes its rows of f1's and f2's L leading dims in the buffers
    (``_Extraction.leading``) and takes its magnitude in the patch block
    (``_strip_magnitude``).  g and the buffers are freed before the
    threshold copies rho.
    """
    if x1.data.shape != x2.data.shape:
        raise ShapeMismatch(f"rasters differ: {x1.data.shape} vs {x2.data.shape}")
    e1, e2 = _Extraction(spec, x1), _Extraction(spec, x2)
    skip = e1.lead
    g = np.empty((e1.dims - skip, x1.height, x1.width), np.float32)
    rho = np.empty((x1.height, x1.width), np.float32)
    free = []

    def take_scratch() -> tuple[np.ndarray, ...]:
        try:
            return free.pop()
        except IndexError:
            return e1.scratch()

    def difference_rows(bounds: tuple[int, int]) -> list[tuple[int, np.ndarray, np.ndarray]]:
        y0, y1 = bounds
        scratch = take_scratch()
        patch = scratch[0].view(np.float64)
        blocks = []
        for ex in (e1, e2):
            count, mean, m2 = 0, np.empty(ex.dims), np.empty(ex.dims)
            for d, band in ex.strip(y0, y1, scratch):
                dims = slice(d, d + len(band))
                count, mean[dims], m2[dims] = _moments(band, patch)
                if d < skip:
                    continue
                held = g[d - skip:dims.stop - skip, y0:y1]
                if ex is e1:
                    held[...] = band
                else:
                    np.subtract(band, held, out=held)
            blocks.append((count, mean, m2))
        free.append(scratch)
        return blocks

    def magnitude_rows(bounds: tuple[int, int]) -> None:
        y0, y1 = bounds
        scratch = take_scratch()
        f1, f2 = e1.leading(e2, y0, y1, scratch)
        _strip_magnitude(rho[y0:y1], g[:, y0:y1], f1, f2, sd, live_dims, scratch[0])
        free.append(scratch)

    sd, live = _pooled(b for pair in _pool_map(difference_rows, e1.strips, threads) for b in pair)
    live_dims = np.flatnonzero(live)
    _pool_map(magnitude_rows, e1.strips, threads)
    del g, free  # the stack and the strip buffers, before the threshold's copies of rho
    return threshold_magnitude(MagnitudeMap(rho))
