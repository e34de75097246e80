"""Core change detection: feature differencing, change magnitude, automatic
thresholding, and binary labeling.

The per-pixel pipeline is: difference hypervector over feature dims, Euclidean
magnitude, histogram threshold selection (between-class variance maximization
on a 256-bin min-max histogram), label Changed wherever magnitude exceeds the
threshold.

``detect_pair`` runs that pipeline on the pooled-standardized features of a
raster pair without holding either feature stack: the two rasters go
through the extractor's strips of rows in lockstep (``_difference``), each
strip writing its rows of the difference stack g = f2 - f1 and returning the
per-dim moments of both, and once the pooled std s is merged from those, one
pass computes rho = sqrt(sum_d (g_d / s_d)^2) block by block of pixels.  So a
detection holds g, its magnitude map, and one strip's buffers a worker
thread; the strips and then the blocks run on up to ``threads`` workers, and
the result does not depend on how many.

Threshold selection compares between-class variances with exact integer
arithmetic (cross-multiplied rationals over Python ints), so the chosen bin is
the true argmax with ties broken at the lowest bin index, immune to float
rounding in the comparison itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .features import ExtractorSpec, _blocks, _Extraction, _moments, _pooled, _strips
from .pool import _pool_map
from .raster import LabelMap, Raster


@dataclass(frozen=True, eq=False)
class MagnitudeMap:
    """Per-pixel non-negative change magnitude; ``rho`` is float32 (height, width)."""

    rho: np.ndarray

    def __post_init__(self):
        if self.rho.ndim != 2 or self.rho.dtype != np.float32:
            raise ValueError("rho must be a 2-d float32 array")
        if not (self.rho >= 0).all():
            raise ValueError("rho must be non-negative everywhere")

    @property
    def height(self) -> int:
        return self.rho.shape[0]

    @property
    def width(self) -> int:
        return self.rho.shape[1]


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
    to find them."""
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    values = m.rho.astype(np.float64).ravel()
    values -= lo
    values /= hi - lo
    values *= bins
    idx = values.astype(np.int64)
    np.minimum(idx, bins - 1, out=idx)
    counts = np.bincount(idx, minlength=bins)
    n = int(counts.sum())
    total = int((np.arange(bins, dtype=np.int64) * counts).sum())
    best_t = 0
    best_a = -1
    best_b = 1
    c0 = 0
    s0 = 0
    for t in range(bins):
        c0 += int(counts[t])
        s0 += t * int(counts[t])
        if c0 == 0 or c0 == n:
            continue
        a = (n * s0 - total * c0) ** 2
        b = c0 * (n - c0)
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


def _difference(spec: ExtractorSpec, x1: Raster, x2: Raster,
                threads: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The difference stack g = f2 - f1 of the features of a raster pair,
    float32 of shape (D, height, width), with the pooled std of f1 and f2
    and its live mask (as ``features._pooled_std`` gives them), without either
    feature stack.

    The strips of ``_strips`` run on up to ``threads`` worker threads, each
    worker with one set of scratch buffers for the whole pair.  A strip
    writes f1's rows into g and takes their moments, then takes the moments
    of f2's rows and subtracts g's rows from them in place; the moment
    blocks are merged in strip order, so the result does not depend on
    ``threads``.
    """
    if x1.data.shape != x2.data.shape:
        raise ShapeMismatch(f"rasters differ: {x1.data.shape} vs {x2.data.shape}")
    e1, e2 = _Extraction(spec, x1), _Extraction(spec, x2)
    strips = _strips(x1.height, x1.width)
    rows = max(y1 - y0 for y0, y1 in strips)
    g = np.empty((e1.dims, x1.height, x1.width), np.float32)
    free = []

    def strip(bounds: tuple[int, int]) -> list[tuple[int, np.ndarray, np.ndarray]]:
        y0, y1 = bounds
        try:
            scratch = free.pop()
        except IndexError:
            scratch = e1.scratch(rows)
        blocks = []
        for ex in (e1, e2):
            count, mean, m2 = 0, np.empty(ex.dims), np.empty(ex.dims)
            for d, band in ex.strip(y0, y1, scratch):
                dims = slice(d, d + len(band))
                count, mean[dims], m2[dims] = _moments(band)
                if ex is e1:
                    g[dims, y0:y1] = band
                else:
                    np.subtract(band, g[dims, y0:y1], out=g[dims, y0:y1])
            blocks.append((count, mean, m2))
        free.append(scratch)
        return blocks

    sd, live = _pooled(b for pair in _pool_map(strip, strips, threads) for b in pair)
    return g, sd, live


def _standardized_magnitude(g: np.ndarray, sd: np.ndarray, live: np.ndarray,
                            threads: int | None = None) -> MagnitudeMap:
    """rho = sqrt(sum_d (g_d / s_d)^2) of a (D, height, width) difference
    stack g and a per-dim std s, block by block of ``features._TILE`` pixels.

    Each block is divided by the std in float32, its dead dims (``live``
    false) are zeroed, and the squares are summed over the dims in their
    order in float64 before the square root.  The blocks run on up to
    ``threads`` worker threads, each writing its own pixels.
    """
    d = len(g)
    flat = g.reshape(d, -1)
    dead = np.flatnonzero(~live)
    sd = np.where(live, sd, np.float32(1))[:, None]
    rho = np.empty(flat.shape[1], np.float32)

    def block(t: slice) -> None:
        z = flat[:, t] / sd
        z[dead] = 0
        rho[t] = np.sqrt(np.square(z, dtype=np.float64).sum(axis=0))

    _pool_map(block, _blocks(len(rho)), threads)
    return MagnitudeMap(rho.reshape(g.shape[1:]))


def detect_pair(x1: Raster, x2: Raster, spec: ExtractorSpec,
                threads: int | None = None) -> ChangeResult:
    """Detect changes between two co-registered rasters with one extractor:
    build the difference stack of their features strip by strip, take the
    magnitude of its pooled-standardized form, then threshold and label as
    ``detect`` does.  ``threads`` bounds the worker threads of the strips
    and of the magnitude blocks (None: ``pool.default_threads()``); the
    result is bit-identical for every value."""
    g, sd, live = _difference(spec, x1, x2, threads)
    return threshold_magnitude(_standardized_magnitude(g, sd, live, threads))
