"""Core change detection: feature differencing, change magnitude, automatic
thresholding, and binary labeling.

The per-pixel pipeline is: difference hypervector over feature dims, Euclidean
magnitude, histogram threshold selection (between-class variance maximization
on a 256-bin min-max histogram), label Changed wherever magnitude exceeds the
threshold.

``detect_pair`` runs that pipeline on the pooled-standardized features of a
raster pair without materializing any of its intermediate stacks: once the
per-dim pooled std is known, the standardized difference and its magnitude
are computed block by block of pixels, with the same float32 and float64
arithmetic as ``magnitude(hypervector(*standardize_pair(f1, f2)))``, so the
magnitude map is bit-identical to that composition.  With ``threads`` above
1, the two extractions of the pair run side by side, one a worker thread,
and so do the blocks.  Past the two feature stacks, a detection allocates
only its magnitude map, the conv rings and patch block of each extraction
while it runs, and a few blocks per worker thread.

Threshold selection compares between-class variances with exact integer
arithmetic (cross-multiplied rationals over Python ints), so the chosen bin is
the true argmax with ties broken at the lowest bin index, immune to float
rounding in the comparison itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .features import ExtractorSpec, _blocks, _pool_map, _pooled_std, extract
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


def _labelled(m: MagnitudeMap) -> ChangeResult:
    """Threshold a magnitude map by Otsu and label it."""
    tau = otsu_threshold(m)
    return ChangeResult(magnitude=m, tau=tau, labels=threshold_labels(m, tau))


def detect(f1: np.ndarray, f2: np.ndarray) -> ChangeResult:
    """Full chain on feature stacks: hypervector, magnitude, threshold, labels."""
    return _labelled(magnitude(hypervector(f1, f2)))


def _standardized_magnitude(f1: np.ndarray, f2: np.ndarray,
                            threads: int | None = None) -> MagnitudeMap:
    """``magnitude(hypervector(*standardize_pair(f1, f2)))``, bit for bit,
    without its image-sized temporaries.

    After the pooled std is known, rho is computed block by block of
    ``features._TILE`` pixels with the same arithmetic: a float32 divide of
    each stack by the std, their float32 difference, then a float64 sum of
    squares over the dims and its square root.  Dead dims are divided by 1
    and then zeroed, which gives the zeros of ``standardize_pair`` without
    its masked divide.  The blocks run on up to ``threads`` worker threads,
    each writing its own pixels.
    """
    sd, live = _pooled_std(f1, f2, threads)
    dead = np.flatnonzero(~live)
    sd[dead] = 1
    d = f1.shape[-1]
    a, b = f1.reshape(-1, d), f2.reshape(-1, d)
    rho = np.empty(len(a), np.float32)

    def block(t: slice) -> None:
        z1, z2 = a[t] / sd, b[t] / sd
        z2 -= z1
        z2[:, dead] = 0
        rho[t] = np.sqrt(np.square(z2, dtype=np.float64).sum(axis=-1))

    _pool_map(block, _blocks(len(a)), threads)
    return MagnitudeMap(rho.reshape(f1.shape[:-1]))


def detect_pair(x1: Raster, x2: Raster, spec: ExtractorSpec,
                threads: int | None = None) -> ChangeResult:
    """Detect changes between two co-registered rasters with one extractor:
    extract both, side by side when ``threads`` is above 1, take the
    magnitude of their pooled-standardized difference block by block, then
    threshold and label as ``detect`` does.  ``threads`` bounds the worker
    threads of the extractions and of the block passes (None:
    ``features.default_threads()``); the result is bit-identical for every
    value."""
    f1, f2 = _pool_map(lambda x: extract(spec, x), [x1, x2], threads)
    return _labelled(_standardized_magnitude(f1, f2, threads))
