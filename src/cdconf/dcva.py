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
per-dim moments of both, and once the pooled std s is merged from those, a
second pass over the strips computes rho = sqrt(sum_d (g_d / s_d)^2).  g
keeps only the dims that are dear to recompute: a leading layer-1 tap that
costs fewer multiply-adds than the deeper layers (half the stock secondary
extractor's dims) is recomputed strip by strip in the second pass instead.
So a detection holds the held part of g, its magnitude map, and one
strip's buffers a worker thread; both passes run on up to ``threads``
workers, and the result does not depend on how many.

Threshold selection compares between-class variances with exact integer
arithmetic (cross-multiplied rationals over Python ints), so the chosen bin is
the true argmax with ties broken at the lowest bin index, immune to float
rounding in the comparison itself.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .features import ExtractorSpec, _Extraction, _moments, _pooled, _strips
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


def _difference(spec: ExtractorSpec, x1: Raster, x2: Raster, threads: int | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable | None]:
    """The held part of the difference stack g = f2 - f1 of the features of
    a raster pair, the pooled std of f1 and f2 with its live mask (as
    ``features._pooled_std`` gives them), and ``lead``, which recomputes the
    rest; neither feature stack is held.

    g is float32 of shape (D - L, height, width): every dim but the L
    leading ones of the extraction's ``lead``, which cost less to recompute
    than to hold (0 for the stock primary extractor, 48 of the secondary's
    96).  ``lead(y0, y1, out)`` writes rows [y0, y1) of f2 - f1 of those L
    dims into a float32 (L, y1 - y0, width) ``out``, with the bits the
    strips give them; it is None when L is 0.

    The strips of ``_strips`` run on up to ``threads`` worker threads, each
    worker with one set of scratch buffers for the whole pair, which ``lead``
    reuses.  A strip takes the moments of f1's rows and writes its held dims
    into g, then takes the moments of f2's rows and subtracts g's rows from
    the held ones in place; the moment blocks are merged in strip order, so
    the result does not depend on ``threads``.
    """
    if x1.data.shape != x2.data.shape:
        raise ShapeMismatch(f"rasters differ: {x1.data.shape} vs {x2.data.shape}")
    e1, e2 = _Extraction(spec, x1), _Extraction(spec, x2)
    strips = _strips(x1.height, x1.width)
    rows = max(y1 - y0 for y0, y1 in strips)
    skip = e1.lead
    g = np.empty((e1.dims - skip, x1.height, x1.width), np.float32)
    free = []

    def take_scratch() -> tuple[np.ndarray, ...] | None:
        try:
            return free.pop()
        except IndexError:
            return e1.scratch(rows)

    def strip(bounds: tuple[int, int]) -> list[tuple[int, np.ndarray, np.ndarray]]:
        y0, y1 = bounds
        scratch = take_scratch()
        blocks = []
        for ex in (e1, e2):
            count, mean, m2 = 0, np.empty(ex.dims), np.empty(ex.dims)
            for d, band in ex.strip(y0, y1, scratch):
                dims = slice(d, d + len(band))
                count, mean[dims], m2[dims] = _moments(band)
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

    def lead(y0: int, y1: int, out: np.ndarray) -> None:
        scratch = take_scratch()
        np.copyto(out, e1.leading(y0, y1, scratch))
        np.subtract(e2.leading(y0, y1, scratch), out, out=out)
        free.append(scratch)

    sd, live = _pooled(b for pair in _pool_map(strip, strips, threads) for b in pair)
    return g, sd, live, (lead if skip else None)


def _standardized_magnitude(g: np.ndarray, sd: np.ndarray, live: np.ndarray,
                            threads: int | None = None,
                            lead: Callable | None = None) -> MagnitudeMap:
    """rho = sqrt(sum_d (g_d / s_d)^2) of a difference stack and a per-dim
    std s, strip by strip of ``features._strips``: g's held dims are the
    (D - L, height, width) array ``g``, and the L = len(s) - len(g) leading
    ones are recomputed strip by strip by ``lead`` (see ``_difference``).

    Each live dim (``live`` true) of a strip is divided by its std in
    float32, and its square is added in float64, one dim at a time in dim
    order, before the square root; a dead dim is skipped, where zeroed it
    would add an exact 0.  Every pixel's sum thus makes the additions of a
    sum over the dims of the whole stack, whatever the strips.  The strips
    run on up to ``threads`` worker threads, each writing its own rows of
    rho and reusing one set of strip-sized buffers.
    """
    skip = len(sd) - len(g)
    h, w = g.shape[1:]
    strips = _strips(h, w)
    rows = max(y1 - y0 for y0, y1 in strips)
    dims = np.flatnonzero(live)
    rho = np.empty((h, w), np.float32)
    free = []

    def strip(bounds: tuple[int, int]) -> None:
        y0, y1 = bounds
        try:
            ahead, z, square, total = free.pop()
        except IndexError:
            ahead = np.empty((skip, rows, w), np.float32)
            z = np.empty((rows, w), np.float32)
            square, total = np.empty((rows, w)), np.empty((rows, w))
        n = y1 - y0
        if skip:
            lead(y0, y1, ahead[:, :n])
        total[:n] = 0
        for d in dims:
            np.divide(ahead[d, :n] if d < skip else g[d - skip, y0:y1], sd[d], out=z[:n])
            np.square(z[:n], out=square[:n], dtype=np.float64)
            total[:n] += square[:n]
        rho[y0:y1] = np.sqrt(total[:n], out=total[:n])
        free.append((ahead, z, square, total))

    _pool_map(strip, strips, threads)
    return MagnitudeMap(rho)


def detect_pair(x1: Raster, x2: Raster, spec: ExtractorSpec,
                threads: int | None = None) -> ChangeResult:
    """Detect changes between two co-registered rasters with one extractor:
    build the difference stack of their features strip by strip, take the
    magnitude of its pooled-standardized form, then threshold and label as
    ``detect`` does.  ``threads`` bounds the worker threads of the strips
    and of the magnitude blocks (None: ``pool.default_threads()``); the
    result is bit-identical for every value."""
    g, sd, live, lead = _difference(spec, x1, x2, threads)
    return threshold_magnitude(_standardized_magnitude(g, sd, live, threads, lead))
