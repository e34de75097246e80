"""Core change detection: feature differencing, change magnitude, automatic
thresholding, and binary labeling.

The per-pixel pipeline is: difference hypervector over feature dims, Euclidean
magnitude, histogram threshold selection (between-class variance maximization
on a 256-bin min-max histogram), label Changed wherever magnitude exceeds the
threshold.

``detect_pair`` runs that pipeline on the pooled-standardized features of a
raster pair without holding either feature stack: the two rasters go
through the extraction's strips of rows in lockstep (``_difference``; a
strip's height comes from the extractor's depth and widest stage), each
strip writing its rows of the difference stack g = f2 - f1 and returning the
per-dim moments of both, and once the pooled std s is merged from those, a
second pass over the strips computes rho = sqrt(sum_d (g_d / s_d)^2).  g
keeps only the dims that are dear to recompute: an identity extraction's
bands, and a leading layer-1 tap that costs fewer multiply-adds than the
deeper layers (half the stock secondary extractor's dims), are recomputed
in the second pass instead, in the strip worker's own buffers, and the
magnitude is taken in the strip's patch block, which one size rule makes
large enough for it at any width.  So a detection holds the held part of
g, its magnitude map, and one strip's buffers a worker thread (one
allocation, 4.8 MiB for the stock secondary at a width of 512), the same
buffers in both passes and nothing beside them; both passes run on up to
``threads`` workers, and the result does not depend on how many.

Threshold selection compares between-class variances with exact integer
arithmetic (cross-multiplied rationals over Python ints), so the chosen bin is
the true argmax with ties broken at the lowest bin index, immune to float
rounding in the comparison itself.  Float64 ratios of exact int64
numerators, taken over every bin at once, only narrow the bins to compare.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .features import _BLOCK, _PER_PIXEL, _PIXELS, ExtractorSpec, _Extraction, _moments, _pooled
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


def _difference(spec: ExtractorSpec, x1: Raster, x2: Raster, threads: int | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list, Callable]:
    """The held part of the difference stack g = f2 - f1 of the features of
    a raster pair, the pooled std of f1 and f2 with its live mask (as
    ``features._pooled_std`` gives them), the extraction's strips, and
    ``lend``, which recomputes the rest; neither feature stack is held.

    g is float32 of shape (D - L, height, width): every dim but the L
    leading ones of the extraction's ``lead``, which cost less to recompute
    than to hold (all of an identity extraction's, 48 of the stock
    secondary's 96).  ``lend(y0, y1, visit)`` takes a worker's scratch
    buffers, recomputes rows [y0, y1) of f1's and f2's L leading dims in
    them (``_Extraction.leading``) and calls ``visit(y0, y1, f1, f2,
    patch)`` once with those (L, y1 - y0, width) rows (None when L = 0)
    and the worker's patch block, a flat float32 buffer that holds nothing
    meanwhile and holds at least max(2 * ``_BLOCK``, ``_PER_PIXEL`` * n)
    entries for a strip of n pixels (``_Extraction.scratch``).  So the
    magnitude pass holds no buffer of its own.

    The strips, ``_Extraction.strips``, run on up to ``threads`` worker
    threads, each worker with one set of scratch buffers for the whole
    pair, which ``lend`` reuses.  A strip takes the moments of f1's rows
    and writes its held dims into g, then takes the moments of f2's rows
    and subtracts g's rows from the held ones in place; the moments take
    their float64 copies in the worker's patch block, idle while the
    extraction yields a tapped layer.  The strips depend on the extractor
    and the image alone, and the moment blocks are merged in strip order,
    so the result does not depend on ``threads``.
    """
    if x1.data.shape != x2.data.shape:
        raise ShapeMismatch(f"rasters differ: {x1.data.shape} vs {x2.data.shape}")
    e1, e2 = _Extraction(spec, x1), _Extraction(spec, x2)
    skip = e1.lead
    g = np.empty((e1.dims - skip, x1.height, x1.width), np.float32)
    free = []

    def take_scratch() -> tuple[np.ndarray, ...]:
        try:
            return free.pop()
        except IndexError:
            return e1.scratch()

    def strip(bounds: tuple[int, int]) -> list[tuple[int, np.ndarray, np.ndarray]]:
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

    def lend(y0: int, y1: int, visit: Callable) -> None:
        scratch = take_scratch()
        visit(y0, y1, *e1.leading(e2, y0, y1, scratch), scratch[0])
        free.append(scratch)

    sd, live = _pooled(b for pair in _pool_map(strip, e1.strips, threads) for b in pair)
    return g, sd, live, e1.strips, lend


def _runs(dims: np.ndarray, skip: int, size: int) -> list[list[int]]:
    """Ranges [d0, d1) of consecutive dims of the sorted dims ``dims`` that
    cover them in order, each of at most ``size`` dims, all below ``skip``
    or none."""
    runs = []
    for d in dims.tolist():
        if (runs and runs[-1][1] == d and (runs[-1][0] < skip) == (d < skip)
                and d - runs[-1][0] < size):
            runs[-1][1] = d + 1
        else:
            runs.append([d, d + 1])
    return runs


def _standardized_magnitude(g: np.ndarray, sd: np.ndarray, live: np.ndarray, strips: list,
                            threads: int | None, lend: Callable) -> MagnitudeMap:
    """rho = sqrt(sum_d (g_d / s_d)^2) of a difference stack and a per-dim
    std s, strip by strip of ``strips``: g's held dims are the (D - L,
    height, width) array ``g``, and the L = len(s) - len(g) leading ones are
    recomputed strip by strip by ``lend`` (see ``_difference``), all of a
    strip's dims at once.

    The live dims (``live`` true) of a strip go in blocks of consecutive
    live dims; a dead dim ends a block.  A block's z, in a float32 buffer,
    is g's rows divided by their stds, or for the leading dims f2's rows
    less f1's, divided by the stds: the roundings of g = f2 - f1 and of its
    quotient.  z is copied to float64 rows 1.. of a block whose row 0 is the
    running total and squared there (squaring the float32 z to float64 would
    take NumPy's cast buffer), and ``np.add.reduce`` over the block's first
    axis adds those rows in order, so every pixel still adds its dims one at
    a time in dim order before the square root.  A block of one pixel is a
    column, which NumPy reduces as its first entry plus the pairwise sum of
    the rest, so it takes one dim.  Every pixel's sum thus makes the
    additions of a sum over the live dims of the whole stack, whatever the
    strips or blocks.  The float64 block, the total beside it and z share
    the patch block that ``lend`` lends, 7 entries a pixel for a block of
    one dim (``_PER_PIXEL``) and 3 more for each dim after it, within its
    first 2 * ``_BLOCK`` entries, or the 7 a pixel of one dim where that is
    more, which ``lend``'s block always holds: a worker holds no buffer of
    its own.  The strips run on up to ``threads`` worker threads, each
    writing its own rows of rho.
    """
    skip = len(sd) - len(g)
    h, w = g.shape[1:]
    dims = np.flatnonzero(live)
    rho = np.empty((h, w), np.float32)

    def add(y0: int, y1: int, f1: np.ndarray | None, f2: np.ndarray | None,
            patch: np.ndarray) -> None:
        n = (y1 - y0) * w
        size = max(2 * _BLOCK, _PER_PIXEL * n)
        per = 1 if n == 1 else (size - 4 * n) // (3 * n)
        wide, narrow = patch[:2 * (per + 2) * n].view(np.float64), patch[2 * (per + 2) * n:]
        total = wide[(per + 1) * n:]
        total[...] = 0
        for d0, d1 in _runs(dims, skip, per):
            z = narrow[:(d1 - d0) * n].reshape(d1 - d0, y1 - y0, w)
            block = wide[:(d1 - d0 + 1) * n].reshape(-1, n)
            diff = (np.subtract(f2[d0:d1], f1[d0:d1], out=z) if d0 < skip
                    else g[d0 - skip:d1 - skip, y0:y1])
            np.divide(diff, sd[d0:d1, None, None], out=z)
            block[0] = total
            squares = block[1:].reshape(z.shape)
            np.copyto(squares, z)
            np.square(squares, out=squares)
            np.add.reduce(block, axis=0, out=total)
        rho[y0:y1] = np.sqrt(total, out=total).reshape(-1, w)

    _pool_map(lambda bounds: lend(*bounds, add), strips, threads)
    return MagnitudeMap(rho)


def detect_pair(x1: Raster, x2: Raster, spec: ExtractorSpec,
                threads: int | None = None) -> ChangeResult:
    """Detect changes between two co-registered rasters with one extractor:
    build the difference stack of their features strip by strip, take the
    magnitude of its pooled-standardized form, then threshold and label as
    ``detect`` does.  ``threads`` bounds the worker threads of the strips
    in both passes (None: ``pool.default_threads()``); the result is
    bit-identical for every value."""
    g, sd, live, strips, lend = _difference(spec, x1, x2, threads)
    m = _standardized_magnitude(g, sd, live, strips, threads, lend)
    del g, lend  # the stack and the strip buffers, before the threshold's copies of rho
    return threshold_magnitude(m)
