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
rounding in the comparison itself.  Float64 ratios of exact int64
numerators, taken over every bin at once, only narrow the bins to compare.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .features import _BLOCK, ExtractorSpec, _Extraction, _moments, _pooled, _strips
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
    return _otsu_split(np.bincount(idx, minlength=bins))


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
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable | None]:
    """The held part of the difference stack g = f2 - f1 of the features of
    a raster pair, the pooled std of f1 and f2 with its live mask (as
    ``features._pooled_std`` gives them), and ``lead``, which recomputes the
    rest; neither feature stack is held.

    g is float32 of shape (D - L, height, width): every dim but the L
    leading ones of the extraction's ``lead``, which cost less to recompute
    than to hold (0 for the stock primary extractor, 48 of the secondary's
    96).  ``lead(y0, y1, out, then=None)`` writes rows [y0, y1) of f2 - f1
    of those L dims into a float32 (L, y1 - y0, width) ``out``, with the
    bits the strips give them, and then, given ``then``, calls
    ``then(scratch)`` with a worker's scratch buffers, idle by then,
    before it frees them: the magnitude pass works in them, so it holds no
    buffers of its own but ``out``.  ``lead`` is None for the extractor
    kinds that run in no scratch buffers.

    The strips of ``_strips`` run on up to ``threads`` worker threads, each
    worker with one set of scratch buffers for the whole pair, which ``lead``
    reuses.  A strip takes the moments of f1's rows and writes its held dims
    into g, then takes the moments of f2's rows and subtracts g's rows from
    the held ones in place; the moments take their float64 copies in the
    worker's patch block, idle while the extraction yields a tapped layer.
    The moment blocks are merged in strip order, so the result does not
    depend on ``threads``.
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
        patch = None if scratch is None else scratch[0].view(np.float64)
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

    def lead(y0: int, y1: int, out: np.ndarray, then: Callable | None = None) -> None:
        scratch = take_scratch()
        if skip:
            np.copyto(out, e1.leading(y0, y1, scratch))
            np.subtract(e2.leading(y0, y1, scratch), out, out=out)
        if then is not None:
            then(scratch)
        free.append(scratch)

    sd, live = _pooled(b for pair in _pool_map(strip, strips, threads) for b in pair)
    return g, sd, live, (lead if e1.stored is None else None)


def _runs(dims: np.ndarray, skip: int, size: int) -> list[list[int]]:
    """Ranges [d0, d1) that cover the sorted dims ``dims`` in order: each of
    consecutive dims, at most ``size`` of them, all below ``skip`` or none."""
    runs = []
    for d in dims.tolist():
        if runs and runs[-1][1] == d != skip and d - runs[-1][0] < size:
            runs[-1][1] = d + 1
        else:
            runs.append([d, d + 1])
    return runs


def _standardized_magnitude(g: np.ndarray, sd: np.ndarray, live: np.ndarray,
                            threads: int | None = None,
                            lead: Callable | None = None) -> MagnitudeMap:
    """rho = sqrt(sum_d (g_d / s_d)^2) of a difference stack and a per-dim
    std s, strip by strip of ``features._strips``: g's held dims are the
    (D - L, height, width) array ``g``, and the L = len(s) - len(g) leading
    ones are recomputed strip by strip by ``lead`` (see ``_difference``).

    The live dims (``live`` true) of a strip go in blocks of consecutive
    dims: a block is divided by its stds in float32, its squares land in
    float64 rows 1.. of a block whose row 0 is the running total, and
    ``np.add.reduce`` over the block's first axis adds those rows in order,
    so every pixel still adds its dims one at a time in dim order before
    the square root.  A dead dim is skipped, where zeroed it would add an
    exact 0.  Every pixel's sum thus makes the additions of a sum over the
    dims of the whole stack, whatever the strips or the blocks.  The float64
    block, of at most ``features._BLOCK`` entries with the total beside it,
    lies in the patch block and the float32 quotients in a stage buffer of
    the scratch that ``lead`` lends, idle once it has recomputed; without
    ``lead`` a worker holds a buffer of ``_BLOCK`` entries of each type.
    The strips run on up to ``threads`` worker threads, each writing its
    own rows of rho and reusing one set of strip-sized buffers.
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
            ahead, own = free.pop()
        except IndexError:
            ahead = np.empty((skip, rows, w), np.float32)
            own = None if lead is not None else (np.empty(_BLOCK), np.empty(_BLOCK, np.float32))
        n = (y1 - y0) * w

        def add(wide: np.ndarray, narrow: np.ndarray) -> None:
            per = min(min(len(wide), _BLOCK) // n - 2, len(narrow) // n)
            if n == 1:
                # a one-pixel strip's block is a column, which NumPy reduces
                # as its first entry plus the pairwise sum of the rest
                per = min(per, 1)
            if per < 1:
                wide, narrow, per = np.empty(3 * n), np.empty(n, np.float32), 1
            total = wide[(per + 1) * n:(per + 2) * n]
            total[...] = 0
            for d0, d1 in _runs(dims, skip, per):
                src = ahead[d0:d1, :y1 - y0] if d0 < skip else g[d0 - skip:d1 - skip, y0:y1]
                z = narrow[:(d1 - d0) * n].reshape(src.shape)
                np.divide(src, sd[d0:d1, None, None], out=z)
                block = wide[:(d1 - d0 + 1) * n].reshape(-1, n)
                block[0] = total
                np.square(z, out=block[1:].reshape(src.shape), dtype=np.float64)
                np.add.reduce(block, axis=0, out=total)
            rho[y0:y1] = np.sqrt(total, out=total).reshape(-1, w)

        if lead is not None:
            lead(y0, y1, ahead[:, :y1 - y0], lambda s: add(s[0].view(np.float64), s[1]))
        else:
            add(*own)
        free.append((ahead, own))

    _pool_map(strip, strips, threads)
    return MagnitudeMap(rho)


def detect_pair(x1: Raster, x2: Raster, spec: ExtractorSpec,
                threads: int | None = None) -> ChangeResult:
    """Detect changes between two co-registered rasters with one extractor:
    build the difference stack of their features strip by strip, take the
    magnitude of its pooled-standardized form, then threshold and label as
    ``detect`` does.  ``threads`` bounds the worker threads of the strips
    in both passes (None: ``pool.default_threads()``); the result is
    bit-identical for every value."""
    g, sd, live, lead = _difference(spec, x1, x2, threads)
    m = _standardized_magnitude(g, sd, live, threads, lead)
    del g, lead  # the stack and the strip buffers, before the threshold's copies of rho
    return threshold_magnitude(m)
