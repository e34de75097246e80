"""Pluggable per-pixel feature extraction for bi-temporal image pairs.

Two extractor kinds:

* ``IDENTITY`` — features are the raw band values (D = bands).
* ``RANDOM_CONV`` — a stack of seeded random convolution layers (weights
  drawn once from N(0,1)/sqrt(fan_in), zero bias, rectifier, reflection
  padding keeps spatial size); the channel maps of the tapped layers are
  concatenated per pixel.  Layer indices are 1-based, so taps live in
  [1, depth] and tapping the last layer is spelled ``depth``.  Only the
  layers up to the deepest tap run, strip by strip of image rows
  (``_conv_layers``): a strip holds its rows of two layers and one patch
  block, whatever the image's height.  Every GEMM is zero-padded to a
  multiple of 16 columns, so a strip gives its rows the bits a whole-image
  pass gives them, whatever the strip's height.

``extract`` returns a plain float32 (height, width, D) feature stack,
computed serially.  ``dcva.detect_pair`` runs the two rasters of a pair
through the strips in lockstep instead (``dcva._difference``), keeps only
their difference, less the leading dims that it recomputes in a strip's
own buffers (``_Extraction.leading``) when it takes the magnitude, and
runs the strips on ``pool._pool_map``: their heights depend only on the
extractor and the image's shape (``_HALOS``), and their moments are merged
in strip order, so the output is bit-identical for every thread count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyTapSet, InvariantViolation, RejectedValue, ShapeMismatch
from .raster import Raster
from .rng import ROLE_F1_WEIGHTS, ROLE_F2_WEIGHTS, generator, mix64


class ExtractorKind(Enum):
    IDENTITY = "identity"
    RANDOM_CONV = "random_conv"


@dataclass(frozen=True)
class ExtractorSpec:
    """Immutable description of a feature extractor.

    ``taps`` is canonicalized to a sorted duplicate-free tuple so two specs
    naming the same layer set hash equally (the weight cache keys on the
    spec).  IDENTITY uses no field but ``kind``.
    """

    kind: ExtractorKind = ExtractorKind.RANDOM_CONV
    depth: int = 6
    taps: tuple[int, ...] = (2, 4, 6)
    channels: int = 8
    kernel_size: int = 3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "taps", tuple(sorted(set(int(t) for t in self.taps))))
        if self.kind is ExtractorKind.IDENTITY:
            return
        if not self.taps:
            raise EmptyTapSet(f"{self.kind.value} extractor needs at least one tapped layer")
        if self.depth < 1:
            raise RejectedValue(f"depth must be >= 1, got {self.depth}")
        if self.channels < 1:
            raise RejectedValue(f"channels must be >= 1, got {self.channels}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise RejectedValue(f"kernel_size must be odd and >= 1, got {self.kernel_size}")
        if self.taps[0] < 1 or self.taps[-1] > self.depth:
            raise RejectedValue(
                f"taps {self.taps} outside the 1-based layer range [1, {self.depth}]"
            )

    def expected_dims(self, in_bands: int) -> int:
        """Feature dimensionality D."""
        if self.kind is ExtractorKind.IDENTITY:
            return in_bands
        return len(self.taps) * self.channels


def default_primary_spec(master_seed: int = 0, *, depth: int = 6,
                         taps: tuple[int, ...] = (2, 4, 6),
                         channels: int = 16) -> ExtractorSpec:
    """Stock detection extractor: deep, taps spread over depth.

    16 channels/layer, a width chosen while near-dead dims still counted as
    live; ``_pooled`` now drops them, and a narrower primary has not been
    measured under that rule.
    """
    return ExtractorSpec(depth=depth, taps=taps, channels=channels,
                         seed=mix64(master_seed, ROLE_F1_WEIGHTS))


def default_secondary_spec(master_seed: int = 0, *, depth: int = 2,
                           taps: tuple[int, ...] = (1, 2),
                           channels: int = 48) -> ExtractorSpec:
    """Stock voting extractor: shallow (applied K times per run), wide.

    Two layers, both tapped: 48*36 + 48*432 = 22.5k multiply-adds a pixel
    of a four-band raster, against 43.2k for three layers tapped at 1 and
    3, whose vote it matches within half a macro-F1 point and keeps 1-4%
    fewer pixels confident.  The 48 channels stay: two layers of 32
    channels keep about a fifth fewer pixels confident than two of 48.
    """
    return ExtractorSpec(depth=depth, taps=taps, channels=channels,
                         seed=mix64(master_seed, ROLE_F2_WEIGHTS))


@functools.lru_cache(maxsize=64)
def _conv_weights(spec: ExtractorSpec, in_bands: int) -> tuple[np.ndarray, ...]:
    """Per-layer weight matrices (channels, c_in*k*k), drawn once per (spec, bands).

    Columns run over (c, dy, dx) in that order, the order in which
    ``_conv_layers`` lays out the rows of each patch block.
    """
    rng = generator(spec.seed)
    k = spec.kernel_size
    mats = []
    c_in = in_bands
    for _ in range(spec.depth):
        fan_in = c_in * k * k
        w = rng.standard_normal((spec.channels, fan_in)) / np.sqrt(fan_in)
        mats.append(np.ascontiguousarray(w, dtype=np.float32))
        c_in = spec.channels
    return tuple(mats)


# Pixels per block: the most output columns per patch block of a conv
# layer, and the pixels per block of ``_pooled_std``'s moments.  Each GEMM
# is still wide enough to run at speed.
_TILE = 4096

# Most float32 entries of a patch block: 1.7 MiB, which stays in one
# core's 2 MiB L2 cache between its im2col copy and its GEMM.  A 432-deep
# layer (48 channels of 3 x 3) runs tiles of 1024 columns, shallower ones
# of up to ``_TILE``.  A GEMM column's bits do not depend on the tile's
# width, and wider tiles of a deep layer only grow each strip worker's
# buffers.
_PATCH = 432 * 1024


def _tile(fan_in: int) -> int:
    """Columns per patch block of a layer of ``fan_in`` rows:
    ``_PATCH // fan_in`` rounded down to 16, between 16 and ``_TILE``."""
    return max(16, min(_TILE, _PATCH // fan_in) // 16 * 16)


# Most float64 entries of a block of feature dims that ``_moments`` and
# the magnitude pass (``dcva._standardized_magnitude``) take per NumPy
# call, in a strip worker's idle patch block, which holds 1.7 MiB: 1 MiB,
# 8 dims of 16384 pixels, stays in a core's cache over the
# block's passes.  One dim a call spends its time in the calls; blocks of
# 16 dims and more ran slower again on a 2 MiB L2 cache.
_BLOCK = 2**17


def _blocks(n: int, size: int = _TILE) -> list[slice]:
    """Slices covering [0, n) in order, ``size`` long but for a ragged last one."""
    return [slice(p, min(p + size, n)) for p in range(0, n, size)]


# The height of a strip, the piece of work of an extraction.  A strip of a
# random-conv extraction recomputes up to 2*pad rows a layer of its
# neighbours', a halo of 2*depth*pad rows over its layers, so it is at
# least ``_HALOS`` halos tall, and otherwise as tall as holds ``_VALUES``
# values of its widest stage (the most of its bands and its channels, a
# row of the image's width each): at a width of 512, 48 rows for the stock
# primary, whose halo then costs 9% more multiply-adds, and 16 for the
# stock secondary, a 5.5 MiB worker.  An identity extraction's buffers are
# fixed at ``_BLOCK`` sizes, so its strips hold at most ``_PIXELS`` pixels,
# or one row.  Any height gives the same bits.
_HALOS = 4
_PIXELS = 16384
_VALUES = 24 * _PIXELS


def _strips(h: int, rows: int) -> list[tuple[int, int]]:
    """Row ranges [y0, y1) covering h rows in order: the fewest strips of
    near-equal height of at most ``rows`` rows."""
    n = -(-h // rows)
    return [(h * i // n, h * (i + 1) // n) for i in range(n)]


def _stage_rows(rows: int, pad: int, wp: int) -> int:
    """Rows of a stage of ``rows`` interior rows, with its border rows and
    the rows that the zero-padded columns of its last GEMM spill into."""
    return rows + 2 * pad - (-16 // wp)


def _reflect(st: np.ndarray, pad: int, rows: int, top: bool, bottom: bool) -> None:
    """Fill the border of a stage of ``rows`` interior rows as
    ``np.pad(mode="reflect")`` does, the border rows only at the image's
    ``top`` or ``bottom``.  Every copy is one-dimensional, which NumPy makes
    in place, where overlapping 2-d views would take a temporary."""
    flat, wp = st.reshape(-1, st.shape[-1]), st.shape[-1]
    for i in range(1, pad + 1):
        flat[:, pad - i] = flat[:, pad + i]
        flat[:, wp - 1 - pad + i] = flat[:, wp - 1 - pad - i]
    for chan in st if top or bottom else ():
        for i in range(1, pad + 1):
            if top:
                chan[pad - i] = chan[pad + i]
            if bottom:
                chan[pad + rows - 1 + i] = chan[pad + rows - 1 - i]


def _im2col(stage: np.ndarray, start: int, out: np.ndarray) -> None:
    """Copy the patch entries of columns [start, start + m) of a (c, rows,
    wp) stage into ``out``, a (c, k, k, m) view of a patch block: entry
    (c, dy, dx, j) is ``flat[c, start + j + dy*wp + dx]`` of the stage's
    rows flattened.  One copy from a read-only strided view made straight
    over the stage's memory, with no ``as_strided`` interface dict, after
    a check that the view's last entry lies inside the stage: past it, the
    view would read the next channel's rows or the buffer's tail without a
    word, so there it raises InvariantViolation."""
    c, rows, wp = stage.shape
    k, m = out.shape[1], out.shape[-1]
    if start + (k - 1) * (wp + 1) + m > rows * wp:
        raise InvariantViolation(f"patch columns [{start}, {start + m}) of a {k}x{k} kernel "
                                 f"read past a stage of {rows} rows of {wp}")
    step = stage.strides[-1]
    view = np.ndarray(out.shape, stage.dtype, stage, start * step,
                      (stage.strides[0], wp * step, step, step))
    view.flags.writeable = False
    np.copyto(out, view)


def _conv_layers(x: np.ndarray, weights: tuple[np.ndarray, ...], k: int,
                 y0: int, y1: int, scratch: tuple[np.ndarray, ...]):
    """Run the convolution + rectifier layers on image rows [y0, y1) of a
    (c_in, h, w) stack; yield ``(layer, band)`` for each 1-based layer, a
    (c_out, y1 - y0, w) view of those rows valid until the generator resumes.
    The patch block, ``scratch[0]``, is idle while the generator is
    suspended, so the caller may use it until it resumes.

    Layer l computes rows [y0 - (depth - l)*pad, y1 + (depth - l)*pad),
    clipped to the image, into a reflect-padded (c, hp, wp) stage at the
    head of the two stage buffers of ``scratch`` by turns: the input stage
    (layer 0) and the even layers in the first, the odd layers in the
    second, each taking ``c * _stage_rows(rows) * wp`` entries and nothing
    past them.  Output pixel (y, x) is column p = y*wp + x, whose patch
    entry (c, dy, dx) is ``flat[c, p + dy*wp + dx]``, so a tile of columns
    is one strided copy (``_im2col``).  The tiles are the ``_blocks`` of
    ``_tile`` columns of the layer's rows from their first column, each
    zero-padded to a multiple of 16 columns: a GEMM column's bits then
    depend neither on the call's width nor on where the column sits in it
    (``tests/test_features.py`` checks the running BLAS), so not on the
    strips or the tiles' width.  The GEMMs land in the next stage's
    interior, the columns that wrap past a row's end in its border, and the
    span they wrote is rectified in one call: NumPy takes two iteration
    buffers for a strided span of fewer than about 3072 columns, as a
    call per tile would often be.  The border is then reflected over the
    wrapped columns.
    """
    c_in, h, w = x.shape
    pad, depth = k // 2, len(weights)
    wp = w + 2 * pad
    shift = pad * wp + pad
    patch, *bufs = scratch

    def stage(s: int, c: int, rows: int) -> np.ndarray:
        return bufs[s % 2][:c * _stage_rows(rows, pad, wp) * wp].reshape(c, -1, wp)

    lo, hi = max(0, y0 - depth * pad), min(h, y1 + depth * pad)
    src = stage(0, c_in, hi - lo)
    src[:, pad:pad + hi - lo, pad:pad + w] = x[:, lo:hi]
    _reflect(src, pad, hi - lo, lo == 0, hi == h)
    for layer, weights_l in enumerate(weights, start=1):
        c_in, c_out = len(src), len(weights_l)
        a, b = max(0, y0 - (depth - layer) * pad), min(h, y1 + (depth - layer) * pad)
        dst = stage(layer, c_out, b - a)
        dst_flat = dst.reshape(c_out, -1)
        for t in _blocks((b - a - 1) * wp + w, _tile(c_in * k * k)):
            m = t.stop - t.start
            cols = -(-m // 16) * 16
            block = patch[:c_in * k * k * cols].reshape(c_in, k, k, cols)
            _im2col(src, (a - lo) * wp + t.start, block[..., :m])
            block[..., m:] = 0
            tile = dst_flat[:, shift + t.start:shift + t.start + cols]
            np.matmul(weights_l, block.reshape(c_in * k * k, cols), out=tile)
        written = dst_flat[:, shift:shift + t.start + cols]
        np.maximum(written, 0.0, out=written)
        if layer < depth:
            _reflect(dst, pad, b - a, a == 0, b == h)
        yield layer, dst[:, pad + y0 - a:pad + y1 - a, pad:pad + w]
        src, lo = dst, a


class _Extraction:
    """One extractor on one raster, strip by strip: ``dims`` is its D,
    ``strips`` its row ranges (of the height that ``_HALOS`` describes,
    which depends on the extractor and the raster's shape alone), and
    ``strip`` yields the tapped layers of a row range, computed in a
    random-conv extraction's ``scratch`` buffers, or IDENTITY's bands.

    ``lead`` counts the leading dims that are cheaper to recompute than to
    hold: all of IDENTITY's, and layer 1's channels, when layer 1 is tapped
    beside a deeper layer and costs fewer multiply-adds a pixel than the
    layers after it up to the deepest tap (0 otherwise).  ``leading``
    recomputes them."""

    def __init__(self, spec: ExtractorSpec, x: Raster):
        self.spec, self.x, self.dims = spec, x, spec.expected_dims(x.bands)
        if spec.kind is ExtractorKind.IDENTITY:
            self.lead = x.bands
            self.strips = _strips(x.height, max(1, _PIXELS // x.width))
            return
        pad = spec.kernel_size // 2
        if pad and min(x.height, x.width) <= pad:
            raise ShapeMismatch(f"image {x.height}x{x.width} too small for reflection "
                                f"padding of a {spec.kernel_size}x{spec.kernel_size} kernel")
        self.weights = _conv_weights(spec, x.bands)[:spec.taps[-1]]
        first, *rest = self.weights
        self.lead = 0
        if spec.taps[0] == 1 and rest and first.size < sum(w.size for w in rest):
            self.lead = spec.channels
        self.pad, self.wp = pad, x.width + 2 * pad
        widest = max(x.bands, spec.channels)
        self.strips = _strips(x.height, max(1, 2 * _HALOS * len(self.weights) * pad,
                                            _VALUES // (widest * x.width)))

    def scratch(self) -> tuple[np.ndarray, ...]:
        """The patch block and two stage buffers that ``_conv_layers`` runs
        any of the ``strips`` in, carved in that order from one float32
        allocation.  The first stage buffer holds the input stage and the
        even layers, the second the odd ones, each as many entries as its
        tallest stage takes.  With a ``lead``, ``leading`` runs layer 1 on
        both rasters of the tallest strip in them: the first also holds this
        raster's layer-1 rows, the second the other raster's input stage
        and its layer-1 rows after it.  IDENTITY runs no layer: a patch block
        of 2 * ``_BLOCK`` entries and a buffer of ``_BLOCK``."""
        if self.spec.kind is ExtractorKind.IDENTITY:
            sizes = [2 * _BLOCK, _BLOCK]
        else:
            depth, pad, wp = len(self.weights), self.pad, self.wp
            rows = max(y1 - y0 for y0, y1 in self.strips)
            stages = [c * _stage_rows(min(self.x.height, rows + 2 * (depth - s) * pad), pad, wp)
                      * wp for s, c in enumerate([self.x.bands] + [len(w) for w in self.weights])]
            first, second = max(stages[0::2]), max(stages[1::2])
            if self.lead:
                tap = self.lead * _stage_rows(rows, pad, wp) * wp
                first = max(first, tap)
                second = max(second, tap + self.x.bands * wp
                             * _stage_rows(min(self.x.height, rows + 2 * pad), pad, wp))
            sizes = [max(w.shape[1] * _tile(w.shape[1]) for w in self.weights), first, second]
        return tuple(np.split(np.empty(sum(sizes), np.float32), np.cumsum(sizes)[:-1]))

    def strip(self, y0: int, y1: int, scratch: tuple[np.ndarray, ...]):
        """Yield ``(d, band)`` for each tapped layer in order: ``band`` is a
        (c, y1 - y0, width) view of image rows [y0, y1) of feature dims
        [d, d + c), valid until the generator resumes."""
        if self.spec.kind is ExtractorKind.IDENTITY:
            yield 0, self.x.data[:, y0:y1]
            return
        taps, c = self.spec.taps, self.spec.channels
        for layer, band in _conv_layers(self.x.data, self.weights, self.spec.kernel_size,
                                        y0, y1, scratch):
            if layer in taps:
                yield taps.index(layer) * c, band

    def leading(self, other: _Extraction, y0: int, y1: int, scratch: tuple[np.ndarray, ...]
                ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
        """``(f1, f2, head)`` for rows [y0, y1): ``f1`` and ``f2`` are the
        (lead, y1 - y0, width) rows of the ``lead`` leading dims of this
        extraction and of ``other``, one of the same spec on a raster of the
        same shape, with the bits ``strip`` gives them.  Until ``scratch``
        is used again, the patch block is idle, and so is ``head``, a flat
        buffer that holds at least one dim of the strip's rows.  IDENTITY
        gives the strip's bands with the second scratch buffer as ``head``,
        and no ``lead`` None and None with the first.

        Otherwise layer 1 alone runs on the strip's rows of both rasters, so
        it computes no row twice.  This raster's input stage goes at the
        head of the second stage buffer and its rows in the first; then the
        other's input stage goes at the head of the second again, and its
        rows in the second's tail.  ``head`` is the entries ahead of that
        tail, the other's spent input stage."""
        if self.spec.kind is ExtractorKind.IDENTITY:
            return self.x.data[:, y0:y1], other.x.data[:, y0:y1], scratch[1]
        patch, first, second = scratch
        if not self.lead:
            return None, None, first
        k = self.spec.kernel_size
        head = second[:len(second) - self.lead * _stage_rows(y1 - y0, self.pad, self.wp) * self.wp]
        f1 = next(_conv_layers(self.x.data, self.weights[:1], k, y0, y1, (patch, second, first)))[1]
        f2 = next(_conv_layers(other.x.data, other.weights[:1], k, y0, y1,
                               (patch, head, second[len(head):])))[1]
        return f1, f2, head


def extract(spec: ExtractorSpec, x: Raster) -> np.ndarray:
    """Compute per-pixel features: a float32 (height, width, D) array.

    Pure function of (spec, x): repeated calls are bit-identical.  A
    random-conv extraction runs only the layers up to its deepest tap, strip
    by strip on the calling thread, and copies each strip's tapped rows into
    the stack; past the stack it holds one strip's buffers.
    """
    ex = _Extraction(spec, x)
    scratch = ex.scratch()
    features = np.empty((x.height, x.width, ex.dims), np.float32)
    for y0, y1 in ex.strips:
        for d, band in ex.strip(y0, y1, scratch):
            features[y0:y1, :, d:d + len(band)] = band.transpose(1, 2, 0)
    return features


def _moments(a: np.ndarray, buf: np.ndarray | None = None) -> tuple[int, np.ndarray, np.ndarray]:
    """Count, per-dim mean and per-dim sum of squared deviations of a block
    whose first axis is the feature dim, in float64 by two passes over a
    float64 copy of as many dims at a time as the flat float64 ``buf``
    holds, up to ``_BLOCK`` entries (of one dim, in a buffer of its own,
    when it holds none).  The copy is C-contiguous, so the sums of each dim
    are NumPy's one-dimensional pairwise sums along its last axis, whatever
    the number of dims it takes, and its mean is that sum divided by the
    count, as ``ndarray.mean`` takes it."""
    n = a[0].size
    per = 0 if buf is None else min(len(buf), _BLOCK) // n
    if per == 0:
        buf, per = np.empty(n), 1
    mean, m2 = np.empty(len(a)), np.empty(len(a))
    for d in range(0, len(a), per):
        dev = buf[:len(a[d:d + per]) * n].reshape(-1, n)
        np.copyto(dev.reshape(-1, *a.shape[1:]), a[d:d + per])
        np.add.reduce(dev, axis=1, out=mean[d:d + per])
        mean[d:d + per] /= n
        dev -= mean[d:d + per, None]
        np.square(dev, out=dev)
        np.add.reduce(dev, axis=1, out=m2[d:d + per])
    return n, mean, m2


def _pooled(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Per-dim pooled population std as float32, and the mask of live dims,
    from ``_moments`` blocks merged in their order by Chan, Golub and
    LeVeque's pairwise update.

    A dim is live when its std is at least 1e-12 and at least 0.1 times the
    median std of the dims that pass 1e-12.  After the zero-bias rectifier
    layers some dims are zero but at a few pixels; standardized, those few
    reach z of about sqrt(N), and that tail would drag the min-max
    histogram threshold off the change mode.  No float64 copy of a whole
    stack is needed, and a dim that is constant over every block gets a
    variance of exactly 0.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for n, bmean, bm2 in blocks:
        delta = bmean - mean
        total = count + n
        mean = mean + delta * (n / total)
        m2 = m2 + bm2 + delta ** 2 * (count * n / total)
        count = total
    sd = np.sqrt(m2 / count)
    live = sd >= 1e-12
    if live.any():
        ranked = np.sort(sd[live])
        median = (ranked[(len(ranked) - 1) // 2] + ranked[len(ranked) // 2]) / 2
        live &= sd >= 0.1 * median
    return sd.astype(np.float32), live


def _pooled_std(f1: np.ndarray, f2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_pooled``'s std and live mask of two equally shaped (..., D) stacks,
    from the moments of blocks of ``_TILE`` pixels, all of f1's and then all
    of f2's."""
    if f1.shape != f2.shape:
        raise ShapeMismatch(f"feature stacks differ: {f1.shape} vs {f2.shape}")
    d = f1.shape[-1]
    return _pooled(_moments(flat[t].T) for flat in (f1.reshape(-1, d), f2.reshape(-1, d))
                   for t in _blocks(len(flat)))


def standardize_pair(f1: np.ndarray, f2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each feature dimension of both stacks by its pooled population std.

    Pooling keeps the two acquisitions comparable without erasing genuine
    global change the way per-image standardization would.  The pooled mean
    is not subtracted: a change detector differences the two outputs, and a
    mean shared by both cancels there.  The std comes from ``_pooled_std``'s
    blockwise float64 moments, so no concatenated or float64 copy of the pair
    is made.  Dead dimensions (``_pooled``'s rule: a std below 1e-12, or
    below a tenth of the median std of the dims above 1e-12) are zeroed in
    both float32 outputs.  ``dcva.detect_pair`` does not call this: it divides
    the difference of the stacks instead.
    """
    sd, live = _pooled_std(f1, f2)
    return tuple(np.divide(f, sd, out=np.zeros(f.shape, np.float32), where=live) for f in (f1, f2))
