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
computed serially.  ``_Extraction`` gives an extraction strip by strip
instead, for a caller that holds no feature stack: the strips' heights
depend only on the extractor and the image's shape (``_HALOS``), and
``_Extraction.leading`` recomputes the leading dims of a strip that cost
less to recompute than to hold.  A strip worker allocates nothing but its
scratch buffers (``_Extraction.scratch``), whose patch block, sized by one
rule for every kind (``_patch_entries``), also holds the float64 blocks in
which ``_moments`` takes a strip's per-dim moments and ``_strip_magnitude``
its standardized change magnitude.
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


def default_primary_spec(master_seed: int = 0, *, taps: tuple[int, ...] = (2, 4, 6),
                         channels: int = 16) -> ExtractorSpec:
    """Stock detection extractor: deep, taps spread over depth.

    16 channels/layer, a width chosen while near-dead dims still counted as
    live; ``_pooled`` now drops them, and a narrower primary has not been
    measured under that rule.  Both stock extractors are as deep as their
    deepest tap: no layer past it would ever run.
    """
    return ExtractorSpec(depth=max(taps, default=0), taps=taps, channels=channels,
                         seed=mix64(master_seed, ROLE_F1_WEIGHTS))


def default_secondary_spec(master_seed: int = 0, *, taps: tuple[int, ...] = (1, 2),
                           channels: int = 48) -> ExtractorSpec:
    """Stock voting extractor: shallow (applied K times per run), wide.

    Two layers, both tapped: 48*36 + 48*432 = 22.5k multiply-adds a pixel
    of a four-band raster, against 43.2k for three layers tapped at 1 and
    3, whose vote it matches within half a macro-F1 point and keeps 1-4%
    fewer pixels confident.  The 48 channels stay: two layers of 32
    channels keep about a fifth fewer pixels confident than two of 48.
    """
    return ExtractorSpec(depth=max(taps, default=0), taps=taps, channels=channels,
                         seed=mix64(master_seed, ROLE_F2_WEIGHTS))


@functools.lru_cache(maxsize=64)
def _conv_weights(spec: ExtractorSpec, in_bands: int) -> tuple[np.ndarray, ...]:
    """Per-layer weight matrices (channels, c_in*k*k) of the layers up to the
    deepest tap, the only ones an extraction runs, drawn once per (spec,
    bands).  The layers are drawn in order from one stream, so a layer's
    weights do not depend on how many layers follow it.

    Columns run over (c, dy, dx) in that order, the order in which
    ``_conv_layers`` lays out the rows of each patch block.
    """
    rng = generator(spec.seed)
    k = spec.kernel_size
    mats = []
    c_in = in_bands
    for _ in range(spec.taps[-1]):
        fan_in = c_in * k * k
        w = rng.standard_normal((spec.channels, fan_in)) / np.sqrt(fan_in)
        mats.append(np.ascontiguousarray(w, dtype=np.float32))
        c_in = spec.channels
    return tuple(mats)


# Pixels per block: the most columns of a GEMM tile of a conv layer, and
# the pixels per block of ``_pooled_std``'s moments.  Each GEMM is still
# wide enough to run at speed.
_TILE = 4096

# Most float32 entries of a GEMM tile: 864 KiB, so that the tile and the
# copy of it that a GotoBLAS-style GEMM such as OpenBLAS packs for itself
# both stay in one core's 2 MiB L2 cache between the tile's im2col copy and
# its GEMM.  The stock layers of 36, 144 and 432 rows (4 bands, 16 and 48
# channels of 3 x 3) run tiles of 4096, 1536 and 512 columns.  A GEMM
# column's bits do not depend on the tile's width.
_GEMM = 432 * 512


def _tile(fan_in: int) -> int:
    """Columns per GEMM tile of a layer of ``fan_in`` rows: ``_GEMM`` //
    fan_in rounded down to 16, between 16 and ``_TILE``."""
    return max(16, min(_TILE, _GEMM // fan_in) // 16 * 16)


# Most float64 entries of a block of feature dims that ``_moments`` and
# ``_strip_magnitude`` take per NumPy call, in a strip worker's idle patch
# block, which holds at least 2 * ``_BLOCK`` float32 entries
# (``_patch_entries``): 1 MiB, 8 dims of 16384 pixels, stays in a core's
# cache over the block's passes, and ``_strip_magnitude`` keeps its float32
# quotients within it too.  One dim a call spends its time in the
# calls; blocks of 16 dims and more ran slower again on a 2 MiB L2 cache.
_BLOCK = 2**17

# Float32 entries a pixel of ``_strip_magnitude``'s block of one dim: its
# float64 square, the float64 running total at the block's head and beside
# it, and its float32 quotient.
_PER_PIXEL = 7


def _patch_entries(pixels: int) -> int:
    """Float32 entries of a strip's patch block that ``_moments`` and
    ``_strip_magnitude`` may take for a strip of ``pixels`` pixels: 2 *
    ``_BLOCK``, or ``_PER_PIXEL`` a pixel where that is more, so that a
    block of one dim of the magnitude always fits."""
    return max(2 * _BLOCK, _PER_PIXEL * pixels)


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
# stock secondary.  An identity extraction's strips hold at most
# ``_PIXELS`` pixels, or one row.  Any height gives the same bits.
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


def _patches(stage: np.ndarray, start: int, n: int, k: int) -> np.ndarray:
    """A read-only (c, k, k, n) view of the patch entries of columns
    [start, start + n) of a (c, rows, wp) stage for a k x k kernel: entry
    (c, dy, dx, j) is ``flat[c, start + j + dy*wp + dx]`` of the stage's
    rows flattened, so a tile of the columns is one strided copy.  The
    view is made straight over the stage's memory, with no ``as_strided``
    interface dict, after a check that its last entry lies inside the
    stage: past it, the view would read the next channel's rows or the
    buffer's tail without a word, so there it raises InvariantViolation."""
    c, rows, wp = stage.shape
    if start + (k - 1) * (wp + 1) + n > rows * wp:
        raise InvariantViolation(f"patch columns [{start}, {start + n}) of a {k}x{k} kernel "
                                 f"read past a stage of {rows} rows of {wp}")
    step = stage.strides[-1]
    view = np.ndarray((c, k, k, n), stage.dtype, stage, start * step,
                      (stage.strides[0], wp * step, step, step))
    view.flags.writeable = False
    return view


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
    entry (c, dy, dx) is ``flat[c, p + dy*wp + dx]``, so the patches of a
    layer's rows are one read-only strided view of its source stage
    (``_patches``), checked once against the stage's end, and a tile of
    them is one copy.  The tiles are the ``_blocks`` of ``_tile`` columns
    of the layer's rows from their first column, and the ragged last one
    is zero-padded to a multiple of 16 columns: a GEMM column's bits then
    depend neither on the call's width nor on where the column sits in it
    (``tests/test_features.py`` checks the running BLAS), so not on the
    strips or the tiles' width.  A tile of at most ``_GEMM`` entries and
    the GEMM's packed copy of it stay in one core's L2 cache; the patch
    block may be larger (``scratch``).  The GEMMs land in the next stage's
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
        fan_in = c_in * k * k
        a, b = max(0, y0 - (depth - layer) * pad), min(h, y1 + (depth - layer) * pad)
        dst = stage(layer, c_out, b - a)
        dst_flat = dst.reshape(c_out, -1)
        patches = _patches(src, (a - lo) * wp, (b - a - 1) * wp + w, k)
        for t in _blocks(patches.shape[-1], _tile(fan_in)):
            m = t.stop - t.start
            cols = -(-m // 16) * 16
            block = patch[:fan_in * cols].reshape(c_in, k, k, cols)
            np.copyto(block[..., :m], patches[..., t])
            if m < cols:
                block[..., m:] = 0
            tile = dst_flat[:, shift + t.start:shift + t.start + cols]
            np.matmul(weights_l, block.reshape(fan_in, cols), out=tile)
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
        self.weights = _conv_weights(spec, x.bands)
        first, *rest = self.weights
        self.lead = 0
        if spec.taps[0] == 1 and rest and first.size < sum(w.size for w in rest):
            self.lead = spec.channels
        self.pad, self.wp = pad, x.width + 2 * pad
        widest = max(x.bands, spec.channels)
        self.strips = _strips(x.height, max(1, 2 * _HALOS * len(self.weights) * pad,
                                            _VALUES // (widest * x.width)))

    def scratch(self) -> tuple[np.ndarray, ...]:
        """The patch block and, for a random-conv extraction, the two stage
        buffers that ``_conv_layers`` runs any of the ``strips`` in, carved
        in that order from one float32 allocation, a strip worker's only
        one.  The patch block has one size rule for every kind: the most of
        the layers' GEMM tiles (IDENTITY runs none) and ``_patch_entries``
        of the tallest strip, rounded up to whole float64 entries.  So the
        GEMM tiles, the moments' float64 blocks and ``_strip_magnitude``'s
        blocks of one dim or more all fit in it.  The first stage buffer
        holds the input stage and the even layers, the second the odd ones,
        each as many entries as its tallest stage takes.  With a ``lead``, ``leading`` runs layer 1 on
        both rasters of the tallest strip in them: the first also holds
        this raster's layer-1 rows, the second the other raster's input
        stage and its layer-1 rows after it."""
        rows = max(y1 - y0 for y0, y1 in self.strips)
        sizes = [-(-_patch_entries(rows * self.x.width) // 2) * 2]
        if self.spec.kind is not ExtractorKind.IDENTITY:
            depth, pad, wp = len(self.weights), self.pad, self.wp
            stages = [c * _stage_rows(min(self.x.height, rows + 2 * (depth - s) * pad), pad, wp)
                      * wp for s, c in enumerate([self.x.bands] + [len(w) for w in self.weights])]
            first, second = max(stages[0::2]), max(stages[1::2])
            if self.lead:
                tap = self.lead * _stage_rows(rows, pad, wp) * wp
                first = max(first, tap)
                second = max(second, tap + self.x.bands * wp
                             * _stage_rows(min(self.x.height, rows + 2 * pad), pad, wp))
            sizes = [max(sizes[0], *(w.shape[1] * _tile(w.shape[1]) for w in self.weights)),
                     first, second]
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
                ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(f1, f2)`` for rows [y0, y1): the (lead, y1 - y0, width) rows of
        the ``lead`` leading dims of this extraction and of ``other``, one of
        the same spec on a raster of the same shape, with the bits ``strip``
        gives them; the patch block of ``scratch`` is idle until ``scratch``
        is used again.  IDENTITY gives the strip's bands, and no ``lead``
        None and None.

        Otherwise layer 1 alone runs on the strip's rows of both rasters, so
        it computes no row twice.  This raster's input stage goes at the
        head of the second stage buffer and its rows in the first; then the
        other's input stage goes at the head of the second again, and its
        rows in the second's tail."""
        if self.spec.kind is ExtractorKind.IDENTITY:
            return self.x.data[:, y0:y1], other.x.data[:, y0:y1]
        if not self.lead:
            return None, None
        patch, first, second = scratch
        k = self.spec.kernel_size
        tail = len(second) - self.lead * _stage_rows(y1 - y0, self.pad, self.wp) * self.wp
        f1 = next(_conv_layers(self.x.data, self.weights[:1], k, y0, y1, (patch, second, first)))[1]
        f2 = next(_conv_layers(other.x.data, other.weights[:1], k, y0, y1,
                               (patch, second[:tail], second[tail:])))[1]
        return f1, f2


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


def _moments(a: np.ndarray, buf: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Count, per-dim mean and per-dim sum of squared deviations of a block
    whose first axis is the feature dim, in float64 by two passes over a
    float64 copy of as many dims at a time as ``_BLOCK`` entries hold, but
    at least one and no more than the flat float64 ``buf`` holds: ``buf``
    takes the copy and holds at least one dim.  The copy is C-contiguous,
    so the sums of each dim are NumPy's one-dimensional pairwise sums along
    its last axis, whatever the number of dims it takes, and its mean is
    that sum divided by the count, as ``ndarray.mean`` takes it."""
    n = a[0].size
    per = max(1, min(len(buf), _BLOCK) // n)
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


def _strip_magnitude(out: np.ndarray, held: np.ndarray, f1: np.ndarray | None,
                     f2: np.ndarray | None, sd: np.ndarray, dims: np.ndarray,
                     patch: np.ndarray) -> None:
    """Write rho = sqrt(sum_d (g_d / s_d)^2) of a strip's rows of a
    difference stack g and a per-dim std s, ``sd``, over the sorted live
    dims ``dims``, into the strip's (rows, width) float32 rows ``out``.  The
    D - L held dims of g are the strip's (D - L, rows, width) rows ``held``,
    and its L = len(sd) - len(held) leading ones are f2 - f1 of the (L,
    rows, width) rows ``f1`` and ``f2`` (None when L = 0).  ``patch`` is a
    flat float32 buffer of at least ``_patch_entries`` of the strip's
    pixels that holds nothing meanwhile.

    The live dims go in blocks of consecutive live dims (``_runs``); a dead
    dim ends a block.  A block's z, in a float32 buffer, is g's rows divided
    by their stds, or for the leading dims f2's rows less f1's, divided by
    the stds: the roundings of g = f2 - f1 and of its quotient.  z is
    copied to float64 rows 1.. of a block whose row 0 is the running total
    and squared there (squaring the float32 z to float64 would take NumPy's
    cast buffer), and ``np.add.reduce`` over the block's first axis adds
    those rows in order, so every pixel still adds its dims one at a time
    in dim order before the square root.  A block of one pixel is a column,
    which NumPy reduces as its first entry plus the pairwise sum of the
    rest, so it takes one dim.  Every pixel's sum thus makes the additions
    of a sum over the live dims of the whole stack, whatever the strips or
    blocks.  The float64 block, the total beside it and z share ``patch``,
    ``_PER_PIXEL`` entries a pixel for a block of one dim and 3 more for
    each dim after it, within its first ``_patch_entries``: the magnitude
    allocates nothing."""
    skip = len(sd) - len(held)
    rows, w = out.shape
    n = rows * w
    per = 1 if n == 1 else (_patch_entries(n) - 4 * n) // (3 * n)
    wide, narrow = patch[:2 * (per + 2) * n].view(np.float64), patch[2 * (per + 2) * n:]
    total = wide[(per + 1) * n:]
    total[...] = 0
    for d0, d1 in _runs(dims, skip, per):
        z = narrow[:(d1 - d0) * n].reshape(d1 - d0, rows, w)
        block = wide[:(d1 - d0 + 1) * n].reshape(-1, n)
        diff = (np.subtract(f2[d0:d1], f1[d0:d1], out=z) if d0 < skip
                else held[d0 - skip:d1 - skip])
        np.divide(diff, sd[d0:d1, None, None], out=z)
        block[0] = total
        squares = block[1:].reshape(z.shape)
        np.copyto(squares, z)
        np.square(squares, out=squares)
        np.add.reduce(block, axis=0, out=total)
    out[...] = np.sqrt(total, out=total).reshape(rows, w)


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
    of f2's, taken in one buffer of ``_BLOCK`` float64 entries, or of one
    dim of a block where that is more."""
    if f1.shape != f2.shape:
        raise ShapeMismatch(f"feature stacks differ: {f1.shape} vs {f2.shape}")
    d, buf = f1.shape[-1], np.empty(max(_BLOCK, _TILE))
    return _pooled(_moments(flat[t].T, buf) for flat in (f1.reshape(-1, d), f2.reshape(-1, d))
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
