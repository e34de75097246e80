"""Pluggable per-pixel feature extraction for bi-temporal image pairs.

Three extractor kinds:

* ``IDENTITY`` — features are the raw band values (D = bands).
* ``RANDOM_CONV`` — a stack of seeded random convolution layers (weights
  drawn once from N(0,1)/sqrt(fan_in), zero bias, rectifier, reflection
  padding keeps spatial size); the channel maps of the tapped layers are
  concatenated per pixel.  Layer indices are 1-based, so taps live in
  [1, depth] and tapping the last layer is spelled ``depth``.  Each layer
  is one GEMM per tile of output pixels: in the row-major flattened padded
  image, the k*k patch entries of consecutive pixels are k*k contiguous
  slices, so a tile's patch block is filled by plain slice copies and the
  full-image patch matrix is never built.  The input is padded once; each
  GEMM tile lands in the interior of the next layer's padded buffer, whose
  border is then filled by reflection in place, so past the input no layer
  makes a padded copy or a separate output.
* ``PRECOMPUTED`` — features produced elsewhere (e.g. a real pretrained
  CNN), stored as one full-resolution CDR raster per tapped layer named
  ``layer_<i>.cdr`` inside ``feature_dir``.

Feature stacks are plain float32 arrays of shape (height, width, D).

Parallelism lives inside one extraction and one pair of moments: with
``threads`` above 1, each conv layer's tiles are cut into one run per worker
(each worker with its own patch block) and the moment blocks are taken side
by side, on a pool of at most ``threads`` and at most ``_MAX_WORKERS`` worker
threads, and never more workers than pieces of work.  The pieces depend only
on the image size, every one is computed as the serial loop computes it, and
results are merged in the serial order, so the output is bit-identical for
every thread count.  NumPy releases the interpreter lock in the slice copies,
the GEMMs and the reductions, which is what the workers run.  A caller that
gives no ``threads`` gets ``default_threads()``, which uses the cores only
when OpenBLAS runs one thread per call (see the package docstring), so the
pool never fights BLAS's own threads.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import EmptyTapSet, RejectedValue, ShapeMismatch
from .raster import Raster, load_raster
from .rng import ROLE_F1_WEIGHTS, ROLE_F2_WEIGHTS, generator, mix64


class ExtractorKind(Enum):
    IDENTITY = "identity"
    RANDOM_CONV = "random_conv"
    PRECOMPUTED = "precomputed"


@dataclass(frozen=True)
class ExtractorSpec:
    """Immutable description of a feature extractor.

    ``taps`` is canonicalized to a sorted duplicate-free tuple so two specs
    naming the same layer set hash equally (the weight cache keys on the
    spec).  Fields other than ``kind`` are ignored where they do not apply:
    IDENTITY uses none of them, PRECOMPUTED uses only ``taps`` and
    ``feature_dir``.
    """

    kind: ExtractorKind = ExtractorKind.RANDOM_CONV
    depth: int = 6
    taps: tuple[int, ...] = (2, 4, 6)
    channels: int = 8
    kernel_size: int = 3
    seed: int = 0
    feature_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "taps", tuple(sorted(set(int(t) for t in self.taps))))
        if self.kind is ExtractorKind.IDENTITY:
            return
        if not self.taps:
            raise EmptyTapSet(f"{self.kind.value} extractor needs at least one tapped layer")
        if self.kind is ExtractorKind.PRECOMPUTED:
            if self.feature_dir is None:
                raise RejectedValue("precomputed extractor needs feature_dir")
            return
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

    def expected_dims(self, in_bands: int) -> int | None:
        """Feature dimensionality D, or None when it depends on stored files."""
        if self.kind is ExtractorKind.IDENTITY:
            return in_bands
        if self.kind is ExtractorKind.RANDOM_CONV:
            return len(self.taps) * self.channels
        return None


def default_primary_spec(master_seed: int = 0, *, depth: int = 6,
                         taps: tuple[int, ...] = (2, 4, 6),
                         channels: int = 16) -> ExtractorSpec:
    """Stock detection extractor: deep, taps spread over depth.

    16 channels/layer: narrower stacks leave some dims nearly dead after the
    rectifier, and pooled standardization then blows their quantization noise
    into a heavy magnitude tail that drags the histogram threshold off the
    change mode.
    """
    return ExtractorSpec(depth=depth, taps=taps, channels=channels,
                         seed=mix64(master_seed, ROLE_F1_WEIGHTS))


def default_secondary_spec(master_seed: int = 0, *, depth: int = 3,
                           taps: tuple[int, ...] = (1, 3),
                           channels: int = 48) -> ExtractorSpec:
    """Stock voting extractor: shallower (applied K times per run), wider.

    48 channels/layer keeps the vote stable across scene draws and across
    perturbation strength; narrower variants intermittently miss the change
    entirely on some scenes, and then no pixel can be confirmed as changed.
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


# Pixels per block: output columns per patch block of a conv layer, and
# pixels per block of the moment and magnitude passes.  A (c_in*k*k, _TILE)
# float32 patch block stays small while each GEMM is still wide enough to
# run at speed.
_TILE = 4096


def _blocks(n: int) -> list[slice]:
    """Slices covering [0, n) in order, _TILE long but for a ragged last one."""
    return [slice(p, min(p + _TILE, n)) for p in range(0, n, _TILE)]


# Most worker threads one pass runs on, whatever ``threads`` asks for.  A
# conv worker holds its own patch block, up to 48*3*3*_TILE float32 (6.75 MiB)
# with the stock extractors, and a magnitude worker about as much, so this
# bounds what the pool adds to peak memory on a host with many cores.
_MAX_WORKERS = 8


def default_threads() -> int:
    """Worker threads a detection runs on when its caller gives none.

    When OpenBLAS runs one thread per call (``OPENBLAS_NUM_THREADS=1``, which
    importing cdconf sets if NumPy is not loaded yet), the cores in this
    process's affinity mask; otherwise 1, leaving the parallelism to
    OpenBLAS's own threads.  A CPU quota is not counted.
    """
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(threads: int | None, items: int) -> int:
    """Worker threads for ``items`` pieces of work: ``threads`` (None means
    ``default_threads()``, and below 1 counts as 1), but at most
    ``_MAX_WORKERS`` and at most ``items``."""
    if threads is None:
        threads = default_threads()
    return max(1, min(threads, items, _MAX_WORKERS))


def _pool_map(fn, items: list, threads: int | None) -> list:
    """``[fn(i) for i in items]``, on ``_workers(threads, len(items))`` worker
    threads when that is above 1; the results come back in the order of
    ``items`` either way."""
    workers = _workers(threads, len(items))
    if workers == 1:
        return [fn(i) for i in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _reflect_border(buf: np.ndarray, pad: int) -> None:
    """Fill the pad-wide border of a (c, h + 2*pad, w + 2*pad) buffer in place
    by reflecting its interior, as ``np.pad(mode="reflect")`` does: border
    columns of the interior rows first, then whole border rows."""
    if not pad:
        return
    hp, wp = buf.shape[1:]
    rows = buf[:, pad:hp - pad]
    for i in range(1, pad + 1):
        rows[:, :, pad - i] = rows[:, :, pad + i]
        rows[:, :, wp - 1 - pad + i] = rows[:, :, wp - 1 - pad - i]
    for i in range(1, pad + 1):
        buf[:, pad - i] = buf[:, pad + i]
        buf[:, hp - 1 - pad + i] = buf[:, hp - 1 - pad - i]


def _conv_layers(x: np.ndarray, weights: tuple[np.ndarray, ...], k: int,
                 threads: int | None = None):
    """Run the convolution + rectifier layers on a (c_in, h, w) stack and
    yield each layer's (c_out, h, w) output as a view that stays valid until
    the next one is yielded.

    Every layer reads a reflect-padded (c, hp, wp) buffer through ``flat`` of
    shape (c, hp*wp).  Output pixel (y, x) is column p = y*wp + x, and its
    patch entry (c, dy, dx) is ``flat[c, p + dy*wp + dx]``, so the patches of
    a run of consecutive p are k*k contiguous slices of ``flat``.  Columns are
    walked in tiles of ``_TILE``: each tile fills a (c, k, k, tile) patch
    block and runs one GEMM whose result is rectified where it lands, at
    column p + pad*wp + pad of the next layer's padded buffer, which is pixel
    (y, x) of its interior.  The tiles are cut into ``_workers(threads,
    tiles)`` runs, one per worker, and each worker reuses one patch block for
    its run; tiles write disjoint columns, so they need no lock.  The wp - w
    columns after each row wrap around into the border, which
    ``_reflect_border`` overwrites once every tile has landed.  Two padded buffers take turns as
    input and output, so a layer copies nothing of image size.
    """
    c_in, h, w = x.shape
    pad = k // 2
    if pad and min(h, w) <= pad:
        raise ShapeMismatch(
            f"image {h}x{w} too small for reflection padding of a {k}x{k} kernel"
        )
    hp, wp = h + 2 * pad, w + 2 * pad
    src = np.empty((c_in, hp, wp), np.float32)
    src[:, pad:pad + h, pad:pad + w] = x
    _reflect_border(src, pad)
    n = (h - 1) * wp + w
    shift = pad * wp + pad
    tiles = _blocks(n)
    parts = _workers(threads, len(tiles))
    runs = [tiles[i * len(tiles) // parts:(i + 1) * len(tiles) // parts] for i in range(parts)]
    spare = None
    for weights_l in weights:
        c_in, c_out = len(src), len(weights_l)
        if spare is None or len(spare) != c_out:
            spare = np.empty((c_out, hp, wp), np.float32)
        flat, out = src.reshape(c_in, -1), spare.reshape(c_out, -1)

        def run_tiles(run: list[slice]) -> None:
            block = np.empty((c_in, k, k, min(_TILE, n)), np.float32)
            rows = block.reshape(c_in * k * k, -1)
            for t in run:
                m = t.stop - t.start
                for dy in range(k):
                    for dx in range(k):
                        s = t.start + dy * wp + dx
                        block[:, dy, dx, :m] = flat[:, s:s + m]
                tile = out[:, shift + t.start:shift + t.stop]
                np.matmul(weights_l, rows[:, :m], out=tile)
                np.maximum(tile, 0.0, out=tile)

        _pool_map(run_tiles, runs, threads)
        _reflect_border(spare, pad)
        yield spare[:, pad:pad + h, pad:pad + w]
        src, spare = spare, src


def extract(spec: ExtractorSpec, x: Raster, threads: int | None = None) -> np.ndarray:
    """Compute per-pixel features: a float32 (height, width, D) array.

    Pure function of (spec, x): repeated calls are bit-identical, whatever
    ``threads`` is.  A random-conv extraction runs its conv tiles on up to
    ``threads`` worker threads (None: ``default_threads()``).
    """
    if spec.kind is ExtractorKind.IDENTITY:
        return np.ascontiguousarray(x.data.transpose(1, 2, 0))
    if spec.kind is ExtractorKind.PRECOMPUTED:
        layers = []
        for tap in spec.taps:
            r = load_raster(Path(spec.feature_dir) / f"layer_{tap}.cdr")
            if (r.height, r.width) != (x.height, x.width):
                raise ShapeMismatch(
                    f"layer_{tap}.cdr is {r.height}x{r.width}, image is {x.height}x{x.width}"
                )
            layers.append(r.data)
        return np.ascontiguousarray(np.concatenate(layers, axis=0).transpose(1, 2, 0))
    weights = _conv_weights(spec, x.bands)
    features = np.empty((x.height, x.width, spec.expected_dims(x.bands)), np.float32)
    layers = _conv_layers(x.data, weights, spec.kernel_size, threads)
    for layer_idx, stack in enumerate(layers, start=1):
        if layer_idx in spec.taps:
            d = spec.taps.index(layer_idx) * spec.channels
            features[:, :, d:d + spec.channels] = stack.transpose(1, 2, 0)
    return features


def _pooled_std(f1: np.ndarray, f2: np.ndarray,
                threads: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-dim pooled population std of two equally shaped stacks as float32,
    and the mask of live dims, those whose std is at least 1e-12.

    The moments are float64 and taken block by block: each block of
    ``_TILE`` pixels gives its count, two-pass mean and sum of squared
    deviations, on up to ``threads`` worker threads, and the caller merges
    the blocks of both stacks in order by Chan, Golub and LeVeque's pairwise
    update, so the result does not depend on ``threads``.  No float64 copy of
    a whole stack is made, and a dim that is constant over both stacks gets a
    variance of exactly 0.
    """
    if f1.shape != f2.shape:
        raise ShapeMismatch(f"feature stacks differ: {f1.shape} vs {f2.shape}")
    d = f1.shape[-1]

    def moments(block: tuple[np.ndarray, slice]) -> tuple[int, np.ndarray, np.ndarray]:
        flat, t = block
        dev = flat[t].astype(np.float64)
        bmean = dev.mean(axis=0)
        dev -= bmean
        np.square(dev, out=dev)
        return len(dev), bmean, dev.sum(axis=0)

    blocks = [(flat, t) for flat in (f1.reshape(-1, d), f2.reshape(-1, d))
              for t in _blocks(len(flat))]
    count, mean, m2 = 0, np.zeros(d), np.zeros(d)
    for n, bmean, bm2 in _pool_map(moments, blocks, threads):
        delta = bmean - mean
        total = count + n
        mean += delta * (n / total)
        m2 += bm2 + delta ** 2 * (count * n / total)
        count = total
    sd = np.sqrt(m2 / count)
    return sd.astype(np.float32), sd >= 1e-12


def standardize_pair(f1: np.ndarray, f2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each feature dimension of both stacks by its pooled population std.

    Pooling keeps the two acquisitions comparable without erasing genuine
    global change the way per-image standardization would.  The pooled mean
    is not subtracted: a change detector differences the two outputs, and a
    mean shared by both cancels there.  The std comes from ``_pooled_std``'s
    blockwise float64 moments, so no concatenated or float64 copy of the pair
    is made.  Dimensions whose pooled std is below 1e-12 are zeroed in both
    float32 outputs.  ``dcva.detect_pair`` does not call this: it applies the
    same per-dim division block by block inside its magnitude pass.
    """
    sd, live = _pooled_std(f1, f2)
    return tuple(np.divide(f, sd, out=np.zeros(f.shape, np.float32), where=live) for f in (f1, f2))
