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
  full-image patch matrix is never built.  Each GEMM tile lands in the
  interior of the next layer's padded rows, whose border is then filled by
  reflection in place, so no layer makes a padded copy or a separate
  output.  Unless the image is small, a layer holds only a ring of its
  padded rows, and the next layer takes each row as soon as it is final,
  so past the feature stack an extraction holds a few dozen rows a layer.
  Only the layers up to the deepest tap run, one tile at a time.
* ``PRECOMPUTED`` — features produced elsewhere (e.g. a real pretrained
  CNN), stored as one full-resolution CDR raster per tapped layer named
  ``layer_<i>.cdr`` inside ``feature_dir``.

Feature stacks are plain float32 arrays of shape (height, width, D).

An extraction runs on the thread that calls it.  ``dcva.detect_pair`` runs
the two extractions of a pair side by side, and the moment blocks of
``_pooled_std`` and its own magnitude blocks too, each on ``_pool_map``: at
most ``threads`` and at most ``_MAX_WORKERS`` worker threads, and never more
workers than pieces of work.  The pieces depend only on the image size,
every one is computed as the serial loop computes it, and results are
merged in the serial order, so the output is bit-identical for every thread
count.  NumPy releases the interpreter lock in the slice copies, the GEMMs
and the reductions, which is what the workers run.  A caller that gives no
``threads`` gets ``default_threads()``, which uses the cores only when
OpenBLAS runs one thread per call (see the package docstring), so the pool
never fights BLAS's own threads.
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
# magnitude worker holds about 6 MiB of blocks with the stock extractors and
# a moment worker half that, so this bounds what a pass adds to peak memory
# on a host with many cores.  The extractions of a pair are two pieces of
# work, so they take at most two workers, each with its own rings and patch
# block.
_MAX_WORKERS = 8


# Where the cgroup file systems are mounted, read by ``_cpu_quota``.
_CGROUP = Path("/sys/fs/cgroup")


def _cpu_quota(root: Path | None = None) -> int | None:
    """Whole CPUs the CPU quota of this process's cgroup allows, rounded up,
    or None when there is none: cgroup v2's ``cpu.max`` ("quota period", or
    "max period"), else cgroup v1's ``cpu/cpu.cfs_quota_us`` (-1 for none)
    over ``cpu/cpu.cfs_period_us``, under ``root`` (None: ``_CGROUP``)."""
    root = _CGROUP if root is None else root
    try:
        try:
            quota, period = (root / "cpu.max").read_text().split()
        except FileNotFoundError:
            quota, period = ((root / "cpu" / f"cpu.cfs_{f}_us").read_text().strip()
                             for f in ("quota", "period"))
        if quota in ("max", "-1"):
            return None
        return max(1, -(-int(quota) // int(period)))
    except (OSError, ValueError):
        return None


def default_threads() -> int:
    """Worker threads a detection runs on when its caller gives none.

    When OpenBLAS runs one thread per call (``OPENBLAS_NUM_THREADS=1``, which
    importing cdconf sets if NumPy is not loaded yet), the cores in this
    process's affinity mask, but no more than a CPU quota allows
    (``_cpu_quota``); otherwise 1, leaving the parallelism to OpenBLAS's own
    threads.
    """
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    quota = _cpu_quota()
    return cores if quota is None else min(cores, quota)


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


def _ring_rows(hp: int, wp: int, pad: int, chans: list[int]) -> list[int]:
    """Padded rows of the ring each stage of ``_conv_layers`` holds, for
    stages of ``chans`` channels (the input first).

    A tile writes at most ``span`` rows, and the next layer's next tile
    reads at most ``reach`` rows.  A ring that is not the last holds both
    and the pad-wide bottom border; the last one feeds no layer and holds
    ``span``.  Each ring also has a tail of one tile for the GEMM that
    wraps around it.  When these rings, all live at once, would
    take no less memory than the whole padded buffers of two adjacent
    layers, every ring is the whole buffer instead, and the layers run one
    after another.
    """
    def rows(positions: int) -> int:
        return -(-positions // wp) + 1

    span = rows(_TILE)
    reach = span + 2 * pad + 1
    want = [min(span + reach + pad, hp)] * (len(chans) - 1) + [min(span, hp)]
    whole = hp * wp * max(a + b for a, b in zip(chans, chans[1:]))
    if sum(c * (r * wp + _TILE) for c, r in zip(chans, want)) >= whole:
        return [hp] * len(chans)
    return want


class _Stage:
    """The input (stage 0) or one layer's output in ``_conv_layers``.

    While the stage is live, ``win`` is a ring of ``rows`` rows of its
    reflect-padded (c, hp, wp) buffer: padded row r sits in row r % rows,
    so position q of the flattened buffer sits at q % size of ``flat``,
    which runs ``tail`` positions past the ring for a GEMM that wraps.
    ``next`` is the next tile to run (the next image row to copy, for the
    input).  Padded rows below ``filled`` have their interior written; rows
    below ``final`` have their border too, and the next layer may read them.
    """

    __slots__ = ("channels", "rows", "size", "tail", "win", "flat", "next", "filled", "final")

    def __init__(self, channels: int, rows: int, tail: int, wp: int, pad: int):
        self.channels, self.rows, self.size, self.tail = channels, rows, rows * wp, tail
        self.win = self.flat = None
        self.next = self.final = 0
        self.filled = pad

    def start(self) -> None:
        self.flat = np.empty((self.channels, self.size + self.tail), np.float32)
        self.win = self.flat[:, :self.size].reshape(self.channels, self.rows, -1)

    def stop(self) -> None:
        self.win = self.flat = None

    def pieces(self, lo: int, hi: int) -> list[tuple[int, np.ndarray]]:
        """Padded rows [lo, hi) as (first row, view) pieces: one, or two
        where the rows wrap around the ring."""
        out = []
        while lo < hi:
            a = lo % self.rows
            n = min(hi - lo, self.rows - a)
            out.append((lo, self.win[:, a:a + n]))
            lo += n
        return out

    def read(self, dst: np.ndarray, q: int) -> None:
        """Copy flattened positions [q, q + m) into the (c, m) ``dst``."""
        m, o = dst.shape[-1], q % self.size
        n = min(m, self.size - o)
        dst[:, :n] = self.flat[:, o:o + n]
        if n < m:
            dst[:, n:] = self.flat[:, :m - n]


def _conv_layers(x: np.ndarray, weights: tuple[np.ndarray, ...], k: int):
    """Run the convolution + rectifier layers on a (c_in, h, w) stack and
    yield ``(layer, y, band)`` for each band of finished rows: ``band`` is a
    (c_out, rows, w) view of image rows y.. of the 1-based ``layer``'s
    output, valid until the next band is yielded.

    Every layer reads a reflect-padded (c, hp, wp) buffer through ``flat`` of
    shape (c, hp*wp).  Output pixel (y, x) is column p = y*wp + x, and its
    patch entry (c, dy, dx) is ``flat[c, p + dy*wp + dx]``, so the patches of
    a run of consecutive p are k*k contiguous slices of ``flat``.  Columns are
    walked in the tiles of ``_blocks(n)``, the same for every layer and every
    image height: each tile fills a (c, k, k, tile) patch block and runs one
    GEMM whose result is rectified where it lands, at column p + pad*wp + pad
    of the next layer's padded buffer, which is pixel (y, x) of its interior.
    The wp - w columns after each row wrap around into the border, which is
    reflected over them once the row is written.

    Unless the image is small, no layer holds its whole padded buffer but a
    ring of rows (``_ring_rows``), and the layers advance as a wavefront.
    Each step runs the next tile of the deepest layer whose tile reads only
    final rows and writes only free ones, with the one patch block of the
    extraction; else it copies as many input rows as fit; else it starts the
    next layer, once nothing else can run (the layer before it is done or
    has filled its ring).  A step reflects the borders of the rows it
    finished and hands them on, and a layer's ring is freed once the next
    layer is done.  A tile whose slices wrap around a ring is copied in two
    pieces, and a GEMM that wraps lands in the ring's tail and is moved to
    its start, so every GEMM has the operands and shape it would have with
    whole buffers, and the output does not depend on the rings or on the
    order of the tiles.
    """
    c_in, h, w = x.shape
    pad = k // 2
    if pad and min(h, w) <= pad:
        raise ShapeMismatch(
            f"image {h}x{w} too small for reflection padding of a {k}x{k} kernel"
        )
    hp, wp = h + 2 * pad, w + 2 * pad
    n = (h - 1) * wp + w
    shift = pad * wp + pad
    tiles = _blocks(n)
    width = min(_TILE, n)
    chans = [c_in] + [len(weights_l) for weights_l in weights]
    last = len(weights)
    stages = [_Stage(c, r, width if r < hp else 0, wp, pad)
              for c, r in zip(chans, _ring_rows(hp, wp, pad, chans))]
    buf = np.empty(max(chans[:-1]) * k * k * width, np.float32)

    def keep(s: int) -> int:
        """First padded row of stage s that a tile may still read or write."""
        st = stages[s]
        if s == last:
            return st.filled
        after = stages[s + 1]
        if after.win is None:
            return 0
        return min(st.filled, tiles[after.next].start // wp)

    def ready(s: int) -> bool:
        """Whether layer s can run its next tile now."""
        st = stages[s]
        j = st.next
        if j == len(tiles) or (tiles[j].stop - 1 + 2 * shift) // wp >= stages[s - 1].final:
            return False
        end = hp - 1 if j + 1 == len(tiles) and s < last else (shift + tiles[j].stop - 1) // wp
        return end < keep(s) + st.rows

    def input_end() -> int:
        """Image row up to which the input can be copied now."""
        room = keep(0) + stages[0].rows
        end = min(h, room - pad)
        return h - 1 if end == h and hp > room else end

    def copy_input(end: int) -> None:
        """Copy image rows up to ``end`` into the input's ring."""
        st = stages[0]
        for r, band in st.pieces(pad + st.next, pad + end):
            band[:, :, pad:pad + w] = x[:, r - pad:r - pad + band.shape[1]]
        st.next = end

    def run_tile(s: int) -> int:
        """Run layer s's next tile; return the padded row its stage is now
        written up to."""
        src, st, weights_l = stages[s - 1], stages[s], weights[s - 1]
        c_in = src.channels
        block = buf[:c_in * k * k * width].reshape(c_in, k, k, width)
        t = tiles[st.next]
        st.next += 1
        m = t.stop - t.start
        for dy in range(k):
            for dx in range(k):
                src.read(block[:, dy, dx, :m], t.start + dy * wp + dx)
        rows = block.reshape(c_in * k * k, width)[:, :m]
        o = (shift + t.start) % st.size
        tile = st.flat[:, o:o + m]
        np.matmul(weights_l, rows, out=tile)
        np.maximum(tile, 0.0, out=tile)
        if o + m > st.size:
            # channel by channel: NumPy would buffer a copy between two
            # column ranges of the whole 2-d ring, whose extents overlap
            for row in st.flat:
                row[:o + m - st.size] = row[st.size:o + m]
        return pad + h if st.next == len(tiles) else (shift + t.stop) // wp

    def advance(s: int, filled: int):
        """Take stage s's interior as written up to padded row ``filled``:
        reflect the border of the new rows as ``np.pad(mode="reflect")``
        does (their border columns, the top rows once rows up to 2*pad are
        in, the bottom rows at the end), mark them final, and yield them."""
        st = stages[s]
        lo, st.filled = st.filled, filled
        if s < last:
            for _, band in st.pieces(lo, filled):
                for i in range(1, pad + 1):
                    band[:, :, pad - i] = band[:, :, pad + i]
                    band[:, :, wp - 1 - pad + i] = band[:, :, wp - 1 - pad - i]
            if lo <= 2 * pad < filled:
                # the ring has not wrapped yet: no layer reads it before this
                for i in range(1, pad + 1):
                    st.win[:, pad - i] = st.win[:, pad + i]
            if filled == pad + h:
                for i in range(1, pad + 1):
                    st.win[:, (hp - 1 - pad + i) % st.rows] = st.win[:, (hp - 1 - pad - i) % st.rows]
                st.final = hp
            elif filled > 2 * pad:
                st.final = filled
        if s:
            for r, band in st.pieces(lo, filled):
                yield s, r - pad, band[:, :, pad:pad + w]

    live = 0
    stages[0].start()
    while stages[last].next < len(tiles):
        s = next((s for s in range(live, 0, -1) if ready(s)), None)
        if s is not None:
            yield from advance(s, run_tile(s))
            if stages[s].next == len(tiles):
                stages[s - 1].stop()
        elif stages[0].next < h and (end := input_end()) > stages[0].next:
            copy_input(end)
            yield from advance(0, pad + end)
        elif live < last:
            live += 1
            stages[live].start()
        else:
            raise RuntimeError("conv layer rings too small to advance")


def extract(spec: ExtractorSpec, x: Raster) -> np.ndarray:
    """Compute per-pixel features: a float32 (height, width, D) array.

    Pure function of (spec, x): repeated calls are bit-identical.  A
    random-conv extraction runs only the layers up to its deepest tap, on the
    calling thread, and copies each finished row band of a tapped layer into
    the stack as the band comes out of ``_conv_layers``; past the stack it
    holds the rings of padded layer rows and one patch block.
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
    weights = _conv_weights(spec, x.bands)[:spec.taps[-1]]
    features = np.empty((x.height, x.width, spec.expected_dims(x.bands)), np.float32)
    for layer, y, band in _conv_layers(x.data, weights, spec.kernel_size):
        if layer in spec.taps:
            d = spec.taps.index(layer) * spec.channels
            features[y:y + band.shape[1], :, d:d + spec.channels] = band.transpose(1, 2, 0)
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
