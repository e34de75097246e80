"""Independent brute-force reference implementations for oracle-backed tests.

Each oracle recomputes a result with a deliberately different (slower, more
literal) algorithm than the library so agreement is evidence, not tautology.
"""

import numpy as np

from cdconf.features import ExtractorKind, _conv_layers, _conv_weights


def live_reference(sd: np.ndarray) -> np.ndarray:
    """Live dims of a float64 per-dim std by ``np.median``: at least 1e-12,
    and at least a tenth of the median std of the dims that pass 1e-12
    (all dims dead when none does)."""
    passed = sd >= 1e-12
    if not passed.any():
        return passed
    return passed & (sd >= 0.1 * np.median(sd[passed]))


def zscore_pair_reference(f1: np.ndarray, f2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pooled z-scores in float64 from the concatenated pair, mean subtracted.

    The textbook formula: mean and population std of each dimension over
    both stacks together; dimensions that ``live_reference`` finds dead are
    zeroed.
    """
    d = f1.shape[-1]
    pooled = np.concatenate([f1.reshape(-1, d), f2.reshape(-1, d)]).astype(np.float64)
    mu = pooled.mean(axis=0)
    sd = pooled.std(axis=0)
    dead = ~live_reference(sd)
    scale = np.where(dead, 1.0, sd)
    z1 = np.where(dead, 0.0, (f1 - mu) / scale)
    z2 = np.where(dead, 0.0, (f2 - mu) / scale)
    return z1, z2


def conv_relu_reference(stack: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """One convolution + rectifier layer in float64 by a sum over kernel offsets.

    ``weights`` is a (c_out, c_in*k*k) matrix with columns in (c, dy, dx)
    order.  For each offset (dy, dx) the shifted window of the
    reflect-padded stack is weighted by its (c_out, c_in) slice and added.
    """
    c_in, h, w = stack.shape
    pad = k // 2
    padded = np.pad(stack.astype(np.float64), ((0, 0), (pad, pad), (pad, pad)), mode="reflect")
    wk = weights.astype(np.float64).reshape(-1, c_in, k, k)
    out = np.zeros((wk.shape[0], h, w))
    for dy in range(k):
        for dx in range(k):
            window = padded[:, dy:dy + h, dx:dx + w]
            out += np.tensordot(wk[:, :, dy, dx], window, axes=(1, 0))
    return np.maximum(out, 0.0)


def conv_relu_tiled_reference(stack: np.ndarray, weights: np.ndarray, k: int,
                              tile: int = 4096) -> np.ndarray:
    """One convolution + rectifier layer by a padded copy and a tile loop.

    The stack is copied into a reflect-padded (c_in, hp, wp) array by
    ``np.pad``; output column p = y*wp + x of a separate (c_out, h*wp) result
    is the GEMM of its patch entries ``flat[c, p + dy*wp + dx]`` in
    (c, dy, dx) order, ``tile`` columns at a time from p = 0, each block
    zero-padded to a multiple of 16 columns, and the wp - w wrap-around
    columns of each row are dropped.  Every GEMM width and the operand order
    match the streamed extractor's, so the two agree bit for bit while
    sharing none of its buffer layout or its cuts into strips.
    """
    c_in, h, w = stack.shape
    pad = k // 2
    padded = np.pad(stack, ((0, 0), (pad, pad), (pad, pad)), mode="reflect")
    wp = w + 2 * pad
    flat = padded.reshape(c_in, -1)
    n = (h - 1) * wp + w
    out = np.empty((weights.shape[0], h * wp), np.float32)
    for p0 in range(0, n, tile):
        m = min(tile, n - p0)
        block = np.zeros((c_in, k, k, -(-m // 16) * 16), np.float32)
        for dy in range(k):
            for dx in range(k):
                block[:, dy, dx, :m] = flat[:, p0 + dy * wp + dx:p0 + dy * wp + dx + m]
        gemm = weights @ block.reshape(c_in * k * k, -1)
        out[:, p0:p0 + m] = np.maximum(gemm[:, :m], 0.0)
    return out.reshape(-1, h, wp)[:, :, :w]


def standardized_magnitude_reference(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Magnitude of the pooled-standardized difference from whole-stack copies.

    Per-dim pooled std from each stack's ``np.mean``/``np.var`` in float64,
    (v1 + v2)/2 + ((m1 - m2)/2)^2, rounded to float32; the float32
    difference g = f2 - f1 of the whole stacks; each dim of g divided by its
    std in float32, the dims that ``live_reference`` finds dead left out;
    then the float64 sum of their squares, added one dim at a time in dim
    order, and its square root, rounded to float32.
    """
    axes = tuple(range(f1.ndim - 1))
    m1, m2 = (f.mean(axis=axes, dtype=np.float64) for f in (f1, f2))
    v1, v2 = (f.var(axis=axes, dtype=np.float64) for f in (f1, f2))
    sd = np.sqrt((v1 + v2) / 2 + ((m1 - m2) / 2) ** 2)
    live = live_reference(sd)
    sd = sd.astype(np.float32)
    g = f2 - f1
    total = np.zeros(g.shape[:-1])
    for d in np.flatnonzero(live):
        total += (g[..., d] / sd[d]).astype(np.float64) ** 2
    return np.sqrt(total).astype(np.float32)


def otsu_bin_bruteforce(values: np.ndarray, bins: int = 256) -> int:
    """Between-class-variance argmax by direct per-threshold float64 sweep.

    Work is O(bins^2): every candidate threshold recomputes its class sums
    from scratch via a triangular indicator matrix. Returns the chosen bin
    index (ties to the lowest index). Caller handles the constant-map case.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    lo, hi = values.min(), values.max()
    assert hi > lo, "constant maps never reach the sweep"
    idx = np.minimum(((values - lo) / (hi - lo) * bins).astype(np.int64), bins - 1)
    counts = np.bincount(idx, minlength=bins).astype(np.float64)
    centers = np.arange(bins, dtype=np.float64)
    # tri[t, i] = 1 for i <= t: row t holds class-0 membership for threshold t
    tri = np.tril(np.ones((bins, bins)))
    n = counts.sum()
    c0 = tri @ counts
    s0 = tri @ (centers * counts)
    total = (centers * counts).sum()
    c1 = n - c0
    s1 = total - s0
    valid = (c0 > 0) & (c1 > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mu0 = s0 / c0
        mu1 = s1 / c1
        sigma_b = (c0 / n) * (c1 / n) * (mu0 - mu1) ** 2
    sigma_b = np.where(valid, sigma_b, 0.0)
    return int(np.argmax(sigma_b))


def otsu_tau_bruteforce(values: np.ndarray, bins: int = 256) -> float:
    """Data-unit threshold from the brute-force bin choice."""
    values = np.asarray(values, dtype=np.float64).ravel()
    lo, hi = values.min(), values.max()
    if hi == lo:
        return float(lo)
    t = otsu_bin_bruteforce(values, bins)
    return float(lo + (t + 1) * (hi - lo) / bins)


def rcva_bruteforce(x1: np.ndarray, x2: np.ndarray, w: int) -> np.ndarray:
    """Neighborhood-robust magnitude by literal per-pixel loops.

    For every pixel, scans the truncated (2w+1)^2 window in both directions
    with plain Python loops and float64 arithmetic; returns the pixel-wise
    max of the two directional minima's square roots.
    """
    b, h, wd = x1.shape
    x1 = x1.astype(np.float64)
    x2 = x2.astype(np.float64)
    rho = np.zeros((h, wd))
    for y in range(h):
        for x in range(wd):
            best12 = np.inf
            best21 = np.inf
            for qy in range(max(0, y - w), min(h, y + w + 1)):
                for qx in range(max(0, x - w), min(wd, x + w + 1)):
                    d12 = 0.0
                    d21 = 0.0
                    for band in range(b):
                        d12 += (x2[band, qy, qx] - x1[band, y, x]) ** 2
                        d21 += (x1[band, qy, qx] - x2[band, y, x]) ** 2
                    best12 = min(best12, d12)
                    best21 = min(best21, d21)
            rho[y, x] = max(np.sqrt(best12), np.sqrt(best21))
    return rho


def _directional_min_sq(ref: np.ndarray, cand: np.ndarray, w: int) -> np.ndarray:
    """Per pixel p: min over the window around p of sum_b (cand(q,b) - ref(p,b))^2,
    by a loop over window offsets on the in-bounds sub-rectangle of each."""
    _, h, wd = ref.shape
    best = np.full((h, wd), np.inf)
    ry, rx = min(w, h - 1), min(w, wd - 1)
    for dy in range(-ry, ry + 1):
        for dx in range(-rx, rx + 1):
            y0, y1 = max(0, -dy), min(h, h - dy)
            x0, x1 = max(0, -dx), min(wd, wd - dx)
            diff = cand[:, y0 + dy : y1 + dy, x0 + dx : x1 + dx] - ref[:, y0:y1, x0:x1]
            d2 = np.sum(diff.astype(np.float64) ** 2, axis=0)
            region = best[y0:y1, x0:x1]
            np.minimum(region, d2, out=region)
    return best


def rcva_two_pass_reference(x1: np.ndarray, x2: np.ndarray, w: int) -> np.ndarray:
    """Neighborhood-robust magnitude with one pass over the window offsets
    per match direction: each direction computes its own squared band
    distance maps, and the float32 result is the max of the two minima's
    square roots.  Same arithmetic per value as the library's shared map,
    so the two agree bit for bit."""
    rho12 = np.sqrt(_directional_min_sq(x1, x2, w))
    rho21 = np.sqrt(_directional_min_sq(x2, x1, w))
    return np.maximum(rho12, rho21).astype(np.float32)


def patch_columns(fan_in: int) -> int:
    """Columns of a patch block of a layer with ``fan_in`` rows: as many as
    keep the block within 432 x 1024 float32 entries, rounded down to 16,
    but at least 16 and at most 4096."""
    return max(16, min(4096, 432 * 1024 // fan_in) // 16 * 16)


def recomputed_dims(spec, bands: int) -> int:
    """Leading feature dims a detection recomputes rather than holds: the
    channels of layer 1 of a random-conv spec that taps layer 1 and a deeper
    layer, when layer 1's multiply-adds a pixel (channels * bands * k * k)
    are fewer than those of layers 2 to the deepest tap (channels *
    channels * k * k each); 0 otherwise.  An identity spec holds none: its
    features are the bands themselves."""
    if spec.kind is ExtractorKind.IDENTITY:
        return bands
    if spec.taps[0] != 1 or len(spec.taps) == 1:
        return 0
    k2 = spec.kernel_size ** 2
    first = spec.channels * bands * k2
    rest = (spec.taps[-1] - 1) * spec.channels * spec.channels * k2
    return spec.channels if first < rest else 0


def strip_partition(spec, bands: int, h: int, w: int) -> list[tuple[int, int]]:
    """Row ranges of the strips of an extraction of an h x w raster of
    ``bands`` bands, from the rule alone.  A random-conv strip is at least
    four halos tall, 8 * depth * pad rows over the layers up to the deepest
    tap, and otherwise as many rows of w values as hold 24 * 16384 values
    of its widest stage, the most of the bands and the channels; an
    identity strip holds at most 16384 pixels, or one row.  Under that
    bound, the fewest strips of heights that differ by at most one row,
    strip i of n ending at row h * (i + 1) // n."""
    if spec.kind is ExtractorKind.IDENTITY:
        most = max(1, 16384 // w)
    else:
        halo = 2 * spec.taps[-1] * (spec.kernel_size // 2)
        most = max(1, 4 * halo, 24 * 16384 // (max(bands, spec.channels) * w))
    n = -(-h // most)
    ends = [h * (i + 1) // n for i in range(n)]
    return list(zip([0] + ends[:-1], ends))


def strip_worker_nbytes(spec, bands: int, h: int, w: int) -> int:
    """Bytes one strip worker of a detection of an h x w image may hold,
    counted from the strip layout alone: one float32 allocation of a patch
    block of the most entries over the layers up to the deepest tap, each
    ``patch_columns`` wide, and two stage buffers.  A stage is a layer's
    rows (the input's as layer 0) of the tallest strip, with the halo rows
    of every layer after it up to the deepest tap, clipped to the image,
    plus its border rows and the rows that 16 columns spill into.  The
    first buffer holds the tallest of the input stage and the even layers,
    the second the tallest odd layer.  When a leading tap is recomputed
    (``recomputed_dims``), the first also holds at least the layer-1 stage
    of the tallest strip, and the second at least that stage after an input
    stage of the strip's rows and one layer's halo.  The moments and the
    magnitude pass work in these buffers, so they add nothing while three
    dims' rows of the tallest strip fit in ``features._BLOCK`` float64
    entries of the patch block.  Beside it, two float32 buffers of
    ``np.getbufsize()`` entries, which NumPy may take to iterate an
    elementwise operation over strided rows of a stage.  An identity detection runs no layer: its worker holds
    a patch block of 2 * 2**17 float32 entries for the float64 blocks and a
    buffer of 2**17 for the magnitude pass's quotients."""
    rows = max(y1 - y0 for y0, y1 in strip_partition(spec, bands, h, w))
    if spec.kind is ExtractorKind.IDENTITY:
        patch, first, second = 2 * 2**17, 2**17, 0
    else:
        k2, pad, depth = spec.kernel_size ** 2, spec.kernel_size // 2, spec.taps[-1]
        wp = w + 2 * pad
        extra = 2 * pad - (-16 // wp)
        stages = [c * (min(h, rows + 2 * (depth - layer) * pad) + extra) * wp
                  for layer, c in enumerate([bands] + [spec.channels] * depth)]
        first, second = max(stages[0::2]), max(stages[1::2])
        if recomputed_dims(spec, bands):
            tap = spec.channels * (rows + extra) * wp
            first = max(first, tap)
            second = max(second, bands * (min(h, rows + 2 * pad) + extra) * wp + tap)
        fan_ins = [bands * k2] + [spec.channels * k2] * (depth - 1)
        patch = max(k * patch_columns(k) for k in fan_ins)
    assert 3 * rows * w <= min(patch // 2, 2**17)
    return 4 * (patch + first + second) + 8 * np.getbufsize()


def whole_stack_magnitude_reference(g: np.ndarray, sd: np.ndarray, live: np.ndarray) -> np.ndarray:
    """rho of a whole (D, height, width) difference stack and a float32
    per-dim std with its live mask, as a detection took it while it held
    every dim of g: blocks of 4096 pixels, each divided by the std in
    float32 with its dead dims zeroed, whose float64 squares are summed
    over the dims by ``np.sum`` and rooted, rounded to float32."""
    flat = g.reshape(len(g), -1)
    scale = np.where(live, sd, np.float32(1))[:, None]
    rho = np.empty(flat.shape[1], np.float32)
    for p in range(0, len(rho), 4096):
        z = flat[:, p:p + 4096] / scale
        z[~live] = 0
        rho[p:p + 4096] = np.sqrt(np.square(z, dtype=np.float64).sum(axis=0))
    return rho.reshape(g.shape[1:])


def lead_ahead_magnitude_reference(spec, x1, x2, g: np.ndarray, sd: np.ndarray,
                                   live: np.ndarray) -> np.ndarray:
    """rho of a random-conv detection of the raster pair x1, x2 from its
    held difference stack ``g`` (every dim but the L = len(sd) - len(g)
    leading ones), float32 std and live mask, with the leading dims
    recomputed a whole strip at a time: for each strip of ``strip_partition``,
    layer 1 alone runs on x1's rows in buffers of its own and is copied
    into an ``ahead`` buffer of the strip's rows, then runs on x2's rows in
    the same buffers, and ahead is subtracted from it in place.  Each live
    dim of ahead, then of g, divided by its std in float32, adds its
    float64 square to a running float64 total one dim at a time; the
    total's root is rounded to float32."""
    skip = len(sd) - len(g)
    h, w = g.shape[1:]
    k = spec.kernel_size
    weights = _conv_weights(spec, x1.bands)[:1]
    rho = np.empty((h, w), np.float32)
    for y0, y1 in strip_partition(spec, x1.bands, h, w):
        ahead = np.empty((skip, y1 - y0, w), np.float32)
        if skip:
            stage = max(x1.bands, spec.channels) * (y1 - y0 + 4 * k + 16) * (w + k)
            scratch = (np.empty(x1.bands * k * k * 4096, np.float32),
                       np.empty(stage, np.float32), np.empty(stage, np.float32))
            np.copyto(ahead, next(_conv_layers(x1.data, weights, k, y0, y1, scratch))[1])
            np.subtract(next(_conv_layers(x2.data, weights, k, y0, y1, scratch))[1], ahead,
                        out=ahead)
        total = np.zeros((y1 - y0, w))
        for d in np.flatnonzero(live):
            rows = ahead[d] if d < skip else g[d - skip, y0:y1]
            total += np.square(rows / sd[d], dtype=np.float64)
        rho[y0:y1] = np.sqrt(total)
    return rho


def im2col_slices(stage: np.ndarray, start: int, out: np.ndarray) -> None:
    """The patch block of ``features._im2col`` by k*k slice copies: for
    each kernel offset (dy, dx), columns [start + dy*wp + dx, ... + m) of
    the (c, rows, wp) stage's flattened rows land in ``out[:, dy, dx]``."""
    c, _, wp = stage.shape
    k, m = out.shape[1], out.shape[-1]
    flat = stage.reshape(c, -1)
    for dy in range(k):
        for dx in range(k):
            o = start + dy * wp + dx
            out[:, dy, dx] = flat[:, o:o + m]


def moments_per_channel(a: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Count, per-dim mean and per-dim sum of squared deviations of a block
    whose first axis is the feature dim, one dim at a time: a float64 copy
    of the dim, its ``mean()``, less the mean, squared, and its ``sum()``."""
    mean, m2 = np.empty(len(a)), np.empty(len(a))
    for d, band in enumerate(a):
        dev = band.astype(np.float64)
        mean[d] = dev.mean()
        m2[d] = np.square(dev - mean[d]).sum()
    return a[0].size, mean, m2


def perturb_reference(data: np.ndarray, sigma: float, stream_seed: int) -> np.ndarray:
    """A noisy float32 copy of a (bands, height, width) raster: the whole
    array of float64 noise drawn at once from the stream, times sigma,
    plus the data, rounded to float32."""
    noise = np.random.Generator(np.random.Philox(key=stream_seed)).standard_normal(data.shape)
    return (noise * sigma + data).astype(np.float32)


def otsu_split_loop(counts: np.ndarray) -> int:
    """The between-class-variance argmax of a histogram by one loop over its
    bins in Python ints: class 0 is bins [0, t], A = (n*s0 - S*c0)^2 and
    B = c0*(n - c0) of its count c0 and bin-index sum s0, compared by
    cross-multiplication, ties to the lowest bin (0 when no split leaves
    both classes occupied)."""
    n = int(counts.sum())
    total = sum(t * int(c) for t, c in enumerate(counts))
    best_t, best_a, best_b, c0, s0 = 0, -1, 1, 0, 0
    for t, c in enumerate(counts):
        c0 += int(c)
        s0 += t * int(c)
        if c0 == 0 or c0 == n:
            continue
        a = (n * s0 - total * c0) ** 2
        b = c0 * (n - c0)
        if a * best_b > best_a * b:
            best_t, best_a, best_b = t, a, b
    return best_t
