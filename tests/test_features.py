import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdconf.dcva
import cdconf.features
import cdconf.pool
from cdconf.dcva import detect_pair
from cdconf.errors import EmptyTapSet, InvariantViolation, RejectedValue, ShapeMismatch
from cdconf.features import (
    _TILE,
    ExtractorKind,
    ExtractorSpec,
    _conv_weights,
    _moments,
    _patches,
    _pooled,
    _pooled_std,
    default_primary_spec,
    default_secondary_spec,
    extract,
    standardize_pair,
)
from cdconf.pool import _MAX_WORKERS, _cpu_quota, _pool_map, default_threads
from cdconf.raster import Raster
from cdconf.rng import generator
from oracles import (
    conv_relu_reference,
    conv_relu_tiled_reference,
    live_reference,
    moments_per_channel,
    patch_slices,
    recomputed_dims,
    standardized_magnitude_reference,
    strip_partition,
    strip_worker_nbytes,
    zscore_pair_reference,
)

_SRC = Path(__file__).resolve().parent.parent / "src"


def _raster(seed=0, bands=3, h=12, w=10) -> Raster:
    rng = np.random.Generator(np.random.Philox(key=seed))
    return Raster(rng.uniform(size=(bands, h, w)).astype(np.float32))


class TestSpecValidation:
    def test_taps_canonicalized(self):
        s = ExtractorSpec(depth=6, taps=(6, 2, 4, 2))
        assert s.taps == (2, 4, 6)

    def test_empty_taps(self):
        with pytest.raises(EmptyTapSet):
            ExtractorSpec(depth=3, taps=())

    def test_tap_above_depth(self):
        with pytest.raises(RejectedValue):
            ExtractorSpec(depth=3, taps=(1, 4))

    def test_tap_below_one(self):
        with pytest.raises(RejectedValue):
            ExtractorSpec(depth=3, taps=(0, 2))

    def test_even_kernel(self):
        with pytest.raises(RejectedValue):
            ExtractorSpec(depth=2, taps=(1,), kernel_size=4)

    def test_zero_channels(self):
        with pytest.raises(RejectedValue):
            ExtractorSpec(depth=2, taps=(1,), channels=0)

    def test_identity_ignores_taps(self):
        ExtractorSpec(kind=ExtractorKind.IDENTITY, taps=())

    def test_last_layer_tappable(self):
        s = ExtractorSpec(depth=6, taps=(2, 4, 6))
        assert s.taps[-1] == s.depth


class TestIdentity:
    def test_raw_bands(self):
        r = _raster(bands=3, h=2, w=2)
        f = extract(ExtractorSpec(kind=ExtractorKind.IDENTITY), r)
        assert f.shape == (2, 2, 3)
        assert np.array_equal(f, r.data.transpose(1, 2, 0))

    def test_expected_dims(self):
        s = ExtractorSpec(kind=ExtractorKind.IDENTITY)
        assert s.expected_dims(5) == 5


class TestRandomConv:
    def test_shape_contract(self):
        r = _raster(bands=3, h=9, w=7)
        s = ExtractorSpec(depth=4, taps=(1, 3), channels=8)
        f = extract(s, r)
        assert f.shape == (9, 7, 16)
        assert f.dtype == np.float32
        assert s.expected_dims(r.bands) == 16

    def test_same_seed_bit_identical_and_seeds_differ(self):
        r = _raster()
        for seed in range(10):
            s = ExtractorSpec(depth=3, taps=(1, 3), channels=4, seed=seed)
            a = extract(s, r)
            b = extract(s, r)
            assert np.array_equal(a, b), f"seed {seed} not reproducible"
        base = extract(ExtractorSpec(depth=3, taps=(1, 3), channels=4, seed=0), r)
        for seed in range(1, 10):
            other = extract(ExtractorSpec(depth=3, taps=(1, 3), channels=4, seed=seed), r)
            assert not np.array_equal(base, other), f"seed {seed} collides with seed 0"

    def test_identical_inputs_identical_stacks(self):
        r = _raster(seed=5)
        s = ExtractorSpec(depth=2, taps=(2,), channels=6, seed=9)
        assert np.array_equal(extract(s, r), extract(s, Raster(r.data.copy())))

    def test_rectifier_nonnegative(self):
        f = extract(ExtractorSpec(depth=2, taps=(1, 2), channels=5, seed=3), _raster())
        assert (f >= 0).all()
        assert (f > 0).any()

    def test_values_finite_and_stable_with_depth(self):
        # 1/sqrt(fan_in) scaling keeps activations from exploding layer over layer
        f = extract(ExtractorSpec(depth=8, taps=(8,), channels=8, seed=1), _raster())
        assert np.isfinite(f).all()
        assert f.max() < 1e3

    def test_kernel_one_works(self):
        r = _raster(h=1, w=3)
        f = extract(ExtractorSpec(depth=2, taps=(1,), channels=2, kernel_size=1), r)
        assert f.shape == (1, 3, 2)

    def test_too_small_for_padding(self):
        r = _raster(h=1, w=5)
        with pytest.raises(ShapeMismatch):
            extract(ExtractorSpec(depth=1, taps=(1,), kernel_size=3), r)

    # 96x101 spans three blocks of 4096 output columns, the last one partial
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("h,w", [(37, 53), (96, 101)])
    def test_matches_float64_conv_reference(self, k, h, w):
        x = _raster(seed=k, bands=4, h=h, w=w)
        s = ExtractorSpec(depth=3, taps=(1, 3), channels=5, kernel_size=k, seed=k)
        stack, tapped = x.data, []
        for layer_idx, weights in enumerate(_conv_weights(s, x.bands), start=1):
            stack = conv_relu_reference(stack, weights, k)
            if layer_idx in s.taps:
                tapped.append(stack)
        ref = np.concatenate(tapped).transpose(1, 2, 0)
        f = extract(s, x)
        assert f.shape == ref.shape
        assert np.abs(f - ref).max() <= 1e-5 * np.abs(ref).max()

    # 96x101 and 130x70 are one strip of several tiles with a partial last
    # one; a side of pad + 1 is the smallest the reflection padding allows;
    # the other four are 3 to 13 strips
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("size", ["tiles", "tall", "smallest", "narrow", "wide",
                                      "rings", "narrow-rings"])
    def test_bit_identical_to_padded_copy_tile_loop(self, k, size):
        x, s, want = _tiled_case(k, size)
        assert np.array_equal(extract(s, x), want)

    # one, two or three extractions of the same raster side by side: each
    # holds its own strip buffers, and shares only the cached weights
    @pytest.mark.parametrize("threads", [2, 3, 1])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("size", ["tiles", "tall", "smallest", "narrow", "wide",
                                      "rings", "narrow-rings"])
    def test_bit_identical_on_worker_threads(self, k, size, threads):
        x, s, want = _tiled_case(k, size)
        for got in _pool_map(lambda _: extract(s, x), range(threads), threads):
            assert np.array_equal(got, want)

    # 2500, 100, 13, 9 or 1 strips of a 2500x40 image, down to strips of
    # one row, each with its own cuts into tiles, must leave the bits of the
    # whole-image pass: with no halo floor, a strip holds ``strip`` pixels'
    # values of the widest stage, 5 channels
    @pytest.mark.parametrize("strip", [1, 1000, 2 * _TILE, 3 * _TILE, 10**9])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_bit_identical_for_every_strip_height(self, monkeypatch, k, strip):
        x, s, want = _tiled_case(k, "narrow-rings")
        monkeypatch.setattr(cdconf.features, "_HALOS", 0)
        monkeypatch.setattr(cdconf.features, "_VALUES", strip * 5)
        assert len(cdconf.features._Extraction(s, x).strips) == min(2500, -(-100000 // strip))
        assert np.array_equal(extract(s, x), want)

    # the same for both rasters of a pair in lockstep, their strips on one,
    # two or three worker threads
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("strip", [1, 1000])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_detect_pair_bit_identical_for_every_strip_height(self, monkeypatch, k, strip,
                                                              threads):
        x1, x2, s, want = _tiled_pair(k, "narrow-rings")
        monkeypatch.setattr(cdconf.features, "_HALOS", 0)
        monkeypatch.setattr(cdconf.features, "_VALUES", strip * 5)
        assert np.array_equal(detect_pair(x1, x2, s, threads=threads).magnitude.rho, want)

    # the stock extractors on a size whose whole-image tiles end in a
    # ragged one, cut into strips of 1, 8, 17 and 64 rows
    @pytest.mark.parametrize("rows", [1, 8, 17, 64])
    @pytest.mark.parametrize("spec", [default_primary_spec(0), default_secondary_spec(0)],
                             ids=["primary", "secondary"])
    def test_stock_extractors_bit_identical_for_every_strip_height(self, monkeypatch,
                                                                 spec, rows):
        x = _raster(seed=23, bands=4, h=257, w=513)
        monkeypatch.setattr(cdconf.features, "_VALUES", 10**9)
        whole = extract(spec, x)
        monkeypatch.setattr(cdconf.features, "_HALOS", 0)
        monkeypatch.setattr(cdconf.features, "_VALUES", rows * 513 * spec.channels)
        assert np.array_equal(extract(spec, x), whole)

    # the most rows a strip of each extraction takes at widths 64 to 2048:
    # four halos (48 rows of the depth-6 primary, 16 of the depth-2
    # secondary), or 24 * 16384 values of the widest stage, 16 or 48
    # channels; an identity strip holds 16384 pixels.  768 rows are a
    # whole number of strips of each
    @pytest.mark.parametrize("w,primary,secondary,identity", [
        (64, 384, 128, 256), (128, 192, 64, 128), (512, 48, 16, 32), (1024, 48, 16, 16),
        (2048, 48, 16, 8)])
    def test_strips_follow_the_image_size(self, w, primary, secondary, identity):
        x = Raster(np.zeros((4, 768, w), np.float32))
        for spec, rows in [(default_primary_spec(0), primary), (default_secondary_spec(0), secondary),
                           (ExtractorSpec(kind=ExtractorKind.IDENTITY), identity)]:
            strips = cdconf.features._Extraction(spec, x).strips
            assert strips == [(y, y + rows) for y in range(0, 768, rows)]
            assert strips == strip_partition(spec, 4, 768, w)

    # near-equal strips that cover the image in order, as the oracle cuts them
    @pytest.mark.parametrize("h,w", [(2, 2), (128, 128), (512, 512), (257, 513), (2500, 40),
                                     (3, 10**5)])
    @pytest.mark.parametrize("spec,bands", [(default_primary_spec(0), 4),
                                            (default_secondary_spec(0), 4),
                                            (default_secondary_spec(0), 100),
                                            (ExtractorSpec(kind=ExtractorKind.IDENTITY), 4)],
                             ids=["primary", "secondary", "secondary-100", "identity"])
    def test_strips_cover_the_image_in_near_equal_heights(self, spec, bands, h, w):
        strips = cdconf.features._Extraction(spec, Raster(np.zeros((bands, h, w), np.float32))).strips
        assert strips[0][0] == 0 and strips[-1][1] == h
        assert all(a[1] == b[0] for a, b in zip(strips, strips[1:]))
        heights = {y1 - y0 for y0, y1 in strips}
        assert min(heights) >= 1 and max(heights) - min(heights) <= 1
        assert strips == strip_partition(spec, bands, h, w)

    # the moments merge strip by strip, so the replay's bytes rest on a
    # partition that both passes take whatever the thread count
    @pytest.mark.parametrize("spec", [default_primary_spec(0), default_secondary_spec(0),
                                      ExtractorSpec(kind=ExtractorKind.IDENTITY)],
                             ids=["primary", "secondary", "identity"])
    def test_strips_do_not_depend_on_threads(self, monkeypatch, spec):
        x1, x2 = _raster(seed=3, bands=4, h=300, w=200), _raster(seed=4, bands=4, h=300, w=200)
        passes, pool_map = [], cdconf.dcva._pool_map

        def recorded(fn, items, threads):
            passes.append((threads, list(items)))
            return pool_map(fn, items, threads)

        monkeypatch.setattr(cdconf.dcva, "_pool_map", recorded)
        for threads in (1, 2, 3, None):
            detect_pair(x1, x2, spec, threads=threads)
        want = strip_partition(spec, 4, 300, 200)
        assert len(want) > 1
        assert [t for t, _ in passes] == [1, 1, 2, 2, 3, 3, None, None]
        assert all(items == want for _, items in passes)

    def test_runs_only_up_to_the_deepest_tap(self, monkeypatch):
        # the weights are drawn layer by layer, so the first two layers of a
        # six-layer spec are those of a two-layer one with the same seed
        layers = []
        conv_layers = cdconf.features._conv_layers

        def recorded(x, weights, *args):
            layers.append(len(weights))
            return conv_layers(x, weights, *args)

        monkeypatch.setattr(cdconf.features, "_conv_layers", recorded)
        x = _raster(seed=21, bands=4, h=70, w=90)
        deep = extract(ExtractorSpec(depth=6, taps=(2,), channels=6, seed=4), x)
        shallow = extract(ExtractorSpec(depth=2, taps=(2,), channels=6, seed=4), x)
        assert np.array_equal(deep, shallow)
        assert layers == [2, 2]

    # layer 1 of the stock secondary costs 48*36 multiply-adds a pixel of
    # four bands against 48*432 for layer 2, but 48*900 of 100 bands
    @pytest.mark.parametrize("spec,bands,lead", [
        (default_secondary_spec(0), 4, 48),
        (default_secondary_spec(0), 100, 0),
        (default_primary_spec(0), 4, 0),
        (ExtractorSpec(depth=3, taps=(1,), channels=6), 4, 0),
        (ExtractorSpec(depth=3, taps=(1, 3), channels=6, kernel_size=1), 4, 6),
        (ExtractorSpec(depth=3, taps=(1, 2), channels=2), 4, 0),
        (ExtractorSpec(kind=ExtractorKind.IDENTITY), 4, 4),
    ])
    def test_recomputes_only_a_cheap_leading_tap(self, spec, bands, lead):
        x = _raster(seed=5, bands=bands, h=8, w=8)
        assert recomputed_dims(spec, bands) == lead
        assert cdconf.features._Extraction(spec, x).lead == lead

    # a worker's buffers are what the oracle counts from the strip layout:
    # one allocation of stage buffers per layer parity, a patch block of
    # one rule for every kind, room for both rasters' recomputed tap of a
    # whole strip, and NumPy's iteration buffers beside it; at 128 wide
    # that tap sizes the stock secondary's second buffer, at 512 wide it
    # does not.  At 49x2001 the primary's strips are 24 and 25 rows, whose
    # 7 entries a pixel, an odd count, exceed its tiles and 2 * 2**17
    @pytest.mark.parametrize("h,w", [(256, 256), (300, 128), (512, 512), (57, 513),
                                     (40, 1000), (3, 2000), (49, 2001)])
    @pytest.mark.parametrize("spec,bands", [(default_secondary_spec(0), 4),
                                            (default_secondary_spec(0), 16),
                                            (default_secondary_spec(0), 100),
                                            (default_primary_spec(0), 4),
                                            (ExtractorSpec(kind=ExtractorKind.IDENTITY), 4)],
                             ids=["secondary-4", "secondary-16", "secondary-100", "primary",
                                  "identity"])
    def test_a_strip_worker_holds_what_the_oracle_counts(self, spec, bands, h, w):
        x = _raster(seed=6, bands=bands, h=h, w=w)
        scratch = cdconf.features._Extraction(spec, x).scratch()
        whole = scratch[0].base
        assert all(a.base is whole for a in scratch)
        assert sum(a.nbytes for a in scratch) == whole.nbytes
        assert whole.nbytes + 8 * np.getbufsize() == strip_worker_nbytes(spec, bands, h, w)

    def test_more_workers_than_cores_with_fast_switching(self, monkeypatch):
        # seven strips of both images (of 16384 pixels' values of the widest
        # stage, 5 channels) writing one difference stack, then the same
        # seven strips recomputing its layer-1 tap for the magnitude, side
        # by side; a switch every microsecond interleaves them as finely as
        # the interpreter allows
        monkeypatch.setattr(cdconf.features, "_VALUES", 16384 * 5)
        x1, x2, s, want = _tiled_pair(3, "narrow-rings")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = detect_pair(x1, x2, s, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got.magnitude.rho, want)

    def test_no_more_workers_than_tiles(self, monkeypatch):
        # the stock secondary cuts a 128x128 image into two strips of 64
        # rows, which both passes run on
        sizes = _record_pools(monkeypatch, 2)
        x1, x2 = _raster(seed=3, bands=4, h=128, w=128), _raster(seed=4, bands=4, h=128, w=128)
        detect_pair(x1, x2, default_secondary_spec(0), threads=10**6)
        assert sizes == [2, 2]

    def test_no_more_workers_than_the_cap(self, monkeypatch):
        # a 384x512 image in strips of 32 rows of 4 channels is 12 strips,
        # more pieces than the cap, in both passes
        monkeypatch.setattr(cdconf.features, "_VALUES", 32 * 512 * 4)
        sizes = _record_pools(monkeypatch, _MAX_WORKERS)
        x1, x2 = _raster(seed=3, bands=4, h=384, w=512), _raster(seed=4, bands=4, h=384, w=512)
        s = ExtractorSpec(depth=2, taps=(2,), channels=4, seed=3)
        detect_pair(x1, x2, s, threads=10**6)
        assert sorted(sizes) == [_MAX_WORKERS, _MAX_WORKERS]

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_run_serially(self, monkeypatch, threads):
        # every strip and block is still computed: the magnitude is the
        # reference's
        sizes = _record_pools(monkeypatch, 0)
        x1, x2, s, want = _tiled_pair(3, "tiles")
        assert np.array_equal(detect_pair(x1, x2, s, threads=threads).magnitude.rho, want)
        assert sizes == []

    def test_no_threads_given_means_the_default(self, monkeypatch):
        # a 1000x40 image in strips of at most 400 rows of 5 channels is
        # three strips
        monkeypatch.setattr(cdconf.features, "_VALUES", 400 * 40 * 5)
        monkeypatch.setattr(cdconf.pool, "default_threads", lambda: 2)
        sizes = _record_pools(monkeypatch, 2)
        x1, x2, s, want = _tiled_pair(3, "narrow")
        assert np.array_equal(detect_pair(x1, x2, s).magnitude.rho, want)
        assert sizes and set(sizes) == {2}

    def test_traced_peak_within_two_and_a_half_outputs(self):
        # one strip's padded rows of two layers, one patch block and the
        # output; a per-layer padded copy or output buffer brings it to 2.8x
        s = default_secondary_spec(0)
        x = _raster(seed=17, bands=4, h=256, w=256)
        _conv_weights(s, x.bands)
        tracemalloc.start()
        try:
            f = extract(s, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * f.nbytes

    @pytest.mark.parametrize("size", [128, 256])
    @pytest.mark.parametrize("spec", [default_primary_spec(0), default_secondary_spec(0)],
                             ids=["primary", "secondary"])
    def test_traced_peak_of_a_small_image_within_two_whole_buffers(self, spec, size):
        # the features, the padded buffers of two layers and one patch
        # block, with 128 KiB for the interpreter's own objects: a 128x128
        # image is one strip, which holds two whole padded layers
        x = _raster(seed=19, bands=4, h=size, w=size)
        _conv_weights(spec, x.bands)
        tracemalloc.start()
        try:
            f = extract(spec, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        whole = spec.channels * (size + 2) ** 2 * 4
        block = spec.channels * 9 * _TILE * 4
        assert peak <= f.nbytes + 2 * whole + block + 2**17

    def test_traced_peak_of_a_tall_raster_does_not_grow_with_its_height(self):
        # past the features, one strip's padded rows of two layers and one
        # patch block, whose sizes depend on the width only; whole padded
        # buffers would add 2 * 48 * 1024 * 130 float32 (51 MB) from one
        # height to the next
        s = default_secondary_spec(0)
        held = {}
        for h in (1024, 2048):
            x = _raster(seed=18, bands=4, h=h, w=128)
            _conv_weights(s, x.bands)
            tracemalloc.start()
            try:
                f = extract(s, x)
                held[h] = tracemalloc.get_traced_memory()[1] - f.nbytes
            finally:
                tracemalloc.stop()
            del f
        assert held[2048] <= held[1024] + 2**20
        # the strip holds less than one whole padded buffer
        whole = s.channels * 1026 * 130 * 4
        block = s.channels * 9 * _TILE * 4
        assert held[1024] <= whole + block

    @settings(max_examples=20, deadline=None)
    @given(
        h=st.integers(2, 12),
        w=st.integers(2, 12),
        bands=st.integers(1, 4),
        depth=st.integers(1, 4),
        channels=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_dims_match_declaration(self, h, w, bands, depth, channels, seed):
        taps = tuple(range(1, depth + 1, 2))
        s = ExtractorSpec(depth=depth, taps=taps, channels=channels, seed=seed)
        f = extract(s, _raster(seed=seed, bands=bands, h=h, w=w))
        assert f.shape == (h, w, s.expected_dims(bands))
        assert np.isfinite(f).all()


# (c_out, c_in*k*k) of the stock extractors' 3x3 layers on 4 bands, and of
# narrower ones
_GEMM_SHAPES = [(8, 36), (8, 72), (16, 36), (16, 144), (24, 216), (48, 36), (48, 432)]


@pytest.mark.parametrize("shape", _GEMM_SHAPES, ids=[f"{c}x{n}" for c, n in _GEMM_SHAPES])
def test_gemm_column_bits_do_not_depend_on_a_multiple_of_16_width(shape):
    # _conv_layers pads every GEMM to a multiple of 16 columns and cuts its
    # tiles from the first column of a strip's rows, at any offset from the
    # whole image's: on a BLAS where a column's bits depend on such a call's
    # width or on the column's offset in it, this must fail rather than let
    # the strips drift
    c, fan_in = shape
    rng = np.random.Generator(np.random.Philox(key=c * 1000 + fan_in))
    weights = (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(np.float32)
    patches = rng.random((fan_in, _TILE + 64), dtype=np.float32)
    wide = weights @ patches
    out = np.empty((c, _TILE + 80), np.float32)
    for width in [*range(16, 257, 16), 512, 1008, 1536, 2032, 2048, 4080, _TILE]:
        for offset in (*range(17), 48):
            # a contiguous patch block, its result landing in a wider array
            tile = out[:, 16:16 + width]
            np.matmul(weights, np.ascontiguousarray(patches[:, offset:offset + width]), out=tile)
            assert np.array_equal(tile, wide[:, offset:offset + width]), (width, offset)


# a GEMM tile of the stock 3x3 layers on 4 bands holds at most 432 x 512
# float32 entries, so that it and the copy of it that OpenBLAS packs stay
# in a 2 MiB L2 cache; at 512 wide the patch block of either stock
# extractor is 2 * 2**17 entries, which holds any of those tiles
@pytest.mark.parametrize("fan_in,columns", [(36, 4096), (144, 1536), (432, 512)])
def test_tile_widths_of_the_stock_layers(fan_in, columns):
    assert cdconf.features._tile(fan_in) == columns
    assert fan_in * columns <= 432 * 512
    x = _raster(bands=4, h=512, w=512)
    for spec in (default_primary_spec(0), default_secondary_spec(0)):
        patch = cdconf.features._Extraction(spec, x).scratch()[0]
        assert len(patch) == 2 * 2**17 >= fan_in * columns


def _record_pools(monkeypatch, limit: int) -> list[int]:
    """Record the size of every worker pool ``_pool_map`` starts; a pool of
    more than ``limit`` workers is refused before any of its threads starts."""
    sizes = []

    class Recorded(cdconf.pool.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            assert max_workers <= limit
            super().__init__(max_workers)

    monkeypatch.setattr(cdconf.pool, "ThreadPoolExecutor", Recorded)
    return sizes


class TestDefaultThreads:
    def test_the_cores_when_blas_runs_one_thread(self, monkeypatch, tmp_path):
        # no CPU quota: the cgroup files are not there
        monkeypatch.setattr(cdconf.pool, "_CGROUP", tmp_path)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert default_threads() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("quota,cpus", [(50_000, 1), (100_000, 1), (150_000, 2)])
    def test_the_cores_capped_by_a_cpu_quota(self, monkeypatch, tmp_path, quota, cpus):
        (tmp_path / "cpu.max").write_text(f"{quota} 100000\n")
        monkeypatch.setattr(cdconf.pool, "_CGROUP", tmp_path)
        assert default_threads() == min(cpus, len(os.sched_getaffinity(0)))

    def test_a_quota_above_the_cores_leaves_the_cores(self, monkeypatch, tmp_path):
        (tmp_path / "cpu.max").write_text("6400000 100000\n")
        monkeypatch.setattr(cdconf.pool, "_CGROUP", tmp_path)
        assert default_threads() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("files,cpus", [
        ({"cpu.max": "max 100000\n"}, None),
        ({"cpu.max": "250000 100000\n"}, 3),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
        ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
        ({"cpu/cpu.cfs_quota_us": "20000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
        ({"cpu.max": "garbled\n"}, None),
        ({}, None),
    ], ids=["v2-none", "v2", "v1-none", "v1", "v1-fraction", "garbled", "absent"])
    def test_cpu_quota_files(self, tmp_path, files, cpus):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        assert _cpu_quota(tmp_path) == cpus

    # whether workers may run is ``_workers``'s call alone
    @pytest.mark.parametrize("blas", ["1", "4", None])
    def test_the_cores_whatever_blas_runs(self, monkeypatch, tmp_path, blas):
        (tmp_path / "cpu.max").write_text("150000 100000\n")
        monkeypatch.setattr(cdconf.pool, "_CGROUP", tmp_path)
        if blas is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
        assert default_threads() == min(2, len(os.sched_getaffinity(0)))

    # the cap acts only when OpenBLAS reads it at load; with NumPy loaded
    # first it would only reach the processes the program starts
    @pytest.mark.parametrize("first,given,seen", [("cdconf", None, "1"), ("numpy", None, None),
                                                  ("cdconf", "3", "3")],
                             ids=["cdconf-first", "numpy-first", "users-setting"])
    def test_import_caps_blas_only_before_numpy(self, first, given, seen):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([str(_SRC), env.get("PYTHONPATH", "")])
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        code = f"import {first}, cdconf, os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == str(seen)


class TestOversubscriptionWarning:
    """Worker threads while OpenBLAS is not capped at one thread a call, as
    when NumPy was imported before cdconf, would run OpenBLAS's threads
    inside every worker: ``_pool_map`` runs one worker then, and warns
    nothing."""

    def _blas(self, monkeypatch, blas):
        if blas is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)

    @pytest.mark.parametrize("blas", ["4", None])
    def test_no_workers_beside_blas_threads(self, monkeypatch, blas):
        sizes = _record_pools(monkeypatch, 1)
        self._blas(monkeypatch, blas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _pool_map(lambda i: i * i, [1, 2, 3], 2) == [1, 4, 9]
        assert sizes == []

    # capped BLAS, one thread asked for, no threads given, or workers asked
    # for beside BLAS's own threads, which run one
    @pytest.mark.parametrize("blas,threads", [("1", 2), ("4", 1), (None, 1), ("4", None),
                                              (None, 2)])
    def test_quiet_when_capped_or_serial(self, monkeypatch, blas, threads):
        self._blas(monkeypatch, blas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _pool_map(lambda i: i * i, [1, 2, 3], threads) == [1, 4, 9]


_SIZES = {"tiles": (96, 101), "tall": (130, 70), "narrow": (1000, 40), "wide": (40, 1000),
          "rings": (300, 700), "narrow-rings": (2500, 40)}


def _tiled_case(k: int, size: str, seed: int | None = None):
    """A raster (seeded ``seed``, None: k), a 3-layer spec with kernel k,
    and its features from the reference per-layer padded copy and tile
    loop."""
    h, w = (k // 2 + 1, 9) if size == "smallest" else _SIZES[size]
    x = _raster(seed=k if seed is None else seed, bands=4, h=h, w=w)
    s = ExtractorSpec(depth=3, taps=(1, 3), channels=5, kernel_size=k, seed=k)
    stack, tapped = x.data, []
    for layer_idx, weights in enumerate(_conv_weights(s, x.bands), start=1):
        stack = conv_relu_tiled_reference(stack, weights, k)
        if layer_idx in s.taps:
            tapped.append(stack)
    return x, s, np.concatenate(tapped).transpose(1, 2, 0)


def _tiled_pair(k: int, size: str):
    """Two rasters of ``_tiled_case``'s spec and the reference magnitude of
    their pooled-standardized difference."""
    x1, s, f1 = _tiled_case(k, size)
    x2, _, f2 = _tiled_case(k, size, seed=k + 100)
    return x1, x2, s, standardized_magnitude_reference(f1, f2)


class TestConvWeights:
    """Only the layers up to the deepest tap are drawn, each with the bits it
    has when every layer of the spec's depth is drawn."""

    def _every_layer(self, spec, bands):
        """Weights of all ``spec.depth`` layers, drawn in order from the
        spec's stream."""
        rng, c_in, mats = generator(spec.seed), bands, []
        for _ in range(spec.depth):
            fan_in = c_in * spec.kernel_size ** 2
            w = rng.standard_normal((spec.channels, fan_in)) / np.sqrt(fan_in)
            mats.append(np.ascontiguousarray(w, dtype=np.float32))
            c_in = spec.channels
        return mats

    @pytest.mark.parametrize("depth,taps", [(1, (1,)), (6, (2, 4, 6)), (9, (2, 5)),
                                            (3000, (1,)), (12, (3, 7))])
    @pytest.mark.parametrize("bands", [1, 4])
    def test_drawn_to_the_deepest_tap(self, depth, taps, bands):
        spec = ExtractorSpec(depth=depth, taps=taps, channels=5, seed=depth + bands)
        weights = _conv_weights(spec, bands)
        assert len(weights) == spec.taps[-1]
        assert all(np.array_equal(a, b) for a, b in zip(weights, self._every_layer(spec, bands)))


class TestDefaultSpecs:
    def test_primary_deeper_than_secondary(self):
        p, s = default_primary_spec(), default_secondary_spec()
        assert p.depth > s.depth
        assert max(p.taps) == p.depth and max(s.taps) == s.depth

    def test_distinct_weight_streams(self):
        # the two extractors must not share weights even for one master seed
        assert default_primary_spec(0).seed != default_secondary_spec(0).seed

    def test_master_seed_varies_weights(self):
        assert default_primary_spec(0).seed != default_primary_spec(1).seed

    def test_overridable(self):
        s = default_secondary_spec(5, taps=(1, 3), channels=12)
        assert (s.depth, s.taps, s.channels) == (3, (1, 3), 12)


class TestStandardizePair:
    def test_constant_stacks_zeroed(self):
        f = np.full((3, 3, 2), 4.2, dtype=np.float32)
        a, b = standardize_pair(f, f.copy())
        assert np.all(a == 0) and np.all(b == 0)

    def test_zscore_arithmetic(self):
        # one dim, pooled mean 5, population std 2: raw 3 and 7 scale to 1.5
        # and 3.5, a difference of (7 - 3) / 2 = 2.0
        f1 = np.array([[[3.0]], [[3.0]]], dtype=np.float32)
        f2 = np.array([[[7.0]], [[7.0]]], dtype=np.float32)
        a, b = standardize_pair(f1, f2)
        assert a.dtype == b.dtype == np.float32
        assert a[0, 0, 0] == pytest.approx(1.5)
        assert b[0, 0, 0] == pytest.approx(3.5)
        assert b[0, 0, 0] - a[0, 0, 0] == pytest.approx(2.0)

    def test_pooled_moments_after(self):
        rng = np.random.Generator(np.random.Philox(key=12))
        f1 = rng.normal(3, 5, size=(10, 8, 6)).astype(np.float32)
        f2 = rng.normal(-1, 2, size=(10, 8, 6)).astype(np.float32)
        a, b = standardize_pair(f1, f2)
        pooled = np.concatenate([a.reshape(-1, 6), b.reshape(-1, 6)]).astype(np.float64)
        assert np.abs(pooled.std(axis=0) - 1).max() < 1e-5
        # each dim is only rescaled, so the difference keeps its direction
        sd = np.concatenate([f1.reshape(-1, 6), f2.reshape(-1, 6)]).astype(np.float64).std(axis=0)
        diff = b.astype(np.float64) - a
        np.testing.assert_allclose(diff, (f2.astype(np.float64) - f1) / sd, rtol=1e-5, atol=1e-6)

    def test_difference_matches_zscore_reference(self):
        # the pooled mean that the reference subtracts cancels in b - a
        rng = np.random.Generator(np.random.Philox(key=14))
        f1 = rng.normal(3, 5, size=(16, 12, 8)).astype(np.float32)
        f2 = rng.normal(-1, 2, size=(16, 12, 8)).astype(np.float32)
        f2[..., 3] = f1[..., 3]
        a, b = standardize_pair(f1, f2)
        z1, z2 = zscore_pair_reference(f1, f2)
        ref = z2 - z1
        diff = b.astype(np.float64) - a
        assert np.abs(diff - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_constant_non_dyadic_dim_zeroed_at_scale(self):
        # 0.1 has no exact binary form; a one-pass E[x^2] - mu^2 would leave
        # a spurious variance here and let the dim through
        rng = np.random.Generator(np.random.Philox(key=15))
        f1 = rng.normal(size=(512, 512, 2)).astype(np.float32)
        f2 = rng.normal(size=(512, 512, 2)).astype(np.float32)
        f1[..., 0] = f2[..., 0] = np.float32(0.1)
        a, b = standardize_pair(f1, f2)
        assert np.all(a[..., 0] == 0) and np.all(b[..., 0] == 0)
        assert np.all(a[..., 1] != 0)

    def test_dim_constant_at_different_values_kept(self):
        # a uniform change between the acquisitions is change, not a dead dim
        f1 = np.full((4, 4, 1), 2.0, dtype=np.float32)
        f2 = np.full((4, 4, 1), 3.0, dtype=np.float32)
        a, b = standardize_pair(f1, f2)
        np.testing.assert_allclose(b - a, 2.0, rtol=1e-6)

    def test_traced_peak_within_three_stacks(self):
        rng = np.random.Generator(np.random.Philox(key=16))
        f1 = rng.random(size=(256, 256, 96), dtype=np.float32)
        f2 = rng.random(size=(256, 256, 96), dtype=np.float32)
        tracemalloc.start()
        try:
            out = standardize_pair(f1, f2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del out
        assert peak <= 3 * f1.nbytes

    def test_idempotent_within_tolerance(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        f1 = rng.normal(size=(6, 6, 4)).astype(np.float32)
        f2 = rng.normal(size=(6, 6, 4)).astype(np.float32)
        a1, b1 = standardize_pair(f1, f2)
        a2, b2 = standardize_pair(a1, b1)
        assert np.abs(a2 - a1).max() < 1e-5
        assert np.abs(b2 - b1).max() < 1e-5

    def test_dead_dim_only_that_dim(self):
        f1 = np.stack(
            [np.full((4, 4), 2.0), np.arange(16, dtype=np.float32).reshape(4, 4)], axis=-1
        ).astype(np.float32)
        f2 = f1.copy()
        a, b = standardize_pair(f1, f2)
        assert np.all(a[..., 0] == 0)
        assert not np.all(a[..., 1] == 0)

    def test_pooled_std_keeps_a_small_spread_live_and_a_zero_dim_dead(self):
        # 300x300 is 22 blocks a stack, the last one ragged; every dim has a
        # small spread, and dim 2's sits far from zero, where the variance
        # keeps the fewest bits
        rng = np.random.Generator(np.random.Philox(key=36))
        f1 = rng.normal(size=(300, 300, 6)).astype(np.float32)
        f2 = rng.normal(size=(300, 300, 6)).astype(np.float32)
        for f in (f1, f2):
            f *= np.float32(1e-3)
            f[..., 2] += np.float32(1000)
        f1[..., 4] = f2[..., 4] = 0
        _, live = _pooled_std(f1, f2)
        assert not live[4] and live[2]

    @pytest.mark.parametrize("stds, want", [
        # six dims pass 1e-12, median (0.5 + 1) / 2: 0.09 is live, 0.06 dead;
        # a lower or an upper middle value alone would flip one of them
        ([4, 2, 1, 0.5, 0.09, 0.06, 0, 1e-13], [1, 1, 1, 1, 1, 0, 0, 0]),
        # five pass, median 1: a tenth of it is live, just below it is dead
        ([3, 1, 2, 0.1, 0.0999], [1, 1, 1, 1, 0]),
        ([1e-6, 1e-6, 2e-8], [1, 1, 0]),
        ([5.0], [1]),
        ([0, 1e-13, 0], [0, 0, 0]),
    ])
    def test_dead_below_a_tenth_of_the_median_live_std(self, stds, want):
        sd = np.array(stds, np.float64)
        n = 1000
        sd_out, live = _pooled([(n, np.full(len(sd), 7.0), n * sd ** 2)])
        assert live.tolist() == [bool(v) for v in want]
        assert np.array_equal(live, live_reference(sd))
        assert np.array_equal(sd_out, sd.astype(np.float32))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            standardize_pair(np.zeros((2, 2, 3), np.float32), np.zeros((2, 2, 4), np.float32))


class TestStridedPatches:
    """``_patches``' one strided view of a layer's rows gives every patch
    the bits of the k*k slice copies, and refuses a view that would leave
    its stage."""

    # widths 7 and 96 run one tile a layer; 257 and 513 several, the last
    # one ragged
    @pytest.mark.parametrize("strip", ["whole", "one-row"])
    @pytest.mark.parametrize("w", [7, 96, 257, 513])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_features_bit_identical_to_slice_copies(self, monkeypatch, k, w, strip):
        x = _raster(seed=w + k, bands=4, h=11, w=w)
        s = ExtractorSpec(depth=2, taps=(1, 2), channels=5, kernel_size=k, seed=k)
        if strip == "one-row":
            monkeypatch.setattr(cdconf.features, "_HALOS", 0)
            monkeypatch.setattr(cdconf.features, "_VALUES", 5 * w)
        got = extract(s, x)
        layers = []

        def sliced(stage, start, n, k):
            layers.append(len(stage))
            return patch_slices(stage, start, n, k)

        monkeypatch.setattr(cdconf.features, "_patches", sliced)
        assert np.array_equal(got, extract(s, x))
        # the substitute built the patches of every layer of every strip
        strips = len(cdconf.features._Extraction(s, x).strips)
        assert layers == [4, 5] * strips

    def _stage(self, c, rows, wp, spare=0):
        """A (c, rows, wp) stage at the head of a buffer of ``spare`` more
        entries, all of them distinct."""
        buf = np.arange(c * rows * wp + spare, dtype=np.float32)
        return buf[:c * rows * wp].reshape(c, rows, wp)

    # the first columns, a middle run, and the ragged last tile, whose
    # last patch entry is the stage's last entry
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_patch_block_equals_slice_copies(self, k):
        c, rows, wp = 3, 9, 23
        stage = self._stage(c, rows, wp)
        end = rows * wp - (k - 1) * (wp + 1)
        for start, m in [(0, 16), (5, 40), (end - 37, 37)]:
            got = np.full((c, k, k, m), np.nan, np.float32)
            np.copyto(got, _patches(stage, start, m, k))
            want = patch_slices(stage, start, m, k)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_a_stage_one_row_short_raises(self, k):
        # the rows a layer's patches need, less one, at the head of a
        # buffer that goes on: a strided view past the stage would read
        # the buffer's tail without a word
        c, rows, wp, m = 3, 9, 23, 40
        start = rows * wp - (k - 1) * (wp + 1) - m
        assert not _patches(self._stage(c, rows, wp), start, m, k).flags.writeable
        short = self._stage(c, rows - 1, wp, spare=10 * wp)
        with pytest.raises(InvariantViolation, match="read past a stage"):
            _patches(short, start, m, k)


class TestRectifier:
    """Each conv layer of a strip is rectified in one call over the span
    its GEMMs wrote, with no iteration buffer, where a call per GEMM tile
    of fewer than about 3072 columns took two of 32 KiB."""

    def _strip(self, spec):
        x = _raster(seed=24, bands=4, h=64, w=512)
        ex = cdconf.features._Extraction(spec, x)
        return ex, ex.strips[1], ex.scratch()

    @pytest.mark.parametrize("spec", [default_primary_spec(0), default_secondary_spec(0)],
                             ids=["primary", "secondary"])
    def test_one_call_a_layer(self, monkeypatch, spec):
        ex, (y0, y1), scratch = self._strip(spec)
        calls, maximum = [], np.maximum

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return maximum(*args, **kwargs)

        monkeypatch.setattr(np, "maximum", counted)
        taps = [d for d, _ in ex.strip(y0, y1, scratch)]
        assert len(taps) == len(spec.taps)
        assert len(calls) == spec.depth

    # the secondary's layer 2 runs GEMM tiles of 512 columns, the primary's
    # deeper layers tiles of 1536
    @pytest.mark.parametrize("spec", [default_primary_spec(0), default_secondary_spec(0)],
                             ids=["primary", "secondary"])
    def test_a_strip_takes_no_iteration_buffer(self, spec):
        ex, (y0, y1), scratch = self._strip(spec)
        for _ in ex.strip(y0, y1, scratch):
            pass
        tracemalloc.start()
        try:
            for _ in ex.strip(y0, y1, scratch):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**14


class TestMomentBlocks:
    """``_moments`` over blocks of dims gives every dim the bits of a
    one-dim float64 copy, whatever the block size."""

    # around the 8 dims of ``_BLOCK`` of a 16384-pixel strip, the stock 48
    # and 96, and strips of a few pixels, in a buffer with no room past
    # one dim ("none"), of three dims and a few entries, and a patch
    # block's float64 view
    @pytest.mark.parametrize("dims", [1, 7, 8, 9, 48, 96])
    @pytest.mark.parametrize("buf", ["none", "small", "patch"])
    @pytest.mark.parametrize("rows,w", [(32, 512), (1, 1), (3, 5)])
    def test_bit_identical_to_one_dim_at_a_time(self, dims, buf, rows, w):
        rng = np.random.Generator(np.random.Philox(key=dims))
        stage = rng.normal(3, 2, size=(dims, rows + 4, w + 2)).astype(np.float32)
        band = stage[:, 2:2 + rows, 1:1 + w]
        scratch = {"none": np.empty(band[0].size), "small": np.empty(3 * band[0].size + 5),
                   "patch": np.empty(432 * 2048, np.float32).view(np.float64)}[buf]
        count, mean, m2 = _moments(band, scratch)
        want_count, want_mean, want_m2 = moments_per_channel(band)
        assert count == want_count
        assert np.array_equal(mean, want_mean) and np.array_equal(m2, want_m2)
