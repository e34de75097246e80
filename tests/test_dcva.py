import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdconf.dcva import (
    ChangeResult,
    MagnitudeMap,
    _difference,
    _otsu_split,
    _runs,
    _standardized_magnitude,
    detect,
    detect_pair,
    hypervector,
    magnitude,
    otsu_bin,
    otsu_threshold,
    threshold_labels,
)
import cdconf.dcva
import cdconf.features
from cdconf.errors import ShapeMismatch
from cdconf.features import (
    _PIXELS,
    ExtractorKind,
    ExtractorSpec,
    _conv_weights,
    _pooled_std,
    _strips,
    default_primary_spec,
    default_secondary_spec,
    extract,
)
from cdconf.raster import Raster, normalize_pair
from cdconf.smoothing import iteration_seeds, perturb
from cdconf.synth import SceneSpec, generate

from oracles import (
    lead_ahead_magnitude_reference,
    otsu_bin_bruteforce,
    otsu_split_loop,
    otsu_tau_bruteforce,
    recomputed_dims,
    standardized_magnitude_reference,
    strip_worker_nbytes,
    whole_stack_magnitude_reference,
)


def _own_lend(w):
    """A ``lend`` for a difference stack of width ``w`` that holds every
    dim: a fresh float32 patch block of the fewest entries that ``lend``
    may give a strip of n pixels, max(2 * ``_BLOCK``, 7 * n), with
    ``_BLOCK`` read from ``cdconf.dcva`` at the call, so a test's block
    size applies."""

    def lend(y0, y1, visit):
        n = (y1 - y0) * w
        visit(y0, y1, None, None, np.empty(max(2 * cdconf.dcva._BLOCK, 7 * n), np.float32))

    return lend


def _mm(values) -> MagnitudeMap:
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return MagnitudeMap(arr)


class TestHypervector:
    def test_identical_stacks_zero(self):
        f = np.random.default_rng(0).normal(size=(4, 4, 3)).astype(np.float32)
        assert np.all(hypervector(f, f.copy()) == 0)

    def test_subtraction(self):
        f1 = np.array([[[1.0, 2.0]]], dtype=np.float32)
        f2 = np.array([[[4.0, 6.0]]], dtype=np.float32)
        assert np.array_equal(hypervector(f1, f2)[0, 0], [3.0, 4.0])

    def test_antisymmetric(self):
        rng = np.random.default_rng(1)
        f1 = rng.normal(size=(3, 5, 4)).astype(np.float32)
        f2 = rng.normal(size=(3, 5, 4)).astype(np.float32)
        assert np.array_equal(hypervector(f1, f2), -hypervector(f2, f1))

    def test_dims_mismatch(self):
        with pytest.raises(ShapeMismatch):
            hypervector(np.zeros((2, 2, 3), np.float32), np.zeros((2, 2, 2), np.float32))


class TestMagnitude:
    def test_three_four_five(self):
        g = np.array([[[3.0, 4.0]]], dtype=np.float32)
        assert magnitude(g).rho[0, 0] == 5.0

    def test_zero(self):
        assert magnitude(np.zeros((2, 2, 8), np.float32)).rho.max() == 0.0

    def test_unit_dims(self):
        g = np.ones((1, 1, 4), dtype=np.float32)
        assert magnitude(g).rho[0, 0] == 2.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_nonneg_and_zero_iff_identical(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        g = rng.normal(size=(5, 5, 3)).astype(np.float32)
        g[1, 2] = 0
        g[3, 4] = 0
        m = magnitude(g)
        assert (m.rho >= 0).all()
        identical = np.all(g == 0, axis=-1)
        assert np.array_equal(m.rho == 0, identical)


class TestOtsu:
    def test_two_mass_example(self):
        values = np.array([0.0] * 50 + [1.0] * 50)
        tau = otsu_threshold(_mm(values))
        assert tau == pytest.approx(1 / 256)
        assert 0 <= tau < 1

    def test_constant_map(self):
        m = _mm(np.full(40, 0.7))
        tau = otsu_threshold(m)
        assert tau == np.float32(0.7)
        assert threshold_labels(m, tau).changed.sum() == 0

    def test_lowest_tie_bin(self):
        # empty bins between the two masses leave a run of tied thresholds;
        # the lowest bin index must win
        values = np.array([0.0] * 50 + [1.0] * 50)
        assert otsu_bin(_mm(values)) == 0

    def test_matches_bruteforce_on_mixtures(self):
        rng = np.random.Generator(np.random.Philox(key=99))
        for _ in range(40):
            kind = rng.integers(3)
            if kind == 0:
                v = rng.uniform(0, 1, size=500)
            elif kind == 1:
                v = np.abs(rng.normal(0, 1, size=500))
            else:
                v = np.concatenate(
                    [rng.normal(0.2, 0.05, 300), rng.normal(0.9, 0.1, 200)]
                )
            v = np.abs(v).astype(np.float32)
            assert otsu_bin(_mm(v)) == otsu_bin_bruteforce(v)
            assert otsu_threshold(_mm(v)) == pytest.approx(otsu_tau_bruteforce(v), abs=1e-12)

    def test_few_bins(self):
        v = np.array([0.0, 0.1, 0.2, 0.9, 1.0], dtype=np.float32)
        assert otsu_bin(_mm(v), bins=4) == otsu_bin_bruteforce(v, bins=4)

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            otsu_threshold(_mm([0.0, 1.0]), bins=1)

    def test_traced_peak_one_float64_copy(self):
        # the float64 values and their int64 bin indices, 16 bytes a pixel
        rng = np.random.Generator(np.random.Philox(key=36))
        m = MagnitudeMap(rng.gamma(2.0, size=(256, 256)).astype(np.float32))
        tracemalloc.start()
        try:
            tau = otsu_threshold(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tau == otsu_tau_bruteforce(m.rho)
        assert peak <= 17 * m.rho.size

    @pytest.mark.parametrize("shape", [(129, 400), (3, _PIXELS + 1), (2 * _PIXELS + 7, 1)])
    def test_blocks_match_bruteforce_with_the_max_in_the_last_block(self, shape):
        # several blocks of _PIXELS pixels, the last one partial and holding
        # the map's maximum, so every block is binned against the whole
        # map's range
        rng = np.random.Generator(np.random.Philox(key=sum(shape)))
        rho = rng.gamma(2.0, size=shape).astype(np.float32)
        rho.reshape(-1)[-2] = 4 * rho.max()
        assert rho.size > 2 * _PIXELS and rho.size % _PIXELS
        for bins in (2, 7, 256):
            assert otsu_bin(MagnitudeMap(rho), bins) == otsu_bin_bruteforce(rho, bins)

    def test_bins_from_float64_differences(self):
        # 128 - 2**-20 rounds to 128 in float32, which would put the middle
        # mass in bin 128; in float64 it lies just below, in bin 127, and
        # the split between the upper two masses is the bin below it
        lo = 2.0**-20
        rho = np.array([lo] * 10 + [128.0] * 40 + [256.0] * 50, np.float32).reshape(10, 10)
        assert otsu_bin(MagnitudeMap(rho)) == otsu_bin_bruteforce(rho) == 127

    def test_traced_peak_one_block(self):
        # a 512 x 512 map bins 16 blocks, each holding 16 bytes a pixel
        rng = np.random.Generator(np.random.Philox(key=37))
        m = MagnitudeMap(rng.gamma(2.0, size=(512, 512)).astype(np.float32))
        tracemalloc.start()
        try:
            otsu_bin(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * _PIXELS


def _histogram(occupied: dict[int, int], bins: int = 256) -> np.ndarray:
    counts = np.zeros(bins, np.int64)
    for t, c in occupied.items():
        counts[t] = c
    return counts


class TestOtsuSplit:
    """The float64-narrowed argmax of a histogram equals the exact loop over
    its bins, ties included."""

    @pytest.mark.parametrize("occupied", [{0: 1, 255: 1}, {3: 7, 200: 2}, {0: 5, 1: 5}])
    def test_two_occupied_bins(self, occupied):
        counts = _histogram(occupied)
        assert _otsu_split(counts) == otsu_split_loop(counts) == min(occupied)

    # a histogram symmetric about its middle has two splits of the same
    # variance, at t and 254 - t when it mirrors about 127.5
    @pytest.mark.parametrize("occupied", [{0: 4, 100: 1, 155: 1, 255: 4},
                                          {10: 3, 20: 1, 235: 1, 245: 3},
                                          {0: 1, 1: 1, 254: 1, 255: 1}])
    def test_symmetric_ties_go_to_the_lowest_bin(self, occupied):
        counts = _histogram(occupied)
        assert _otsu_split(counts) == otsu_split_loop(counts)

    @pytest.mark.parametrize("n", [10**3, 10**6, 10**9])
    def test_one_dominant_bin(self, n):
        counts = _histogram({0: 1, 17: n, 40: 2, 255: 1})
        assert _otsu_split(counts) == otsu_split_loop(counts)

    def test_random_counts(self):
        rng = np.random.Generator(np.random.Philox(key=41))
        for trial in range(300):
            bins = int(rng.integers(2, 300))
            counts = rng.integers(0, 1000, bins) * (rng.uniform(size=bins) < 0.2 * (trial % 5 + 1))
            assert _otsu_split(counts) == otsu_split_loop(counts), trial

    def test_past_int64_the_exact_comparison_takes_every_split(self):
        # 255 * n^2 overflows int64 once n passes about 1.9e8 samples
        counts = _histogram({0: 10**9, 100: 5 * 10**8, 101: 5 * 10**8 + 1, 255: 10**9})
        assert 255 * int(counts.sum()) ** 2 > np.iinfo(np.int64).max
        assert _otsu_split(counts) == otsu_split_loop(counts)

    def test_no_split_is_bin_zero(self):
        assert _otsu_split(_histogram({}, 8)) == otsu_split_loop(_histogram({}, 8)) == 0
        assert _otsu_split(_histogram({5: 3}, 8)) == 0


class TestDetect:
    def test_identical_stacks_all_unchanged(self):
        f = np.random.default_rng(3).normal(size=(6, 6, 4)).astype(np.float32)
        res = detect(f, f.copy())
        assert res.tau == 0.0
        assert res.labels.changed.sum() == 0

    def test_planted_block_recovered_exactly(self):
        f1 = np.zeros((16, 16, 2), dtype=np.float32)
        f2 = np.zeros((16, 16, 2), dtype=np.float32)
        f2[4:8, 6:10] = (3.0, 4.0)
        res = detect(f1, f2)
        want = np.zeros((16, 16), dtype=bool)
        want[4:8, 6:10] = True
        assert np.array_equal(res.labels.changed, want)
        assert res.magnitude.rho[5, 7] == 5.0

    def test_labels_recomputable_from_rho_and_tau(self):
        rng = np.random.default_rng(4)
        f1 = rng.normal(size=(9, 9, 3)).astype(np.float32)
        f2 = rng.normal(size=(9, 9, 3)).astype(np.float32)
        res = detect(f1, f2)
        assert np.array_equal(res.labels.changed, res.magnitude.rho > np.float64(res.tau))

    @pytest.mark.parametrize("scale", [0.5, 4.0, 3.7])
    def test_positive_scale_leaves_labels(self, scale):
        rng = np.random.default_rng(5)
        f1 = rng.normal(size=(12, 12, 3)).astype(np.float32)
        f2 = rng.normal(size=(12, 12, 3)).astype(np.float32)
        base = detect(f1, f2)
        scaled = detect(f1 * np.float32(scale), f2 * np.float32(scale))
        assert np.array_equal(base.labels.changed, scaled.labels.changed)

    def test_scale_scales_rho_exactly_for_pow2(self):
        rng = np.random.default_rng(6)
        f1 = rng.normal(size=(7, 7, 3)).astype(np.float32)
        f2 = rng.normal(size=(7, 7, 3)).astype(np.float32)
        base = detect(f1, f2)
        scaled = detect(f1 * np.float32(4.0), f2 * np.float32(4.0))
        assert np.array_equal(scaled.magnitude.rho, base.magnitude.rho * np.float32(4.0))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        f1 = rng.normal(size=(8, 8, 5)).astype(np.float32)
        f2 = rng.normal(size=(8, 8, 5)).astype(np.float32)
        a = detect(f1, f2)
        b = detect(f1, f2)
        assert a.tau == b.tau
        assert np.array_equal(a.magnitude.rho, b.magnitude.rho)
        assert np.array_equal(a.labels.changed, b.labels.changed)

    def test_partition_exhaustive_exclusive(self):
        rng = np.random.default_rng(8)
        f1 = rng.normal(size=(10, 10, 2)).astype(np.float32)
        f2 = rng.normal(size=(10, 10, 2)).astype(np.float32)
        res = detect(f1, f2)
        changed = res.labels.changed
        unchanged = res.magnitude.rho <= np.float64(res.tau)
        assert np.array_equal(changed, ~unchanged)


class TestDetectPair:
    def test_identical_rasters_all_unchanged(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        x = Raster(rng.uniform(size=(3, 10, 10)).astype(np.float32))
        spec = ExtractorSpec(depth=3, taps=(1, 3), channels=4, seed=2)
        res = detect_pair(x, Raster(x.data.copy()), spec)
        assert res.labels.changed.sum() == 0
        assert res.magnitude.rho.max() == 0.0

    # 300x300 is 4 strips of the primary, 12 of the secondary and 6 of
    # identity, and 21 blocks of 4096 pixels and a ragged last block of 3984
    # of the whole-stack path
    @pytest.mark.parametrize("role", ["primary", "secondary", "identity"])
    def test_bit_identical_to_whole_stack_path(self, role):
        spec = {"primary": default_primary_spec(0), "secondary": default_secondary_spec(0),
                "identity": ExtractorSpec(kind=ExtractorKind.IDENTITY)}[role]
        t1, t2, _ = generate(SceneSpec(width=300, height=300, seed=2))
        x1, x2 = normalize_pair(t1, t2)
        res = detect_pair(x1, x2, spec)
        f1, f2 = extract(spec, x1), extract(spec, x2)
        g, _, _, strips, lend = _difference(spec, x1, x2)
        whole = (f2 - f1).transpose(2, 0, 1)
        skip = recomputed_dims(spec, x1.bands)
        # an identity detection holds no dim of g
        assert g.shape == (spec.expected_dims(x1.bands) - skip, 300, 300)
        assert np.array_equal(g, whole[skip:])
        assert strips == cdconf.features._Extraction(spec, x1).strips
        if skip:
            ahead, visits = np.empty((skip, 300, 300), np.float32), []

            def visit(y0, y1, a, b, patch):
                # the lent patch block is free to overwrite
                assert not any(np.shares_memory(patch, f) for f in (a, b))
                ahead[:, y0:y1] = b - a
                visits.append((y0, y1))

            for y0, y1 in strips:
                lend(y0, y1, visit)
            assert np.array_equal(ahead, whole[:skip])
            assert visits == strips
        else:
            # nothing to recompute, but a worker's patch block is lent
            lent = []
            lend(0, 300, lambda *a: lent.append(a))
            assert [a[:4] for a in lent] == [(0, 300, None, None)]
            assert len(lent[0][4]) == len(cdconf.features._Extraction(spec, x1).scratch()[0])
        rho = standardized_magnitude_reference(f1, f2)
        assert np.array_equal(res.magnitude.rho, rho)
        assert res.tau == otsu_tau_bruteforce(rho)
        assert np.array_equal(res.labels.changed, rho > np.float64(res.tau))

    def test_noisy_primary_labels_about_the_reference_fraction(self):
        # after the zero-bias rectifier layers some primary dims are zero but
        # at a few pixels; counted live, their standardized tail pulled the
        # noisy threshold to 29.7 on this scene, and 0.24% of the pixels
        # were labelled changed against a reference of 8%
        t1, t2, ref = generate(SceneSpec(seed=0))
        x1, x2 = normalize_pair(t1, t2)
        s1, s2 = iteration_seeds(0, 1)
        res = detect_pair(perturb(x1, 0.1, s1), perturb(x2, 0.1, s2), default_primary_spec(0))
        changed, truth = res.labels.changed, ref.changed
        assert truth.mean() / 3 < changed.mean() < 3 * truth.mean()
        assert (changed & truth).sum() >= 0.8 * truth.sum()

    # a GEMM tile of 432 x 512 float32 holds 512 columns of the secondary's
    # layer 2 and 1536 of the primary's deeper layers; 432 x 256, 432 x 1024
    # and 432 x 4096 give every layer other tile widths, so any rounding
    # that hung on a tile's width would show in rho
    @pytest.mark.parametrize("size", [(257, 513), (512, 512)], ids=["257x513", "512x512"])
    @pytest.mark.parametrize("role", ["primary", "secondary"])
    def test_the_tile_width_moves_no_bit(self, monkeypatch, role, size):
        spec = {"primary": default_primary_spec, "secondary": default_secondary_spec}[role](0)
        h, w = size
        t1, t2, _ = generate(SceneSpec(width=w, height=h, seed=6))
        x1, x2 = normalize_pair(t1, t2)
        rhos = []
        for columns in (256, 512, 1024, 4096):
            monkeypatch.setattr(cdconf.features, "_GEMM", 432 * columns)
            rhos.append(detect_pair(x1, x2, spec, threads=2).magnitude.rho)
        assert all(np.array_equal(rhos[0], rho) for rho in rhos[1:])

    @pytest.mark.parametrize("role", ["primary", "secondary"])
    def test_same_bits_on_worker_threads(self, role):
        spec = {"primary": default_primary_spec, "secondary": default_secondary_spec}[role](0)
        t1, t2, _ = generate(SceneSpec(width=300, height=300, seed=2))
        x1, x2 = normalize_pair(t1, t2)
        one, three = detect_pair(x1, x2, spec, threads=1), detect_pair(x1, x2, spec, threads=3)
        assert np.array_equal(one.magnitude.rho, three.magnitude.rho)
        assert one.tau == three.tau
        assert np.array_equal(one.labels.changed, three.labels.changed)


    # the stock secondary recomputes its layer-1 tap; the primary, and the
    # secondary on 100 bands, whose layer 1 costs more than its layer 2,
    # hold every dim
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("size", ["128x128", "257x513", "one-row-strips"])
    @pytest.mark.parametrize("role", ["primary", "secondary", "secondary-100-bands"])
    def test_bit_identical_to_the_magnitude_of_the_whole_stack(self, monkeypatch, role,
                                                               size, threads):
        h, w = {"128x128": (128, 128), "257x513": (257, 513), "one-row-strips": (40, 96)}[size]
        if size == "one-row-strips":
            monkeypatch.setattr(cdconf.features, "_HALOS", 0)
            monkeypatch.setattr(cdconf.features, "_VALUES", 1)
        rng = np.random.Generator(np.random.Philox(key=h * w))
        bands = 100 if role == "secondary-100-bands" else 4
        x1, x2 = (Raster(rng.uniform(size=(bands, h, w)).astype(np.float32)) for _ in "12")
        spec = (default_primary_spec if role == "primary" else default_secondary_spec)(0)
        g, sd, live, strips, lead = _difference(spec, x1, x2, threads)
        f1, f2 = extract(spec, x1), extract(spec, x2)
        whole = np.ascontiguousarray((f2 - f1).transpose(2, 0, 1))
        skip = recomputed_dims(spec, bands)
        assert skip == (48 if role == "secondary" else 0)
        assert np.array_equal(g, whole[skip:])
        rho = _standardized_magnitude(g, sd, live, strips, threads, lead).rho
        assert np.array_equal(rho, whole_stack_magnitude_reference(whole, sd, live))
        assert np.array_equal(detect_pair(x1, x2, spec, threads).magnitude.rho, rho)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("role", ["primary", "secondary"])
    def test_traced_peak_within_one_stack_and_the_strip_workers(self, role, threads):
        # the held dims of the difference stack, the magnitude map and each
        # worker's strip buffers, with 128 KiB for the interpreter's own
        # objects; holding the secondary's recomputed dims too would add a
        # quarter of its budget
        spec = {"primary": default_primary_spec, "secondary": default_secondary_spec}[role](0)
        t1, t2, _ = generate(SceneSpec(width=256, height=256, seed=2))
        x1, x2 = normalize_pair(t1, t2)
        _conv_weights(spec, x1.bands)
        tracemalloc.start()
        try:
            detect_pair(x1, x2, spec, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pixels = 256 * 256
        stack = (spec.expected_dims(x1.bands) - recomputed_dims(spec, x1.bands)) * pixels * 4
        strip = strip_worker_nbytes(spec, x1.bands, 256, 256)
        assert peak <= stack + pixels * 4 + threads * strip + 2**17


class TestRecomputedLeadingDims:
    """The magnitude pass recomputes the leading dims of each strip once, in
    a strip worker's scratch buffers; rho equals the whole-strip path that
    copied them into a buffer of their own, and the magnitude of the whole
    stack, bit for bit."""

    def _check(self, spec, x1, x2, threads):
        g, sd, live, strips, lend = _difference(spec, x1, x2, threads)
        rho = _standardized_magnitude(g, sd, live, strips, threads, lend).rho
        assert np.array_equal(rho, lead_ahead_magnitude_reference(spec, x1, x2, g, sd, live))
        whole = np.ascontiguousarray((extract(spec, x2) - extract(spec, x1)).transpose(2, 0, 1))
        assert np.array_equal(rho, whole_stack_magnitude_reference(whole, sd, live))
        assert np.array_equal(detect_pair(x1, x2, spec, threads).magnitude.rho, rho)
        return strips

    def _pair(self, bands, h, w):
        rng = np.random.Generator(np.random.Philox(key=bands * h * w))
        return (Raster(rng.uniform(size=(bands, h, w)).astype(np.float32)) for _ in "12")

    def _record_leading(self, monkeypatch) -> list[tuple[int, int]]:
        """The rows of each ``leading`` call, in the order the calls end."""
        calls, leading = [], cdconf.features._Extraction.leading

        def recorded(self, other, y0, y1, scratch):
            got = leading(self, other, y0, y1, scratch)
            calls.append((y0, y1))
            return got

        monkeypatch.setattr(cdconf.features._Extraction, "leading", recorded)
        return calls

    # a 300x130 image in strips of 100 rows of 48 channels is three
    # strips with 1 to 16 bands, each recomputed in one call by each of the
    # two detections that ``_check`` runs; with 16 bands layer 1 still
    # costs less than layer 2 (16 < 48 channels), and with 100 it is held
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("bands", [1, 4, 16, 100])
    def test_stock_secondary(self, monkeypatch, bands, threads):
        monkeypatch.setattr(cdconf.features, "_VALUES", 100 * 130 * 48)
        spec = default_secondary_spec(0)
        assert recomputed_dims(spec, bands) == (0 if bands == 100 else 48)
        calls = self._record_leading(monkeypatch)
        strips = self._check(spec, *self._pair(bands, 300, 130), threads)
        assert sorted(calls) == sorted(strips * 2)
        if bands < 100:
            assert strips == [(0, 100), (100, 200), (200, 300)]

    # a 57x513 image in strips of at most 29 rows of 48 channels is strips
    # of 28 and 29 rows, whose last recomputed GEMM is ragged
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_strips_of_unequal_height(self, monkeypatch, threads):
        monkeypatch.setattr(cdconf.features, "_VALUES", 29 * 513 * 48)
        calls = self._record_leading(monkeypatch)
        strips = self._check(default_secondary_spec(0), *self._pair(4, 57, 513), threads)
        assert strips == [(0, 28), (28, 57)]
        assert sorted(calls) == sorted(strips * 2)

    # a 1x1 kernel recomputes its layer-1 tap on images of one pixel, one
    # row, and one column in strips of one or two rows (``_VALUES`` holds
    # that many rows of the 6 channels), one pixel each at one row
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("h,w,rows", [(1, 1, None), (1, 9, None), (5, 1, 1), (7, 1, 2)])
    def test_one_pixel_strips(self, monkeypatch, h, w, rows, threads):
        if rows is not None:
            monkeypatch.setattr(cdconf.features, "_VALUES", rows * 6 * w)
        spec = ExtractorSpec(depth=3, taps=(1, 3), channels=6, kernel_size=1, seed=3)
        assert recomputed_dims(spec, 4) == 6
        calls = self._record_leading(monkeypatch)
        strips = self._check(spec, *self._pair(4, h, w), threads)
        assert max(y1 - y0 for y0, y1 in strips) == (rows or 1)
        assert sorted(calls) == sorted(strips * 2)

    # the pixels of TestStandardizedMagnitude's order check, with the first
    # 152 dims recomputed: f2 - f1 of them in strips of ``rows`` rows, one
    # pixel each on a one-column image
    @pytest.mark.parametrize("block", [8, 152 * 6, 2**17])
    @pytest.mark.parametrize("h,w,rows", [(1, 1, 1), (3, 1, 1), (3, 1, 2), (1, 2, 1), (2, 3, 2)])
    def test_adds_the_leading_dims_one_at_a_time_in_dim_order(self, monkeypatch, block,
                                                              h, w, rows):
        monkeypatch.setattr(cdconf.dcva, "_BLOCK", block)
        dims = np.array([2.0**30, 2.0**18, 2.0**18, 2.0**6] + [2.0] * 300, np.float32)
        skip = 152

        def lend(y0, y1, visit):
            f1 = np.repeat(dims[:skip], (y1 - y0) * w).reshape(skip, y1 - y0, w)
            visit(y0, y1, f1, 2 * f1, np.empty(max(2 * block, 7 * (y1 - y0) * w), np.float32))

        g = np.repeat(dims[skip:], h * w).reshape(-1, h, w)
        ones = np.ones(len(dims), np.float32)
        rho = _standardized_magnitude(g, ones, ones > 0, _strips(h, rows), 1, lend).rho
        assert (rho == np.float32(2.0**30)).all()

    # (spec, bands, height, width); at 96x1100 the primary's strips are 48
    # rows, too wide for one dim of the magnitude pass in 2 * _BLOCK
    # entries, which then takes the 7 entries a pixel of one dim in the
    # patch block.  A primary strip of 48x1400 and a secondary one of
    # 16x4200 are 67,200 pixels, whose one dim (470,400 entries) is more
    # than their GEMM tiles and 2 * _BLOCK, so the patch block grows to
    # hold it; a primary strip of 25x2001 is an odd 50,025 pixels
    _TRACED = {"secondary": (default_secondary_spec(0), 4, 256, 256),
               "identity": (ExtractorSpec(kind=ExtractorKind.IDENTITY), 4, 256, 256),
               "identity-100-bands": (ExtractorSpec(kind=ExtractorKind.IDENTITY), 100, 128, 256),
               "primary-96x1100": (default_primary_spec(0), 4, 96, 1100),
               "primary-48x1400": (default_primary_spec(0), 4, 48, 1400),
               "secondary-16x4200": (default_secondary_spec(0), 4, 16, 4200),
               "primary-25x2001": (default_primary_spec(0), 4, 25, 2001)}

    @pytest.mark.parametrize("case", list(_TRACED))
    def test_traced_magnitude_pass_holds_only_its_map(self, case):
        # the recomputed rows, the float64 blocks and the quotients all lie
        # in the scratch buffers the first pass left; a buffer of a strip's
        # recomputed rows would add 3 MiB at 256 wide, and magnitude-pass
        # buffers of its own 1.5 MiB to an identity detection
        spec, bands, h, w = self._TRACED[case]
        if bands == 4:
            t1, t2, _ = generate(SceneSpec(width=w, height=h, seed=2))
            x1, x2 = normalize_pair(t1, t2)
        else:
            x1, x2 = self._pair(bands, h, w)
        g, sd, live, strips, lend = _difference(spec, x1, x2, 1)
        tracemalloc.start()
        try:
            m = _standardized_magnitude(g, sd, live, strips, 1, lend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= m.rho.nbytes + 2**17


class TestStandardizedMagnitude:
    """The magnitude pass on a difference stack, and ``detect_pair`` on
    rasters whose identity features are the stacks, both equal the
    materialized reference bit for bit."""

    def _pair(self, h, w, d, key):
        rng = np.random.Generator(np.random.Philox(key=key))
        f1 = np.maximum(rng.normal(size=(h, w, d)), 0).astype(np.float32)
        f2 = np.maximum(rng.normal(size=(h, w, d)), 0).astype(np.float32)
        return f1, f2

    def _rho(self, f1, f2):
        """The magnitude of the (h, w, D) stacks through ``detect_pair``'s
        strips with identity features, checked against the magnitude pass
        on the whole difference stack."""
        x1, x2 = (Raster(np.ascontiguousarray(f.transpose(2, 0, 1))) for f in (f1, f2))
        identity = ExtractorSpec(kind=ExtractorKind.IDENTITY)
        rho = detect_pair(x1, x2, identity).magnitude.rho
        g = np.ascontiguousarray((f2 - f1).transpose(2, 0, 1))
        strips = cdconf.features._Extraction(identity, x1).strips
        assert np.array_equal(_standardized_magnitude(g, *_pooled_std(f1, f2), strips, None,
                                                      _own_lend(g.shape[-1])).rho, rho)
        return rho

    def _assert_bit_identical(self, f1, f2):
        assert np.array_equal(self._rho(f1, f2), standardized_magnitude_reference(f1, f2))

    def test_dead_dims(self):
        f1, f2 = self._pair(64, 80, 8, 31)
        f1[..., [0, 5]] = f2[..., [0, 5]] = 0
        self._assert_bit_identical(f1, f2)

    def test_dim_constant_at_two_values(self):
        f1, f2 = self._pair(64, 80, 8, 32)
        f1[..., 3], f2[..., 3] = np.float32(2.0), np.float32(3.0)
        self._assert_bit_identical(f1, f2)

    def test_small_spread_far_from_zero(self):
        # E[x^2] - mu^2 cancels all but a few bits of the variance here; the
        # std merged from strip moments keeps float64 precision.  Every dim
        # has the same small spread, so the relative dead-dim rule keeps dim
        # 2, far from zero, live
        f1, f2 = self._pair(256, 256, 4, 35)
        for f in (f1, f2):
            f *= np.float32(1e-3)
            f[..., 2] += np.float32(1000)
        self._assert_bit_identical(f1, f2)
        x1, x2 = (Raster(np.ascontiguousarray(f.transpose(2, 0, 1))) for f in (f1, f2))
        _, sd, live, _, _ = _difference(ExtractorSpec(kind=ExtractorKind.IDENTITY), x1, x2)
        pooled = np.concatenate([f1[..., 2].ravel(), f2[..., 2].ravel()]).astype(np.float64)
        want = np.sqrt(np.mean((pooled - pooled.mean()) ** 2))
        assert live[2] and abs(float(sd[2]) - want) <= 1e-6 * want

    def test_constant_non_dyadic_dim_at_scale(self):
        # a constant 0.1 over 512x512 pixels must come out dead, as whole-stack
        # two-pass moments make it, not carry a rounding-noise variance
        f1, f2 = self._pair(512, 512, 2, 33)
        f1[..., 0] = f2[..., 0] = np.float32(0.1)
        self._assert_bit_identical(f1, f2)
        rho = self._rho(f1, f2)
        f1[..., 0] = f2[..., 0] = 0
        assert np.array_equal(rho, self._rho(f1, f2))

    def test_traced_peak_within_half_a_stack(self):
        # a few blocks and the map; one stack-sized temporary would exceed it
        rng = np.random.Generator(np.random.Philox(key=34))
        g = rng.random(size=(96, 256, 256), dtype=np.float32)
        sd = rng.random(size=96, dtype=np.float32) + np.float32(0.5)
        live = np.arange(96) % 7 != 0
        tracemalloc.start()
        try:
            m = _standardized_magnitude(g, sd, live, _strips(256, 64), 1, _own_lend(256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del m
        assert peak <= 0.5 * g.nbytes


    @pytest.mark.parametrize("live", [[], [0], [0, 1, 2], [0, 2, 3, 4, 9], list(range(20))])
    def test_runs_of_live_dims(self, live):
        # consecutive dims, at most 3 a run, none across the 5 recomputed
        runs = _runs(np.array(live, dtype=np.int64), 5, 3)
        assert [d for d0, d1 in runs for d in range(d0, d1)] == live
        assert all(0 < d1 - d0 <= 3 and (d1 <= 5 or d0 >= 5) for d0, d1 in runs)
        assert all(b[0] > a[1] or b[0] == 5 or a[1] - a[0] == 3 for a, b in zip(runs, runs[1:]))

    def _spanned_case(self, key, d, skip):
        """A (d, 6, 96) difference stack of which dims 3 and 8 are dead, with
        finite stds, and a ``lend`` that recomputes its first ``skip`` dims:
        rows of zeros as f1 and of g as f2."""
        rng = np.random.Generator(np.random.Philox(key=key))
        g = rng.normal(size=(d, 6, 96)).astype(np.float32)
        sd = (rng.random(d) + 0.5).astype(np.float32)
        live = ~np.isin(np.arange(d), [3, 8])

        def lend(y0, y1, visit):
            rows = g[:skip, y0:y1]
            visit(y0, y1, np.zeros_like(rows), rows, np.empty(2 * 2**17, np.float32))

        return g, sd, live, lend

    def _skipping(self, g, sd, live):
        """rho with the dead dims skipped: each live dim's float64 square of
        its float32 quotient added in dim order."""
        total = np.zeros(g.shape[1:])
        for d in np.flatnonzero(live):
            total += np.square(g[d] / sd[d], dtype=np.float64)
        return np.sqrt(total).astype(np.float32)

    def _recorded_runs(self, monkeypatch) -> list[list[int]]:
        runs, original = [], cdconf.dcva._runs

        def recorded(*args):
            got = original(*args)
            runs.extend(got)
            return got

        monkeypatch.setattr(cdconf.dcva, "_runs", recorded)
        return runs

    # dead dims 3 and 8 with finite stds, held or recomputed, between live
    # dims: no block holds them, so rho has the bits of skipping them
    @pytest.mark.parametrize("skip", [0, 6, 12])
    def test_a_block_spanning_a_dead_dim_gives_the_bits_of_skipping_it(self, monkeypatch,
                                                                       skip):
        g, sd, live, lend = self._spanned_case(37, 12, skip)
        runs = self._recorded_runs(monkeypatch)
        rho = _standardized_magnitude(g[skip:], sd, live, [(0, 3), (3, 6)], 1, lend).rho
        assert runs and not any(d0 <= d < d1 for d0, d1 in runs for d in (3, 8))
        assert np.array_equal(rho, self._skipping(g, sd, live))

    # a dead dim whose std is not finite, or so large that its |g| may
    # overflow float32, may hold non-finite g: no block holds it, so rho
    # stays the finite sum of the live dims
    @pytest.mark.parametrize("std,value", [(np.inf, np.inf), (np.nan, np.nan),
                                           (1e37, np.inf)])
    def test_a_dead_dim_with_unbounded_std_ends_a_block(self, monkeypatch, std, value):
        g, sd, live, lend = self._spanned_case(38, 12, 0)
        g[3, 2, 5], sd[3] = value, std
        runs = self._recorded_runs(monkeypatch)
        rho = _standardized_magnitude(g, sd, live, [(0, 6)], 1, lend).rho
        assert runs and not any(d0 <= d < d1 for d0, d1 in runs for d in (3, 8))
        assert np.isfinite(rho).all()
        assert np.array_equal(rho, self._skipping(g, sd, live))

    # a 6x96 image is one strip of 576 pixels: a float64 block too small
    # for one dim, blocks of one dim and of three beside the running total
    # and the total's row, and one block of all 19 dims but a dead one
    @pytest.mark.parametrize("block", [8, 3 * 576, 5 * 576, 2**17])
    def test_bit_identical_for_every_block_size(self, monkeypatch, block):
        monkeypatch.setattr(cdconf.dcva, "_BLOCK", block)
        f1, f2 = self._pair(6, 96, 19, 36)
        f1[..., 4] = f2[..., 4] = 0
        self._assert_bit_identical(f1, f2)


    # pixels whose float64 sum of squares, added dim by dim in dim order, is
    # m^2 for m = 2^30 + 64, halfway between two float32 values, so rho
    # rounds to even, 2^30; each of the 300 squares of 2 after it is lost
    # in that order (m^2 has an ulp of 256), while an order that sums 150 of
    # them first lands two ulps past m^2 and rounds rho up to 2^30 + 128.
    # Strips of one pixel (a 1x1 image, or one-row strips of a 3x1 one),
    # and of 2 and 6: the identity strips of each image (at most _PIXELS
    # pixels), but a 3x1 image's, which are one pixel each
    @pytest.mark.parametrize("block", [8, 152 * 6, 2**17])
    @pytest.mark.parametrize("h,w,pixels", [(1, 1, _PIXELS), (3, 1, 1), (1, 2, _PIXELS),
                                            (2, 3, _PIXELS)])
    def test_adds_the_dims_one_at_a_time_in_dim_order(self, monkeypatch, block, h, w, pixels):
        monkeypatch.setattr(cdconf.dcva, "_BLOCK", block)
        monkeypatch.setattr(cdconf.features, "_PIXELS", pixels)
        dims = [2.0**30, 2.0**18, 2.0**18, 2.0**6] + [2.0] * 300
        g = np.repeat(np.array(dims, np.float32), h * w).reshape(-1, h, w)
        strips = cdconf.features._Extraction(ExtractorSpec(kind=ExtractorKind.IDENTITY),
                                             Raster(g[:1])).strips
        rho = _standardized_magnitude(g, np.ones(len(g), np.float32), np.ones(len(g), bool),
                                      strips, None, _own_lend(w)).rho
        assert (rho == np.float32(2.0**30)).all()


class TestChangeResultType:
    def test_rejects_negative_rho(self):
        with pytest.raises(ValueError):
            MagnitudeMap(np.array([[-1.0]], dtype=np.float32))

    def test_holds_components(self):
        m = _mm([0.0, 1.0])
        res = ChangeResult(magnitude=m, tau=0.5, labels=threshold_labels(m, 0.5))
        assert res.labels.changed[0, 1]
        assert not res.labels.changed[0, 0]
