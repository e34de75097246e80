import math
import statistics
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdconf.pool
import cdconf.rng
from cdconf.baselines import RcvaConfig, rcva_detect
from cdconf.dcva import ChangeResult, MagnitudeMap, detect_pair, threshold_labels
from cdconf.errors import InvariantViolation, RejectedValue, ShapeMismatch
from cdconf.features import ExtractorSpec, default_primary_spec, default_secondary_spec
from cdconf.pool import _pool_map
from cdconf.raster import ConfidenceState, Raster, normalize_pair
from cdconf.rng import fill_standard_normal
from cdconf.smoothing import (
    _SIGMA_MAX,
    ConfidentDetection,
    EnsembleCounts,
    SmoothingConfig,
    check_detection,
    ensemble_counts,
    ensemble_counts_with,
    fuse_confidence,
    iteration_seeds,
    perturb,
    run_proposed,
)
from cdconf.synth import SceneSpec, generate
from oracles import perturb_reference, standard_normal_reference, strip_worker_nbytes

CC = int(ConfidenceState.CONFIDENT_CHANGED)
CU = int(ConfidenceState.CONFIDENT_UNCHANGED)
NC = int(ConfidenceState.NOT_CONFIDENT)


def _scene(seed=0, bands=2, h=14, w=12) -> Raster:
    rng = np.random.Generator(np.random.Philox(key=seed))
    return Raster(rng.uniform(size=(bands, h, w)).astype(np.float32))


def _pair(seed=0):
    x1 = _scene(seed)
    data = x1.data.copy()
    data[:, 3:7, 2:6] += 0.4
    return x1, Raster(data)


_F2 = ExtractorSpec(depth=2, taps=(1, 2), channels=4, seed=7)


def _primary_from_labels(changed: np.ndarray) -> ChangeResult:
    rho = np.where(changed, 1.0, 0.0).astype(np.float32)
    return ChangeResult(magnitude=MagnitudeMap(rho), tau=0.5, labels=threshold_labels(MagnitudeMap(rho), 0.5))


class TestConfigValidation:
    def test_defaults(self):
        cfg = SmoothingConfig()
        assert (cfg.sigma, cfg.iterations, cfg.conf_threshold) == (0.1, 10, 1.0)

    def test_bad_sigma(self):
        with pytest.raises(RejectedValue):
            SmoothingConfig(sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(RejectedValue):
            SmoothingConfig(sigma=sigma)

    def test_sigma_bound(self):
        # noise past 1e6 on the [0, 1] scale is refused long before float32
        # overflows (3.4e38), where a noisy raster would hold inf
        assert SmoothingConfig(sigma=1e6).sigma == 1e6
        for sigma in (np.nextafter(1e6, np.inf), 1e38, 1e39):
            with pytest.raises(RejectedValue, match=r"sigma must be finite and in \[0, 1e\+06\]"):
                SmoothingConfig(sigma=float(sigma))

    def test_bad_iterations(self):
        with pytest.raises(RejectedValue):
            SmoothingConfig(iterations=0)

    @pytest.mark.parametrize("kt", [0.0, -0.5, 1.5])
    def test_bad_conf_threshold(self, kt):
        with pytest.raises(RejectedValue):
            SmoothingConfig(conf_threshold=kt)


class TestPerturb:
    def test_sigma_zero_bit_identical(self):
        x = _scene(1)
        assert perturb(x, 0.0, 123).data is x.data

    def test_deterministic_per_seed(self):
        x = _scene(2)
        a = perturb(x, 0.1, 42)
        b = perturb(x, 0.1, 42)
        c = perturb(x, 0.1, 43)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_not_clamped(self):
        x = Raster(np.zeros((1, 50, 50), dtype=np.float32))
        y = perturb(x, 0.5, 9)
        assert y.data.min() < 0

    def test_moments_over_a_million_samples(self):
        x = Raster(np.zeros((1, 1000, 1000), dtype=np.float32))
        delta = perturb(x, 0.1, 77).data.astype(np.float64)
        assert abs(delta.mean()) < 0.003
        assert abs(delta.std() - 0.1) < 0.001

    # each iteration's two rasters, and successive iterations, draw from
    # unrelated streams: 5e-3 is five standard errors of r at a million pixels
    @pytest.mark.parametrize("a, b", [((1, 0), (1, 1)), ((4, 0), (5, 0)), ((4, 1), (5, 1))],
                             ids=["role-1-vs-2", "k-vs-k+1-role-1", "k-vs-k+1-role-2"])
    def test_streams_uncorrelated_over_a_million_samples(self, a, b):
        x = Raster(np.zeros((1, 1000, 1000), dtype=np.float32))
        seed_a, seed_b = iteration_seeds(31, a[0])[a[1]], iteration_seeds(31, b[0])[b[1]]
        r = np.corrcoef(perturb(x, 1.0, seed_a).data.ravel(), perturb(x, 1.0, seed_b).data.ravel())
        assert abs(r[0, 1]) < 5e-3

    def test_share_beyond_three_sigma(self):
        # 2 * (1 - Phi(3)) = 0.270%; 0.03 points is six standard errors
        x = Raster(np.zeros((1, 1000, 1000), dtype=np.float32))
        share = np.mean(np.abs(perturb(x, 0.1, 78).data) > np.float32(0.3))
        assert abs(share - 0.0027) < 0.0003

    def test_largest_sigma_stays_finite(self):
        x = _scene(5, bands=4, h=64, w=64)
        y = perturb(x, _SIGMA_MAX, 79).data
        assert y.dtype == np.float32 and np.isfinite(y).all()
        assert np.abs(y).max() > _SIGMA_MAX

    def test_share_beyond_four_sigma(self):
        # 2 * (1 - Phi(4)) = 6.33e-5; 2.4e-5 is six standard errors at 4e6
        x = Raster(np.zeros((4, 1000, 1000), dtype=np.float32))
        share = np.mean(np.abs(perturb(x, 1.0, 80).data) > np.float32(4))
        assert abs(share - 2 * (1 - statistics.NormalDist().cdf(4))) < 2.4e-5

    def test_cdf_at_the_deciles(self):
        # 3e-3 is six standard errors of an empirical CDF at a million samples
        z = np.sort(perturb(Raster(np.zeros((1, 1000, 1000), np.float32)), 1.0, 81).data.ravel())
        normal = statistics.NormalDist()
        for q in range(1, 10):
            x = normal.inv_cdf(q / 10)
            assert abs(np.searchsorted(z, x, side="right") / z.size - normal.cdf(x)) < 3e-3

    def test_pairs_sharing_a_radius_uncorrelated(self):
        # entries i and h + i are r cos(theta) and r sin(theta) of one pair:
        # 7e-3 is five standard errors of r at half a million pairs
        z = perturb(Raster(np.zeros((1, 1000, 1000), np.float32)), 1.0, 82).data.ravel()
        h = z.size // 2
        assert abs(np.corrcoef(z[:h], z[h:])[0, 1]) < 7e-3

    def test_largest_value_is_the_largest_radius(self):
        # 1 - u >= 2**-24, so no |value| passes sqrt(-2 ln 2**-24) ~ 5.77, a
        # tail of about 8e-9 that the normal would put beyond it
        bound = np.sqrt(np.float32(-2) * np.log(np.float32(2.0**-24)))
        assert abs(bound - math.sqrt(48 * math.log(2))) < 1e-5 and bound < 5.77
        z = perturb(Raster(np.zeros((4, 1000, 1000), np.float32)), 1.0, 83).data
        assert np.abs(z).max() <= bound

    @pytest.mark.parametrize("sigma", [0.1, 0.37, 1e-6])
    def test_pinned_to_float32_scale_and_sum_bit_for_bit(self, sigma):
        # the float32 noise is scaled by float32(sigma) and summed in place:
        # the same bits as the float32 product plus the raster, no float64
        x = _scene(4, bands=3, h=33, w=17)
        noise = np.empty(x.data.size, np.float32)
        fill_standard_normal(noise, 55)
        want = noise.reshape(x.data.shape) * np.float32(sigma) + x.data
        got = perturb(x, sigma, 55).data
        assert want.dtype == got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    # an odd element count takes one extra uniform for the last pair's angle
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 33, 17), (1, 67, 131), (4, 67, 131),
                                       (100, 67, 131)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_bit_identical_to_the_unchunked_box_muller(self, shape):
        x = _scene(shape[0], *shape)
        want = perturb_reference(x.data, 0.1, 91)
        assert np.array_equal(perturb(x, 0.1, 91).data.view(np.uint32), want.view(np.uint32))

    # 3x129x129 is 24,961 pairs and an odd count: two chunks at the stock size
    @pytest.mark.parametrize("pairs", [1, 7, 10**6])
    def test_bits_independent_of_the_chunk_size(self, pairs, monkeypatch):
        x = _scene(6, bands=3, h=129, w=129)
        want = perturb(x, 0.1, 92).data
        monkeypatch.setattr(cdconf.rng, "_PAIRS", pairs)
        assert np.array_equal(perturb(x, 0.1, 92).data.view(np.uint32), want.view(np.uint32))

    # 3x33x17 is 1,683 values, an odd count: 842 words of uniforms
    @pytest.mark.parametrize("words", [1, 7, 10**6])
    def test_bits_independent_of_the_word_chunk_size(self, words, monkeypatch):
        x = _scene(6, bands=3, h=33, w=17)
        want = perturb(x, 0.1, 92).data
        monkeypatch.setattr(cdconf.rng, "_WORDS", words)
        assert np.array_equal(perturb(x, 0.1, 92).data.view(np.uint32), want.view(np.uint32))

    # the uniforms come from SFC64's raw words, 8,192 words (16,384 uniforms)
    # a chunk: n = 1, 2, 3, an odd n, and both sides of the chunk boundaries
    # at 16,384 and 32,768 values, the second also the Box-Muller chunk's
    @pytest.mark.parametrize("n", [1, 2, 3, 1001, 16383, 16384, 16385, 16386,
                                   32767, 32768, 32769, 32770, 49153])
    def test_noise_bit_identical_to_numpys_float32_uniforms(self, n):
        noise = np.empty(n, np.float32)
        fill_standard_normal(noise, 93)
        want = standard_normal_reference(n, 93)
        assert np.array_equal(noise.view(np.uint32), want.view(np.uint32))

    def test_draws_into_out(self):
        x = _scene(4, bands=3, h=33, w=17)
        out = np.full(x.data.shape, np.nan, np.float32)
        noisy = perturb(x, 0.1, 55, out)
        assert noisy.data is out
        assert np.array_equal(out.view(np.uint32), perturb(x, 0.1, 55).data.view(np.uint32))

    def test_sigma_zero_leaves_out_untouched(self):
        x = _scene(4)
        out = np.full(x.data.shape, 7, np.float32)
        assert perturb(x, 0.0, 55, out) is x
        assert np.all(out == 7)

    def test_role_streams_independent(self):
        s1, s2 = iteration_seeds(0, 1)
        x = _scene(3)
        assert s1 != s2
        assert not np.array_equal(perturb(x, 0.1, s1).data, perturb(x, 0.1, s2).data)

    def test_iteration_seeds_distinct_across_k(self):
        seen = set()
        for k in range(1, 21):
            seen.update(iteration_seeds(5, k))
        assert len(seen) == 40


class TestEnsembleCounts:
    def test_sigma_zero_collapses(self):
        x1, x2 = _pair(4)
        cfg = SmoothingConfig(sigma=0.0, iterations=5, master_seed=3)
        c = ensemble_counts(x1, x2, _F2, cfg)
        assert set(np.unique(c.k_prime)) <= {0, 5}

    def test_k_one_equals_single_noisy_run(self):
        x1, x2 = _pair(5)
        cfg = SmoothingConfig(sigma=0.05, iterations=1, master_seed=11)
        c = ensemble_counts(x1, x2, _F2, cfg)
        assert set(np.unique(c.k_prime)) <= {0, 1}
        from cdconf.dcva import detect_pair

        s1, s2 = iteration_seeds(11, 1)
        single = detect_pair(perturb(x1, 0.05, s1), perturb(x2, 0.05, s2), _F2)
        assert np.array_equal(c.k_prime.astype(bool), single.labels.changed)

    def test_repeatable_and_order_independent(self):
        from cdconf.dcva import detect_pair

        x1, x2 = _pair(6)
        cfg = SmoothingConfig(sigma=0.08, iterations=6, master_seed=21)
        a = ensemble_counts(x1, x2, _F2, cfg)
        b = ensemble_counts(x1, x2, _F2, cfg)
        # reference loop running the iterations in reverse: K, K-1, ..., 1
        rev = np.zeros_like(a.k_prime)
        for k in range(cfg.iterations, 0, -1):
            s1, s2 = iteration_seeds(cfg.master_seed, k)
            noisy = detect_pair(perturb(x1, cfg.sigma, s1), perturb(x2, cfg.sigma, s2), _F2)
            rev += noisy.labels.changed
        assert np.array_equal(a.k_prime, b.k_prime)
        assert np.array_equal(a.k_prime, rev)

    def test_thread_count_irrelevant(self):
        x1, x2 = _pair(7)
        cfg = SmoothingConfig(sigma=0.08, iterations=6, master_seed=22)
        a = ensemble_counts(x1, x2, _F2, cfg, threads=1)
        b = ensemble_counts(x1, x2, _F2, cfg, threads=4)
        assert np.array_equal(a.k_prime, b.k_prime)

    # the pair's two noise draws run side by side, for every voter
    @pytest.mark.parametrize("voter", ["detect_pair", "rcva_detect"])
    def test_counts_identical_for_every_thread_count(self, voter):
        x1, x2 = _pair(9)
        detector = {"detect_pair": partial(detect_pair, spec=_F2, threads=1),
                    "rcva_detect": partial(rcva_detect, cfg=RcvaConfig(1))}[voter]
        cfg = SmoothingConfig(sigma=0.1, iterations=5, master_seed=23)
        counts = [ensemble_counts_with(x1, x2, detector, cfg, t).k_prime for t in (1, 2, 3)]
        assert counts[0].any() and not counts[0].all()
        assert all(np.array_equal(counts[0], c) for c in counts[1:])

    def test_one_thread_starts_no_pool_for_the_noise(self, monkeypatch):
        class Refused(cdconf.pool.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                raise AssertionError("a worker pool started at threads=1")

        monkeypatch.setattr(cdconf.pool, "ThreadPoolExecutor", Refused)
        x1, x2 = _pair(10)
        cfg = SmoothingConfig(sigma=0.1, iterations=3, master_seed=24)
        ensemble_counts_with(x1, x2, partial(rcva_detect, cfg=RcvaConfig(1)), cfg, 1)

    # a vote's two noisy rasters are drawn into the same two buffers at every
    # iteration, whichever thread draws them: K votes allocate no raster
    @pytest.mark.parametrize("threads", [1, 2])
    def test_every_vote_draws_into_the_same_two_rasters(self, threads):
        x1, x2 = _pair(11)
        seen = []

        def recording(a, b):
            seen.append((a, b))
            return rcva_detect(a, b, RcvaConfig(1))

        cfg = SmoothingConfig(sigma=0.1, iterations=4, master_seed=25)
        counts = ensemble_counts_with(x1, x2, recording, cfg, threads)
        assert len(seen) == 4
        for before, now in zip(seen, seen[1:]):
            assert all(np.shares_memory(p.data, q.data) for p, q in zip(before, now))
        assert not any(np.shares_memory(n.data, x.data) for n, x in zip(seen[-1], (x1, x2)))
        want = ensemble_counts_with(x1, x2, partial(rcva_detect, cfg=RcvaConfig(1)), cfg, 1)
        assert np.array_equal(counts.k_prime, want.k_prime)

    def test_sigma_zero_votes_on_the_clean_pair_and_allocates_no_raster(self):
        x1 = _scene(12, bands=4, h=64, w=64)
        x2 = _scene(13, bands=4, h=64, w=64)
        verdict = _primary_from_labels(np.zeros((64, 64), bool))
        seen = []

        def recording(a, b):
            seen.append((a, b))
            return verdict

        tracemalloc.start()
        try:
            ensemble_counts_with(x1, x2, recording, SmoothingConfig(sigma=0.0, iterations=3), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(a is x1 and b is x2 for a, b in seen) and len(seen) == 3
        assert peak < x1.data.nbytes

    def test_bounds(self):
        x1, x2 = _pair(8)
        cfg = SmoothingConfig(sigma=0.15, iterations=4, master_seed=1)
        c = ensemble_counts(x1, x2, _F2, cfg)
        assert c.k_prime.min() >= 0
        assert c.k_prime.max() <= 4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ensemble_counts(_scene(1, h=4, w=4), _scene(1, h=5, w=5), _F2, SmoothingConfig())


class TestFuseConfidence:
    def _one_pixel(self, primary_changed: bool, k: int, k_prime: int, k_tau: float) -> int:
        primary = _primary_from_labels(np.array([[primary_changed]]))
        counts = EnsembleCounts(k_prime=np.array([[k_prime]], dtype=np.int32), k=k)
        return int(fuse_confidence(primary, counts, k_tau).states[0, 0])

    def test_full_agreement_changed(self):
        assert self._one_pixel(True, 10, 10, 1.0) == CC

    def test_split_vote_unchanged(self):
        assert self._one_pixel(False, 10, 5, 0.9) == NC

    def test_secondary_contradicts_primary(self):
        assert self._one_pixel(True, 10, 0, 0.5) == NC

    def test_decimal_threshold_means_nine_of_ten(self):
        # 0.9 * 10 overshoots 9 in binary floats; 9 agreeing runs must count
        assert self._one_pixel(True, 10, 9, 0.9) == CC
        assert self._one_pixel(False, 10, 1, 0.9) == CU

    def test_eight_of_ten_fails_point_nine(self):
        assert self._one_pixel(True, 10, 8, 0.9) == NC

    def test_never_overrides_primary(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        changed = rng.uniform(size=(9, 9)) < 0.5
        k_prime = rng.integers(0, 11, size=(9, 9)).astype(np.int32)
        primary = _primary_from_labels(changed)
        states = fuse_confidence(primary, EnsembleCounts(k_prime=k_prime, k=10), 0.7).states
        assert not np.any((states == CC) & ~changed)
        assert not np.any((states == CU) & changed)

    def test_shape_mismatch(self):
        primary = _primary_from_labels(np.zeros((2, 2), dtype=bool))
        counts = EnsembleCounts(k_prime=np.zeros((3, 3), dtype=np.int32), k=5)
        with pytest.raises(ShapeMismatch):
            fuse_confidence(primary, counts, 1.0)

    def test_bad_k_tau(self):
        primary = _primary_from_labels(np.zeros((1, 1), dtype=bool))
        counts = EnsembleCounts(k_prime=np.zeros((1, 1), dtype=np.int32), k=5)
        with pytest.raises(RejectedValue):
            fuse_confidence(primary, counts, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 12),
        a=st.sampled_from([0.6, 0.7, 0.8, 0.9, 1.0]),
        b=st.sampled_from([0.6, 0.7, 0.8, 0.9, 1.0]),
    )
    def test_subset_monotone_in_k_tau(self, seed, k, a, b):
        if a > b:
            a, b = b, a
        rng = np.random.Generator(np.random.Philox(key=seed))
        changed = rng.uniform(size=(6, 6)) < 0.5
        k_prime = rng.integers(0, k + 1, size=(6, 6)).astype(np.int32)
        primary = _primary_from_labels(changed)
        counts = EnsembleCounts(k_prime=k_prime, k=k)
        low = fuse_confidence(primary, counts, a).states
        high = fuse_confidence(primary, counts, b).states
        # every pixel confident at the stricter threshold stays confident at the looser one
        assert np.all((high != NC) <= (low != NC))
        assert np.array_equal(low[high != NC], high[high != NC])


class TestRunProposed:
    def test_unified_zero_noise_all_confident(self):
        x1, x2 = _pair(10)
        cfg = SmoothingConfig(sigma=0.0, iterations=5, conf_threshold=1.0, master_seed=2)
        det = run_proposed(x1, x2, _F2, _F2, cfg)
        assert not np.any(det.confidence.states == NC)
        assert np.array_equal(det.confidence.states == CC, det.primary.labels.changed)

    def test_identical_inputs_never_confident_changed(self):
        x = _scene(11)
        cfg = SmoothingConfig(sigma=0.1, iterations=4, conf_threshold=0.75, master_seed=5)
        det = run_proposed(x, Raster(x.data.copy()), _F2, _F2, cfg)
        assert det.primary.labels.changed.sum() == 0
        assert not np.any(det.confidence.states == CC)

    def test_counts_exposed_and_consistent_with_fusion(self):
        x1, x2 = _pair(15)
        cfg = SmoothingConfig(sigma=0.1, iterations=5, conf_threshold=1.0, master_seed=3)
        det = run_proposed(x1, x2, _F2, _F2, cfg)
        refused = fuse_confidence(det.primary, det.counts, cfg.conf_threshold)
        assert np.array_equal(refused.states, det.confidence.states)

    def test_deterministic_across_threads(self):
        x1, x2 = _pair(12)
        cfg = SmoothingConfig(sigma=0.1, iterations=6, conf_threshold=0.8, master_seed=9)
        f1 = ExtractorSpec(depth=3, taps=(1, 3), channels=4, seed=1)
        a = run_proposed(x1, x2, f1, _F2, cfg, threads=1)
        b = run_proposed(x1, x2, f1, _F2, cfg, threads=3)
        assert np.array_equal(a.confidence.states, b.confidence.states)
        assert np.array_equal(a.counts.k_prime, b.counts.k_prime)

    def test_an_extra_worker_costs_one_strips_buffers(self):
        # the iterations run one after another whatever the thread count, so
        # a second worker adds the buffers of the strips it runs beside the
        # first worker's, not a second noisy detection (a 256x256x48 float32
        # held difference stack and more).  The pool's own threads, futures
        # and frames are left three times what a second worker costs a pool
        # over four pieces of small NumPy work, measured on the interpreter
        # and NumPy that run the test (about 13 KiB against 19 KiB spent)
        t1, t2, _ = generate(SceneSpec(width=256, height=256, seed=4))
        x1, x2 = normalize_pair(t1, t2)
        f1, f2 = default_primary_spec(0), default_secondary_spec(0)
        cfg = SmoothingConfig(iterations=2)
        strip = max(strip_worker_nbytes(s, x1.bands, 256, 256) for s in (f1, f2))

        def piece(i):
            a = np.full((8, 8), i, np.float32)
            return np.square(a @ a, dtype=np.float64).mean(axis=0)

        peaks, probes = {}, {}
        for threads in (1, 2):
            tracemalloc.start()
            try:
                _pool_map(piece, list(range(4)), threads)
                probes[threads] = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                run_proposed(x1, x2, f1, f2, cfg, threads=threads)
                peaks[threads] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        worker = probes[2] - probes[1]
        assert worker > 0
        assert peaks[2] <= peaks[1] + strip + 3 * worker


def _checked_detection() -> ConfidentDetection:
    """A 2x3 detection that keeps every invariant: K = 3, full agreement needed."""
    rho = MagnitudeMap(np.array([[0.5, 2.0, 3.0], [0.1, 1.5, 0.2]], np.float32))
    primary = ChangeResult(magnitude=rho, tau=1.0, labels=threshold_labels(rho, 1.0))
    counts = EnsembleCounts(np.array([[0, 3, 2], [1, 3, 0]], np.int32), 3)
    return ConfidentDetection(primary, counts, fuse_confidence(primary, counts, 1.0))


class TestCheckDetection:
    def test_intact_detection_passes(self):
        det = _checked_detection()
        assert set(det.confidence.states.ravel()) == {CC, CU, NC}
        check_detection(det)
        check_detection(ConfidentDetection(det.primary, None, None))

    def test_labels_not_rho_above_tau(self):
        det = _checked_detection()
        det.primary.labels.changed[0, 0] = True
        with pytest.raises(InvariantViolation, match="magnitude > tau"):
            check_detection(det)

    @pytest.mark.parametrize("pixel,state", [((0, 0), CC), ((0, 1), CU)])
    def test_confident_pixel_against_primary_label(self, pixel, state):
        det = _checked_detection()
        det.confidence.states[pixel] = state
        with pytest.raises(InvariantViolation, match="primary label"):
            check_detection(det)

    @pytest.mark.parametrize("value", [-1, 4])
    def test_count_outside_zero_to_k(self, value):
        det = _checked_detection()
        det.counts.k_prime[1, 0] = value
        with pytest.raises(InvariantViolation, match=r"outside \[0, 3\]"):
            check_detection(det)
