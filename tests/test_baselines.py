import time
import tracemalloc

import numpy as np
import pytest

import cdconf.baselines
from cdconf.baselines import (
    METHODS,
    RcvaConfig,
    rcva_magnitude,
    run_method,
    run_conf_rcva,
    run_unified,
    threshold_distance,
)
from cdconf.dcva import (
    ChangeResult,
    detect_pair,
    hypervector,
    magnitude,
    otsu_threshold,
    threshold_labels,
)
from cdconf.errors import RejectedValue, ShapeMismatch
from cdconf.features import _PIXELS, ExtractorKind, ExtractorSpec, extract
from cdconf.raster import ConfidenceState, Raster
from cdconf.smoothing import (
    ConfidentDetection,
    SmoothingConfig,
    check_detection,
    ensemble_counts_with,
    fuse_confidence,
    iteration_seeds,
    perturb,
    run_proposed,
)
from cdconf.synth import SceneSpec, generate
from oracles import otsu_tau_bruteforce, rcva_bruteforce, rcva_two_pass_reference

CC = int(ConfidenceState.CONFIDENT_CHANGED)
CU = int(ConfidenceState.CONFIDENT_UNCHANGED)
NC = int(ConfidenceState.NOT_CONFIDENT)

_F1 = ExtractorSpec(depth=3, taps=(1, 3), channels=4, seed=1)


def _scene(seed=0, bands=2, h=12, w=12) -> Raster:
    rng = np.random.Generator(np.random.Philox(key=seed))
    return Raster(rng.uniform(size=(bands, h, w)).astype(np.float32))


def _pair(seed=0):
    x1 = _scene(seed)
    data = x1.data.copy()
    data[:, 3:7, 2:6] += 0.4
    return x1, Raster(data)


def _rcva_voter(rcfg):
    """The neighborhood vote's voter, built from the primitives."""

    def voter(a, b):
        rho = rcva_magnitude(a, b, rcfg)
        tau = otsu_threshold(rho)
        return ChangeResult(magnitude=rho, tau=tau, labels=threshold_labels(rho, tau))

    return voter


class TestRcvaConfig:
    def test_default_radius(self):
        assert RcvaConfig().window_radius == 1

    def test_negative_rejected(self):
        with pytest.raises(RejectedValue):
            RcvaConfig(window_radius=-1)


class TestRcvaMagnitude:
    def test_w0_is_plain_cva_exactly(self):
        x1, x2 = _pair(1)
        ident = ExtractorSpec(kind=ExtractorKind.IDENTITY)
        cva = magnitude(hypervector(extract(ident, x1), extract(ident, x2)))
        rcva = rcva_magnitude(x1, x2, RcvaConfig(window_radius=0))
        assert np.array_equal(rcva.rho, cva.rho)

    def test_identical_inputs_zero_any_radius(self):
        x = _scene(2)
        for w in (0, 1, 2):
            rho = rcva_magnitude(x, Raster(x.data.copy()), RcvaConfig(window_radius=w)).rho
            assert rho.max() == 0.0

    def test_shift_fixture_interior_zero(self):
        # second image is the first rolled right one pixel: every interior
        # pixel finds its exact match inside a radius-1 window
        rng = np.random.Generator(np.random.Philox(key=3))
        x1 = Raster(rng.uniform(size=(1, 8, 8)).astype(np.float32))
        x2 = Raster(np.roll(x1.data, 1, axis=2))
        rho_w1 = rcva_magnitude(x1, x2, RcvaConfig(window_radius=1)).rho
        assert np.all(rho_w1[:, 1:-1] == 0.0)
        rho_w0 = rcva_magnitude(x1, x2, RcvaConfig(window_radius=0)).rho
        assert rho_w0[:, 1:-1].max() > 0.1

    @pytest.mark.parametrize("w", [0, 1, 2])
    def test_matches_bruteforce(self, w):
        rng = np.random.Generator(np.random.Philox(key=4 + w))
        x1 = Raster(rng.uniform(size=(3, 7, 9)).astype(np.float32))
        x2 = Raster(rng.uniform(size=(3, 7, 9)).astype(np.float32))
        rho = rcva_magnitude(x1, x2, RcvaConfig(window_radius=w)).rho
        want = rcva_bruteforce(x1.data, x2.data, w)
        np.testing.assert_allclose(rho, want, atol=1e-6)

    # (bands, height, width): 1xN and Nx1 images, non-square and square;
    # then images of several row strips of at most _PIXELS pixels but at
    # least four halos of 2 * radius rows: 3 strips of 100 rows at 128
    # wide, 3 of 13-14 rows at 1000 wide up to radius 2 (2 at radius 3),
    # and past _PIXELS wide one-row strips at radius 0
    @pytest.mark.parametrize("shape", [(1, 1, 9), (4, 9, 1), (17, 5, 11), (1, 13, 6), (4, 8, 8),
                                       (4, 300, 128), (1, 40, 1000), (2, 4, _PIXELS + 3)])
    @pytest.mark.parametrize("w", [0, 1, 2, 3, 20])
    def test_pinned_to_two_pass_bit_for_bit(self, shape, w):
        rng = np.random.Generator(np.random.Philox(key=sum(shape) + w))
        x1, x2 = (rng.normal(size=shape).astype(np.float32) for _ in range(2))
        rho = rcva_magnitude(Raster(x1), Raster(x2), RcvaConfig(window_radius=w)).rho
        want = rcva_two_pass_reference(x1, x2, w)
        assert np.array_equal(rho.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("bands,shift", [(1, 1), (4, 1), (17, 2)])
    def test_pinned_to_two_pass_on_misregistered_scenes(self, bands, shift):
        t1, t2, _ = generate(SceneSpec(width=24, height=17, bands=bands,
                                       misregistration_shift=shift, seed=bands))
        for w in (0, 1, 2, 3):
            rho = rcva_magnitude(t1, t2, RcvaConfig(window_radius=w)).rho
            want = rcva_two_pass_reference(t1.data, t2.data, w)
            assert np.array_equal(rho.view(np.uint32), want.view(np.uint32))

    def test_window_growth_never_increases_rho(self):
        x1, x2 = _pair(5)
        prev = rcva_magnitude(x1, x2, RcvaConfig(window_radius=0)).rho
        for w in (1, 2):
            cur = rcva_magnitude(x1, x2, RcvaConfig(window_radius=w)).rho
            assert np.all(cur <= prev + 1e-7)
            prev = cur

    def test_window_past_the_image_is_clamped(self):
        # on an 8x8 raster every offset beyond 7 touches no pixel
        x1, x2 = _scene(6, h=8, w=8), _scene(7, h=8, w=8)
        want = rcva_magnitude(x1, x2, RcvaConfig(window_radius=7)).rho
        start = time.perf_counter()
        rho = rcva_magnitude(x1, x2, RcvaConfig(window_radius=10**6)).rho
        assert time.perf_counter() - start < 1.0
        assert np.array_equal(rho, want)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rcva_magnitude(_scene(1, h=4, w=4), _scene(1, h=5, w=5), RcvaConfig())

    def test_strips_give_the_bits_of_the_whole_image(self, monkeypatch):
        # strips of 1, 2, 3 or 5 rows, most of them shorter than the window,
        # with no floor of halos under their height
        rng = np.random.Generator(np.random.Philox(key=41))
        x1, x2 = (rng.normal(size=(3, 11, 7)).astype(np.float32) for _ in range(2))
        want = rcva_two_pass_reference(x1, x2, 2)
        monkeypatch.setattr(cdconf.baselines, "_HALOS", 0)
        for pixels in (7, 14, 21, 35):
            monkeypatch.setattr(cdconf.baselines, "_PIXELS", pixels)
            # the -inf and +inf padding never meet: no inf - inf makes a NaN
            with np.errstate(invalid="raise"):
                rho = rcva_magnitude(Raster(x1), Raster(x2), RcvaConfig(window_radius=2)).rho
            assert np.array_equal(rho.view(np.uint32), want.view(np.uint32))

    # past _PIXELS wide a strip of _PIXELS pixels would be one row, which
    # recomputes the distances of its 2 * radius halo rows: strips are four
    # halos tall instead, at most 8 rows at radius 1 and 16 at radius 2
    @pytest.mark.parametrize("w,want", [
        (1, [(0, 8), (8, 16), (16, 24), (24, 32), (32, 40)]),
        (2, [(0, 13), (13, 26), (26, 40)]),
    ])
    def test_wide_strips_are_four_halos_tall(self, monkeypatch, w, want):
        got, strips = [], cdconf.baselines._strips
        monkeypatch.setattr(cdconf.baselines, "_strips",
                            lambda h, rows: got.append(strips(h, rows)) or got[-1])
        rng = np.random.Generator(np.random.Philox(key=43 + w))
        x1, x2 = (rng.normal(size=(2, 40, 16387)).astype(np.float32) for _ in range(2))
        rho = rcva_magnitude(Raster(x1), Raster(x2), RcvaConfig(window_radius=w)).rho
        assert got == [want]
        want_rho = rcva_two_pass_reference(x1, x2, w)
        assert np.array_equal(rho.view(np.uint32), want_rho.view(np.uint32))

    def test_traced_peak_one_strip(self):
        # 32-row strips at 512 wide: besides its float32 map (1 MiB), a call
        # holds one strip's padded rows of both rasters and its float64
        # distances, not whole-image temporaries per window offset
        rng = np.random.Generator(np.random.Philox(key=42))
        x1, x2 = (Raster(rng.uniform(size=(4, 512, 512)).astype(np.float32)) for _ in range(2))
        tracemalloc.start()
        try:
            rcva_magnitude(x1, x2, RcvaConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


class TestRunUnified:
    def test_definitional_equivalence(self):
        x1, x2 = _pair(6)
        cfg = SmoothingConfig(sigma=0.07, iterations=4, conf_threshold=0.75, master_seed=13)
        du = run_unified(x1, x2, _F1, cfg)
        dp = run_proposed(x1, x2, _F1, _F1, cfg)
        assert du.primary.tau == dp.primary.tau
        assert np.array_equal(du.primary.magnitude.rho, dp.primary.magnitude.rho)
        assert np.array_equal(du.confidence.states, dp.confidence.states)
        assert np.array_equal(du.counts.k_prime, dp.counts.k_prime)

    def test_zero_noise_all_confident(self):
        x1, x2 = _pair(7)
        cfg = SmoothingConfig(sigma=0.0, iterations=5, conf_threshold=1.0, master_seed=1)
        det = run_unified(x1, x2, _F1, cfg)
        assert not np.any(det.confidence.states == NC)


class TestRunConfRcva:
    def test_zero_noise_collapses(self):
        # with zero noise every iteration is identical, so each pixel is
        # either unanimously changed or unanimously unchanged
        x1, x2 = _pair(8)
        cfg = SmoothingConfig(sigma=0.0, iterations=3, conf_threshold=1.0, master_seed=2)

        counts = ensemble_counts_with(x1, x2, _rcva_voter(RcvaConfig()), cfg)
        assert set(np.unique(counts.k_prime)) <= {0, 3}
        det = run_conf_rcva(x1, x2, _F1, cfg, RcvaConfig())
        assert set(np.unique(det.confidence.states)) <= {CC, CU, NC}

    def test_deterministic(self):
        x1, x2 = _pair(9)
        cfg = SmoothingConfig(sigma=0.05, iterations=4, conf_threshold=0.75, master_seed=17)
        a = run_conf_rcva(x1, x2, _F1, cfg, RcvaConfig())
        b = run_conf_rcva(x1, x2, _F1, cfg, RcvaConfig(), threads=3)
        assert np.array_equal(a.confidence.states, b.confidence.states)

    def test_confident_agrees_with_primary(self):
        x1, x2 = _pair(10)
        cfg = SmoothingConfig(sigma=0.08, iterations=5, conf_threshold=0.6, master_seed=3)
        det = run_conf_rcva(x1, x2, _F1, cfg, RcvaConfig())
        conf, changed = det.confidence, det.primary.labels.changed
        assert not np.any((conf.states == CC) & ~changed)
        assert not np.any((conf.states == CU) & changed)

    def test_misregistration_keeps_more_unchanged_than_unified(self):
        # smooth texture + real change block + one-pixel shift: around shifted
        # edges the unified ensemble wavers under noise while neighborhood
        # matching absorbs the shift and keeps voting unchanged
        rng = np.random.Generator(np.random.Philox(key=11))
        coarse = rng.uniform(0.2, 0.8, size=(2, 6, 6))
        src = np.linspace(0, 5, 20)
        i0 = np.floor(src).astype(int)
        f = src - i0
        i1 = np.minimum(i0 + 1, 5)
        rows = coarse[..., i0, :] * (1 - f)[:, None] + coarse[..., i1, :] * f[:, None]
        tex = (rows[..., :, i0] * (1 - f) + rows[..., :, i1] * f).astype(np.float32)
        t2 = tex.copy()
        t2[:, 4:9, 4:9] += 0.35
        t2 = np.roll(t2, 1, axis=2)
        t1 = tex + rng.normal(0, 0.02, tex.shape).astype(np.float32)
        t2 = t2 + rng.normal(0, 0.02, tex.shape).astype(np.float32)
        x1, x2 = Raster(t1), Raster(t2)
        cfg = SmoothingConfig(sigma=0.08, iterations=5, conf_threshold=1.0, master_seed=4)
        conf_rcva = run_conf_rcva(x1, x2, _F1, cfg, RcvaConfig(window_radius=1)).confidence
        conf_uni = run_unified(x1, x2, _F1, cfg).confidence
        assert (conf_rcva.states == CU).sum() > (conf_uni.states == CU).sum()


class TestMethodTable:
    def test_each_entry_runs_its_named_pipeline(self):
        # the expected maps come from the primitives, not from run_method
        x1, x2 = _pair(12)
        f2 = ExtractorSpec(depth=1, taps=(1,), channels=6, seed=2)
        cfg = SmoothingConfig(sigma=0.08, iterations=3, master_seed=5)
        rcfg = RcvaConfig()
        primary = detect_pair(x1, x2, _F1)

        def voted(voter):
            counts = ensemble_counts_with(x1, x2, voter, cfg)
            fused = fuse_confidence(primary, counts, cfg.conf_threshold)
            return ConfidentDetection(primary, counts, fused)

        named = {
            "none": None,
            "deep-magnitude": ConfidentDetection(primary, None, threshold_distance(primary)),
            "conf-rcva": voted(_rcva_voter(rcfg)),
            "unified": voted(lambda a, b: detect_pair(a, b, _F1)),
            "proposed": voted(lambda a, b: detect_pair(a, b, f2)),
        }
        assert list(METHODS) == list(named)
        for name, want in named.items():
            got = run_method(METHODS[name], x1, x2, _F1, f2, cfg, rcfg)
            assert got.primary.tau == primary.tau
            assert np.array_equal(got.primary.magnitude.rho, primary.magnitude.rho)
            if want is None:
                assert got.counts is None and got.confidence is None
                continue
            assert np.array_equal(got.confidence.states, want.confidence.states)
            assert (got.counts is None) == (want.counts is None)
            if want.counts is not None:
                assert np.array_equal(got.counts.k_prime, want.counts.k_prime)

    @pytest.mark.parametrize("name", [n for n, m in METHODS.items() if m.voter is not None])
    def test_voter_returns_a_detection_labelled_rho_above_tau(self, name):
        x1, x2 = _pair(17)
        f2 = ExtractorSpec(depth=1, taps=(1,), channels=6, seed=2)
        s1, s2 = iteration_seeds(7, 1)
        voter = METHODS[name].voter(_F1, f2, RcvaConfig(), 1)
        det = voter(perturb(x1, 0.08, s1), perturb(x2, 0.08, s2))
        assert isinstance(det, ChangeResult)
        assert det.labels.changed.shape == (x1.height, x1.width)
        assert det.labels.changed.any() and not det.labels.changed.all()
        check_detection(ConfidentDetection(det, None, None))

    def test_a_method_votes_exactly_when_it_reads_smoothing(self):
        for method in METHODS.values():
            assert ("smoothing" in method.reads) == (method.voter is not None)
            assert list(method.reads) == [c for c in ("smoothing", "f2", "rcva")
                                          if c in method.reads]

    def test_given_primary_is_used_as_is(self):
        x1, x2 = _pair(12)
        f2 = ExtractorSpec(depth=1, taps=(1,), channels=6, seed=2)
        cfg = SmoothingConfig(sigma=0.08, iterations=3, master_seed=5)
        rcfg = RcvaConfig()
        primary = detect_pair(x1, x2, _F1)
        for method in METHODS.values():
            want = run_method(method, x1, x2, _F1, f2, cfg, rcfg)
            got = run_method(method, x1, x2, _F1, f2, cfg, rcfg, primary=primary)
            assert got.primary is primary
            if want.confidence is not None:
                assert np.array_equal(got.confidence.states, want.confidence.states)


def _deep_magnitude(x1, x2, f1spec):
    return run_method(METHODS["deep-magnitude"], x1, x2, f1spec, None, None, None)


class TestRunDeepMagnitude:
    def test_rho_prime_arithmetic(self):
        # |0.8 - 0.5| = 0.3 style distance from the threshold
        x1, x2 = _pair(12)
        det = _deep_magnitude(x1, x2, _F1)
        assert det.counts is None
        rho_prime = np.abs(det.primary.magnitude.rho.astype(np.float64) - det.primary.tau)
        assert rho_prime.min() >= 0

    def test_constant_rho_all_not_confident(self):
        x = _scene(13)
        det = _deep_magnitude(x, Raster(x.data.copy()), _F1)
        assert np.all(det.confidence.states == NC)

    def test_trimodal_modes_confident_near_tau_not(self):
        # two heavy modes with a sparse ramp between them: the threshold lands
        # in the ramp, both modes sit far from it and come out confident, the
        # ramp pixels near the threshold do not
        v = np.empty(256, dtype=np.float32)
        v[:120] = 1.0
        v[120:240] = 9.0
        v[240:] = np.linspace(1.5, 8.5, 16)
        rng = np.random.Generator(np.random.Philox(key=5))
        v = v[rng.permutation(256)].reshape(16, 16)
        x1 = Raster(np.zeros((2, 16, 16), dtype=np.float32))
        x2 = Raster(np.stack([v, np.zeros_like(v)]))
        ident = ExtractorSpec(kind=ExtractorKind.IDENTITY)
        det = _deep_magnitude(x1, x2, ident)
        primary, conf = det.primary, det.confidence
        lowmode = np.isclose(v, 1.0)
        highmode = np.isclose(v, 9.0)
        assert np.all(conf.states[lowmode] != NC)
        assert np.all(conf.states[highmode] != NC)
        rho = primary.magnitude.rho
        near_tau = np.abs(rho - np.float32(primary.tau)) < 0.1 * rho.max()
        assert near_tau.sum() > 0
        assert np.all(conf.states[near_tau] == NC)

    def test_selected_set_matches_bruteforce_oracle(self):
        x1, x2 = _pair(16)
        det = _deep_magnitude(x1, x2, _F1)
        primary, conf = det.primary, det.confidence
        rho_prime = np.abs(primary.magnitude.rho.astype(np.float64) - primary.tau).astype(
            np.float32
        )
        tau_oracle = otsu_tau_bruteforce(rho_prime)
        want_confident = rho_prime > np.float64(tau_oracle)
        assert np.array_equal(conf.states != NC, want_confident)

    def test_confident_never_at_zero_rho_prime(self):
        x1, x2 = _pair(14)
        det = _deep_magnitude(x1, x2, _F1)
        primary, conf = det.primary, det.confidence
        rho_prime = np.abs(primary.magnitude.rho.astype(np.float64) - primary.tau)
        at_zero = rho_prime == 0
        assert not np.any((conf.states != NC) & at_zero)

    def test_confident_agrees_with_primary(self):
        x1, x2 = _pair(15)
        det = _deep_magnitude(x1, x2, _F1)
        primary, conf = det.primary, det.confidence
        changed = primary.labels.changed
        assert not np.any((conf.states == CC) & ~changed)
        assert not np.any((conf.states == CU) & changed)
