import tracemalloc

import numpy as np
import pytest
from oracles import generate_reference, plant_shapes_reference

from cdconf.errors import InfeasibleFraction, RejectedValue
from cdconf.rng import generator
from cdconf.synth import SceneSpec, _plant_shapes, generate


class TestSpecValidation:
    def test_defaults(self):
        s = SceneSpec()
        assert (s.width, s.height, s.bands) == (128, 128, 4)
        assert s.change_fraction == 0.08

    def test_fraction_one_rejected(self):
        with pytest.raises(RejectedValue):
            SceneSpec(change_fraction=1.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(RejectedValue):
            SceneSpec(sensor_noise=-0.1)

    # NaN noise would add none (nan > 0 is false) and write a bare NaN into
    # spec.json; infinite contrast would fail between the two rasters
    @pytest.mark.parametrize("field", ["sensor_noise", "change_contrast"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_levels_rejected(self, field, value):
        with pytest.raises(RejectedValue, match=f"{field} must be finite and >= 0"):
            SceneSpec(**{field: value})


class TestGenerate:
    def test_no_change_no_noise_identical(self):
        t1, t2, ref = generate(
            SceneSpec(width=32, height=32, change_fraction=0.0, sensor_noise=0.0)
        )
        assert np.array_equal(t1.data, t2.data)
        assert ref.changed.sum() == 0

    def test_fraction_within_ten_percent(self):
        _, _, ref = generate(SceneSpec(width=64, height=64, change_fraction=0.1, seed=42))
        frac = ref.changed.mean()
        assert 0.09 <= frac <= 0.11

    def test_deterministic_per_seed(self):
        spec = SceneSpec(width=32, height=32, seed=7)
        a1, a2, aref = generate(spec)
        b1, b2, bref = generate(spec)
        assert np.array_equal(a1.data, b1.data)
        assert np.array_equal(a2.data, b2.data)
        assert np.array_equal(aref.changed, bref.changed)

    def test_seeds_differ(self):
        x1, _, _ = generate(SceneSpec(width=32, height=32, seed=1))
        y1, _, _ = generate(SceneSpec(width=32, height=32, seed=2))
        assert not np.array_equal(x1.data, y1.data)

    def test_clean_difference_confined_to_reference(self):
        t1, t2, ref = generate(
            SceneSpec(width=48, height=48, sensor_noise=0.0, misregistration_shift=0, seed=3)
        )
        diff = np.abs(t2.data - t1.data).max(axis=0)
        assert np.all((diff > 0) <= ref.changed)
        assert ref.changed.sum() > 0
        assert diff[ref.changed].max() > 0

    def test_contrast_scales_mean_band_shift(self):
        spec = SceneSpec(width=48, height=48, sensor_noise=0.0, change_contrast=0.35, seed=4)
        t1, t2, ref = generate(spec)
        shifts = (t2.data - t1.data)[:, ref.changed]
        per_band = np.abs(shifts).mean(axis=1)
        assert per_band.mean() == pytest.approx(0.35, rel=1e-5)

    def test_misregistration_rolls_t2(self):
        base = SceneSpec(width=32, height=32, sensor_noise=0.0, seed=5)
        rolled = SceneSpec(
            width=32, height=32, sensor_noise=0.0, seed=5, misregistration_shift=2
        )
        _, t2a, _ = generate(base)
        _, t2b, _ = generate(rolled)
        assert np.array_equal(t2b.data, np.roll(t2a.data, 2, axis=2))

    def test_sensor_noise_independent_between_images(self):
        t1, t2, ref = generate(
            SceneSpec(width=32, height=32, change_fraction=0.0, sensor_noise=0.05, seed=6)
        )
        assert not np.array_equal(t1.data, t2.data)
        diff = (t2.data - t1.data).astype(np.float64)
        assert diff.std() == pytest.approx(0.05 * np.sqrt(2), rel=0.1)

    def test_texture_range(self):
        t1, _, _ = generate(SceneSpec(width=64, height=64, sensor_noise=0.0, seed=8))
        assert t1.data.min() >= 0.15 - 1e-6
        assert t1.data.max() <= 0.85 + 1e-6

    def test_texture_is_spatially_smooth(self):
        t1, _, _ = generate(
            SceneSpec(width=64, height=64, texture_scale=16, sensor_noise=0.0, seed=9)
        )
        grad = np.abs(np.diff(t1.data[0], axis=1))
        assert grad.max() < 0.2

    def test_infeasible_fraction_raises(self):
        # the smallest allowed shape already overshoots a tiny target
        with pytest.raises(InfeasibleFraction):
            generate(SceneSpec(width=16, height=16, change_fraction=0.002, seed=10))

    def test_band_count_respected(self):
        t1, t2, _ = generate(SceneSpec(width=20, height=24, bands=6, seed=11))
        assert t1.data.shape == (6, 24, 20)
        assert t2.data.shape == (6, 24, 20)


class TestBandByBand:
    """``generate`` fills its outputs one band at a time: the scenes of the
    whole-stack float64 build, bit for bit, in bounded memory."""

    @pytest.mark.parametrize("spec", [
        SceneSpec(),
        SceneSpec(bands=100, width=64, height=48, seed=1),
        SceneSpec(bands=1, width=17, height=40, seed=2),
        SceneSpec(misregistration_shift=1, seed=3),
        SceneSpec(misregistration_shift=2, seed=4),
        SceneSpec(misregistration_shift=-3, width=33, height=20, seed=5),
        SceneSpec(sensor_noise=0, seed=6),
        SceneSpec(change_contrast=0, seed=7),
        SceneSpec(change_fraction=0, seed=8),
        SceneSpec(width=37, height=53, bands=3, seed=9),
        SceneSpec(width=61, height=29, texture_scale=5, misregistration_shift=1, seed=10),
        SceneSpec(width=9, height=7, texture_scale=1, change_fraction=0, seed=11),
    ], ids=repr)
    def test_bits_of_the_whole_stack_build(self, spec):
        t1, t2, ref = generate(spec)
        w1, w2, wmask = generate_reference(spec)
        assert np.array_equal(t1.data, w1)
        assert np.array_equal(t2.data, w2)
        assert np.array_equal(ref.changed, wmask)

    def test_traced_peak_is_the_outputs_and_a_few_bands(self):
        # two band buffers, the coarse grid, the mask and NumPy's iteration
        # buffer; a whole-stack float64 temporary would be 25 bands
        generate(SceneSpec(width=32, height=32))  # NumPy's lazy imports
        spec = SceneSpec(bands=100, width=96, height=96, misregistration_shift=1)
        outputs = 2 * 100 * 96 * 96 * 4
        tracemalloc.start()
        try:
            t1, t2, _ = generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t1.data.nbytes + t2.data.nbytes == outputs
        assert peak <= outputs + 4 * 96 * 96 * 8

    @pytest.mark.parametrize("h,w,fraction", [(128, 128, 0.08), (96, 64, 0.2), (17, 40, 0.1),
                                              (200, 3, 0.3), (64, 64, 0.5)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_plant_shapes_in_boxes_gives_the_whole_image_mask(self, h, w, fraction, seed):
        got = _plant_shapes(generator(seed), h, w, fraction)
        assert np.array_equal(got, plant_shapes_reference(generator(seed), h, w, fraction))
