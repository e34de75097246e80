import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdconf.errors import ShapeMismatch
from cdconf.metrics import (
    ConfusionCounts,
    MetricsReport,
    aggregate_mean,
    aggregate_pooled,
    confusion,
    evaluate_run,
    format_table,
    metrics,
)
from cdconf.raster import ConfidenceMap, ConfidenceState, LabelMap

NC = int(ConfidenceState.NOT_CONFIDENT)
CU = int(ConfidenceState.CONFIDENT_UNCHANGED)


def _labels(bits) -> LabelMap:
    return LabelMap(np.asarray(bits, dtype=bool))


def f1_unchanged_of(report: MetricsReport) -> float:
    """Unchanged-class F1 recovered from the macro identity."""
    return 2 * report.f1_macro - report.f1_changed


class TestConfusion:
    def test_perfect_prediction(self):
        ref = _labels([[1, 0], [0, 1]])
        c = confusion(ref, ref)
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 0, 0, 2)

    def test_ten_pixel_oracle(self):
        # hand-enumerated: 2 TP, 1 FP, 1 FN, 6 TN on ten pixels
        pred = _labels([[1, 1, 1, 0, 0], [0, 0, 0, 0, 0]])
        ref = _labels([[1, 1, 0, 1, 0], [0, 0, 0, 0, 0]])
        c = confusion(pred, ref)
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 6)

    def test_mask_drops_not_confident(self):
        pred = _labels([[1, 1, 1, 0, 0], [0, 0, 0, 0, 0]])
        ref = _labels([[1, 1, 0, 1, 0], [0, 0, 0, 0, 0]])
        states = np.full((2, 5), CU, dtype=np.uint8)
        states[0, 0] = NC
        states[1, 3] = NC
        states[1, 4] = NC
        c = confusion(pred, ref, ConfidenceMap(states))
        assert c.counted == 7

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            confusion(_labels([[1]]), _labels([[1, 0]]))

    def test_mask_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            confusion(
                _labels([[1]]),
                _labels([[1]]),
                ConfidenceMap(np.zeros((2, 2), dtype=np.uint8)),
            )


class TestMetrics:
    def test_hand_arithmetic_oracle(self):
        r = metrics(ConfusionCounts(2, 1, 1, 6), total_pixels=10)
        assert r.precision == pytest.approx(66.67, abs=0.01)
        assert r.sensitivity == pytest.approx(66.67, abs=0.01)
        assert r.specificity == pytest.approx(85.71, abs=0.01)
        assert r.f1_changed == pytest.approx(66.67, abs=0.01)
        assert r.f1_macro == pytest.approx(76.19, abs=0.01)
        assert r.pixel_pct == 100.0
        assert r.degenerate == ()

    def test_all_correct(self):
        r = metrics(ConfusionCounts(5, 0, 0, 5), total_pixels=10)
        for v in (r.precision, r.sensitivity, r.specificity, r.f1_changed, r.f1_macro):
            assert v == 100.0

    def test_no_predicted_positives(self):
        r = metrics(ConfusionCounts(0, 0, 3, 7), total_pixels=10)
        assert r.precision == 0.0
        assert "precision" in r.degenerate
        assert r.sensitivity == 0.0
        assert r.specificity == 100.0

    def test_macro_is_mean_of_class_f1(self):
        r = metrics(ConfusionCounts(2, 1, 1, 6), total_pixels=10)
        f1_un = 100.0 * 2 * 6 / (2 * 6 + 1 + 1)
        assert r.f1_macro == pytest.approx((r.f1_changed + f1_un) / 2)
        assert f1_unchanged_of(r) == pytest.approx(f1_un)

    def test_pixel_pct_partial(self):
        r = metrics(ConfusionCounts(2, 1, 1, 6), total_pixels=20)
        assert r.pixel_pct == 50.0

    def test_total_below_counted_rejected(self):
        with pytest.raises(ValueError):
            metrics(ConfusionCounts(2, 1, 1, 6), total_pixels=5)

    @settings(max_examples=50, deadline=None)
    @given(
        tp=st.integers(0, 50),
        fp=st.integers(0, 50),
        fn=st.integers(0, 50),
        tn=st.integers(0, 50),
    )
    def test_class_symmetry(self, tp, fp, fn, tn):
        a = metrics(ConfusionCounts(tp, fp, fn, tn), total_pixels=tp + fp + fn + tn)
        b = metrics(ConfusionCounts(tn, fn, fp, tp), total_pixels=tp + fp + fn + tn)
        assert a.sensitivity == pytest.approx(b.specificity)
        assert a.specificity == pytest.approx(b.sensitivity)
        assert a.f1_changed == pytest.approx(f1_unchanged_of(b))
        assert f1_unchanged_of(a) == pytest.approx(b.f1_changed)

    @settings(max_examples=50, deadline=None)
    @given(
        tp=st.integers(0, 50),
        fp=st.integers(0, 50),
        fn=st.integers(0, 50),
        tn=st.integers(0, 50),
    )
    def test_all_indices_in_range(self, tp, fp, fn, tn):
        r = metrics(ConfusionCounts(tp, fp, fn, tn), total_pixels=tp + fp + fn + tn + 5)
        for v in (r.precision, r.sensitivity, r.specificity, r.f1_changed, r.f1_macro, r.pixel_pct):
            assert 0.0 <= v <= 100.0

    def test_permutation_invariance(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        pred = rng.uniform(size=(6, 6)) < 0.5
        ref = rng.uniform(size=(6, 6)) < 0.3
        a = confusion(_labels(pred), _labels(ref))
        perm = rng.permutation(36)
        b = confusion(
            _labels(pred.ravel()[perm].reshape(6, 6)),
            _labels(ref.ravel()[perm].reshape(6, 6)),
        )
        assert a == b


class TestEvaluateRun:
    def test_no_confidence_single_report(self):
        pred = _labels([[1, 0], [0, 1]])
        full, conf_only = evaluate_run(pred, None, pred)
        assert conf_only is None
        assert full.pixel_pct == 100.0

    def test_everything_confident_reports_match(self):
        pred = _labels([[1, 0], [0, 1]])
        ref = _labels([[1, 1], [0, 1]])
        conf = ConfidenceMap(np.zeros((2, 2), dtype=np.uint8))
        full, conf_only = evaluate_run(pred, conf, ref)
        assert conf_only is not None
        assert full.to_dict() == conf_only.to_dict()

    def test_masked_pixel_pct_below_100(self):
        pred = _labels([[1, 0], [0, 1]])
        ref = _labels([[1, 1], [0, 1]])
        states = np.zeros((2, 2), dtype=np.uint8)
        states[0, 1] = NC
        _, conf_only = evaluate_run(pred, ConfidenceMap(states), ref)
        assert conf_only.pixel_pct == 75.0


class TestAggregation:
    def test_pooled_sums_counts(self):
        r = aggregate_pooled(
            [ConfusionCounts(2, 1, 1, 6), ConfusionCounts(3, 0, 2, 5)], total_pixels=20
        )
        assert (r.counts.tp, r.counts.fp, r.counts.fn, r.counts.tn) == (5, 1, 3, 11)
        assert r.pixel_pct == 100.0

    def test_mean_averages_indices(self):
        a = metrics(ConfusionCounts(5, 0, 0, 5), total_pixels=10)
        b = metrics(ConfusionCounts(0, 0, 5, 5), total_pixels=10)
        m = aggregate_mean([a, b])
        assert m.f1_macro == pytest.approx((a.f1_macro + b.f1_macro) / 2)
        assert m.sensitivity == pytest.approx(50.0)
        assert "precision" in m.degenerate

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_mean([])

    def test_pooled_vs_mean_differ_on_unbalanced_scenes(self):
        small = ConfusionCounts(1, 0, 0, 1)
        big = ConfusionCounts(10, 40, 40, 10)
        pooled = aggregate_pooled([small, big], total_pixels=102)
        mean = aggregate_mean(
            [metrics(small, total_pixels=2), metrics(big, total_pixels=100)]
        )
        assert pooled.precision != pytest.approx(mean.precision)


class TestToDict:
    @pytest.mark.parametrize("counts", [ConfusionCounts(2, 1, 1, 6), ConfusionCounts(0, 0, 0, 4)])
    def test_json_layout(self, counts):
        r = metrics(counts, total_pixels=10)
        assert bool(r.degenerate) == (counts.tp == 0)
        want = {
            "precision": r.precision, "sensitivity": r.sensitivity,
            "specificity": r.specificity, "f1_changed": r.f1_changed,
            "f1_macro": r.f1_macro, "pixel_pct": r.pixel_pct,
            "counts": {"tp": counts.tp, "fp": counts.fp, "fn": counts.fn, "tn": counts.tn},
            "degenerate": list(r.degenerate),
        }
        assert json.dumps(r.to_dict(), sort_keys=True) == json.dumps(want, sort_keys=True)


class TestFormatting:
    def test_columns_and_values(self):
        r = metrics(ConfusionCounts(2, 1, 1, 6), total_pixels=10)
        table = format_table([("full", r)])
        assert "Prec." in table and "Pixel %" in table
        assert "76.19" in table
        assert "100.00" in table

    def test_rows_align(self):
        r = metrics(ConfusionCounts(5, 0, 0, 5), total_pixels=10)
        table = format_table([("a", r), ("longer-label", r)])
        lines = table.splitlines()
        assert len({len(line) for line in lines[2:]}) == 1
