"""Tests for the benchmark's own arithmetic and reporting.

    python3 -m pytest -q perfbench/test_bench.py

Run from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
from proc import run_child  # noqa: E402
from stats import mean_with_count, quartile_spread  # noqa: E402
from tracer import (  # noqa: E402
    Span,
    Tracer,
    instrument,
    overlap_time,
    self_times,
    union_length,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_union_length_merges_overlaps_and_ignores_empty():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a by one second
        Span("c", 2.0, 3.0, parent=1),
    ]
    st = self_times(spans)
    assert st == pytest.approx([5.0, 2.0, 3.0, 1.0])
    assert overlap_time(spans) == pytest.approx(1.0)
    # the self times of a tree sum to its root's duration plus the overlap
    assert sum(st) == pytest.approx(10.0 + overlap_time(spans))


def test_self_time_clips_children_to_the_parent():
    spans = [Span("root", 0.0, 2.0), Span("late", 1.5, 3.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_threaded_children_hang_under_the_main_thread_span():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def child():
        barrier.wait(timeout=5)
        with tracer.span("child"):
            time.sleep(0.05)

    with tracer.span("parent") as parent:
        workers = [threading.Thread(target=child) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=5)
    assert not any(w.is_alive() for w in workers)

    kids = [s for s in tracer.spans if s.name == "child"]
    assert len(kids) == 2
    assert all(k.parent == parent for k in kids)
    assert len({k.thread for k in kids} | {tracer.spans[parent].thread}) == 3
    st = self_times(tracer.spans)
    covered = union_length([(k.start, k.end) for k in kids])
    assert st[parent] == pytest.approx(tracer.spans[parent].duration - covered)
    # the two children ran at once, so together they exceed the parent's wall time
    assert sum(st) == pytest.approx(tracer.spans[parent].duration + overlap_time(tracer.spans))
    assert overlap_time(tracer.spans) > 0.02


def test_instrument_patches_every_binding_and_undoes():
    import cdconf
    import cdconf.baselines
    import cdconf.cli
    import cdconf.dcva
    import cdconf.smoothing

    original = cdconf.dcva.detect_pair
    tracer = Tracer()
    undo = instrument(tracer, {"dcva": ("detect_pair",)})
    try:
        for mod in (cdconf, cdconf.dcva, cdconf.smoothing, cdconf.baselines, cdconf.cli):
            assert mod.detect_pair is not original
            assert mod.detect_pair.__wrapped__ is original
        t1, t2, _ = cdconf.generate(cdconf.SceneSpec(width=16, height=16, seed=1))
        spec = cdconf.ExtractorSpec(depth=1, taps=(1,), channels=2)
        cfg = cdconf.SmoothingConfig(iterations=2)
        tracer.enabled = True
        cdconf.smoothing.run_proposed(t1, t2, spec, spec, cfg)
        tracer.enabled = False
    finally:
        undo()
    assert [s.name for s in tracer.spans] == ["dcva.detect_pair"] * 3
    for mod in (cdconf, cdconf.dcva, cdconf.smoothing, cdconf.baselines, cdconf.cli):
        assert mod.detect_pair is original


@pytest.mark.parametrize("session", [False, True])
def test_a_child_past_its_timeout_is_killed_and_reaped(session):
    t0 = time.perf_counter()
    rc, rss = run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                        subprocess.DEVNULL, 0.5, session=session)
    assert rc == -9
    assert rss > 0
    assert time.perf_counter() - t0 < 30


def test_mean_and_sample_count():
    assert mean_with_count([3.0, 1.0, 2.0]) == (2.0, 3)
    # two clusters: the mean follows their shares, the median would sit in one
    assert mean_with_count([1.0, 1.0, 1.0, 2.0]) == (1.25, 4)
    with pytest.raises(ValueError):
        mean_with_count([])


def test_quartile_spread_is_iqr_over_median():
    values = [float(v) for v in range(1, 11)]
    # statistics.quantiles (exclusive) gives Q1 = 2.75 and Q3 = 8.25 here
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_conv_gflop_counts_every_layer():
    import cdconf

    spec = cdconf.ExtractorSpec(depth=2, taps=(2,), channels=4, kernel_size=3)
    flop = 2 * 10 * 10 * 4 * 3 * 9 + 2 * 10 * 10 * 4 * 4 * 9
    assert layers.conv_gflop(spec, 10, 10, 3) == pytest.approx(flop / 1e9)


def test_output_checks_catch_each_broken_invariant():
    import worker

    rho = np.array([[0.1, 0.9], [0.5, 0.2]], dtype=np.float32)
    changed = rho > 0.4
    states = np.where(changed, 0, 1).astype(np.uint8)
    k_prime = np.where(changed, 3, 0)
    assert worker.check_outputs(changed, rho, 0.4, states, k_prime, 3, (2, 2)) == []

    flipped = changed.copy()
    flipped[0, 0] = True
    assert "labels != rho > tau" in worker.check_outputs(
        flipped, rho, 0.4, states, k_prime, 3, (2, 2))
    bad_states = states.copy()
    bad_states[0, 1] = 1  # changed pixel marked confident-unchanged
    assert any("confident" in e for e in worker.check_outputs(
        changed, rho, 0.4, bad_states, k_prime, 3, (2, 2)))
    assert any("K'" in e for e in worker.check_outputs(
        changed, rho, 0.4, states, k_prime + 1, 3, (2, 2)))
    assert any("shape" in e for e in worker.check_outputs(
        changed, rho, 0.4, states, k_prime, 3, (3, 2)))


def test_quality_pass_is_the_same_for_a_seed_and_checks_every_detection():
    import worker

    first, samples = worker.quality_pass(7, "rcva", 3, 1, Tracer())
    again, _ = worker.quality_pass(7, "rcva", 3, 1, Tracer())
    assert first == again
    assert set(first) == {*run.QUALITY, "vote_agreement"}
    assert len(samples) == worker.QUALITY_SCENES
    assert all(not s.errors and s.pixels == worker.QUALITY_SIZE ** 2 for s in samples)


def test_every_set_up_draws_the_weights_again():
    import cdconf
    import worker

    wl = worker.InProcess(7, Tracer(), size=16, scenes=1, shift=0, iterations=2)
    wl.setup()
    info = cdconf.features._conv_weights.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    wl.setup()
    assert cdconf.features._conv_weights.cache_info().misses == 1


def _fake_result() -> dict:
    spans = [Span(layers.BENCH_ROOT, 0.0, 1.0)]
    for i, name in enumerate(layers.traced_names()):
        spans.append(Span(name, 0.01 * i, 0.01 * i + 0.005, parent=0, peak_alloc=1 << 20))
    per_layer = layers.layer_metrics(spans, [0])
    per_layer.update(layers.peak_alloc_metrics(spans))
    per_layer["trace.untraced_wall_s"] = 0.9
    per_layer["trace.overhead_s"] = 0.1
    return {
        "quality_scenes": 16,
        "setup_s": 0.3,
        "peak_rss_mb": 100.0,
        "loop": {"mpix_per_s": 0.1, "detect_mean_s": 1.0, "detect_n": 3},
        "quality": {"f1_macro_all": 90.0, "f1_macro_confident": 99.0,
                    "retained_pct": 80.0, "vote_agreement": 0.9},
        "per_layer": per_layer,
    }


def test_every_metric_in_benchmark_json_is_reported():
    result = _fake_result()
    e2e = run.select(SPEC["end_to_end"], run.end_to_end(result))
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    traced = run.select(SPEC["per_layer"], run.per_layer(result))
    assert list(traced) == [m["name"] for m in SPEC["per_layer"]]
    assert all(set(v) == {"value", "unit"} for v in {**e2e, **traced}.values())


def test_a_missing_metric_is_an_error():
    result = _fake_result()
    result["quality"] = None
    with pytest.raises(KeyError, match="f1_macro_all"):
        run.select(SPEC["end_to_end"], run.end_to_end(result))


@pytest.mark.parametrize("trace", [0, 1])
def test_a_real_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rcva-vote-128",
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(last["metrics"]) == names
    for name in names:
        assert name in proc.stdout.split("\n", 2)[2]
