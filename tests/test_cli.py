"""End-to-end command-line tests: artifact layout, gating, replay, sweeps."""

import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import cdconf.cli
from cdconf.baselines import METHODS
from cdconf.cli import main
from cdconf.pool import default_threads
from cdconf.raster import load_confidence_map, load_label_map, load_raster
from cdconf.synth import SceneSpec

_SMALL_F1 = ["--f1-taps", "1,2", "--f1-channels", "4"]
_SMALL_F2 = ["--f2-taps", "1", "--f2-channels", "4"]
_SMALL = ["--iterations", "3", *_SMALL_F1, *_SMALL_F2]


def _synth(out: Path, seed=3, size=32) -> Path:
    rc = main(["synth", "--out", str(out), "--width", str(size),
               "--height", str(size), "--seed", str(seed)])
    assert rc == 0
    return out


def _small_flags(method: str) -> list[str]:
    """The small-run flags that ``method`` reads; it refuses the others."""
    flags = list(_SMALL_F1)
    if "smoothing" in METHODS[method].reads:
        flags += ["--iterations", "3"]
    if "f2" in METHODS[method].reads:
        flags += _SMALL_F2
    return flags


def _files(d: Path) -> dict[str, bytes]:
    """Every file under ``d``, by relative path."""
    return {str(f.relative_to(d)): f.read_bytes() for f in sorted(d.rglob("*")) if f.is_file()}


def _sweep_argv(scene: Path, out: Path, sweep: str, values: str, method="proposed") -> list[str]:
    return ["sweep", "--t1", str(scene / "t1.cdr"), "--t2", str(scene / "t2.cdr"),
            "--reference", str(scene / "reference.pgm"), "--out", str(out),
            "--method", method, "--sweep", sweep, "--values", values, *_small_flags(method)]


def _detect(scene: Path, out: Path, *extra) -> Path:
    method = extra[extra.index("--method") + 1] if "--method" in extra else "proposed"
    flags = _small_flags(method)
    rc = main(["detect", "--t1", str(scene / "t1.cdr"), "--t2", str(scene / "t2.cdr"),
               "--out", str(out), *flags, *extra])
    assert rc == 0
    return out


class TestSynth:
    def test_artifacts_and_determinism(self, tmp_path):
        a = _synth(tmp_path / "a")
        b = _synth(tmp_path / "b")
        for name in ("t1.cdr", "t2.cdr", "reference.pgm", "spec.json"):
            assert (a / name).is_file()
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_spec_json_round_trips_scene(self, tmp_path):
        s = _synth(tmp_path / "s", seed=9)
        spec = json.loads((s / "spec.json").read_text())
        assert spec["seed"] == 9 and spec["width"] == 32

    @pytest.mark.parametrize("flags,scene", [
        ([], SceneSpec()),
        (["--width", "20", "--height", "18", "--bands", "3", "--change-fraction", "0.1",
          "--change-contrast", "0.4", "--texture-scale", "8", "--sensor-noise", "0.03",
          "--shift", "1", "--seed", "7"], SceneSpec(20, 18, 3, 0.1, 0.4, 8, 0.03, 1, 7)),
    ], ids=["defaults", "every-flag"])
    def test_spec_json_is_the_scene_of_the_flags(self, tmp_path, flags, scene):
        assert main(["synth", "--out", str(tmp_path / "s"), *flags]) == 0
        spec = json.loads((tmp_path / "s" / "spec.json").read_text())
        assert spec == dataclasses.asdict(scene)

    def test_reference_fraction(self, tmp_path):
        s = _synth(tmp_path / "s", size=64)
        ref = load_label_map(s / "reference.pgm")
        assert 0.9 * 0.08 <= ref.changed.mean() <= 1.1 * 0.08

    @pytest.mark.parametrize("flag,field", [("--sensor-noise", "sensor_noise"),
                                            ("--change-contrast", "change_contrast")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejects_non_finite_levels(self, tmp_path, capsys, flag, field, value):
        rc = main(["synth", "--out", str(tmp_path / "s"), "--width", "16", "--height", "16",
                   flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be finite") and err.count("\n") == 1
        assert not (tmp_path / "s").exists()


# (method, flag, value): a flag the method never reads is refused, not stored
_UNREAD_FLAGS = [
    *[(m, f, v) for m in ("none", "deep-magnitude")
      for f, v in (("--sigma", "0.3"), ("--iterations", "99"), ("--conf-threshold", "0.5"))],
    *[(m, "--f2-channels", "7") for m in ("none", "deep-magnitude", "conf-rcva", "unified")],
    ("unified", "--f2-taps", "2"),
    ("conf-rcva", "--f2-taps", "1"),
    *[(m, "--rcva-window", "3") for m in ("none", "deep-magnitude", "unified", "proposed")],
]


def _record_threads(monkeypatch) -> list:
    """Record the ``threads`` of every ``detect_pair`` call, under each
    module's binding of it."""
    seen = []
    real = cdconf.cli.detect_pair

    def recorded(*a, threads=None, **kw):
        seen.append(threads)
        return real(*a, threads=threads, **kw)

    for mod in ("cli", "baselines", "smoothing"):
        monkeypatch.setattr(f"cdconf.{mod}.detect_pair", recorded)
    return seen


# (given flags, expected threads): --threads defaults to default_threads()
_THREADS = [(["--threads", "3"], 3), ([], default_threads())]


class TestDetect:
    @pytest.mark.parametrize("flags,threads", _THREADS, ids=["given", "default"])
    def test_every_detection_runs_on_the_given_threads(self, tmp_path, monkeypatch,
                                                       flags, threads):
        s = _synth(tmp_path / "s")
        seen = _record_threads(monkeypatch)
        _detect(s, tmp_path / "d", *flags)
        assert seen == [threads] * 4  # the primary and three noisy votes

    def test_method_none_gates_confidence_artifacts(self, tmp_path):
        s = _synth(tmp_path / "s")
        d = _detect(s, tmp_path / "d", "--method", "none")
        present = sorted(p.name for p in d.iterdir())
        assert present == ["change.pgm", "magnitude.cdr", "run.json", "tau.json"]

    def test_proposed_writes_all_artifacts(self, tmp_path):
        s = _synth(tmp_path / "s")
        d = _detect(s, tmp_path / "d")
        for name in ("change.pgm", "magnitude.cdr", "tau.json", "run.json",
                     "confidence.ppm", "counts.cdr"):
            assert (d / name).is_file()
        tau = json.loads((d / "tau.json").read_text())["tau"]
        assert tau > 0
        counts = load_raster(d / "counts.cdr").data[0]
        assert counts.min() >= 0 and counts.max() <= 3

    def test_deep_magnitude_has_confidence_but_no_counts(self, tmp_path):
        s = _synth(tmp_path / "s")
        d = _detect(s, tmp_path / "d", "--method", "deep-magnitude")
        assert (d / "confidence.ppm").is_file()
        assert not (d / "counts.cdr").exists()

    @pytest.mark.parametrize("method", ["unified", "conf-rcva"])
    def test_ensemble_baselines_run(self, tmp_path, method):
        s = _synth(tmp_path / "s")
        d = _detect(s, tmp_path / "d", "--method", method)
        assert (d / "counts.cdr").is_file()
        conf = load_confidence_map(d / "confidence.ppm")
        assert conf.states.shape == (32, 32)

    @pytest.mark.parametrize("method,flag,value", _UNREAD_FLAGS,
                             ids=[f"{m}{f}" for m, f, _ in _UNREAD_FLAGS])
    def test_rejects_flags_the_method_does_not_read(self, tmp_path, capsys, method, flag, value):
        s = _synth(tmp_path / "s", size=16)
        rc = main(["detect", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                   "--out", str(tmp_path / "d"), "--method", method, flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: method {method!r} does not read {flag}\n"
        assert not (tmp_path / "d").exists()

    def test_an_extractor_is_as_deep_as_its_deepest_tap(self, tmp_path):
        s = _synth(tmp_path / "s", size=16)
        rc = main(["detect", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                   "--out", str(tmp_path / "d"), "--iterations", "2", "--f2-taps", "1,3"])
        assert rc == 0
        f2 = json.loads((tmp_path / "d" / "run.json").read_text())["f2"]
        assert (f2["depth"], f2["taps"]) == (3, [1, 3])

    # depth 0 from a tap at 0: the message names the taps, which were given
    def test_refuses_a_tap_below_layer_1(self, tmp_path, capsys):
        s = _synth(tmp_path / "s", size=16)
        rc = main(["detect", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                   "--out", str(tmp_path / "d"), "--f2-taps", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: taps (0,) outside the 1-based layer range [1, 0]\n"
        assert not (tmp_path / "d").exists()

    def test_conf_rcva_stores_rcva_window(self, tmp_path):
        s = _synth(tmp_path / "s", size=16)
        d = _detect(s, tmp_path / "d", "--method", "conf-rcva", "--rcva-window", "2")
        assert json.loads((d / "run.json").read_text())["rcva"] == {"window_radius": 2}

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def difference(spec, x1, x2, threads):
            raise MemoryError("Unable to allocate 3.64 TiB for an array")

        monkeypatch.setattr("cdconf.dcva._difference", difference)
        s = _synth(tmp_path / "s", size=16)
        rc = main(["detect", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                   "--out", str(tmp_path / "d"), "--method", "none"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_rejects_threads_below_one(self, tmp_path, capsys, threads):
        s = _synth(tmp_path / "s", size=16)
        rc = main(["detect", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                   "--out", str(tmp_path / "d"), "--threads", threads])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --threads must be >= 1, got {threads}\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_rejects_non_finite_sigma(self, tmp_path, capsys, sigma):
        s = _synth(tmp_path / "s", size=16)
        rc = main(["detect", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                   "--out", str(tmp_path / "d"), "--sigma", sigma])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sigma must be finite") and err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("method", [m for m, c in METHODS.items() if c.voter is not None])
    @pytest.mark.parametrize("sigma", ["1e7", "1e38", "1e39"])
    def test_rejects_sigma_above_the_bound(self, tmp_path, capsys, method, sigma):
        # noise near float32's range would fill the noisy rasters with inf,
        # so every voting method refuses it before anything is read or written
        s = _synth(tmp_path / "s")
        capsys.readouterr()
        rc = main(["detect", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                   "--out", str(tmp_path / "d"), "--method", method, "--sigma", sigma])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: sigma must be finite and in [0, 1e+06], got {float(sigma)}\n"
        assert not (tmp_path / "d").exists()

    def test_broken_invariant_exits_1_before_writing(self, tmp_path, capsys, monkeypatch):
        real_run_method = cdconf.cli.run_method

        def run_method(*args, **kwargs):
            det = real_run_method(*args, **kwargs)
            det.primary.labels.changed[:] = ~det.primary.labels.changed
            return det

        monkeypatch.setattr("cdconf.cli.run_method", run_method)
        s = _synth(tmp_path / "s", size=16)
        rc = main(["detect", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                   "--out", str(tmp_path / "d"), *_small_flags("proposed")])
        assert rc == 1
        assert capsys.readouterr().err == "error: primary labels differ from magnitude > tau\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("method", list(METHODS))
    def test_run_json_holds_only_the_configs_the_method_reads(self, tmp_path, method):
        s = _synth(tmp_path / "s", size=16)
        run = json.loads((_detect(s, tmp_path / "d", "--method", method) / "run.json").read_text())
        present = [c for c in ("smoothing", "f2", "rcva") if run[c] is not None]
        assert present == list(METHODS[method].reads)

    def test_missing_input_exits_2(self, tmp_path, capsys):
        rc = main(["detect", "--t1", str(tmp_path / "no.cdr"),
                   "--t2", str(tmp_path / "no.cdr"), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


def _with(run: dict, *path, value) -> str:
    """run.json text with the entry at ``path`` set to ``value``."""
    run = copy.deepcopy(run)
    inner = run
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return json.dumps(run)


def _v010_layout(run: dict) -> str:
    """The same run as the 0.1.0 layout stored it: flat smoothing fields,
    the conv kind named "conv", and an aggregate field."""
    return json.dumps({
        "method": run["method"], "t1": run["t1"], "t2": run["t2"],
        "sigma": 0.1, "iterations": 10, "conf_threshold": 1.0, "seed": 0,
        "f1": {**run["f1"], "kind": "conv"}, "f2": None,
        "rcva_window": 1, "aggregate": "pooled",
    })


_MALFORMED = {
    "not-json": lambda run: "{]",
    "list": lambda run: "[]",
    "string-extractor": lambda run: _with(run, "f1", value="x"),
    "unknown-key": lambda run: _with(run, "aggregate", value="pooled"),
    "unknown-nested-key": lambda run: _with(run, "smoothing", "seed", value=0),
    "missing-key": lambda run: json.dumps({k: v for k, v in run.items() if k != "rcva"}),
    "unknown-method": lambda run: _with(run, "method", value="magic"),
    "unknown-kind": lambda run: _with(run, "f1", "kind", value="conv"),
    "precomputed-kind": lambda run: _with(run, "f1", "kind", value="precomputed"),
    "v0.6.0-feature-dir": lambda run: _with(run, "f1", "feature_dir", value=None),
    "float-iterations": lambda run: _with(run, "smoothing", "iterations", value=2.5),
    "nan-sigma": lambda run: _with(run, "smoothing", "sigma", value=float("nan")),
    "inf-sigma": lambda run: _with(run, "smoothing", "sigma", value=float("inf")),
    "number-path": lambda run: _with(run, "t1", value=5),
    "v0.1.0-layout": _v010_layout,
    "none-with-smoothing": lambda run: json.dumps({**run, "method": "none", "rcva": None}),
    "proposed-with-rcva": lambda run: json.dumps({**run, "method": "proposed", "f2": run["f1"]}),
    "proposed-without-f2": lambda run: json.dumps({**run, "method": "proposed", "rcva": None}),
}


class TestReplay:
    @pytest.mark.parametrize("method", list(METHODS))
    def test_byte_identical_and_thread_independent(self, tmp_path, method):
        s = _synth(tmp_path / "s")
        d1 = _detect(s, tmp_path / "d1", "--method", method)
        d2 = tmp_path / "d2"
        rc = main(["detect", "--replay", str(d1 / "run.json"),
                   "--out", str(d2), "--threads", "3"])
        assert rc == 0
        names = sorted(p.name for p in d1.iterdir())
        assert sorted(p.name for p in d2.iterdir()) == names
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_replay_refuses_config_flags(self, tmp_path, capsys):
        s = _synth(tmp_path / "s")
        d = _detect(s, tmp_path / "d")
        rc = main(["detect", "--replay", str(d / "run.json"),
                   "--out", str(tmp_path / "x"), "--sigma", "0.3"])
        assert rc == 2
        assert "--sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(_MALFORMED))
    def test_replay_garbage_exits_2(self, tmp_path, capsys, case):
        # conf-rcva reads smoothing and rcva but not f2, so every config is
        # there to corrupt and to carry onto a method that does not read it
        s = _synth(tmp_path / "s", size=16)
        d = _detect(s, tmp_path / "d", "--method", "conf-rcva")
        bad = tmp_path / "run.json"
        bad.write_text(_MALFORMED[case](json.loads((d / "run.json").read_text())))
        assert main(["detect", "--replay", str(bad), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot replay") and err.count("\n") == 1


class TestEvaluate:
    def test_perfect_prediction_scores_100(self, tmp_path, capsys):
        s = _synth(tmp_path / "s")
        d = tmp_path / "d"
        d.mkdir()
        (d / "change.pgm").write_bytes((s / "reference.pgm").read_bytes())
        assert main(["evaluate", "--pred", str(d),
                     "--reference", str(s / "reference.pgm")]) == 0
        row = capsys.readouterr().out.splitlines()[-1]
        assert row.split()[1:] == ["100.00"] * 6

    def test_no_confidence_prints_pixel_100(self, tmp_path, capsys):
        s = _synth(tmp_path / "s")
        d = _detect(s, tmp_path / "d", "--method", "none")
        assert main(["evaluate", "--pred", str(d),
                     "--reference", str(s / "reference.pgm")]) == 0
        row = capsys.readouterr().out.splitlines()[-1]
        assert row.split()[-1] == "100.00"
        report = json.loads((d / "metrics.json").read_text())
        assert report["confident"] is None
        assert 0 <= report["all_pixels"]["f1_macro"] <= 100

    def test_confident_subset_reported(self, tmp_path):
        s = _synth(tmp_path / "s")
        d = _detect(s, tmp_path / "d")
        assert main(["evaluate", "--pred", str(d),
                     "--reference", str(s / "reference.pgm")]) == 0
        report = json.loads((d / "metrics.json").read_text())
        assert report["confident"] is not None
        assert report["confident"]["pixel_pct"] < 100
        assert report["all_pixels"]["pixel_pct"] == 100

    @pytest.mark.parametrize("agg", ["pooled", "mean"])
    def test_multi_run_aggregate_row(self, tmp_path, capsys, agg):
        s = _synth(tmp_path / "s")
        d1 = _detect(s, tmp_path / "d1")
        d2 = _detect(s, tmp_path / "d2", "--seed", "5")
        assert main(["evaluate", "--pred", str(d1), str(d2),
                     "--reference", str(s / "reference.pgm"),
                     "--aggregate", agg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith(agg)
        assert len(lines) == 5  # header, rule, two runs, aggregate

    def test_missing_artifacts_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        s = _synth(tmp_path / "s")
        rc = main(["evaluate", "--pred", str(empty),
                   "--reference", str(s / "reference.pgm")])
        assert rc == 2
        assert "missing" in capsys.readouterr().err

    def test_reference_count_mismatch(self, tmp_path):
        s = _synth(tmp_path / "s")
        d1 = _detect(s, tmp_path / "d1")
        d2 = _detect(s, tmp_path / "d2")
        ref = str(s / "reference.pgm")
        assert main(["evaluate", "--pred", str(d1), str(d2),
                     "--reference", ref, ref, ref]) == 2


class TestSweep:
    @pytest.mark.parametrize("sweep,values", [("conf-threshold", "1.0,0.8"),
                                              ("sigma", "0.05,0.1")])
    def test_every_detection_runs_on_the_given_threads(self, tmp_path, monkeypatch,
                                                       sweep, values):
        s = _synth(tmp_path / "s", size=16)
        seen = _record_threads(monkeypatch)
        argv = _sweep_argv(s, tmp_path / "o", sweep, values)
        assert main([*argv, "--threads", "3"]) == 0
        # the shared primary, then three votes per ensemble drawn
        assert seen == [3] * (1 + 3 * (1 if sweep == "conf-threshold" else 2))

    def test_conf_threshold_reuses_ensemble(self, tmp_path):
        s = _synth(tmp_path / "s")
        out = tmp_path / "swp"
        rc = main(["sweep", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                   "--reference", str(s / "reference.pgm"), "--out", str(out),
                   "--sweep", "conf-threshold", "--values", "1.0,0.9,0.8,0.7,0.6",
                   *_SMALL])
        assert rc == 0
        blobs = [(out / f"point_{i:02d}" / "counts.cdr").read_bytes() for i in range(5)]
        assert all(b == blobs[0] for b in blobs)
        rows = (out / "curve.csv").read_text().splitlines()
        assert rows[0] == "value,f1_macro,pixel_pct"
        pcts = [float(r.split(",")[2]) for r in rows[1:]]
        # K_tau decreasing left to right => retention can only grow
        assert all(a <= b for a, b in zip(pcts, pcts[1:]))

    def test_sigma_sweep_recomputes(self, tmp_path):
        s = _synth(tmp_path / "s")
        out = tmp_path / "swp"
        rc = main(["sweep", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                   "--reference", str(s / "reference.pgm"), "--out", str(out),
                   "--sweep", "sigma", "--values", "0.05,0.25", *_SMALL])
        assert rc == 0
        a = (out / "point_00" / "counts.cdr").read_bytes()
        b = (out / "point_01" / "counts.cdr").read_bytes()
        assert a != b
        assert len((out / "curve.csv").read_text().splitlines()) == 3

    def test_sigma_sweep_detects_the_primary_once(self, tmp_path, monkeypatch):
        s = _synth(tmp_path / "s", size=16)
        calls = []
        real = cdconf.cli.detect_pair

        def counted(*a, **kw):
            calls.append(1)
            return real(*a, **kw)

        # conf-rcva votes in band space, so every detect_pair call is a primary one
        for mod in ("cli", "baselines", "smoothing"):
            monkeypatch.setattr(f"cdconf.{mod}.detect_pair", counted)
        assert main(["sweep", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                     "--reference", str(s / "reference.pgm"), "--out", str(tmp_path / "o"),
                     "--method", "conf-rcva", "--sweep", "sigma", "--values", "0.05,0.1,0.25",
                     *_small_flags("conf-rcva")]) == 0
        assert len(calls) == 1

    def test_rejects_single_value(self, tmp_path):
        s = _synth(tmp_path / "s")
        assert main(["sweep", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                     "--reference", str(s / "reference.pgm"),
                     "--out", str(tmp_path / "o"),
                     "--sweep", "sigma", "--values", "0.1", *_SMALL]) == 2

    def test_rejects_non_ensemble_method(self, tmp_path, capsys):
        s = _synth(tmp_path / "s")
        assert main(["sweep", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                     "--reference", str(s / "reference.pgm"),
                     "--out", str(tmp_path / "o"), "--method", "deep-magnitude",
                     "--sweep", "conf-threshold", "--values", "1.0,0.9",
                     *_small_flags("deep-magnitude")]) == 2
        assert "needs an ensemble method" in capsys.readouterr().err

    def test_rejects_threads_below_one(self, tmp_path, capsys):
        s = _synth(tmp_path / "s", size=16)
        assert main(["sweep", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                     "--reference", str(s / "reference.pgm"),
                     "--out", str(tmp_path / "o"), "--threads", "-5",
                     "--sweep", "sigma", "--values", "0.05,0.25", *_SMALL]) == 2
        assert capsys.readouterr().err == "error: --threads must be >= 1, got -5\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sweep,values", [
        ("sigma", "0.05,nan"), ("sigma", "0.05,inf"), ("conf-threshold", "1.0,nan"),
        ("sigma", "0.05,0.1,1e7"), ("sigma", "0.05,0.1,1e39")])
    def test_refused_value_writes_nothing(self, tmp_path, capsys, sweep, values):
        s = _synth(tmp_path / "s", size=16)
        assert main(["sweep", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                     "--reference", str(s / "reference.pgm"), "--out", str(tmp_path / "o"),
                     "--sweep", sweep, "--values", values, *_SMALL]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_rejects_out_of_range_threshold(self, tmp_path):
        s = _synth(tmp_path / "s")
        assert main(["sweep", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                     "--reference", str(s / "reference.pgm"),
                     "--out", str(tmp_path / "o"),
                     "--sweep", "conf-threshold", "--values", "1.0,0.0", *_SMALL]) == 2


    def test_broken_detection_exits_1_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        real_run_method = cdconf.cli.run_method

        def run_method(method, x1, x2, f1, f2, sm, *args, **kwargs):
            det = real_run_method(method, x1, x2, f1, f2, sm, *args, **kwargs)
            if sm.sigma == 0.25:  # only the last point breaks
                det.counts.k_prime[0, 0] = det.counts.k + 1
            return det

        monkeypatch.setattr("cdconf.cli.run_method", run_method)
        s = _synth(tmp_path / "s", size=16)
        assert main(_sweep_argv(s, tmp_path / "o", "sigma", "0.05,0.1,0.25")) == 1
        assert capsys.readouterr().err == "error: vote counts outside [0, 3]\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("method", ["proposed", "unified", "conf-rcva"])
    @pytest.mark.parametrize("sweep,values", [("conf-threshold", "1.0,0.8,0.6"),
                                              ("sigma", "0.05,0.25")])
    def test_every_point_is_a_replayable_run(self, tmp_path, method, sweep, values):
        s = _synth(tmp_path / "s")
        out = tmp_path / "swp"
        assert main(_sweep_argv(s, out, sweep, values, method)) == 0
        points = [f"point_{i:02d}" for i in range(len(values.split(",")))]
        assert sorted(p.name for p in out.iterdir()) == ["curve.csv", *points]
        for point, v in zip(points, values.split(",")):
            d = out / point
            run = json.loads((d / "run.json").read_text())
            assert run["method"] == method
            assert run["smoothing"][sweep.replace("-", "_")] == float(v)
            replay = tmp_path / f"replay-{point}"
            assert main(["detect", "--replay", str(d / "run.json"), "--out", str(replay)]) == 0
            files = _files(d)
            metrics = files.pop("metrics.json")
            assert files == _files(replay)
            assert main(["evaluate", "--pred", str(d),
                         "--reference", str(s / "reference.pgm")]) == 0
            assert (d / "metrics.json").read_bytes() == metrics


_REFUSED = "error: --out {} exists and is not an empty directory\n"


class TestFreshOut:
    def test_detect_over_an_earlier_run_exits_2_and_changes_nothing(self, tmp_path, capsys):
        s = _synth(tmp_path / "s")
        d = _detect(s, tmp_path / "d")
        before = _files(d)
        rc = main(["detect", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                   "--out", str(d), "--method", "none", *_small_flags("none")])
        assert rc == 2
        assert capsys.readouterr().err == _REFUSED.format(d)
        assert _files(d) == before

    def test_sweep_over_a_longer_sweep_exits_2_and_changes_nothing(self, tmp_path, capsys):
        s = _synth(tmp_path / "s", size=16)
        out = tmp_path / "swp"
        assert main(_sweep_argv(s, out, "conf-threshold", "1.0,0.9,0.8")) == 0
        before = _files(out)
        assert main(_sweep_argv(s, out, "conf-threshold", "1.0,0.9")) == 2
        assert capsys.readouterr().err == _REFUSED.format(out)
        assert _files(out) == before

    @pytest.mark.parametrize("cmd", ["detect", "sweep"])
    def test_refused_before_any_raster_is_read(self, tmp_path, capsys, cmd):
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        missing = tmp_path / "no.cdr"
        argv = [cmd, "--t1", str(missing), "--t2", str(missing), "--out", str(out)]
        if cmd == "sweep":
            argv += ["--reference", str(tmp_path / "no.pgm"), "--sweep", "sigma",
                     "--values", "0.05,0.1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == _REFUSED.format(out)
        assert _files(out) == {"keep.txt": b"x"}

    def test_a_file_is_refused(self, tmp_path, capsys):
        s = _synth(tmp_path / "s", size=16)
        out = tmp_path / "o"
        out.write_bytes(b"")
        rc = main(["detect", "--t1", str(s / "t1.cdr"), "--t2", str(s / "t2.cdr"),
                   "--out", str(out), "--method", "none"])
        assert rc == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert out.read_bytes() == b""

    def test_an_empty_directory_is_accepted(self, tmp_path):
        s = _synth(tmp_path / "s", size=16)
        d = tmp_path / "d"
        d.mkdir()
        _detect(s, d, "--method", "none")
        assert sorted(p.name for p in d.iterdir()) == [
            "change.pgm", "magnitude.cdr", "run.json", "tau.json"]
        out = tmp_path / "swp"
        out.mkdir()
        assert main(_sweep_argv(s, out, "sigma", "0.05,0.1")) == 0
        assert sorted(p.name for p in out.iterdir()) == ["curve.csv", "point_00", "point_01"]


class TestRender:
    def test_magnitude_to_pgm(self, tmp_path):
        s = _synth(tmp_path / "s")
        d = _detect(s, tmp_path / "d", "--method", "none")
        out = tmp_path / "mag.pgm"
        assert main(["render", "--input", str(d / "magnitude.cdr"),
                     "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"P5\n32 32\n255\n")

    def test_three_band_to_ppm(self, tmp_path):
        from cdconf.raster import Raster, save_raster

        rng = np.random.Generator(np.random.Philox(key=1))
        src = tmp_path / "x.cdr"
        save_raster(Raster(rng.uniform(0, 1, (3, 4, 5)).astype(np.float32)), src)
        out = tmp_path / "x.ppm"
        assert main(["render", "--input", str(src), "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"P6\n5 4\n255\n")

    # the payload is each band scaled by its own extremes, times 255 and
    # rounded, pixel-interleaved for three bands
    @pytest.mark.parametrize("bands", [1, 3])
    def test_payload_is_the_rounded_normalized_bands(self, tmp_path, bands):
        from cdconf.raster import Raster, save_raster
        from oracles import normalize_pair_reference

        data = np.random.Generator(np.random.Philox(key=2)).normal(size=(bands, 9, 13))
        data = data.astype(np.float32)
        src, out = tmp_path / "x.cdr", tmp_path / "x.pnm"
        save_raster(Raster(data), src)
        assert main(["render", "--input", str(src), "--out", str(out)]) == 0
        scaled = normalize_pair_reference(data, data)[0]
        gray = (scaled * 255.0).round().astype(np.uint8).transpose(1, 2, 0)
        head = (b"P5" if bands == 1 else b"P6") + b"\n13 9\n255\n"
        assert out.read_bytes() == head + gray.tobytes()

    def test_traced_peak_is_two_rasters(self, tmp_path):
        # the loaded and the normalized raster; the normalized one is scaled
        # and rounded in place
        import tracemalloc

        from cdconf.raster import Raster, save_raster

        r = Raster(np.random.Generator(np.random.Philox(key=3)).uniform(
            0, 1, (3, 101, 257)).astype(np.float32))
        src = tmp_path / "x.cdr"
        save_raster(r, src)
        argv = ["render", "--input", str(src), "--out", str(tmp_path / "x.ppm")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * r.data.nbytes + 262144

    def test_rejects_other_band_counts(self, tmp_path):
        from cdconf.raster import Raster, save_raster

        src = tmp_path / "x.cdr"
        save_raster(Raster(np.zeros((2, 4, 4), dtype=np.float32)), src)
        assert main(["render", "--input", str(src), "--out", str(tmp_path / "y")]) == 2


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "detect" in capsys.readouterr().out
