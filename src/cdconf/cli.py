"""Command-line front-end: end-to-end detection, confidence, evaluation,
parameter sweeps, scene synthesis, and map rendering.

Every detect run drops a run.json capturing the complete configuration
(method, paths, the configs the method reads, extractor specs with their
derived weight seeds); replaying that file reproduces all artifacts
byte-for-byte, which is the only audit trail an unsupervised pipeline has.
A sweep point is such a run plus the metrics.json that evaluate writes.

Exit codes: 0 success, 1 a runtime invariant was violated (detect and sweep
check every detection before writing any artifact), 2 usage, I/O, a
non-empty ``--out`` or out of memory (one-line diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .baselines import METHODS, RcvaConfig, run_method
# unused here; perfbench/test_bench.py checks that its tracer wraps this binding
from .dcva import detect_pair  # noqa: F401
from .errors import ChangeDetectionError, InvariantViolation, RejectedValue
from .features import ExtractorSpec, default_primary_spec, default_secondary_spec
from .metrics import (
    MetricsReport,
    aggregate_mean,
    aggregate_pooled,
    evaluate_run,
    format_table,
)
from .pool import _MAX_WORKERS, default_threads
from .raster import (
    Raster,
    _normalized,
    _write_pnm,
    load_confidence_map,
    load_label_map,
    load_raster,
    render_change,
    render_confidence,
    save_raster,
)
from .smoothing import ConfidentDetection, SmoothingConfig, check_detection, fuse_confidence
from .synth import SceneSpec, generate


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write_json(path: Path, obj) -> None:
    path.write_text(_canonical_json(obj), encoding="ascii")


# ---------------------------------------------------------------------------
# run configuration


def _json_fields(pairs) -> dict:
    return {k: v.value if isinstance(v, Enum) else v for k, v in pairs}


def _decode(hint, value, where: str):
    """``value`` read from run.json as a ``hint``: a config dataclass, an enum,
    ``X | None``, ``tuple[int, ...]`` or a scalar.  Anything else is refused."""
    args = typing.get_args(hint)
    if type(None) in args:
        return None if value is None else _decode(args[0], value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise RejectedValue(f"{where}: expected a list, got {value!r}")
        return tuple(_decode(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(hint):
        names = {f.name for f in dataclasses.fields(hint)}
        if not isinstance(value, dict) or value.keys() != names:
            raise RejectedValue(f"{where}: expected an object with the keys {sorted(names)}")
        hints = typing.get_type_hints(hint)
        return hint(**{k: _decode(hints[k], v, f"{where}.{k}") for k, v in value.items()})
    if issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            raise RejectedValue(f"{where}: unknown {hint.__name__} {value!r}")
    if type(value) is hint or (hint is float and type(value) is int):
        return value
    raise RejectedValue(f"{where}: expected {hint.__name__}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one detection run; serialized as run.json.

    run.json holds these fields, with each config dataclass as a nested
    object of its own fields and an extractor kind as its enum value; a
    config the method does not read is null.
    """

    method: str
    t1: str
    t2: str
    f1: ExtractorSpec
    f2: ExtractorSpec | None
    smoothing: SmoothingConfig | None
    rcva: RcvaConfig | None

    def __post_init__(self):
        if self.method not in METHODS:
            raise RejectedValue(f"unknown method {self.method!r}")
        reads = METHODS[self.method].reads
        for config in ("smoothing", "f2", "rcva"):
            if (getattr(self, config) is None) == (config in reads):
                need = "needs" if config in reads else "does not read"
                raise RejectedValue(f"method {self.method!r} {need} {config}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self, dict_factory=_json_fields)

    @classmethod
    def from_dict(cls, d) -> "RunConfig":
        return _decode(cls, d, "run.json")


def _load_pair(cfg: RunConfig) -> tuple[Raster, Raster]:
    # pooled per-band scaling, as normalize_pair's: a change-shifted band
    # range must not turn into a whole-image radiometric offset between the
    # two acquisitions.  The loaded rasters are this run's own, so they are
    # scaled in place
    return _normalized(load_raster(cfg.t1), load_raster(cfg.t2))


# ---------------------------------------------------------------------------
# flag plumbing


def _taps(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"taps must be comma-separated integers, got {text!r}")


def _values(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"values must be comma-separated numbers, got {text!r}")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t1", help="pre-change raster (CDR/PGM/PPM)")
    p.add_argument("--t2", help="post-change raster")
    p.add_argument("--method", choices=tuple(METHODS), default=None)
    p.add_argument("--sigma", type=float, default=None, help="perturbation std dev")
    p.add_argument("--iterations", type=int, default=None, help="ensemble size K")
    p.add_argument("--conf-threshold", type=float, default=None, help="vote fraction in (0,1]")
    p.add_argument("--seed", type=int, default=None, help="master seed for all randomness")
    p.add_argument("--f1-taps", type=_taps, default=None)
    p.add_argument("--f1-channels", type=int, default=None)
    p.add_argument("--f2-taps", type=_taps, default=None)
    p.add_argument("--f2-channels", type=int, default=None)
    p.add_argument("--rcva-window", type=int, default=None)
    p.add_argument("--threads", type=int, default=default_threads(),
                   help="worker threads of each detection's strips of rows, at most "
                        f"{_MAX_WORKERS} a pass (default: the usable cores); one while "
                        "OPENBLAS_NUM_THREADS is not 1, and OpenBLAS's own threads do "
                        "the parallel work.  Everything else, the votes' noise draws "
                        "among it, runs on the calling thread")


# the flag that sets each field of each config; every method reads f1, and
# the others only if they are in its ``reads``
_FLAGS = {
    "f1": {"taps": "f1_taps", "channels": "f1_channels"},
    "smoothing": {"sigma": "sigma", "iterations": "iterations", "conf_threshold": "conf_threshold"},
    "f2": {"taps": "f2_taps", "channels": "f2_channels"},
    "rcva": {"window_radius": "rcva_window"},
}
_CONFIG_FLAGS = ("t1", "t2", "method", "seed") + tuple(
    flag for flags in _FLAGS.values() for flag in flags.values()
)


def _flag_list(names) -> str:
    return ", ".join("--" + f.replace("_", "-") for f in names)


def _config_from_flags(args) -> RunConfig:
    if args.t1 is None or args.t2 is None:
        raise RejectedValue("--t1 and --t2 are required")
    method = args.method or "proposed"
    reads = METHODS[method].reads
    unread = [f for config, flags in _FLAGS.items() if config not in ("f1", *reads)
              for f in flags.values() if getattr(args, f) is not None]
    if unread:
        raise RejectedValue(f"method {method!r} does not read {_flag_list(unread)}")
    seed = args.seed if args.seed is not None else 0
    return RunConfig(
        method=method,
        t1=str(Path(args.t1).resolve()),
        t2=str(Path(args.t2).resolve()),
        f1=default_primary_spec(seed, **_given(args, "f1")),
        f2=default_secondary_spec(seed, **_given(args, "f2")) if "f2" in reads else None,
        smoothing=(SmoothingConfig(master_seed=seed, **_given(args, "smoothing"))
                   if "smoothing" in reads else None),
        rcva=RcvaConfig(**_given(args, "rcva")) if "rcva" in reads else None,
    )


def _given(args, config: str) -> dict:
    """The fields of ``config`` given on the command line; the config
    dataclasses hold the defaults of the rest."""
    given = {field: getattr(args, flag) for field, flag in _FLAGS[config].items()}
    return {field: v for field, v in given.items() if v is not None}


# ---------------------------------------------------------------------------
# subcommands


def _check_threads(args) -> None:
    if args.threads < 1:
        raise RejectedValue(f"--threads must be >= 1, got {args.threads}")


def _empty_out(path: str) -> Path:
    """``--out``, refused unless it is a new path or an empty directory, so no
    artifact of an earlier run can sit next to this run's."""
    out = Path(path)
    if out.exists() and not (out.is_dir() and not any(out.iterdir())):
        raise RejectedValue(f"--out {out} exists and is not an empty directory")
    return out


def _write_runs(runs: list[tuple[Path, RunConfig, ConfidentDetection]]) -> None:
    """Check every detection, then write each into its directory: exactly
    what ``detect --replay <dir>/run.json`` writes again.  A detection that
    breaks an invariant raises before the first file is written."""
    for _, _, det in runs:
        check_detection(det)
    for out, cfg, det in runs:
        out.mkdir(parents=True, exist_ok=True)
        primary = det.primary
        render_change(primary.labels, out / "change.pgm")
        save_raster(Raster(primary.magnitude.rho[None, ...]), out / "magnitude.cdr")
        _write_json(out / "tau.json", {"tau": primary.tau})
        _write_json(out / "run.json", cfg.to_dict())
        if det.confidence is not None:
            render_confidence(det.confidence, out / "confidence.ppm")
        if det.counts is not None:
            save_raster(Raster(det.counts.k_prime.astype(np.float32)[None, ...]),
                        out / "counts.cdr")


def _write_metrics(d: Path, full: MetricsReport, sel: MetricsReport | None) -> None:
    _write_json(d / "metrics.json", {"all_pixels": full.to_dict(),
                                     "confident": None if sel is None else sel.to_dict()})


def cmd_detect(args) -> int:
    _check_threads(args)
    if args.replay is not None:
        given = [f for f in _CONFIG_FLAGS if getattr(args, f) is not None]
        if given:
            raise RejectedValue("--replay takes its configuration from the file; "
                                "drop " + _flag_list(given))
        try:
            cfg = RunConfig.from_dict(json.loads(Path(args.replay).read_text()))
        except (OSError, ValueError, ChangeDetectionError) as exc:
            raise RejectedValue(f"cannot replay {args.replay}: {exc}")
    else:
        cfg = _config_from_flags(args)
    out = _empty_out(args.out)
    x1, x2 = _load_pair(cfg)
    det = run_method(METHODS[cfg.method], x1, x2, cfg.f1, cfg.f2, cfg.smoothing, cfg.rcva,
                     threads=args.threads)
    _write_runs([(out, cfg, det)])
    return 0


def _load_prediction(pred_dir: Path):
    """The labels of a detect output dir, and its confidence map if it has one."""
    change = pred_dir / "change.pgm"
    if not change.is_file():
        raise RejectedValue(f"missing prediction artifact {change}")
    conf_path = pred_dir / "confidence.ppm"
    conf = load_confidence_map(conf_path) if conf_path.is_file() else None
    return load_label_map(change), conf


def cmd_evaluate(args) -> int:
    refs = list(args.reference)
    dirs = [Path(d) for d in args.pred]
    if len(refs) == 1:
        refs = refs * len(dirs)
    if len(refs) != len(dirs):
        raise RejectedValue(f"{len(dirs)} prediction dirs but {len(refs)} references")
    rows: list[tuple[str, MetricsReport]] = []
    shown: list[MetricsReport] = []
    totals = 0
    for d, ref in zip(dirs, refs):
        pred, conf = _load_prediction(d)
        ref_map = load_label_map(ref)
        full, sel = evaluate_run(pred, conf, ref_map)
        _write_metrics(d, full, sel)
        shown.append(sel if sel is not None else full)
        totals += ref_map.changed.size
        rows.append((d.name, shown[-1]))
    if len(dirs) > 1:
        if args.aggregate == "mean":
            rows.append(("mean", aggregate_mean(shown)))
        else:
            rows.append(("pooled", aggregate_pooled([r.counts for r in shown], totals)))
    print(format_table(rows))
    return 0


def cmd_sweep(args) -> int:
    _check_threads(args)
    cfg = _config_from_flags(args)
    method = METHODS[cfg.method]
    if "smoothing" not in method.reads:
        raise RejectedValue(f"sweep needs an ensemble method, not {cfg.method!r}")
    if len(args.values) < 2:
        raise RejectedValue("sweep needs at least two values")
    field = args.sweep.replace("-", "_")
    # the dataclass refuses every bad value before anything is written
    points = [dataclasses.replace(cfg.smoothing, **{field: v}) for v in args.values]
    out = _empty_out(args.out)
    ref = load_label_map(args.reference)
    x1, x2 = _load_pair(cfg)
    # every point shares the first point's clean primary detection
    first = run_method(method, x1, x2, cfg.f1, cfg.f2, points[0], cfg.rcva, threads=args.threads)
    primary = first.primary
    # a conf-threshold sweep re-fuses one ensemble; a sigma sweep re-votes per point
    if args.sweep == "conf-threshold":
        dets = [ConfidentDetection(primary, first.counts,
                                   fuse_confidence(primary, first.counts, sm.conf_threshold))
                for sm in points]
    else:
        dets = [first] + [run_method(method, x1, x2, cfg.f1, cfg.f2, sm, cfg.rcva,
                                     threads=args.threads, primary=primary)
                          for sm in points[1:]]
    reports = [evaluate_run(primary.labels, det.confidence, ref) for det in dets]
    dirs = [out / f"point_{i:02d}" for i in range(len(points))]
    _write_runs([(d, dataclasses.replace(cfg, smoothing=sm), det)
                 for d, sm, det in zip(dirs, points, dets)])
    lines = ["value,f1_macro,pixel_pct"]
    for d, v, (full, sel) in zip(dirs, args.values, reports):
        _write_metrics(d, full, sel)
        lines.append(f"{v},{sel.f1_macro:.6f},{sel.pixel_pct:.6f}")
    (out / "curve.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    return 0


def cmd_synth(args) -> int:
    spec = SceneSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SceneSpec)})
    t1, t2, ref = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_raster(t1, out / "t1.cdr")
    save_raster(t2, out / "t2.cdr")
    render_change(ref, out / "reference.pgm")
    _write_json(out / "spec.json", dataclasses.asdict(spec))
    return 0


def cmd_render(args) -> int:
    r = load_raster(args.input)
    if r.bands not in (1, 3):
        raise RejectedValue(f"can only render 1- or 3-band rasters, got {r.bands}")
    # the loaded samples are this command's own: normalize, scale and round
    # them in place
    data = _normalized(r)[0].data
    data *= np.float32(255.0)
    np.round(data, out=data)
    gray = data.transpose(1, 2, 0).astype(np.uint8, order="C")
    _write_pnm(b"P5" if r.bands == 1 else b"P6", r.width, r.height, gray, args.out)
    return 0


# ---------------------------------------------------------------------------
# entry


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cdconf",
        description="Bi-temporal change detection with per-pixel confidence maps.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("detect", help="detect changes and write map artifacts")
    _add_config_flags(d)
    d.add_argument("--out", required=True, help="output directory")
    d.add_argument("--replay", default=None, help="re-run a stored run.json")
    d.set_defaults(func=cmd_detect)

    e = sub.add_parser("evaluate", help="score stored predictions against a reference")
    e.add_argument("--pred", nargs="+", required=True, help="detect output dir(s)")
    e.add_argument("--reference", nargs="+", required=True, help="reference map(s)")
    e.add_argument("--aggregate", choices=("pooled", "mean"), default="pooled")
    e.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("sweep", help="evaluate one parameter over several values")
    _add_config_flags(s)
    s.add_argument("--sweep", choices=("conf-threshold", "sigma"), required=True)
    s.add_argument("--values", type=_values, required=True, help="comma-separated")
    s.add_argument("--reference", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sweep)

    g = sub.add_parser("synth", help="generate a synthetic bi-temporal scene")
    g.add_argument("--out", required=True)
    # a flag for each field, with SceneSpec's default; --shift sets misregistration_shift
    hints = typing.get_type_hints(SceneSpec)
    for f in dataclasses.fields(SceneSpec):
        flag = "shift" if f.name == "misregistration_shift" else f.name.replace("_", "-")
        g.add_argument(f"--{flag}", dest=f.name, type=hints[f.name], default=f.default)
    g.set_defaults(func=cmd_synth)

    r = sub.add_parser("render", help="convert a stored CDR raster to PGM/PPM")
    r.add_argument("--input", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ChangeDetectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
