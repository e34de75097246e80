"""Evaluation indices over all pixels or restricted to confident pixels.

Changed is the positive class.  All indices live on the 0-100 scale.  Ratios
with a zero denominator are reported as 0 and the affected index name is
recorded in the report's ``degenerate`` flags, keeping reports
machine-comparable without NaNs while staying honest about undefined values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ShapeMismatch
from .raster import ConfidenceMap, ConfidenceState, LabelMap


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def counted(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricsReport:
    """Six indices on the 0-100 scale plus the raw counts behind them."""

    precision: float
    sensitivity: float
    specificity: float
    f1_changed: float
    f1_macro: float
    pixel_pct: float
    counts: ConfusionCounts
    degenerate: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return asdict(self)


def confusion(
    pred: LabelMap, ref: LabelMap, mask: ConfidenceMap | None = None
) -> ConfusionCounts:
    """Count tp/fp/fn/tn; with a mask, only non-NotConfident pixels count."""
    if pred.changed.shape != ref.changed.shape:
        raise ShapeMismatch(f"pred {pred.changed.shape} vs ref {ref.changed.shape}")
    keep = np.ones(pred.changed.shape, dtype=bool)
    if mask is not None:
        if mask.states.shape != pred.changed.shape:
            raise ShapeMismatch(f"mask {mask.states.shape} vs pred {pred.changed.shape}")
        keep = mask.states != int(ConfidenceState.NOT_CONFIDENT)
    p = pred.changed[keep]
    r = ref.changed[keep]
    return ConfusionCounts(
        tp=int(np.sum(p & r)),
        fp=int(np.sum(p & ~r)),
        fn=int(np.sum(~p & r)),
        tn=int(np.sum(~p & ~r)),
    )


def _ratio(num: int, den: int, name: str, flags: list) -> float:
    if den == 0:
        flags.append(name)
        return 0.0
    return 100.0 * num / den


def metrics(c: ConfusionCounts, total_pixels: int) -> MetricsReport:
    """Indices from counts; ``total_pixels`` is the full scene size so
    pixel_pct reflects how many pixels the counts retained."""
    if total_pixels < c.counted:
        raise ValueError(f"total_pixels {total_pixels} < counted {c.counted}")
    flags: list = []
    precision = _ratio(c.tp, c.tp + c.fp, "precision", flags)
    sensitivity = _ratio(c.tp, c.tp + c.fn, "sensitivity", flags)
    specificity = _ratio(c.tn, c.tn + c.fp, "specificity", flags)
    f1_changed = _ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn, "f1_changed", flags)
    f1_unchanged = _ratio(2 * c.tn, 2 * c.tn + c.fn + c.fp, "f1_unchanged", flags)
    pixel_pct = _ratio(c.counted, total_pixels, "pixel_pct", flags)
    return MetricsReport(
        precision=precision,
        sensitivity=sensitivity,
        specificity=specificity,
        f1_changed=f1_changed,
        f1_macro=(f1_changed + f1_unchanged) / 2,
        pixel_pct=pixel_pct,
        counts=c,
        degenerate=tuple(flags),
    )


def evaluate_run(pred: LabelMap, conf: ConfidenceMap | None, ref: LabelMap):
    """All-pixels report, plus the confident-only report when a map is given.

    The pair of reports backs one comparison row: selection-free quality
    versus quality on the retained pixels.
    """
    total = ref.changed.size
    full = metrics(confusion(pred, ref), total)
    if conf is None:
        return full, None
    return full, metrics(confusion(pred, ref, conf), total)


def _summed(counts: list[ConfusionCounts]) -> ConfusionCounts:
    """Field-by-field sum of confusion counts."""
    return ConfusionCounts(tp=sum(c.tp for c in counts), fp=sum(c.fp for c in counts),
                           fn=sum(c.fn for c in counts), tn=sum(c.tn for c in counts))


def aggregate_pooled(counts: list[ConfusionCounts], total_pixels: int) -> MetricsReport:
    """Sum confusion counts across scenes, then compute indices once."""
    return metrics(_summed(counts), total_pixels)


def aggregate_mean(reports: list[MetricsReport]) -> MetricsReport:
    """Arithmetic mean of each index across per-scene reports.

    Counts are summed for reference only; the indices are the means, not
    recomputed from the summed counts.
    """
    if not reports:
        raise ValueError("nothing to aggregate")
    n = len(reports)
    flags: set = set()
    for r in reports:
        flags.update(r.degenerate)
    return MetricsReport(
        precision=sum(r.precision for r in reports) / n,
        sensitivity=sum(r.sensitivity for r in reports) / n,
        specificity=sum(r.specificity for r in reports) / n,
        f1_changed=sum(r.f1_changed for r in reports) / n,
        f1_macro=sum(r.f1_macro for r in reports) / n,
        pixel_pct=sum(r.pixel_pct for r in reports) / n,
        counts=_summed([r.counts for r in reports]),
        degenerate=tuple(sorted(flags)),
    )


_COLUMNS = ("Prec.", "Sens.", "Spec.", "F1 ch.", "F1 mac.", "Pixel %")


def format_table(rows: list[tuple[str, MetricsReport]]) -> str:
    """Fixed-width comparison table, one labeled row per report."""
    label_w = max([len(label) for label, _ in rows] + [len("Run")])
    header = "Run".ljust(label_w) + "".join(c.rjust(9) for c in _COLUMNS)
    lines = [header, "-" * len(header)]
    for label, r in rows:
        vals = (r.precision, r.sensitivity, r.specificity, r.f1_changed, r.f1_macro, r.pixel_pct)
        lines.append(label.ljust(label_w) + "".join(f"{v:9.2f}" for v in vals))
    return "\n".join(lines)
