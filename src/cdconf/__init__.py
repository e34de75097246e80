"""Unsupervised bi-temporal change detection with per-pixel confidence maps.

Detection compares deep features of two co-registered acquisitions: per-pixel
feature differences are collapsed to a change magnitude, an automatic
histogram threshold splits changed from unchanged, and a vote over noisy
re-detections marks each pixel confident-changed, confident-unchanged, or
not confident.

A detection parallelizes on its own worker threads (``threads``), each of
which runs its own GEMMs, so OpenBLAS is capped at one thread per caller:
importing cdconf before NumPy sets ``OPENBLAS_NUM_THREADS=1`` unless the
variable is already set.  Once NumPy is loaded the variable no longer acts,
so it is then left alone.  Worker threads run only while the variable is
"1" (``pool._workers``); otherwise a detection starts none, whatever
``threads`` asks for, and OpenBLAS's own threads do the parallel work.
Calls that give no ``threads`` use the cores, no more than a CPU quota
allows (``pool.default_threads``).
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .baselines import (
    RcvaConfig,
    rcva_magnitude,
    run_conf_rcva,
    run_unified,
)
from .dcva import (
    ChangeResult,
    MagnitudeMap,
    detect,
    detect_pair,
    hypervector,
    magnitude,
    otsu_threshold,
    threshold_labels,
)
from .errors import (
    ChangeDetectionError,
    DimensionMismatch,
    EmptyTapSet,
    InfeasibleFraction,
    InvariantViolation,
    IoFailure,
    MalformedHeader,
    RejectedValue,
    ShapeMismatch,
    UnsupportedFormat,
)
from .features import (
    ExtractorKind,
    ExtractorSpec,
    default_primary_spec,
    default_secondary_spec,
    extract,
    standardize_pair,
)
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    aggregate_mean,
    aggregate_pooled,
    confusion,
    evaluate_run,
    format_table,
    metrics,
)
from .raster import (
    ConfidenceMap,
    ConfidenceState,
    LabelMap,
    Raster,
    load_raster,
    normalize_bands,
    normalize_pair,
    render_change,
    render_confidence,
    save_raster,
)
from .smoothing import (
    ConfidentDetection,
    EnsembleCounts,
    SmoothingConfig,
    ensemble_counts,
    fuse_confidence,
    perturb,
    run_proposed,
)
from .synth import SceneSpec, generate

__version__ = "0.9.0"

__all__ = [
    "ChangeDetectionError",
    "ChangeResult",
    "ConfidenceMap",
    "ConfidenceState",
    "ConfidentDetection",
    "ConfusionCounts",
    "DimensionMismatch",
    "EmptyTapSet",
    "EnsembleCounts",
    "ExtractorKind",
    "ExtractorSpec",
    "InfeasibleFraction",
    "InvariantViolation",
    "IoFailure",
    "LabelMap",
    "MagnitudeMap",
    "MalformedHeader",
    "MetricsReport",
    "Raster",
    "RcvaConfig",
    "RejectedValue",
    "SceneSpec",
    "ShapeMismatch",
    "SmoothingConfig",
    "UnsupportedFormat",
    "aggregate_mean",
    "aggregate_pooled",
    "confusion",
    "default_primary_spec",
    "default_secondary_spec",
    "detect",
    "detect_pair",
    "ensemble_counts",
    "evaluate_run",
    "extract",
    "format_table",
    "fuse_confidence",
    "generate",
    "hypervector",
    "load_raster",
    "magnitude",
    "metrics",
    "normalize_bands",
    "normalize_pair",
    "otsu_threshold",
    "perturb",
    "render_change",
    "render_confidence",
    "rcva_magnitude",
    "run_conf_rcva",
    "run_proposed",
    "run_unified",
    "save_raster",
    "standardize_pair",
    "threshold_labels",
]
