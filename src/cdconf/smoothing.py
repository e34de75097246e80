"""Confidence estimation by noisy re-detection.

The primary detection runs once on the clean pair with the primary extractor.
A voter then re-runs a detection K times on Gaussian-perturbed copies of the
inputs (fresh threshold each time), and the per-pixel count of changed
verdicts K' is fused with the primary label: a pixel is confident when
enough of the noisy ensemble agrees with the primary verdict, and
not-confident otherwise.  The voter is a ``Detector``, the same kind of
function as the primary detection; the proposed method's voter is the full
detection chain with the secondary extractor.

Every iteration draws its noise from a private SFC64 stream derived from
(master_seed, image role, iteration index) and made Gaussian by a float32
Box-Muller transform (``rng.fill_standard_normal``), so results are
bit-identical regardless of execution order: the reduction into K' is a
commutative integer sum.  The iterations run one after another.
``threads`` parallelizes inside each iteration instead: the pair's two
noise draws run side by side, and so do the detection's strips of rows, in
both of its passes (see ``dcva.detect_pair``; None, the default, means
``pool.default_threads()``).  So a run holds one noisy pair, drawn into the
same two buffers at every iteration, and one noisy detection at a time
whatever the thread count, and its results do not depend on the thread
count either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .dcva import ChangeResult, detect_pair
from .errors import InvariantViolation, RejectedValue, ShapeMismatch
from .features import ExtractorSpec
from .pool import _pool_map
from .raster import ConfidenceMap, ConfidenceState, Raster
from .rng import ROLE_NOISE_T1, ROLE_NOISE_T2, fill_standard_normal, mix64

# Decimal confidence thresholds like 0.9 have no exact binary representation
# (0.9 * 10 == 9.000000000000002), so the count comparison allows this much
# slack to honor the decimal intent of k_tau * k.
_KTAU_EPS = 1e-9

# The largest sigma accepted: noise far wider than normalize_pair's [0, 1]
# scale, yet far inside float32's range, so no noisy raster holds an inf.
_SIGMA_MAX = 1e6

# A pair in, its change detection out: the primary detection and every voter.
# A voter must keep neither raster it is given: the next vote overwrites
# them (see ``ensemble_counts_with``).
Detector = Callable[[Raster, Raster], ChangeResult]


@dataclass(frozen=True)
class SmoothingConfig:
    """Noise level sigma in [0, 1e6], ensemble size K, confidence threshold in
    (0, 1], master seed."""

    sigma: float = 0.1
    iterations: int = 10
    conf_threshold: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma <= _SIGMA_MAX:  # NaN too
            raise RejectedValue(f"sigma must be finite and in [0, {_SIGMA_MAX:g}], got {self.sigma}")
        if self.iterations < 1:
            raise RejectedValue(f"iterations must be >= 1, got {self.iterations}")
        if not 0 < self.conf_threshold <= 1:
            raise RejectedValue(f"conf_threshold must be in (0, 1], got {self.conf_threshold}")


@dataclass(frozen=True, eq=False)
class EnsembleCounts:
    """Per-pixel count of changed verdicts over k noisy re-detections."""

    k_prime: np.ndarray
    k: int

    def __post_init__(self):
        if self.k_prime.ndim != 2 or self.k_prime.dtype != np.int32:
            raise ValueError("k_prime must be a 2-d int32 array")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.k_prime.min(initial=0) < 0 or self.k_prime.max(initial=0) > self.k:
            raise ValueError("k_prime out of [0, k]")


def perturb(x: Raster, sigma: float, stream_seed: int, out: np.ndarray | None = None) -> Raster:
    """Add i.i.d. Gaussian(0, sigma^2) noise from the given stream, unclamped.

    Values may leave [0, 1]: clamping would bias the ensemble near the range
    edges.  sigma=0 returns the input itself, bit for bit, and leaves
    ``out`` untouched.  The whole (bands, height, width) array of float32
    noise is drawn straight into the output by ``rng.fill_standard_normal``,
    in C order, which holds no raster-sized temporary; the output is then
    scaled by float32(sigma) and has the raster added in place, both in
    float32.  The output is ``out``, a C-contiguous float32 array of the
    raster's shape, when given (its old values are overwritten), and a new
    array otherwise.
    """
    if sigma == 0:
        return x
    if out is None:
        out = np.empty(x.data.shape, np.float32)
    fill_standard_normal(out.reshape(-1), stream_seed)
    out *= np.float32(sigma)
    out += x.data
    return Raster(out)


def iteration_seeds(master_seed: int, iteration: int) -> tuple[int, int]:
    """Stream seeds for the two image roles of one 1-based ensemble iteration."""
    return (
        mix64(master_seed, ROLE_NOISE_T1, iteration),
        mix64(master_seed, ROLE_NOISE_T2, iteration),
    )


def ensemble_counts_with(
    x1: Raster,
    x2: Raster,
    detector: Detector,
    cfg: SmoothingConfig,
    threads: int | None = None,
) -> EnsembleCounts:
    """Ensemble scaffolding with a pluggable per-iteration change detector.

    Iterations 1..K run in order.  Each perturbs both images with independent
    noise streams (correlated noise would cancel in the difference), the
    two draws side by side on up to ``threads`` worker threads (None:
    ``pool.default_threads()``), and counts the changed labels of
    ``detector`` on the noisy pair; a detector that runs on several threads
    holds its own thread count.  The counts do not depend on the order the
    iterations or the draws run in: iteration k's noise depends only on
    (master seed, role, k), and the reduction is a commutative integer sum.

    The two noisy rasters are allocated once, in the calling thread, and
    every iteration draws into them (none at sigma = 0, where the votes see
    the clean pair), so K votes allocate no raster.  The detector must
    therefore keep neither input raster: the next iteration overwrites them.
    """
    if x1.data.shape != x2.data.shape:
        raise ShapeMismatch(f"raster shapes differ: {x1.data.shape} vs {x2.data.shape}")
    k_prime = np.zeros((x1.height, x1.width), dtype=np.int32)
    noisy = [np.empty(x.data.shape, np.float32) if cfg.sigma > 0 else None for x in (x1, x2)]
    for k in range(1, cfg.iterations + 1):
        draws = list(zip((x1, x2), iteration_seeds(cfg.master_seed, k), noisy))
        pair = _pool_map(lambda d: perturb(d[0], cfg.sigma, d[1], d[2]), draws, threads)
        k_prime += detector(*pair).labels.changed
    return EnsembleCounts(k_prime=k_prime, k=cfg.iterations)


def ensemble_counts(
    x1: Raster,
    x2: Raster,
    f2spec: ExtractorSpec,
    cfg: SmoothingConfig,
    *,
    threads: int | None = None,
) -> EnsembleCounts:
    """Run K noisy re-detections with the secondary extractor and count
    changed verdicts per pixel."""
    return ensemble_counts_with(x1, x2, partial(detect_pair, spec=f2spec, threads=threads), cfg,
                                threads)


def fuse_confidence(
    primary: ChangeResult, counts: EnsembleCounts, k_tau: float
) -> ConfidenceMap:
    """Fuse the primary verdict with ensemble agreement into a tri-state map.

    ConfidentChanged where the primary says changed and K' >= k_tau*K;
    ConfidentUnchanged where the primary says unchanged and K - K' >= k_tau*K;
    NotConfident everywhere else.  The fusion validates the primary verdict
    but never overrides it.
    """
    if not 0 < k_tau <= 1:
        raise RejectedValue(f"k_tau must be in (0, 1], got {k_tau}")
    changed = primary.labels.changed
    if changed.shape != counts.k_prime.shape:
        raise ShapeMismatch(
            f"primary {changed.shape} vs counts {counts.k_prime.shape}"
        )
    need = k_tau * counts.k - _KTAU_EPS
    agree = np.where(changed, counts.k_prime, counts.k - counts.k_prime) >= need
    return confidence_map(changed, agree)


def confidence_map(changed: np.ndarray, confident: np.ndarray) -> ConfidenceMap:
    """The tri-state map of boolean ``changed`` labels and a boolean
    ``confident`` mask: a confident pixel keeps its label, ConfidentChanged
    or ConfidentUnchanged, and every other pixel is NotConfident."""
    states = np.full(changed.shape, int(ConfidenceState.NOT_CONFIDENT), dtype=np.uint8)
    states[confident & changed] = int(ConfidenceState.CONFIDENT_CHANGED)
    states[confident & ~changed] = int(ConfidenceState.CONFIDENT_UNCHANGED)
    return ConfidenceMap(states)


@dataclass(frozen=True)
class ConfidentDetection:
    """One full run: clean primary detection, vote counts, fused tri-state map.

    counts is None for confidence mechanisms that have no ensemble, and
    confidence is None for the method that assigns no confidence at all.
    """

    primary: ChangeResult
    counts: EnsembleCounts | None
    confidence: ConfidenceMap | None


def check_detection(det: ConfidentDetection) -> None:
    """Raise InvariantViolation unless ``det`` keeps the pipeline's invariants:
    the labels are exactly rho > tau, every confident pixel carries its
    primary label, and each vote count lies in [0, K]."""
    primary = det.primary
    changed = primary.labels.changed
    if not np.array_equal(changed, primary.magnitude.rho > np.float64(primary.tau)):
        raise InvariantViolation("primary labels differ from magnitude > tau")
    if det.confidence is not None:
        states = det.confidence.states
        if ((states == ConfidenceState.CONFIDENT_CHANGED) & ~changed).any() or (
                (states == ConfidenceState.CONFIDENT_UNCHANGED) & changed).any():
            raise InvariantViolation("a confident pixel does not carry its primary label")
    if det.counts is not None:
        k_prime = det.counts.k_prime
        if k_prime.min() < 0 or k_prime.max() > det.counts.k:
            raise InvariantViolation(f"vote counts outside [0, {det.counts.k}]")


def vote(primary: ChangeResult, x1: Raster, x2: Raster, detector: Detector,
         cfg: SmoothingConfig, threads: int | None = None) -> ConfidentDetection:
    """K noisy votes by ``detector`` on (x1, x2), fused with ``primary``, the
    clean detection of the pair: every voting confidence method ends here.
    ``threads`` bounds the worker threads of each vote's two noise draws."""
    counts = ensemble_counts_with(x1, x2, detector, cfg, threads)
    fused = fuse_confidence(primary, counts, cfg.conf_threshold)
    return ConfidentDetection(primary, counts, fused)


def run_proposed(x1: Raster, x2: Raster, f1spec: ExtractorSpec, f2spec: ExtractorSpec,
                 cfg: SmoothingConfig, *, threads: int | None = None) -> ConfidentDetection:
    """Primary detection plus a confidence map voted by the secondary extractor."""
    return vote(detect_pair(x1, x2, f1spec, threads=threads), x1, x2,
                partial(detect_pair, spec=f2spec, threads=threads), cfg, threads)
