"""Comparison confidence mechanisms, and the table of every confidence method.

The baselines are unified single-extractor smoothing, neighborhood-robust
band-space re-detection, and threshold-distance selection.  All three emit
the same ConfidentDetection bundle as the dual-model pipeline so evaluations
compare like with like, and all three keep the fusion invariant that a
confident pixel always carries its primary label.

``METHODS`` declares each method once, and ``run_method`` is the one
pipeline: it detects the primary, and a voting method then votes with its
voter, a ``smoothing.Detector`` like the primary detection itself, and fuses.
The voting methods differ only in that voter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .dcva import ChangeResult, MagnitudeMap, detect_pair, otsu_threshold, threshold_magnitude
from .errors import RejectedValue, ShapeMismatch
from .features import _HALOS, _PIXELS, ExtractorSpec, _strips
from .raster import ConfidenceMap, Raster
from .smoothing import ConfidentDetection, Detector, SmoothingConfig, confidence_map, vote


@dataclass(frozen=True)
class RcvaConfig:
    """Neighborhood radius w; candidate matches live in a (2w+1)x(2w+1) window."""

    window_radius: int = 1

    def __post_init__(self):
        if self.window_radius < 0:
            raise RejectedValue(f"window_radius must be >= 0, got {self.window_radius}")


def rcva_magnitude(x1: Raster, x2: Raster, cfg: RcvaConfig) -> MagnitudeMap:
    """Neighborhood-robust band-space change magnitude.

    Direction 1->2 matches each pixel of the first image against its best
    single neighbor in the second (one shared match across all bands,
    minimizing the per-pixel squared sum); direction 2->1 swaps the roles;
    the magnitude is the pixel-wise max of the two directions.  w=0 reduces
    to the plain per-pixel band-difference norm.

    One pass over the window offsets serves both directions: offset o's
    map D_o(p) = sum_b (x2(p+o,b) - x1(p,b))^2 is min-ed into p's 1->2 best
    and into p+o's 2->1 best, where p and p+o are both in bounds; offsets
    past the image edge touch no pixel, so the loop stops at h-1 and wd-1.
    This is exact: the 2->1 term x1(q) - x2(q-o) is in IEEE arithmetic the
    negation of x2(q-o) - x1(q), so it squares to the same D_o, and sqrt is
    correctly rounded and monotone, so sqrt(max) of the two minima is the
    max of their square roots.

    The map is made in row strips of at most ``features._PIXELS`` pixels,
    but at least ``features._HALOS`` halos of 2ry rows tall, as an
    extraction's strips are, so that a wide image's strips do not spend
    most of their time on the halo rows they share; one set of buffers
    serves every strip and offset.  A strip [y0, y1) copies raster 1's
    rows [y0 - ry, y1 + ry) and raster 2's rows [y0 - 2ry, y1 + 2ry) into
    flat buffers of rows wd + 2rx wide, padded outside the image with -inf
    and +inf.  D_o over the strip's pixels and their ry-row halo then
    takes, band by band, one contiguous slice of raster 2's rows, shifted
    by dy rows and dx columns, minus the same slice of raster 1's.  A pixel
    p or a partner p + o outside the image gives D_o = +inf, never NaN (for
    finite rasters), so it never wins a minimum, and no offset needs bounds
    of its own.  The 1->2 best of the strip's pixels takes D_o at
    themselves, the 2->1 best at q - o.  Each D_o value is the float32
    difference, squared in float64 and summed in band order, as a
    whole-image loop over the offsets makes it, and min, max and sqrt are
    exact, so every strip height gives the same bits.
    """
    if x1.data.shape != x2.data.shape:
        raise ShapeMismatch(f"raster shapes differ: {x1.data.shape} vs {x2.data.shape}")
    bands, h, wd = x1.data.shape
    ry, rx = min(cfg.window_radius, h - 1), min(cfg.window_radius, wd - 1)
    wp = wd + 2 * rx
    strips = _strips(h, max(1, 2 * _HALOS * ry, _PIXELS // wd))
    span = (max(y1 - y0 for y0, y1 in strips) + 2 * ry) * wp
    pad1 = np.full((bands, span), -np.inf, np.float32)
    # raster 2's rows start rx in, so the shifts of the corner offsets stay inside
    pad2 = np.full((bands, span + 2 * ry * wp + 2 * rx), np.inf, np.float32)
    dist, term = np.empty(span), np.empty(span)
    best = np.empty((2, span))
    rho = np.empty((h, wd), np.float32)
    for y0, y1 in strips:
        n = y1 - y0
        for pad, x, r, skip, fill in ((pad1, x1.data, ry, 0, -np.inf),
                                      (pad2, x2.data, 2 * ry, rx, np.inf)):
            rows = pad[:, skip:skip + (n + 2 * r) * wp].reshape(bands, n + 2 * r, wp)
            lo, hi = max(0, y0 - r), min(h, y1 + r)
            rows[:, :lo - y0 + r] = fill
            rows[:, lo - y0 + r:hi - y0 + r, rx:rx + wd] = x[:, lo:hi]
            rows[:, hi - y0 + r:] = fill
        # D_o at raster 1's padded rows; the strip's pixels start at row ry, column rx
        m, size, own = (n + 2 * ry) * wp, (n - 1) * wp + wd, ry * wp + rx
        d, t = dist[:m], term[:m]
        best12, best21 = best[:, :size]
        best12.fill(np.inf)
        best21.fill(np.inf)
        for dy in range(-ry, ry + 1):
            for dx in range(-rx, rx + 1):
                shift = rx + (ry + dy) * wp + dx
                for b in range(bands):
                    out = t if b else d
                    # the float32 difference, widened to float64 by its out buffer
                    np.subtract(pad2[b, shift:shift + m], pad1[b, :m], out=out)
                    np.square(out, out=out)
                    if b:
                        d += t
                np.minimum(best12, d[own:own + size], out=best12)
                back = own - dy * wp - dx
                np.minimum(best21, d[back:back + size], out=best21)
        np.maximum(best12, best21, out=best12)
        np.sqrt(best12, out=best12)
        rho[y0:y1] = best[0, :n * wp].reshape(n, wp)[:, :wd]
    return MagnitudeMap(rho)


def rcva_detect(x1: Raster, x2: Raster, cfg: RcvaConfig) -> ChangeResult:
    """Detection in band space: the histogram-thresholded neighborhood
    magnitude, the voter of the neighborhood vote."""
    return threshold_magnitude(rcva_magnitude(x1, x2, cfg))


def threshold_distance(primary: ChangeResult) -> ConfidenceMap:
    """Confidence from distance to the decision threshold, no ensemble.

    rho' = |rho - tau| measures how far each pixel sits from the primary
    threshold; a second histogram threshold on rho' separates clear calls
    from borderline ones.  Pixels with rho' above that second threshold keep
    their primary label as confident; the rest are not-confident.
    """
    rho_prime = MagnitudeMap(
        np.abs(primary.magnitude.rho.astype(np.float64) - primary.tau).astype(np.float32)
    )
    tau_prime = otsu_threshold(rho_prime)
    return confidence_map(primary.labels.changed, rho_prime.rho > np.float64(tau_prime))


@dataclass(frozen=True)
class ConfidenceMethod:
    """One confidence method: its CLI name, its row title in method tables,
    the configs it reads besides the primary spec (of "smoothing", "f2" and
    "rcva", in that order), and how it assigns confidence to the primary
    detection.

    A voting method reads "smoothing" and gives ``voter``, which builds the
    ``Detector`` of the noisy ensemble from (primary spec, secondary spec,
    RCVA config, threads).  A method that does not vote may give
    ``from_primary`` instead: confidence computed from the clean detection
    alone.  With neither, the method assigns no confidence.
    """

    name: str
    title: str
    reads: tuple[str, ...] = ()
    voter: (Callable[[ExtractorSpec, ExtractorSpec | None, RcvaConfig | None, int | None],
                     Detector] | None) = None
    from_primary: Callable[[ChangeResult], ConfidenceMap] | None = None


METHODS = {m.name: m for m in (
    ConfidenceMethod("none", "no selection"),
    ConfidenceMethod("deep-magnitude", "threshold distance", from_primary=threshold_distance),
    ConfidenceMethod("conf-rcva", "neighborhood vote", ("smoothing", "rcva"),
                     lambda f1, f2, r, threads: partial(rcva_detect, cfg=r)),
    ConfidenceMethod("unified", "single extractor", ("smoothing",),
                     lambda f1, f2, r, threads: partial(detect_pair, spec=f1, threads=threads)),
    ConfidenceMethod("proposed", "dual extractor", ("smoothing", "f2"),
                     lambda f1, f2, r, threads: partial(detect_pair, spec=f2, threads=threads)),
)}


def run_method(
    method: ConfidenceMethod,
    x1: Raster,
    x2: Raster,
    f1spec: ExtractorSpec,
    f2spec: ExtractorSpec | None,
    cfg: SmoothingConfig | None,
    rcfg: RcvaConfig | None,
    *,
    threads: int | None = None,
    primary: ChangeResult | None = None,
) -> ConfidentDetection:
    """Run one method of ``METHODS`` on a normalized pair; ``primary``, if
    given, is the clean detection of the pair by f1spec.  A config the
    method does not read (see ``ConfidenceMethod.reads``) may be None.
    Every detection it makes runs on up to ``threads`` worker threads."""
    if primary is None:
        primary = detect_pair(x1, x2, f1spec, threads=threads)
    if method.voter is not None:
        return vote(primary, x1, x2, method.voter(f1spec, f2spec, rcfg, threads), cfg)
    conf = None if method.from_primary is None else method.from_primary(primary)
    return ConfidentDetection(primary, None, conf)


def run_unified(x1: Raster, x2: Raster, f1spec: ExtractorSpec, cfg: SmoothingConfig, *,
                threads: int | None = None) -> ConfidentDetection:
    """Smoothing with the primary extractor doing double duty as the secondary."""
    return run_method(METHODS["unified"], x1, x2, f1spec, None, cfg, None, threads=threads)


def run_conf_rcva(x1: Raster, x2: Raster, f1spec: ExtractorSpec, cfg: SmoothingConfig,
                  rcfg: RcvaConfig, *, threads: int | None = None) -> ConfidentDetection:
    """Deep primary detection validated by a noisy band-space ensemble: the
    dual-extractor pipeline with ``rcva_detect`` as the voter."""
    return run_method(METHODS["conf-rcva"], x1, x2, f1spec, None, cfg, rcfg, threads=threads)
