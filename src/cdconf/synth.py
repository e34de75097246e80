"""Seeded synthetic bi-temporal scene generation with ground truth.

A scene is a smooth per-band value-noise texture; change regions are a union
of random rectangles and discs grown until the changed fraction lands within
10% of the target; the second acquisition shifts the changed pixels along a
random band-direction vector (exercising the multi-band difference rather
than a single-band shortcut), optionally misregisters the whole image by an
integer pixel shift, and both acquisitions get independent sensor noise.

The reference map marks the planted pixels in pre-shift geometry.  All
randomness flows from one sequential counter-based stream per seed, so
generation is deterministic and thread-count independent.  Outputs are NOT
normalized; callers feeding detectors should min-max normalize per band
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleFraction, RejectedValue
from .raster import LabelMap, Raster
from .rng import ROLE_SCENE, generator, mix64


@dataclass(frozen=True)
class SceneSpec:
    width: int = 128
    height: int = 128
    bands: int = 4
    change_fraction: float = 0.08
    change_contrast: float = 0.35
    texture_scale: int = 16
    sensor_noise: float = 0.05
    misregistration_shift: int = 0
    seed: int = 0

    def __post_init__(self):
        if min(self.width, self.height, self.bands) < 1:
            raise RejectedValue("scene dimensions must be positive")
        if not 0 <= self.change_fraction < 1:
            raise RejectedValue(f"change_fraction must be in [0, 1), got {self.change_fraction}")
        for name in ("change_contrast", "sensor_noise"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN too
                raise RejectedValue(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.texture_scale < 1:
            raise RejectedValue(f"texture_scale must be >= 1, got {self.texture_scale}")


def _upsample_bilinear(coarse: np.ndarray, h: int, w: int) -> np.ndarray:
    """Bilinear resize of a (bands, gh, gw) grid to (bands, h, w)."""
    gh, gw = coarse.shape[-2:]
    ys = np.linspace(0, gh - 1, h)
    xs = np.linspace(0, gw - 1, w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    fy = (ys - y0)[None, :, None]
    fx = (xs - x0)[None, None, :]
    rows = coarse[:, y0, :] * (1 - fy) + coarse[:, y1, :] * fy
    return rows[:, :, x0] * (1 - fx) + rows[:, :, x1] * fx


def _plant_shapes(rng: np.random.Generator, h: int, w: int, fraction: float) -> np.ndarray:
    """Union random rectangles and discs until coverage is within 10% of target."""
    mask = np.zeros((h, w), dtype=bool)
    if fraction == 0:
        return mask
    total = h * w
    target = fraction * total
    smax = max(3, round(0.2 * min(h, w)))
    rmax = max(2, round(0.1 * min(h, w)))
    mean_area = (((2 + smax) / 2) ** 2 + np.pi * ((1 + rmax) / 2) ** 2) / 2
    budget = int(np.ceil(10 * target / mean_area)) + 10
    yy, xx = np.ogrid[:h, :w]
    for _ in range(budget):
        if mask.sum() >= 0.9 * target:
            return mask
        if rng.integers(2) == 0:
            sh = int(rng.integers(2, smax + 1))
            sw = int(rng.integers(2, smax + 1))
            y = int(rng.integers(0, max(1, h - sh + 1)))
            x = int(rng.integers(0, max(1, w - sw + 1)))
            shape = np.zeros((h, w), dtype=bool)
            shape[y : y + sh, x : x + sw] = True
        else:
            r = int(rng.integers(1, rmax + 1))
            cy = int(rng.integers(0, h))
            cx = int(rng.integers(0, w))
            shape = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        candidate = mask | shape
        if candidate.sum() <= 1.1 * target:
            mask = candidate
    if mask.sum() >= 0.9 * target:
        return mask
    raise InfeasibleFraction(
        f"could not reach change fraction {fraction} within {budget} shape attempts"
    )


def generate(spec: SceneSpec) -> tuple[Raster, Raster, LabelMap]:
    """Build (t1, t2, reference) deterministically from ``SceneSpec.seed``."""
    rng = generator(mix64(spec.seed, ROLE_SCENE))
    h, w, b = spec.height, spec.width, spec.bands
    gh = int(np.ceil((h - 1) / spec.texture_scale)) + 1
    gw = int(np.ceil((w - 1) / spec.texture_scale)) + 1
    coarse = rng.uniform(size=(b, gh, gw))
    texture = 0.15 + 0.7 * _upsample_bilinear(coarse, h, w)

    mask = _plant_shapes(rng, h, w, spec.change_fraction)

    t1 = texture.copy()
    t2 = texture.copy()
    if mask.any() and spec.change_contrast > 0:
        direction = rng.standard_normal(b)
        # per-band mean absolute shift equals change_contrast
        shift = spec.change_contrast * direction / np.mean(np.abs(direction))
        t2[:, mask] += shift[:, None]
    if spec.misregistration_shift:
        t2 = np.roll(t2, spec.misregistration_shift, axis=2)
    if spec.sensor_noise > 0:
        t1 = t1 + rng.standard_normal(t1.shape) * spec.sensor_noise
        t2 = t2 + rng.standard_normal(t2.shape) * spec.sensor_noise
    return (
        Raster(t1.astype(np.float32)),
        Raster(t2.astype(np.float32)),
        LabelMap(mask),
    )
