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

Generation holds the two float32 outputs, the mask, the coarse texture grid
and two (height, width) float64 buffers that every band reuses, so its
memory grows with the outputs alone: a 100-band 512x512 scene peaks at
about 245 MB in ``cdconf synth``, of which the outputs are 200 MiB.
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


def _plant_shapes(rng: np.random.Generator, h: int, w: int, fraction: float) -> np.ndarray:
    """Union random rectangles and discs until coverage is within 10% of target.

    Each shape is drawn and tested inside its bounding box, and the mask's
    count is kept as it grows, so an attempt touches no full-image array."""
    mask = np.zeros((h, w), dtype=bool)
    if fraction == 0:
        return mask
    total = h * w
    target = fraction * total
    smax = max(3, round(0.2 * min(h, w)))
    rmax = max(2, round(0.1 * min(h, w)))
    mean_area = (((2 + smax) / 2) ** 2 + np.pi * ((1 + rmax) / 2) ** 2) / 2
    budget = int(np.ceil(10 * target / mean_area)) + 10
    count = 0
    for _ in range(budget):
        if count >= 0.9 * target:
            return mask
        if rng.integers(2) == 0:
            sh = int(rng.integers(2, smax + 1))
            sw = int(rng.integers(2, smax + 1))
            y = int(rng.integers(0, max(1, h - sh + 1)))
            x = int(rng.integers(0, max(1, w - sw + 1)))
            box = np.s_[y : y + sh, x : x + sw]
            shape = True
        else:
            r = int(rng.integers(1, rmax + 1))
            cy = int(rng.integers(0, h))
            cx = int(rng.integers(0, w))
            box = np.s_[max(0, cy - r) : min(h, cy + r + 1), max(0, cx - r) : min(w, cx + r + 1)]
            yy, xx = np.ogrid[box]
            shape = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        added = int((shape & ~mask[box]).sum())
        if count + added <= 1.1 * target:
            mask[box] |= shape
            count += added
    if count >= 0.9 * target:
        return mask
    raise InfeasibleFraction(
        f"could not reach change fraction {fraction} within {budget} shape attempts"
    )


def generate(spec: SceneSpec) -> tuple[Raster, Raster, LabelMap]:
    """Build (t1, t2, reference) deterministically from ``SceneSpec.seed``.

    The draws come in one order: the coarse texture grid, the change
    shapes, the band-shift direction, then t1's noise band by band and
    t2's.  The two float32 outputs are filled one band at a time in two
    reused (height, width) float64 buffers, each band's texture computed
    anew for t2: a bilinear resize of the band's coarse grid, rows then
    columns, scaled into [0.15, 0.85]; t2's band shift added on the mask,
    then its roll; the scaled noise added and the sum rounded to float32.
    Drawing a stream band by band gives the values of one whole-stack
    draw, and each band repeats the whole-stack float64 arithmetic, so the
    scene is the one a whole-stack build gives, bit for bit.
    """
    rng = generator(mix64(spec.seed, ROLE_SCENE))
    h, w, b = spec.height, spec.width, spec.bands
    gh = int(np.ceil((h - 1) / spec.texture_scale)) + 1
    gw = int(np.ceil((w - 1) / spec.texture_scale)) + 1
    coarse = rng.uniform(size=(b, gh, gw))
    mask = _plant_shapes(rng, h, w, spec.change_fraction)
    shift = None
    if mask.any() and spec.change_contrast > 0:
        direction = rng.standard_normal(b)
        # per-band mean absolute shift equals change_contrast
        shift = spec.change_contrast * direction / np.mean(np.abs(direction))

    ys = np.linspace(0, gh - 1, h)
    xs = np.linspace(0, gw - 1, w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    fy = (ys - y0)[:, None]
    fx = xs - x0
    roll = spec.misregistration_shift % w
    texture, term = np.empty((h, w)), np.empty((h, w))
    t1, t2 = (np.empty((b, h, w), np.float32) for _ in range(2))
    for out in (t1, t2):
        for band in range(b):
            rows = coarse[band, y0] * (1 - fy) + coarse[band, y1] * fy
            # the indices are in range: "clip" only spares take's copy of out
            np.take(rows, x0, axis=1, out=texture, mode="clip")
            texture *= 1 - fx
            np.take(rows, x1, axis=1, out=term, mode="clip")
            term *= fx
            texture += term
            texture *= 0.7
            texture += 0.15
            src, spare = texture, term
            if out is t2 and shift is not None:
                np.add(texture, shift[band], out=texture, where=mask)
            if out is t2 and roll:
                term[:, roll:] = texture[:, :-roll]
                term[:, :roll] = texture[:, -roll:]
                src, spare = term, texture
            if spec.sensor_noise > 0:
                rng.standard_normal(out=spare)
                spare *= spec.sensor_noise
                src = np.add(src, spare, out=spare)
            out[band] = src
    return Raster(t1), Raster(t2), LabelMap(mask)
