"""Pluggable per-pixel feature extraction for bi-temporal image pairs.

Three extractor kinds:

* ``IDENTITY`` — features are the raw band values (D = bands).
* ``RANDOM_CONV`` — a stack of seeded random convolution layers (weights
  drawn once from N(0,1)/sqrt(fan_in), zero bias, rectifier, reflection
  padding keeps spatial size); the channel maps of the tapped layers are
  concatenated per pixel.  Layer indices are 1-based, so taps live in
  [1, depth] and tapping the last layer is spelled ``depth``.
* ``PRECOMPUTED`` — features produced elsewhere (e.g. a real pretrained
  CNN), stored as one full-resolution CDR raster per tapped layer named
  ``layer_<i>.cdr`` inside ``feature_dir``.

Feature stacks are plain float32 arrays of shape (height, width, D).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import EmptyTapSet, RejectedValue, ShapeMismatch
from .raster import Raster, load_raster
from .rng import ROLE_F1_WEIGHTS, ROLE_F2_WEIGHTS, generator, mix64


class ExtractorKind(Enum):
    IDENTITY = "identity"
    RANDOM_CONV = "random_conv"
    PRECOMPUTED = "precomputed"


@dataclass(frozen=True)
class ExtractorSpec:
    """Immutable description of a feature extractor.

    ``taps`` is canonicalized to a sorted duplicate-free tuple so two specs
    naming the same layer set hash equally (the weight cache keys on the
    spec).  Fields other than ``kind`` are ignored where they do not apply:
    IDENTITY uses none of them, PRECOMPUTED uses only ``taps`` and
    ``feature_dir``.
    """

    kind: ExtractorKind = ExtractorKind.RANDOM_CONV
    depth: int = 6
    taps: tuple[int, ...] = (2, 4, 6)
    channels: int = 8
    kernel_size: int = 3
    seed: int = 0
    feature_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "taps", tuple(sorted(set(int(t) for t in self.taps))))
        if self.kind is ExtractorKind.IDENTITY:
            return
        if not self.taps:
            raise EmptyTapSet(f"{self.kind.value} extractor needs at least one tapped layer")
        if self.kind is ExtractorKind.PRECOMPUTED:
            if self.feature_dir is None:
                raise RejectedValue("precomputed extractor needs feature_dir")
            return
        if self.depth < 1:
            raise RejectedValue(f"depth must be >= 1, got {self.depth}")
        if self.channels < 1:
            raise RejectedValue(f"channels must be >= 1, got {self.channels}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise RejectedValue(f"kernel_size must be odd and >= 1, got {self.kernel_size}")
        if self.taps[0] < 1 or self.taps[-1] > self.depth:
            raise RejectedValue(
                f"taps {self.taps} outside the 1-based layer range [1, {self.depth}]"
            )

    def expected_dims(self, in_bands: int) -> int | None:
        """Feature dimensionality D, or None when it depends on stored files."""
        if self.kind is ExtractorKind.IDENTITY:
            return in_bands
        if self.kind is ExtractorKind.RANDOM_CONV:
            return len(self.taps) * self.channels
        return None


def default_primary_spec(master_seed: int = 0, *, depth: int = 6,
                         taps: tuple[int, ...] = (2, 4, 6),
                         channels: int = 16) -> ExtractorSpec:
    """Stock detection extractor: deep, taps spread over depth.

    16 channels/layer: narrower stacks leave some dims nearly dead after the
    rectifier, and pooled standardization then blows their quantization noise
    into a heavy magnitude tail that drags the histogram threshold off the
    change mode.
    """
    return ExtractorSpec(depth=depth, taps=taps, channels=channels,
                         seed=mix64(master_seed, ROLE_F1_WEIGHTS))


def default_secondary_spec(master_seed: int = 0, *, depth: int = 3,
                           taps: tuple[int, ...] = (1, 3),
                           channels: int = 48) -> ExtractorSpec:
    """Stock voting extractor: shallower (applied K times per run), wider.

    48 channels/layer keeps the vote stable across scene draws and across
    perturbation strength; narrower variants intermittently miss the change
    entirely on some scenes, and then no pixel can be confirmed as changed.
    """
    return ExtractorSpec(depth=depth, taps=taps, channels=channels,
                         seed=mix64(master_seed, ROLE_F2_WEIGHTS))


@functools.lru_cache(maxsize=64)
def _conv_weights(spec: ExtractorSpec, in_bands: int) -> tuple[np.ndarray, ...]:
    """Per-layer im2col weight matrices (channels, c_in*k*k), drawn once per (spec, bands)."""
    rng = generator(spec.seed)
    k = spec.kernel_size
    mats = []
    c_in = in_bands
    for _ in range(spec.depth):
        fan_in = c_in * k * k
        w = rng.standard_normal((spec.channels, fan_in)) / np.sqrt(fan_in)
        mats.append(np.ascontiguousarray(w, dtype=np.float32))
        c_in = spec.channels
    return tuple(mats)


def _conv_relu(stack: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """One convolution + rectifier layer on a (c_in, h, w) stack via im2col."""
    _, h, w = stack.shape
    pad = k // 2
    if pad and min(h, w) <= pad:
        raise ShapeMismatch(
            f"image {h}x{w} too small for reflection padding of a {k}x{k} kernel"
        )
    padded = np.pad(stack, ((0, 0), (pad, pad), (pad, pad)), mode="reflect") if pad else stack
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
    patches = windows.transpose(1, 2, 0, 3, 4).reshape(h * w, -1)
    out = patches @ weights.T
    np.maximum(out, 0.0, out=out)
    return out.reshape(h, w, -1).transpose(2, 0, 1)


def extract(spec: ExtractorSpec, x: Raster) -> np.ndarray:
    """Compute per-pixel features: a float32 (height, width, D) array.

    Pure function of (spec, x): repeated calls are bit-identical.
    """
    if spec.kind is ExtractorKind.IDENTITY:
        return np.ascontiguousarray(x.data.transpose(1, 2, 0))
    if spec.kind is ExtractorKind.PRECOMPUTED:
        layers = []
        for tap in spec.taps:
            r = load_raster(Path(spec.feature_dir) / f"layer_{tap}.cdr")
            if (r.height, r.width) != (x.height, x.width):
                raise ShapeMismatch(
                    f"layer_{tap}.cdr is {r.height}x{r.width}, image is {x.height}x{x.width}"
                )
            layers.append(r.data)
        return np.ascontiguousarray(np.concatenate(layers, axis=0).transpose(1, 2, 0))
    weights = _conv_weights(spec, x.bands)
    stack = x.data
    tapped = []
    for layer_idx, w in enumerate(weights, start=1):
        stack = _conv_relu(stack, w, spec.kernel_size)
        if layer_idx in spec.taps:
            tapped.append(stack)
    return np.ascontiguousarray(np.concatenate(tapped, axis=0).transpose(1, 2, 0))


def standardize_pair(f1: np.ndarray, f2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each feature dimension of both stacks by its pooled population std.

    Pooling keeps the two acquisitions comparable without erasing genuine
    global change the way per-image standardization would.  The pooled mean
    is not subtracted: the only caller, ``dcva.detect_pair``, differences the
    two outputs, and a mean shared by both cancels there.  The pooled
    variance comes from float64 two-pass moments of each stack,
    (v1 + v2)/2 + ((m1 - m2)/2)^2, exact for two equally sized stacks, so no
    concatenated or float64 copy of the pair is made.  Dimensions whose pooled
    std is below 1e-12 are zeroed in both float32 outputs.
    """
    if f1.shape != f2.shape:
        raise ShapeMismatch(f"feature stacks differ: {f1.shape} vs {f2.shape}")
    axes = tuple(range(f1.ndim - 1))
    m1, m2 = (f.mean(axis=axes, dtype=np.float64) for f in (f1, f2))
    v1, v2 = (f.var(axis=axes, dtype=np.float64) for f in (f1, f2))
    sd = np.sqrt((v1 + v2) / 2 + ((m1 - m2) / 2) ** 2)
    live = sd >= 1e-12
    sd = sd.astype(np.float32)
    return tuple(np.divide(f, sd, out=np.zeros(f.shape, np.float32), where=live) for f in (f1, f2))
