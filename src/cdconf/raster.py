"""Multi-band raster data model, file I/O, normalization, and map rendering.

Three on-disk formats are understood:

* **CDR** (native container, bit-exact float transport): magic ``CDR1``,
  little-endian u32 header length, UTF-8 JSON header
  ``{"width":..,"height":..,"bands":..,"dtype":"f32","layout":"band-sequential"}``,
  then ``width*height*bands`` little-endian float32 samples, band after band,
  each band row-major.
* **PGM** (binary ``P5``, 8-bit, one band) and **PPM** (binary ``P6``, 8-bit,
  three bands).  Integer samples are mapped to ``[0, 1]`` on load by dividing
  by the header maxval.

Result maps are rendered with a fixed legend: binary change maps as PGM with
changed=0 (black) / unchanged=255 (white); tri-state confidence maps as PPM
with confident-changed=black, confident-unchanged=white, not-confident=red.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import (
    DimensionMismatch,
    IoFailure,
    MalformedHeader,
    RejectedValue,
    ShapeMismatch,
    UnsupportedFormat,
)

_CDR_MAGIC = b"CDR1"

# float64 values normalize_pair scales at a time: its one temporary, 128 KiB.
_NORM_BLOCK = 16384


@dataclass(frozen=True, eq=False)
class Raster:
    """Immutable multi-band image; ``data`` has shape (bands, height, width), float32."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError(f"raster data must be 3-d, got {self.data.ndim}-d")
        if min(self.data.shape) < 1:
            raise ValueError(f"raster dimensions must be positive, got {self.data.shape}")
        if self.data.dtype != np.float32:
            raise ValueError(f"raster data must be float32, got {self.data.dtype}")

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Per-pixel binary changed/unchanged labels; ``changed`` is a bool (height, width) array."""

    changed: np.ndarray

    def __post_init__(self):
        if self.changed.ndim != 2 or self.changed.dtype != np.bool_:
            raise ValueError("labels must be a 2-d bool array")

    @property
    def height(self) -> int:
        return self.changed.shape[0]

    @property
    def width(self) -> int:
        return self.changed.shape[1]


class ConfidenceState(IntEnum):
    CONFIDENT_CHANGED = 0
    CONFIDENT_UNCHANGED = 1
    NOT_CONFIDENT = 2


# Rendering legend for confidence maps (RGB per state).
_CONFIDENCE_COLORS = {
    ConfidenceState.CONFIDENT_CHANGED: (0, 0, 0),
    ConfidenceState.CONFIDENT_UNCHANGED: (255, 255, 255),
    ConfidenceState.NOT_CONFIDENT: (255, 0, 0),
}


@dataclass(frozen=True, eq=False)
class ConfidenceMap:
    """Per-pixel tri-state map; ``states`` is a uint8 (height, width) array of ConfidenceState."""

    states: np.ndarray

    def __post_init__(self):
        if self.states.ndim != 2 or self.states.dtype != np.uint8:
            raise ValueError("states must be a 2-d uint8 array")
        if self.states.max(initial=0) > max(ConfidenceState):
            raise ValueError("states contain values outside the ConfidenceState enum")

    @property
    def height(self) -> int:
        return self.states.shape[0]

    @property
    def width(self) -> int:
        return self.states.shape[1]


def load_raster(path) -> Raster:
    """Read a CDR, PGM, or PPM file into a Raster.

    Integer pixel formats are scaled to [0, 1] by the format maximum; CDR
    floats are returned bit-exactly.  A CDR's samples are read straight into
    the raster's array once its header has been checked against the file's
    size, so loading one holds no copy of its payload.
    """
    try:
        with open(path, "rb") as f:
            lead = f.read(8)
            if lead[:4] == _CDR_MAGIC:
                return _read_cdr(f, lead, path)
            f.seek(0)
            blob = f.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if blob[:2] in (b"P5", b"P6"):
        return _parse_pnm(blob, path)
    raise UnsupportedFormat(f"{path}: not a CDR/PGM/PPM file")


def save_raster(r: Raster, path) -> None:
    """Write a Raster as CDR.  Round-trips bit-exactly through load_raster.

    The header goes out first and the samples after it straight from the
    array's buffer, so saving copies no payload."""
    # the min and max, NaN or infinite when any sample is, take no mask
    if not np.isfinite([r.data.min(), r.data.max()]).all():
        raise RejectedValue(f"refusing to write non-finite samples to {path}")
    header = json.dumps(
        {
            "width": r.width,
            "height": r.height,
            "bands": r.bands,
            "dtype": "f32",
            "layout": "band-sequential",
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    payload = np.ascontiguousarray(r.data, dtype="<f4")
    try:
        with open(path, "wb") as f:
            f.write(_CDR_MAGIC + len(header).to_bytes(4, "little") + header)
            f.write(memoryview(payload))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _read_cdr(f, lead: bytes, path) -> Raster:
    """The rest of a CDR file whose first 8 bytes, ``lead``, are read."""
    if len(lead) < 8:
        raise MalformedHeader(f"{path}: truncated CDR header")
    hlen = int.from_bytes(lead[4:8], "little")
    # the sizes are checked against the file's before anything is read into
    # memory, so a hostile header cannot make a giant allocation
    rest = os.fstat(f.fileno()).st_size - 8
    if rest < hlen:
        raise MalformedHeader(f"{path}: header length {hlen} overruns file")
    try:
        header = json.loads(f.read(hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeader(f"{path}: bad CDR header JSON: {exc}") from exc
    try:
        w, h, b = int(header["width"]), int(header["height"]), int(header["bands"])
        dtype, layout = header["dtype"], header["layout"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedHeader(f"{path}: incomplete CDR header") from exc
    if dtype != "f32" or layout != "band-sequential":
        raise UnsupportedFormat(f"{path}: unsupported dtype/layout {dtype!r}/{layout!r}")
    if min(w, h, b) < 1:
        raise MalformedHeader(f"{path}: non-positive dimensions {w}x{h}x{b}")
    expected = w * h * b * 4
    if rest - hlen != expected:
        raise DimensionMismatch(
            f"{path}: payload has {rest - hlen} bytes, header declares {expected}"
        )
    data = np.empty((b, h, w), "<f4")
    got = f.readinto(data)
    if got != expected:  # the file shrank since its size was read
        raise DimensionMismatch(f"{path}: payload has {got} bytes, header declares {expected}")
    # the min and max, NaN or infinite when any sample is, take no mask
    if not np.isfinite([data.min(), data.max()]).all():
        raise RejectedValue(f"{path}: non-finite samples in payload")
    return Raster(data.astype(np.float32, copy=False))


def _parse_pnm(blob: bytes, path) -> Raster:
    magic = blob[:2]
    pos = 2
    tokens: list[int] = []
    while len(tokens) < 3:
        # skip whitespace and '#' comment lines between header tokens
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos] == ord("#"):
            while pos < len(blob) and blob[pos] != ord("\n"):
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        try:
            tokens.append(int(blob[start:pos]))
        except ValueError as exc:
            raise MalformedHeader(f"{path}: bad PNM header token {blob[start:pos]!r}") from exc
    pos += 1  # single whitespace byte separating header from payload
    w, h, maxval = tokens
    if min(w, h) < 1 or maxval < 1:
        raise MalformedHeader(f"{path}: bad PNM dimensions {w}x{h} maxval {maxval}")
    if maxval > 255:
        raise UnsupportedFormat(f"{path}: only 8-bit PNM supported, maxval={maxval}")
    bands = 1 if magic == b"P5" else 3
    payload = memoryview(blob)[pos:]
    if len(payload) != w * h * bands:
        raise DimensionMismatch(
            f"{path}: payload has {len(payload)} bytes, header declares {w * h * bands}"
        )
    # band-sequential float32 straight from the interleaved bytes, scaled in place
    data = np.empty((bands, h, w), np.float32)
    data[...] = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, bands).transpose(2, 0, 1)
    data /= np.float32(maxval)
    return Raster(data)


def normalize_bands(r: Raster) -> Raster:
    """Min-max scale each band independently to [0, 1].

    A constant band maps to all 0.5 so downstream additive noise stays
    centered instead of dividing by zero.  Idempotent: normalizing twice is
    bit-identical to normalizing once.
    """
    return _normalized(r)[0]


def normalize_pair(a: Raster, b: Raster) -> tuple[Raster, Raster]:
    """Min-max scale each band to [0, 1] with extremes POOLED over both rasters.

    A shared affine per band keeps the two acquisitions comparable: scaling
    them separately would turn any change-induced shift of a band's range
    into a spurious difference at every pixel of that band.  A band constant
    across both rasters maps to 0.5 in each.
    """
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"raster shapes differ: {a.data.shape} vs {b.data.shape}")
    return _normalized(a, b)


def _normalized(*rasters: Raster) -> tuple[Raster, ...]:
    """Rasters of one shape scaled by each band's extremes pooled over all.

    Each value is (x - lo) / (hi - lo) in float64, rounded to float32.  The
    float32 extremes are exact in float64, and the values pass through one
    reused float64 block, so the outputs are all that is allocated beside
    it."""
    shape = rasters[0].data.shape
    outs = tuple(np.empty(shape, np.float32) for _ in rasters)
    size = shape[1] * shape[2]
    block = np.empty(min(_NORM_BLOCK, size), np.float64)
    for band in range(shape[0]):
        lo = min(float(r.data[band].min()) for r in rasters)
        hi = max(float(r.data[band].max()) for r in rasters)
        for r, out in zip(rasters, outs):
            if not hi > lo:
                out[band] = np.float32(0.5)
                continue
            src, dst = r.data[band].reshape(-1), out[band].reshape(-1)
            for i in range(0, size, block.size):
                buf = block[:size - i]
                buf[...] = src[i:i + block.size]
                buf -= lo
                buf /= hi - lo
                dst[i:i + block.size] = buf
    return tuple(map(Raster, outs))


def render_change(m: LabelMap, path) -> None:
    """Write a LabelMap as binary PGM: changed=0 (black), unchanged=255 (white)."""
    _write_pnm(b"P5", m.width, m.height, np.where(m.changed, 0, 255).astype(np.uint8), path)


def render_confidence(c: ConfidenceMap, path) -> None:
    """Write a ConfidenceMap as binary PPM with the fixed three-color legend."""
    lut = np.zeros((len(ConfidenceState), 3), dtype=np.uint8)
    for state, rgb in _CONFIDENCE_COLORS.items():
        lut[state] = rgb
    _write_pnm(b"P6", c.width, c.height, lut[c.states], path)


def _write_pnm(magic: bytes, w: int, h: int, payload: np.ndarray, path) -> None:
    """Write the header, then the C-contiguous uint8 ``payload`` from its own buffer."""
    try:
        with open(path, "wb") as f:
            f.write(magic + f"\n{w} {h}\n255\n".encode("ascii"))
            f.write(memoryview(payload))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def load_label_map(path) -> LabelMap:
    """Read a rendered change map (or any 1-band raster): value < 0.5 means changed."""
    r = load_raster(path)
    if r.bands != 1:
        raise UnsupportedFormat(f"{path}: label map must have 1 band, got {r.bands}")
    return LabelMap(r.data[0] < 0.5)


def load_confidence_map(path) -> ConfidenceMap:
    """Read a rendered confidence map back; colors must match the legend exactly."""
    r = load_raster(path)
    if r.bands != 3:
        raise UnsupportedFormat(f"{path}: confidence map must have 3 bands, got {r.bands}")
    rgb = r.data
    states = np.full((r.height, r.width), 255, dtype=np.uint8)
    for state, color in _CONFIDENCE_COLORS.items():
        match = np.ones((r.height, r.width), dtype=bool)
        for b in range(3):
            match &= rgb[b] == np.float32(color[b] / 255.0)
        states[match] = state
    if (states == 255).any():
        raise RejectedValue(f"{path}: pixel colors outside the confidence legend")
    return ConfidenceMap(states)
