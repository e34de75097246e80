"""Deterministic seed derivation and random streams.

Every random quantity in the pipeline is drawn from a private stream keyed
by a 64-bit stream seed.  The conv weights and the synthetic scenes come from
a counter-based generator (Philox, ``generator``).  Each vote's noise comes
from SFC64, NumPy's fastest bit generator, seeded through NumPy's
SeedSequence, and is made Gaussian by a float32 Box-Muller transform of its
uniforms (``fill_standard_normal``): a raster of n values
takes exactly 2*ceil(n/2) uniforms, and no consumer ever jumps into the
middle of a noise stream.  Stream seeds are derived from a single
user-facing seed by folding role constants and loop indices through
splitmix64, so results do not depend on execution order or thread count:
any consumer can reconstruct its stream from (seed, role, index) alone.

Derivation rule (stable across releases; recorded in run manifests):

    stream_seed = mix64(master_seed, role, index...)

where ``mix64`` seeds an accumulator with the splitmix64 increment constant
and, for each part, XORs the part in and applies one splitmix64 round.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

# Stream roles.  Values are arbitrary but frozen: changing them changes
# every derived noise field and weight tensor.
ROLE_F1_WEIGHTS = 0x11
ROLE_F2_WEIGHTS = 0x12
ROLE_NOISE_T1 = 0x21
ROLE_NOISE_T2 = 0x22
ROLE_SCENE = 0x31

# Box-Muller pairs transformed per chunk, and SFC64 words drawn per chunk:
# the one temporary, the chunk's radii or its words, is 64 KiB.
_PAIRS = 16384
_WORDS = 8192
_TWO_PI = np.float32(2 * np.pi)
_ULP = np.float32(2 ** -24)


def splitmix64(x: int) -> int:
    """One round of the splitmix64 output function."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64(*parts: int) -> int:
    """Fold integers into one 64-bit stream seed, order-sensitively."""
    acc = _GOLDEN
    for p in parts:
        acc = splitmix64(acc ^ (p & _MASK64))
    return acc


def generator(stream_seed: int) -> np.random.Generator:
    """Philox generator keyed by a derived stream seed."""
    return np.random.Generator(np.random.Philox(key=stream_seed & _MASK64))


def fill_standard_normal(flat: np.ndarray, stream_seed: int) -> None:
    """Fill a 1-d contiguous float32 array with N(0, 1) values, in place.

    The n entries take n float32 uniforms u from SFC64 seeded by the stream
    seed, and one more after them when n is odd.  They are NumPy's float32
    ``random`` of that stream, made here from its raw 64-bit words a chunk
    at a time: each word gives its low 32 bits, then its high 32 bits, and
    32 bits v give the uniform (v >> 8) * 2**-24.  With h = ceil(n/2), pair
    i < h takes r = sqrt(-2 log(1 - u[i])) and theta = 2 pi u[h + i], and
    entry i gets r cos(theta) and entry h + i, when it exists, r sin(theta)
    (Box and Muller, 1958), all in float32.  The pairs are transformed in
    chunks through one small temporary, and the bits do not depend on the
    chunk size.  1 - u is at least 2**-24, so every |value| is at most
    sqrt(-2 ln 2**-24) ~ 5.77: the transform drops the normal tail beyond
    it, about 8e-9 of the mass.
    """
    n, pairs = flat.size, flat.size // 2
    h = n - pairs
    bits = np.random.SFC64(stream_seed & _MASK64)
    for a in range(0, h, _WORDS):  # h words make the 2h uniforms
        u = bits.random_raw(min(_WORDS, h - a)).astype("<u8", copy=False).view("<u4")
        u >>= 8
        dst = flat[2 * a:2 * a + u.size]
        dst[...] = u[:dst.size]
        dst *= _ULP
    if n % 2:  # the last pair's angle is the extra uniform; its sine is dropped
        last = flat[h - 1:h]
        _radius(last, last)
        last *= np.cos(np.multiply(u[-1:], _ULP, dtype=np.float32) * _TWO_PI)
    r = np.empty(min(_PAIRS, pairs), np.float32)
    for a in range(0, pairs, _PAIRS):
        m = min(_PAIRS, pairs - a)
        cos, sin, ra = flat[a:a + m], flat[h + a:h + a + m], r[:m]
        _radius(cos, ra)
        sin *= _TWO_PI
        np.cos(sin, out=cos)
        cos *= ra
        np.sin(sin, out=sin)
        sin *= ra


def _radius(u: np.ndarray, out: np.ndarray) -> None:
    """sqrt(-2 log(1 - u)) of float32 uniforms, into ``out`` (may be ``u``)."""
    np.subtract(np.float32(1), u, out=out)
    np.log(out, out=out)
    out *= np.float32(-2)
    np.sqrt(out, out=out)
