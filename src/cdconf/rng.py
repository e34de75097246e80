"""Deterministic seed derivation and random streams.

Every random quantity in the pipeline is drawn from a private stream keyed
by a 64-bit stream seed.  The conv weights and the synthetic scenes come from
a counter-based generator (Philox, ``generator``).  Each vote's noise comes
from SFC64 (``noise_generator``), seeded through NumPy's SeedSequence: a
normal draw consumes a varying number of raw outputs, so no consumer ever
jumps into the middle of a noise stream, and SFC64 is NumPy's fastest bit
generator.  Stream seeds are derived from a single user-facing seed by
folding role constants and loop indices through splitmix64, so results do
not depend on execution order or thread count: any consumer can reconstruct
its stream from (seed, role, index) alone.

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


def noise_generator(stream_seed: int) -> np.random.Generator:
    """SFC64 generator, seeded through SeedSequence by a derived stream seed."""
    return np.random.Generator(np.random.SFC64(stream_seed & _MASK64))
