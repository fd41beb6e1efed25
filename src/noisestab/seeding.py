"""Deterministic derivation of independent random streams from one run seed.

Every stochastic component (data, model init, training shuffles, strategy
randomness, noise directions, theory trials) pulls its own stream, derived
here and nowhere else from a seed plus purpose labels, so changing one
component never perturbs the others. A seed is never wrapped to 64 bits.
"""

from __future__ import annotations

import zlib

import numpy as np


def _label_int(label) -> int:
    if not isinstance(label, (int, np.integer)):
        return zlib.crc32(str(label).encode("utf-8"))
    if not 0 <= label < 2 ** 32:  # so that no two integer labels alias
        raise ValueError(f"integer label must be in [0, 2**32), got {label}")
    return int(label)


def seed_sequence(seed: int, *labels) -> np.random.SeedSequence:
    """SeedSequence for ``seed`` specialized by any number of purpose labels."""
    return np.random.SeedSequence([int(seed)] + [_label_int(lb) for lb in labels])


def rng(seed: int, *labels) -> np.random.Generator:
    """Fresh PCG64 generator for (seed, labels)."""
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, *labels)))


def derive_seed(seed: int, *labels) -> int:
    """Stable 63-bit integer seed for APIs that take a plain seed."""
    state = seed_sequence(seed, *labels).generate_state(2, dtype=np.uint32)
    return int((int(state[0]) << 31) ^ int(state[1]))
