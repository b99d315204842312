"""Deterministic random-number plumbing.

Every stochastic component in the library (topology generation, random
deployment strategies, random attack sampling for Fig. 7, address
allocation) derives its randomness through :func:`make_rng` so that a single
experiment seed reproduces the entire pipeline bit-for-bit, while distinct
components that share a seed still draw independent streams.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["make_rng"]


def derive_seed(seed: int, *labels: object) -> int:
    """Mix *seed* with component labels into an independent 64-bit seed.

    Uses BLAKE2b so that streams for different labels are uncorrelated and
    stable across Python versions and platforms (``hash()`` is neither).
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(int(seed)).encode())
    for label in labels:
        digest.update(b"\x1f")
        digest.update(str(label).encode())
    return int.from_bytes(digest.digest(), "big")


def make_rng(seed: int, *labels: object) -> random.Random:
    """A ``random.Random`` seeded for the component named by *labels*."""
    return random.Random(derive_seed(seed, *labels))
