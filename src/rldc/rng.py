"""Deterministic randomness streams derived from one master seed.

Every randomized component draws from a stream named by a purpose label (and
any indices), derived as sha256(master_seed || 0x1f || label || ...).  Streams
are therefore independent of execution order, and any reported violation
can ship (seed, labels) that reproduces it exactly.
"""

from __future__ import annotations

import hashlib
from random import Random


def derive_seed(master_seed: int, *labels) -> int:
    digest = hashlib.sha256()
    digest.update(str(master_seed).encode())
    for label in labels:
        digest.update(b"\x1f")
        digest.update(str(label).encode())
    return int.from_bytes(digest.digest()[:16], "big")


def derive_rng(master_seed: int, *labels) -> Random:
    return Random(derive_seed(master_seed, *labels))
