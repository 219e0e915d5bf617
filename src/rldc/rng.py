"""Deterministic randomness streams derived from one master seed.

Every randomized component draws from a stream named by a purpose label (and
any indices), derived as sha256(master_seed || 0x1f || label || ...).  Streams
are therefore independent of execution order, and any reported violation
can ship (seed, labels) that reproduces it exactly.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import repeat
from operator import lshift, or_, rshift
from random import Random

DRAWS_PER_ROUND = 1 << 12  # bounds the words one getrandbits call holds


def derive_seed(master_seed: int, *labels) -> int:
    digest = hashlib.sha256()
    digest.update(str(master_seed).encode())
    for label in labels:
        digest.update(b"\x1f")
        digest.update(str(label).encode())
    return int.from_bytes(digest.digest()[:16], "big")


def derive_rng(master_seed: int, *labels) -> Random:
    return Random(derive_seed(master_seed, *labels))


def randbelow_many(rng: Random, n: int, count: int) -> list[int]:
    """The values of `count` rng.randrange(n) calls, leaving rng as they would.

    On CPython 3.10-3.13 randrange(n) is getrandbits(k), k = n.bit_length(), redrawn
    while n or more; that reads w = ceil(k/32) words, least significant first, and
    keeps the top k - 32(w-1) bits of the last.  getrandbits(32 w d) reads d draws'
    words whole, so a round asks only for the draws still missing."""
    if n < 1:
        raise ValueError(f"empty range for randbelow_many({n})")
    width = (n.bit_length() + 31) // 32
    shift = 32 * width - n.bit_length()
    values = []
    while len(values) < count:
        need = min(count - len(values), DRAWS_PER_ROUND)
        words = struct.unpack(f"<{width * need}I", rng.getrandbits(32 * width * need).to_bytes(4 * width * need, "little"))
        draws = map(rshift, words[width - 1 :: width], repeat(shift))
        for j in reversed(range(width - 1)):  # the lower words, whole
            draws = map(or_, map(lshift, draws, repeat(32)), words[j::width])
        values += [draw for draw in draws if draw < n]
    return values
