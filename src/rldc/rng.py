"""Deterministic randomness streams derived from one master seed.

Every randomized component draws from a stream named by a purpose label (and
any indices), derived as sha256(master_seed || 0x1f || label || ...).  Streams
are therefore independent of execution order, and any reported violation
can ship (seed, labels) that reproduces it exactly.
"""

from __future__ import annotations

import hashlib
import math
import struct
from itertools import compress, repeat
from operator import eq, lshift, or_, rshift
from random import Random

DRAWS_PER_ROUND = 1 << 12  # bounds the words one getrandbits call holds
_TOP_BYTE = [bytes(b >> s for b in range(256)) for s in range(8)]  # byte -> its top 8 - s bits


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
        data = rng.getrandbits(32 * width * need).to_bytes(4 * width * need, "little")
        if n < 256:  # k <= 8: a draw is the top byte of its one word, shifted, so bytes.translate drops and shifts
            values += data[3::4].translate(None, bytes(range(n << shift - 24, 256))).translate(_TOP_BYTE[shift - 24])
            continue
        words = struct.unpack(f"<{width * need}I", data)
        draws = map(rshift, words[width - 1 :: width], repeat(shift))
        for j in reversed(range(width - 1)):  # the lower words, whole
            draws = map(or_, map(lshift, draws, repeat(32)), words[j::width])
        values += [draw for draw in draws if draw < n]
    return values


def _sample_setsize(size: int) -> int:
    """The population size up to which CPython's rng.sample(population, size)
    draws from a shrinking pool; above it, it redraws repeats."""
    return 21 + (4 ** math.ceil(math.log(3 * size, 4)) if size > 5 else 0)


def _sorted_runs(draws: list[int], size: int):
    """draws cut into consecutive runs of size, each as a sorted tuple."""
    return map(tuple, map(sorted, zip(*[iter(draws)] * size)))


def _take_samples(draws: list[int], size: int, samples: list) -> int:
    """Append the samples that rng.sample takes from the stream draws, and
    return where the draws of the unfinished one start.

    A sample is the next size draws unless two of them are equal; only the
    rare equal pairs less than size apart need a look one by one."""
    pairs = sorted(
        (j, j - gap)
        for gap in range(1, size)
        for j in compress(range(gap, len(draws)), map(eq, draws, draws[gap:]))
    )
    pos = 0
    for j, i in pairs:
        if i < pos:
            continue  # in a sample already taken
        start = pos + (j - pos) // size * size  # the sample that draw j falls in
        if i < start:
            continue  # the pair straddles two samples
        samples += _sorted_runs(draws[pos:start], size)
        chosen, pos = set(), start
        while len(chosen) < size:  # rng.sample redraws a repeated element
            if pos == len(draws):
                return start
            chosen.add(draws[pos])
            pos += 1
        samples.append(tuple(sorted(chosen)))
    end = pos + (len(draws) - pos) // size * size
    samples += _sorted_runs(draws[pos:end], size)
    return end


def sorted_samples(rng: Random, n: int, count: int, size: int) -> list[tuple[int, ...]]:
    """The sorted values of count rng.sample(range(n), size) calls, leaving
    rng as they would.

    For n above _sample_setsize, rng.sample on CPython 3.10-3.13 draws
    randrange(n) until size distinct values have come, so the calls read one
    stream of draws, taken here in randbelow_many batches.  A batch asks for
    the slots still empty; every value fills one or repeats one, so no batch
    overdraws.  Otherwise each sample is one rng.sample call: at smaller n
    CPython draws from a pool, and it refuses a size outside [0, n]."""
    if not 1 <= size <= n or n <= _sample_setsize(size):
        universe = list(range(n))  # rng.sample draws the same values, faster than from a range
        return [tuple(sorted(rng.sample(universe, size))) for _ in range(count)]
    samples, draws = [], []
    while len(samples) < count:
        # draws holds the unfinished sample, fewer than size distinct values
        draws += randbelow_many(rng, n, (count - len(samples)) * size - len(set(draws)))
        del draws[: _take_samples(draws, size, samples)]
    return samples
