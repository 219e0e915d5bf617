"""Batched draws against the loops they replace, stdlib-only:
sample_coordinates against rng.random() calls, and randbelow_many against
rng.randrange() calls.

The sampler reads its draws 64 bits at a time and relies on how CPython
builds random() from two Mersenne Twister words; randbelow_many relies on
how randrange rejects getrandbits values.  So the check runs under every
supported interpreter, pytest or not:

    PYTHONPATH=src python tests/sample_draws.py

checks CASES seeded cases of each in one process and exits 1 on a mismatch.
tests/test_global_decoder.py and tests/test_decoders.py run the same
comparisons under hypothesis, and
tests/test_cli.py::test_sample_draws_under_other_interpreters runs this
script under the other installed Pythons.
"""

import math
import sys
from itertools import compress
from random import Random

from rldc.global_decoder import sample_coordinates
from rldc.rng import randbelow_many

# never, always, the smallest subnormal, the largest float below 1, one top-byte step
EDGE_PROBABILITIES = (0.0, 1.0, 5e-324, 1 - 2**-53, 2**-45)
MAX_N = 3000
CASES = 300  # (n, seed) pairs, each checked at nine probabilities
# bounds drawn from one word (half the values rejected at 1, 2, 32 and 2^31), two words and three words
DRAW_BOUNDS = (1, 2, 3, 32, 33, 2**31, 2**32, 2**32 + 1, 2**64, 3**50)
MAX_COUNT = 2000


def loop_sample(n: int, p: float, rng: Random) -> frozenset[int]:
    """The sampler's definition: coordinate j is kept when the j-th draw is below p."""
    return frozenset(j for j in range(n) if rng.random() < p)


def stream_value(seed: int, j: int) -> float:
    """The j-th rng.random() of the stream Random(seed)."""
    rng = Random(seed)
    for _ in range(j):
        rng.random()
    return rng.random()


def drawn_probabilities(seed: int, j: int) -> tuple[float, float, float]:
    """A value the stream draws at coordinate j and its two float neighbours:
    the draw is a tie that the exact check must drop, its upper neighbour one
    it must keep."""
    value = stream_value(seed, j)
    return math.nextafter(value, 0.0), value, math.nextafter(value, 1.0)


def same_draws(n: int, p: float, seed: int) -> bool:
    """Flags that are one 0 or 1 per coordinate and mark the loop's set, and
    the same next draw afterwards."""
    fast, slow = Random(seed), Random(seed)
    flags = sample_coordinates(bytes(n), p, fast).flags
    return (
        len(flags) == n
        and set(flags) <= {0, 1}
        and frozenset(compress(range(n), flags)) == loop_sample(n, p, slow)
        and fast.random() == slow.random()
    )


def cases():
    """(n, p, seed): n from 0 to MAX_N, each at the edge probabilities, one
    uniform value and a drawn value with its neighbours."""
    for i in range(CASES):
        rng = Random(i)
        n = (0, 1, MAX_N)[i] if i < 3 else rng.randrange(MAX_N + 1)
        seed = rng.getrandbits(64)
        probabilities = [*EDGE_PROBABILITIES, rng.random()]
        if n:
            probabilities += drawn_probabilities(seed, rng.randrange(n))
        for p in probabilities:
            yield n, p, seed


def same_randbelow(n: int, count: int, seed: int) -> bool:
    """randbelow_many(n, count) gives the values of count rng.randrange(n)
    calls and leaves the same state."""
    fast, slow = Random(seed), Random(seed)
    values = randbelow_many(fast, n, count)
    return values == [slow.randrange(n) for _ in range(count)] and fast.getstate() == slow.getstate()


def randbelow_cases():
    """(n, count, seed): every bound in DRAW_BOUNDS at counts 0 to MAX_COUNT."""
    for i in range(CASES):
        rng = Random(f"randbelow {i}")
        count = (0, 1, MAX_COUNT)[i % 3] if i < 3 * len(DRAW_BOUNDS) else rng.randrange(MAX_COUNT + 1)
        yield DRAW_BOUNDS[i % len(DRAW_BOUNDS)], count, rng.getrandbits(64)


def check_all() -> int:
    checked = failures = 0
    for n, p, seed in cases():
        checked += 1
        if not same_draws(n, p, seed):
            failures += 1
            print(f"BAD n={n} p={p!r} seed={seed}")
    for n, count, seed in randbelow_cases():
        checked += 1
        if not same_randbelow(n, count, seed):
            failures += 1
            print(f"BAD randbelow_many n={n} count={count} seed={seed}")
    print(f"{checked - failures} of {checked} samples and draw batches match under Python {sys.version.split()[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(check_all())
