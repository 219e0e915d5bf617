"""Batched draws against the loops they replace, stdlib-only:
sample_coordinates against rng.random() calls, randbelow_many against
rng.randrange() calls, and the claim suites' random_set_system (through
rng.sorted_samples) and random_masses against rng.sample() and
rng.randrange(1, 1000) calls.

The sampler reads its draws 64 bits at a time and relies on how CPython
builds random() from two Mersenne Twister words; randbelow_many relies on
how randrange rejects getrandbits values, and sorted_samples on when
rng.sample draws from a pool and how it redraws repeats otherwise.  So the
check runs under every supported interpreter, pytest or not:

    PYTHONPATH=src python tests/sample_draws.py

checks CASES seeded cases of each (plus the set-system edges and three mass
counts) in one process and exits 1 on a mismatch.
tests/test_global_decoder.py and tests/test_decoders.py run the same
comparisons under hypothesis, tests/test_harness.py runs the set-system
and mass cases, and
tests/test_cli.py::test_sample_draws_under_other_interpreters runs this
script under the other installed Pythons.
"""

import math
import sys
from itertools import compress
from random import Random

import oracles
from rldc import harness
from rldc.global_decoder import sample_coordinates
from rldc.rng import randbelow_many

# never, always, the smallest subnormal, the largest float below 1, one top-byte step
EDGE_PROBABILITIES = (0.0, 1.0, 5e-324, 1 - 2**-53, 2**-45)
MAX_N = 3000
CASES = 300  # (n, seed) pairs, each checked at nine probabilities
# bounds drawn from one word (half the values rejected at 1, 2, 32 and 2^31), two words and three words
DRAW_BOUNDS = (1, 2, 3, 32, 33, 2**31, 2**32, 2**32 + 1, 2**64, 3**50)
MAX_COUNT = 2000
# rng.sample draws from a pool up to n = 21 at sizes to 5 and n = 85 at sizes 6 and 7
SET_SYSTEM_NS = (1, 7, 21, 22, 85, 86, 1024)
MAX_SET_SIZE = 25  # past 21, where the pool bound goes from 85 to 277


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


def outcome(generate, seed: int, *args):
    """What generate(*args, Random(seed)) returns, or the repr of the
    ValueError it raises, and the generator's state after."""
    rng = Random(seed)
    try:
        result = generate(*args, rng)
    except ValueError as err:
        result = repr(err)
    return result, rng.getstate()


def same_set_system(n: int, set_count: int, set_size: int, seed: int) -> bool:
    """random_set_system gives the sets of set_count rng.sample calls, or
    the same error, and leaves the same state."""
    args = seed, n, set_count, set_size
    return outcome(harness.random_set_system, *args) == outcome(oracles.random_set_system, *args)


def set_system_cases():
    """(n, set_count, set_size, seed): each of SET_SYSTEM_NS at sizes 0 to 7
    (0 and sizes above n are errors) and counts 0, 1 and n; then random n to
    MAX_N, sizes to MAX_SET_SIZE and counts to 200."""
    for n in SET_SYSTEM_NS:
        for set_size in range(8):
            for set_count in (0, 1, n):
                yield n, set_count, set_size, n * 1000 + set_size
    for i in range(CASES):
        rng = Random(f"set system {i}")
        n = rng.randrange(1, MAX_N + 1)
        yield n, rng.randrange(201), rng.randint(1, min(n, MAX_SET_SIZE)), rng.getrandbits(64)


def same_masses(count: int, seed: int) -> bool:
    """random_masses gives the values of count rng.randrange(1, 1000) calls
    and leaves the same state."""
    return outcome(harness.random_masses, seed, count) == outcome(oracles.random_masses, seed, count)


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
    for n, set_count, set_size, seed in set_system_cases():
        checked += 1
        if not same_set_system(n, set_count, set_size, seed):
            failures += 1
            print(f"BAD random_set_system n={n} set_count={set_count} set_size={set_size} seed={seed}")
    for count in (0, 1, MAX_COUNT):
        checked += 1
        if not same_masses(count, count):
            failures += 1
            print(f"BAD random_masses count={count}")
    print(f"{checked - failures} of {checked} samples and draw batches match under Python {sys.version.split()[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(check_all())
