"""Wall times scaled to a fixed machine speed.

On a shared host the same Python code runs at speeds that differ by up to
1.8x from one minute to the next: on a 2-core KVM guest, runs of one
pivot-decode trial had medians from 82 to 149 ms within ten minutes.  A
SpeedProbe samples the current speed.  While it is entered, a timer signal
runs a fixed piece of interpreted work, reference(), every PROBE_EVERY_S
seconds, and `SpeedProbe.time` also runs it right before and after the call
it times.  The call's wall time, without the probe time inside it, is then
scaled to the reference speed, the speed at which reference() takes REF_S:
it is multiplied by REF_S over the median reference time around and inside
the call.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_S = 0.00015
PROBE_EVERY_S = 0.05


def reference() -> int:
    """Fixed interpreted work that does not touch rldc: dict, tuple, int and
    frozenset operations of the kinds the library does."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(160):
        key = (i * 7919) % 61
        table[key] = table.get(key, 0) + 1
        acc ^= (key << (i & 7)) | len(tuple(range(i & 7)))
    petals = [frozenset(range(j, j + 4)) for j in range(0, 66, 3)]
    sample = frozenset(range(0, 66, 2))
    return acc + sum(1 for p in petals if p <= sample) + sum(table.values())


class SpeedProbe:
    """Samples of reference(), by timer and around calls, as (start, time
    taken by the sample, duration of its second, warm reference() call).
    The first call refills the caches an interrupted call left behind."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def sample(self, *_signal) -> None:
        began = time.perf_counter()
        reference()
        warm = time.perf_counter()
        reference()
        ended = time.perf_counter()
        self.samples.append((began, ended - began, ended - warm))

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn):
        """fn's result, its wall time without the probe time inside it, and
        that time scaled to the reference speed."""
        first = len(self.samples)
        self.sample()
        began = time.perf_counter()
        result = fn()
        ended = time.perf_counter()
        self.sample()
        window = self.samples[first:]
        wall = ended - began - sum(taken for t, taken, _ in window if began <= t < ended)
        return result, wall, wall * REF_S / statistics.median(warm for _, _, warm in window)
