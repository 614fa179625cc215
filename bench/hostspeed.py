"""Host-speed correction for the benchmark's end-to-end times.

The machines this benchmark runs on share their processors with other
tenants, and the speed at which they run a fixed amount of work drifts by up
to 2x over seconds to minutes.  A run cannot wait that out, so it measures
the drift instead: every ``PERIOD`` seconds a SIGALRM handler runs a small
fixed reference kernel on the benchmark's own thread and times it.  The
handler's own time is left out of every measured interval, and the time
between two samples is scaled by the kernel's reference time over the
sample, so that ``HostClock.now`` advances in seconds of a host running the
kernel in its reference time.  Work that slows down with the host as the
kernel does then takes the same time on this clock whichever state the host
is in.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.1  # seconds between samples
_MASK = (1 << 64) - 1


def ints_and_dicts() -> None:
    """What the random streams and most drivers do: 64-bit integer
    arithmetic on Python ints, and dict and list churn."""
    z = 12345
    for _ in range(2500):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
        z = (z + 0x9E3779B97F4A7C15) & _MASK
    table = {}
    for i in range(3000):
        table[i * 7919 % 100003] = [i, str(i)]
    sum(len(v) for v in table.values())


_PAIR_INDEX = {pair: i for i, pair in enumerate((v, w) for v in range(12) for w in range(v + 1, 12))}


def tuple_pairs() -> None:
    """What the graph code does: map vertex pairs through tuples of images
    and look the image pairs up in a dict keyed by pairs, into a set."""
    seen = set()
    for k in range(160):
        imgs = tuple((k * 7 + 3 * i) % 12 for i in range(12))
        for v, w in _PAIR_INDEX:
            a, b = imgs[v], imgs[w]
            if a != b:
                seen.add(_PAIR_INDEX[(a, b) if a < b else (b, a)])


# Each kernel with its typical time on the host the benchmark was defined on
# (an x86-64 virtual machine with two vCPUs, CPython 3.11).  A workload names
# the kernel whose slowdowns follow its own: over 240 s in which the host
# slowed explore5's passes from 7.2 s to 13 s, its pass time on the
# ints_and_dicts clock still varied by 8% between 40 s windows, and on the
# tuple_pairs clock by 1.5%.
KERNELS = {
    "ints_and_dicts": (ints_and_dicts, 0.0025),
    "tuple_pairs": (tuple_pairs, 0.0028),
}


# Set-up time (a fresh interpreter that imports the program and numpy) is
# mostly process start, file reads and loading extension modules, and does not
# follow the kernel above.  It is corrected instead by a fresh interpreter
# that imports numpy alone, timed next to it: set-up time is scaled by
# SPAWN_REFERENCE_S over that time.
SPAWN_REFERENCE_CODE = "import numpy"
SPAWN_REFERENCE_S = 0.2


class HostClock:
    """A clock in seconds of a host that runs ``kernel`` (a key of
    ``KERNELS``) in its reference time; use as a context manager.

    Between samples it runs at the speed of the median of the last three
    samples, so that one sample the host delayed does not stop it; the
    handler's own time does not count.
    """

    def __init__(self, kernel: str):
        self.kernel, self.reference_s = KERNELS[kernel]
        self.samples: list[float] = []
        # (clock reading, perf_counter time, speed) at the end of the last
        # sample, in one attribute, so that a sample taken while now() runs
        # cannot hand it half-updated state.
        self._state = (0.0, time.perf_counter(), 1.0)

    def now(self) -> float:
        base, since, scale = self._state
        return base + (time.perf_counter() - since) * scale

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        base, since, scale = self._state
        self.kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        speed = self.reference_s / statistics.median(self.samples[-3:])
        self._state = (base + (start - since) * scale, end, speed)

    def __enter__(self) -> HostClock:
        self.kernel()  # warm up, then take the first sample before timing anything
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
