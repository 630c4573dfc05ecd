"""
Machine-speed calibration for the benchmark's timings.

On a shared host, CPython's speed swings as neighbours load the cores.  On
a 2-core cloud VM running CPython 3.11 a fixed probe loop ran up to 1.8x
slower in episodes of 0.25-1.5 s, and the same normalisation call took
0.25 s or 0.43 s depending on when it ran.  Raw wall times then spread far
more between runs than any change worth detecting.

So while a timed call runs, a SIGALRM timer interrupts it every 10 ms to
time a fixed pure-Python probe loop (tuple building and list swaps on 16
and 64 strands, the instruction mix of the package's permutation code),
and the probe runs once more before and after.  Each sample says how fast
the machine ran at that moment; the call's wall time, less the time spent
in the probes, is rescaled to reference speed by the mean of
REFERENCE_S / sample.  On the VM above this cut the quartile spread of
one repeated call to 2-10%, from 5-45% raw.  The probe is the
benchmark's own code, so no change to the package can move it.
"""
from __future__ import annotations

import signal
import time

# The probe loop's time at reference speed: about the fastest seen on the
# VM above (CPython 3.11.7).  It fixes the unit only.
REFERENCE_S = 80e-6
INTERVAL_S = 0.01


def _probe_kernel(n: int, rounds: int) -> int:
    # tuple building, like compose/inverse/flip
    p = tuple(range(1, n + 1))
    q = p[::-1]
    acc = 0
    for _ in range(rounds):
        r = tuple(q[v - 1] for v in p)
        acc += r[0]
    # adjacent swaps driven by a work stack, like meet_permutations
    u = list(range(2 * n, 0, -1))
    todo = list(range(2 * n - 1))
    swaps = 0
    while todo and swaps < 60:
        i = todo.pop()
        if u[i] > u[i + 1]:
            u[i], u[i + 1] = u[i + 1], u[i]
            swaps += 1
            if i > 0:
                todo.append(i - 1)
            if i < 2 * n - 2:
                todo.append(i + 1)
    return acc + swaps


def _probe_loop() -> int:
    """Small and wide permutations, as the workloads use n=4 and n=64."""
    return _probe_kernel(16, 30) + _probe_kernel(64, 8)


def probe() -> float:
    """Seconds the probe loop takes now."""
    t0 = time.perf_counter()
    _probe_loop()
    return time.perf_counter() - t0


class Sampler:
    """
    Context manager around one timed call: samples machine speed during
    it, then `reference_seconds(wall)` converts the call's wall time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds the in-call probes took

    def _on_alarm(self, _signum, _frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples = [probe()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())
        return False

    def reference_seconds(self, wall: float) -> float:
        rate = sum(REFERENCE_S / s for s in self.samples) / len(self.samples)
        return (wall - self.spent) * rate
