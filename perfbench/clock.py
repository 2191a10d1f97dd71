"""A clock that rescales measured times to a reference machine speed.

On a shared machine the same work can run at very different speeds from
one minute to the next.  ``reference_loop`` is a fixed piece of work of
the kind the program does; timing it next to a measurement tells how
fast the machine ran at that moment, and a time ``t`` measured while the
loop took ``r`` seconds is worth ``t * REFERENCE_S / r`` at the
reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.003  # the reference loop's time at the reference speed


def reference_loop() -> float:
    """Seconds a fixed mix of small numpy operations and bytecode takes.

    The program spends its time on the same kind of work, so the ratio
    of a job's time to this loop's time, taken during the job, holds
    still while the machine's speed moves.
    """
    start = time.perf_counter()
    ones = np.ones(16, dtype=np.uint8)
    table = {}
    for i in range(600):
        a = np.zeros(16, dtype=np.uint8)
        a ^= ones
        table[i & 255] = int(a.sum())
        acc = 0
        for j in range(30):
            acc += i * j
    return time.perf_counter() - start


class Clock:
    """Times calls and rescales each time to the reference speed.

    While a call runs, an interval timer interrupts it every SAMPLE_S
    seconds to time the reference loop; the loop's own time is taken off
    the call's.  A call's scale is the mean of REFERENCE_S / r over the
    loop times r taken just before, during and just after it.
    """

    SAMPLE_S = 0.2

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.last = reference_loop()
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if self.tracer is None:
            self.samples.append(reference_loop())
            return
        # a span of its own, so that no layer's self time includes it
        span = self.tracer.begin("sample")
        self.samples.append(reference_loop())
        self.tracer.end(span)

    def time(self, fn):
        """(result, raw seconds, scale) of one call of fn."""
        self.samples = [self.last]
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        raw = time.perf_counter() - start - sum(self.samples[1:])
        self.last = reference_loop()
        self.samples.append(self.last)
        scale = statistics.fmean(REFERENCE_S / r for r in self.samples)
        return result, raw, scale


def scale_now(repeats: int = 3) -> float:
    """The rescaling factor of the present moment."""
    return statistics.fmean(REFERENCE_S / reference_loop() for _ in range(repeats))
