"""The host's current speed, for timings that do not drift with it.

The benchmark runs on a few cores of a shared host whose speed drifts,
in CPU time as well as wall time, as neighbours come and go: a fixed
loop flips between a fast and a slow state about 1.6x apart, and the
share of time spent in each moves over minutes.  A fixed pure-Python
probe (big-int arithmetic and list updates) is timed between operations,
at most every EVERY_S of wall time, and each operation time is scaled by
REF_S over the mean of the probes just before and just after it: a
timing reads as it would at the speed where the probe takes REF_S.  The
probe does not touch ruledinv, so a change to the program moves the
scaled times as much as the raw ones.
"""

import gc
from time import perf_counter

# the probe's time at the reference speed, about its fast-state reading
# on a 2-CPU shared x86-64 host under Python 3.11
REF_S = 0.00015
# re-probe when this much wall time has passed since the last probe
EVERY_S = 0.1
REPS = 3
_MASK = (1 << 127) - 1


def _loop():
    # ints are not tracked by the garbage collector, so the loop allocates
    # one tracked object and never waits on a collection of the program's
    acc = [0] * 32
    x = 0x9E3779B97F4A7C15F39CC0605CEDC834
    for i in range(800):
        x = (x * 6364136223846793005 + i) & _MASK
        acc[i & 31] += x
    return acc[0]


def probe():
    """Least time of REPS runs of the fixed loop, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(REPS):
            t0 = perf_counter()
            _loop()
            dt = perf_counter() - t0
            best = dt if best is None or dt < best else best
    finally:
        if enabled:
            gc.enable()
    return best


def warm():
    """Let the interpreter specialise the loop before it is timed."""
    for _ in range(20):
        _loop()


class Clock:
    """Probe readings, and the samples each one opens.

    A segment is the run of samples between two probes; mark() opens one
    at a sample index.  scale() turns raw samples into scaled ones.
    """

    def __init__(self):
        warm()
        self.probes = []
        self.segments = []
        self.refresh()

    def refresh(self):
        t = probe()
        self.probes.append(t)
        self.factor = REF_S / t
        self.last = perf_counter()

    def due(self, now=None):
        return (perf_counter() if now is None else now) - self.last >= EVERY_S

    def mark(self, sample_index):
        """Re-probe if due, opening a segment at sample_index; never inside an op."""
        if self.due():
            self.refresh()
            self.segments.append((sample_index, len(self.probes) - 1))

    def scale(self, samples):
        """Scale raw samples in place, each segment by the mean of its two
        bracketing probes, and return their sum."""
        probes = self.probes
        self.refresh()  # closes the last segment
        bounds = [(0, 0)] + self.segments + [(len(samples), None)]
        for (lo, j), (hi, _) in zip(bounds, bounds[1:]):
            factor = 2 * REF_S / (probes[j] + probes[j + 1])
            for i in range(lo, hi):
                samples[i] *= factor
        return sum(samples)
