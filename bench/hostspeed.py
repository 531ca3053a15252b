"""Host-speed samples, taken while the benchmark runs, to correct its times.

The benchmark runs on a few cores of a shared host, where the same work can
take 1.8 times as long from one second to the next.  While `sampling()` is
active, a SIGALRM every INTERVAL seconds runs one fixed piece of pure-Python
work (about 0.2 ms: a 60-node expression tree evaluated twelve times, then
a walk over 1000 objects of a 40,000-object array, which misses the caches
as the program's larger trees do) and records when it ran and how long it
took.  The work shares no code with nullag, so a faster program leaves it
unchanged.

`Sampler.corrected(start, end, elapsed)` scales a time measured over
[start, end] by REFERENCE over the median sample within WINDOW seconds of
that interval: the time the work would have taken on a host where a sample
takes REFERENCE.  On the hardware the benchmark was written on (2 shared
vCPUs) an unloaded sample takes about REFERENCE.  There, with a 0.5-s
window, the correction cut the spread of one fixed cycle of operations over
100 s from 19-26% to 5-8% (interquartile range over median); narrowing the
window to 0.05 s cut the spread of one input's repeated runs (median
coefficient of variation) further, from 10.5% to 7.9% on the numeric
workload and from 4.2% to 3.5% on the symbolic one.

`Sampler.inside(start, end)` is the time the samples themselves took
within an interval, which the caller subtracts from the interval's length.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time

INTERVAL = 0.02
WINDOW = 0.05
REFERENCE = 0.2e-3


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b


def _evaluate(node, x):
    if type(node) is _Node:
        a, b = _evaluate(node.a, x), _evaluate(node.b, x)
        return a + b if node.op == "+" else a * b
    return x if node == "x" else node


def _tree():
    tree = 1.0
    for i in range(60):
        tree = _Node("*" if i % 3 == 0 else "+", tree, "x" if i % 2 else 0.5)
    return tree


TREE = _tree()
ARRAY = [_Node("+", float(i), str(i % 97)) for i in range(40_000)]
TABLE = {str(i): float(i) for i in range(97)}


def work(k: int) -> float:
    """The fixed work of one sample; k picks the stretch of ARRAY it walks."""
    acc = 0.0
    for j in range(12):
        acc += _evaluate(TREE, 1.0 + j * 1e-3)
    start = (k * 7919) % (len(ARRAY) - 1000)
    for node in ARRAY[start:start + 1000]:
        acc += TABLE[node.b] + node.a
    return acc


class Sampler:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._total = [0.0]  # running sum of durations, for inside()

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's objects is not host speed
        start = time.perf_counter()
        work(len(self.starts))
        duration = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.durations.append(duration)
        self._total.append(self._total[-1] + duration)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, start: float, end: float) -> float:
        """Time the samples that started within [start, end] took."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        return self._total[j] - self._total[i]

    def corrected(self, start: float, end: float, elapsed: float) -> float:
        """`elapsed`, measured over [start, end], at the REFERENCE host speed."""
        i = bisect.bisect_left(self.starts, start - WINDOW)
        j = bisect.bisect_right(self.starts, end + WINDOW)
        if i == j:
            raise RuntimeError("no host-speed sample near a measured interval")
        return elapsed * REFERENCE / statistics.median(self.durations[i:j])
