"""Host-speed reference: a fixed elimination timed in among the jobs.

The benchmark shares a few cores of a host with other loads, and the
speed those cores give a single Python thread drifts by tens of percent
over a minute while CPU time and wall time stay equal.  Timing a fixed
piece of work of the same kind as the program's (sparse elimination
over dicts keyed by frozensets, in rationals and in GF(2)) between jobs
measures that drift, and each stretch of job time is rescaled by it.
Samples are taken on a CPU-time timer, in the middle of long jobs as
well as between short ones, so every stretch has samples next to it.

Nothing here imports rigidres, and the work never depends on the seed
or on the program, so a change to the program cannot move the
reference.
"""

import itertools
import random
import signal
import statistics
import time
from fractions import Fraction

# CPU time between two reference samples.
STRETCH_S = 0.5
# A sample's time on the 2-vCPU Xeon VM (2.1 GHz) of the README baseline
# at its slower speed (its samples read 0.022-0.043 s); normalised times
# are in seconds of a host on which a sample takes exactly this long.
NOMINAL_S = 0.04


def _columns():
    """Boundaries of a fixed set of triangles on thirteen vertices."""
    rng = random.Random("hostref")
    triangles = rng.sample(list(itertools.combinations(range(13), 3)), 200)
    return [{frozenset(t[:j] + t[j + 1:]): (-1) ** j for j in range(3)}
            for t in triangles]


def _key(face):
    return (len(face), tuple(sorted(face)))


def _rank(columns, p):
    """Rank by pivoting on the first row, as a span basis does."""
    pivots = {}
    for col in columns:
        col = {k: (Fraction(v) if p == 0 else v % p) for k, v in col.items()}
        while col:
            pivot = min(col, key=_key)
            hit = pivots.get(pivot)
            if hit is None:
                pivots[pivot] = col
                break
            if p == 0:
                c = -col[pivot] / hit[pivot]
            else:
                c = -col[pivot] * pow(hit[pivot], p - 2, p) % p
            for k, v in hit.items():
                s = col.get(k, 0) + c * v
                if p:
                    s %= p
                if s:
                    col[k] = s
                else:
                    col.pop(k, None)
    return len(pivots)


_COLUMNS = _columns()
RANKS = {0: 66, 2: 66}  # rank of the fixed boundary matrix, asserted


def reference():
    """One reference sample's work; returns the ranks it found."""
    return {p: _rank(_COLUMNS, p) for p in (0, 2)}


class HostClock:
    """Reference samples taken every ``interval`` seconds of CPU time
    (on SIGPROF, so in the middle of jobs too) and at each ``cut()``.

    Used as a context manager around the timed work.  The time between
    two samples is a stretch; ``paused`` is the time spent sampling,
    which the caller takes off the jobs' wall times.  ``scale(i)`` is
    ``NOMINAL_S`` over the mean of the samples just before and just
    after stretch i, and ``normalised()`` lists the stretches' times
    multiplied by their scales.
    """

    def __init__(self, interval=STRETCH_S):
        self.interval = interval
        self.samples = []
        self.stretches = []  # (seconds, samples taken before it)
        self.paused = 0.0
        self.found = RANKS
        self._mark = None
        self._previous = None

    def _sample(self):
        t0 = time.perf_counter()
        found = reference()
        t1 = time.perf_counter()
        if found != RANKS:
            self.found = found
        self.samples.append(t1 - t0)
        self.paused += t1 - t0
        self._mark = t1

    def cut(self, *_):
        self.stretches.append((time.perf_counter() - self._mark,
                               len(self.samples)))
        self._sample()

    def __enter__(self):
        reference()  # untimed: the first call runs colder than the rest
        self._previous = signal.signal(signal.SIGPROF, self.cut)
        self._sample()
        if self.interval:
            signal.setitimer(signal.ITIMER_PROF, self.interval,
                             self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.cut()
        if self.found != RANKS:
            raise AssertionError(f"reference ranks {self.found}, "
                                 f"not {RANKS}")
        return False

    def scale(self, i):
        k = self.stretches[i][1]
        return NOMINAL_S / statistics.mean(self.samples[k - 1:k + 1])

    def normalised(self):
        return [seconds * self.scale(i)
                for i, (seconds, _) in enumerate(self.stretches)]

    def describe(self):
        """One line with every sample and stretch, for the run log."""
        return (f"samples {' '.join(f'{t:.4f}' for t in self.samples)}; "
                f"stretches "
                f"{' '.join(f'{s:.3f}@{k}' for s, k in self.stretches)}")
