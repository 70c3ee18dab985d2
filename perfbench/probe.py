"""Host-speed probe: a fixed micro-kernel timed every 20 ms during the call.

On a shared machine the speed available to one process drifts: the same
sample can take 1.7 times longer from one second to the next, and a run's
median wall time can move by a fifth within minutes.  While the workload
call runs, an interval timer interrupts it every PERIOD_S of wall time and
times one run of a fixed pure-Python micro-kernel (about 0.4 ms).  The
harmonic mean of those durations is the time the micro-kernel took at the
speed the call ran at, weighted by wall time; ``wall_rel`` divides the
call's wall time by it.

The micro-kernel does the kinds of work hilbcalc spends its time in: an
interpreted part (Fraction arithmetic, dicts keyed by exponent tuples) and
a big-integer Bareiss row update that walks a 0.5 MB matrix, so that it
slows down with memory contention the way `int_rank` does.  It imports
nothing from hilbcalc, so no change to the package can move it.  The probes
cost about 2% of the call's time.
"""

import random
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
ROWS, COLS, ROW_BITS = 60, 100, 400


def _interpreted_part() -> None:
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    big = 3**120
    for i in range(60):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 13, i % 17)
        table[key] = table.get(key, 0) + i
        big = (big * (i + 3)) // (i + 2)


def _bareiss_row(top: list[int], row: list[int]) -> list[int]:
    lead, head, prev = top[0] | 1, row[0], 12345678901234567
    return [(lead * a - head * b) // prev for a, b in zip(row, top)]


class Probe:
    """Context manager sampling the micro-kernel's duration during a call."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        rng = random.Random(ROWS)
        self._matrix = [
            [rng.getrandbits(ROW_BITS) - (1 << (ROW_BITS - 1)) for _ in range(COLS)]
            for _ in range(ROWS)
        ]
        self._row = 0

    def _sample(self, signum=None, frame=None) -> None:
        i = self._row
        self._row = (i + 1) % (ROWS - 1)
        start = time.perf_counter()
        _interpreted_part()
        _bareiss_row(self._matrix[i], self._matrix[i + 1])
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def harmonic_s(self) -> float:
        """Wall-time-weighted micro-kernel duration over the call."""
        if not self.durations:  # a call shorter than one period
            self._sample()
        return len(self.durations) / sum(1 / d for d in self.durations)
