"""The machine-speed probe: a fixed reference kernel, timed while a pass runs.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 1.7x within seconds, for reasons outside the process (what the neighbours
run), so raw wall times of the same code spread by 30% between runs. The
probe times a fixed pure-Python kernel that does the kind of work decatkit
does (sparse dict rows reduced mod p, tuple keys, Fraction sums): in bursts
just before and after a measured stretch, and every INTERVAL_S from a SIGALRM
handler during it. Each sample t gives the machine's speed at that moment
relative to the reference speed as REFERENCE_S / t. The mean of those ratios
over the stretch is its `factor`; a measured time times that factor is the
time at the reference speed, which is what the benchmark reports. The kernel
imports nothing from decatkit, so a change to decatkit cannot move it; the
probe's own time is left out of the times it scales.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# One kernel call at the reference speed: roughly the fast state of a
# 2-core x86-64 virtual machine with CPython 3.11.
REFERENCE_S = 220e-6
INTERVAL_S = 0.05
BURST = 8


def reference_kernel() -> tuple:
    """Fixed work that touches no decatkit code: a 14 x 20 sparse matrix
    reduced mod p, a bracket-like closure over pairs, and a Fraction sum."""
    p = 10007
    x = 12345
    rows = []
    for _ in range(14):
        row = {}
        for _ in range(7):
            x = x * 48271 % 2147483647
            row[x % 20] = x % p
        rows.append(row)
    pivots = []
    for row in rows:
        for pc, prow in pivots:
            v = row.get(pc)
            if v:
                for j, w in prow.items():
                    nv = (row.get(j, 0) - v * w) % p
                    if nv:
                        row[j] = nv
                    elif j in row:
                        del row[j]
        if row:
            c = min(row)
            inv = pow(row[c], -1, p)
            pivots.append((c, {j: v * inv % p for j, v in row.items()}))
    pairs = {(i, j) for i in range(6) for j in range(i, 6)}
    closure = {}
    for a in pairs:
        for b in pairs:
            if a[1] == b[0] and (a[0], b[1]) in pairs:
                closure[(a[0], b[1])] = closure.get((a[0], b[1]), 0) + 1
    total = Fraction(0)
    for k in range(1, 12):
        total += Fraction(k, k + 1)
    return len(pivots), len(closure), total


class SpeedProbe:
    """Samples of the kernel's time; `spent` is the probe's own time.

    Used as a context manager it also samples every INTERVAL_S of wall time
    from a SIGALRM handler, and restores the previous handler on exit.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self) -> None:
        started = perf_counter()
        reference_kernel()  # warms the kernel's code and data after the program ran
        t = perf_counter()
        reference_kernel()
        ended = perf_counter()
        self.samples.append(ended - t)
        self.spent += ended - started

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def factor(self) -> float:
        """Mean speed over the samples, relative to the reference speed."""
        return statistics.fmean(REFERENCE_S / t for t in self.samples)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
