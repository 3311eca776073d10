"""Host-speed calibration.

The host's speed drifts: over seconds by up to about 1.5x, and within a
second by about 15%, because other tenants share its cores.  This is not
time lost to descheduling (CPU time drifts with wall time), so only a
concurrent measurement of speed can correct it.  Every time the benchmark
reports is therefore scaled to a reference speed.  A fixed pure-stdlib
kernel of Fraction arithmetic (the kind of work that dominates d4vgit) is
timed every INTERVAL_S from a SIGALRM timer while the measured code runs:
the signal handler runs between two bytecodes of whatever is executing.
The kernel's own time is subtracted from the op it interrupted, and a time t
measured around samples k becomes t * REFERENCE_S / mean(k).

REFERENCE_S is the kernel's median time on the host the bounds were set on
(2 vCPUs, Python 3.11.7), so scaled times read about as wall-clock there.
The raw wall-clock times are printed too.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0028
INTERVAL_S = 0.1
HALO_S = 0.15           # samples this close to a timed interval also count


def kernel():
    """Gaussian-rational products as Fraction pairs, like base-level Scalars."""
    out = []
    for i in range(1, 260):
        a_re, a_im = Fraction(i, i + 3), Fraction(-i, 2 * i + 1)
        b_re, b_im = Fraction(3, i + 1), Fraction(i + 2, 7)
        out.append((a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re))
    return out


def sample():
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def bracket_scale(before, after):
    """Scale for an interval with kernel samples (lists) on each side."""
    return REFERENCE_S / statistics.mean(before + after)


class Sampler:
    """Times the kernel from a SIGALRM timer while active (a context manager)."""

    def __init__(self):
        self.starts = []        # sample start times, increasing
        self.lengths = []       # kernel seconds per sample
        self._previous = None
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:          # a late alarm inside the kernel itself
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.lengths.append(time.perf_counter() - t0)
        self.starts.append(t0)
        self._busy = False

    def __enter__(self):
        self._on_alarm(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _span(self, t0, t1):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def paused(self, t0, t1):
        """Kernel seconds spent inside [t0, t1]."""
        lo, hi = self._span(t0, t1)
        return sum(self.lengths[lo:hi])

    def scale(self, t0, t1):
        """Factor turning seconds measured in [t0, t1] into reference seconds."""
        lo, hi = self._span(t0 - HALO_S, t1 + HALO_S)
        if lo == hi:                            # no sample nearby: the nearest
            lo = min(max(lo - 1, 0), len(self.starts) - 1)
            hi = lo + 1
        return REFERENCE_S / statistics.mean(self.lengths[lo:hi])

    def reference_seconds(self, t0, t1):
        """The work time of [t0, t1] (kernel pauses removed), scaled."""
        return (t1 - t0 - self.paused(t0, t1)) * self.scale(t0, t1)
