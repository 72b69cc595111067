"""CPU-speed probe, so that timings on a shared host compare across runs.

On a shared virtual machine the speed of one vCPU swings by up to 1.7x over
seconds to minutes as other tenants load the host; a 30 s run's median pass
time inherits that swing.  A probe is a short fixed piece of work that does
not touch hprofile: a pure-Python loop and numpy element-wise work, the two
kinds of work the workloads do between their LAPACK calls.  It calls no
LAPACK or BLAS routine, so probing during a cold pass leaves that pass's
first-call costs in place.

While a pass runs, a Sampler probes every PERIOD_S of wall time from a
SIGALRM handler, so the probes sample the speed evenly over the pass; a
handler waits for a running C call to return.  The pass time, with the
probes taken out, is then scaled by REFERENCE_S over the mean probe time:
the pass's time at the speed at which one probe takes REFERENCE_S.  A change
to hprofile moves the pass time and not the probe, so it shows in full in
the scaled time.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

__all__ = ["REFERENCE_S", "PERIOD_S", "BURST", "probe", "burst", "scale",
           "Sampler"]

# A probe's median time on a 2-vCPU Intel Xeon VM at 2.1 GHz (Python 3.11,
# numpy 2.4).  Only its constancy matters: it fixes the unit of scaled times.
REFERENCE_S = 0.0026
# Probing every 40 ms at about 2.6 ms a probe adds about 6% to a pass's
# wall time; its timings leave the probes out.
PERIOD_S = 0.040
# Probes in the burst that scales a set-up time.
BURST = 40

_X = np.linspace(0.0, 1.0, 4096)


def probe() -> float:
    """Run one probe and return its duration in seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(13_000):
        s += i * i
    y = _X
    for _ in range(8):
        y = np.sort(np.sin(y * 3.7 + 0.1))
        y = np.cumsum(y) / (1.0 + y)
    return time.perf_counter() - t0


def burst() -> list[float]:
    """BURST probes back to back, for a sample taken outside a pass."""
    return [probe() for _ in range(BURST)]


def scale(probes: list[float]) -> float:
    """The factor that turns seconds measured beside `probes` into seconds
    at the reference speed."""
    return REFERENCE_S / statistics.fmean(probes)


class Sampler:
    """Probe every PERIOD_S while active; ``clock`` leaves the probes out.

    Used as a context manager around one pass, in the main thread.  It
    takes one more probe when it ends, so ``probes`` is never empty.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        """perf_counter with the time spent in probes taken out."""
        return time.perf_counter() - self.spent

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probes.append(probe())

    def scale(self) -> float:
        return scale(self.probes)
