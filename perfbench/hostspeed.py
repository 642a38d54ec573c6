"""Host-speed correction for the benchmark's call times.

On a shared virtual machine the speed of a vCPU swings by up to 1.8x, for
seconds to minutes at a time, as other tenants load the host; a whole run
can fall in a slow spell.  While the calls run, a timer signal every
INTERVAL_S runs a fixed pure-Python probe (small `Fraction` sums, the kind
of work the exact lane does) and times it.  A call's corrected time is its
wall time less the probes', scaled by the mean probe speed during the call
relative to REFERENCE_PROBE_S: the time the call would take on a host
where the probe takes REFERENCE_PROBE_S.

The probe is program-independent, so a change to gaudinlab moves the
corrected time as it moves the wall time.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# About the probe's time on an unloaded 2-vCPU virtual machine (Python 3.11).
REFERENCE_PROBE_S = 100e-6
# A call shorter than this many probe intervals is also judged by the
# probes just before it.
MIN_PROBES = 5


def _probe():
    total = Fraction(0)
    for i in range(1, 41):
        total += Fraction(1, i)
    return total


class HostSpeed:
    """Probe the host's speed on a timer signal while started."""

    def __init__(self):
        self.probes = []    # seconds of each probe, in order

    def _on_alarm(self, signum, frame):
        # No garbage collection inside the probe: it would time the
        # program's heap, not the host.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _probe()
        self.probes.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.probes)

    def scale(self, since: int = 0) -> float:
        """Mean of REFERENCE_PROBE_S / probe seconds from probe `since` on."""
        probes = self.probes[max(0, min(since, len(self.probes) - MIN_PROBES)):]
        return statistics.fmean(REFERENCE_PROBE_S / p for p in probes) if probes else 1.0

    def corrected(self, wall: float, since: int) -> float:
        """Corrected seconds of a call that took `wall` from probe `since` on."""
        return (wall - sum(self.probes[since:])) * self.scale(since)
