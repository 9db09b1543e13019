"""Host-speed probe: host times rescaled to a reference host speed.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
seconds to minutes: the same pass of the same process takes 2.4 s in
one stretch and 4.2 s in the next.  A run that falls in a slow stretch
is slow in every metric, and repeating passes inside one run does not
remove that.  So the benchmark times a fixed calibration step
(:func:`probe`) between the program's records, while the campaign
generator is suspended, and divides each host time by the slowdown
at that moment: the median probe time near it over
:data:`NOMINAL_S`, to the power :data:`SENSITIVITY`.

The step is the benchmark's own code and never calls the program, so
a change to the program moves the rescaled figures exactly as it
moves host time, while a slow stretch of the host moves the probe too
and largely cancels.  A rescaled time reads as the host time the same
work takes on a host where one probe takes :data:`NOMINAL_S`.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: One probe's time on the reference host (about this host family's
#: typical speed), so rescaled figures stay near the host times.
NOMINAL_S = 2.0e-4
#: The program's host time grows as the probe's to this power: the
#: program's larger working set suffers more from a busy neighbour
#: than the cache-resident probe does.  Fitted across ten-run sets of
#: both workloads (1.2-1.5 on grid-replay, 1.7-1.8 on timed-slice).
SENSITIVITY = 1.5
#: Probes around a moment that set the host speed there: every probe
#: within this many seconds, and at least :data:`MIN_SAMPLES` nearest.
WINDOW_S = 0.25
MIN_SAMPLES = 9

# A fixed permutation: sorting it is numpy work like the program's
# column replay; the loop is interpreter work like its record assembly.
_KEYS = (np.arange(4096, dtype=np.int64) * 2654435761) % 4099


def _step() -> int:
    order = np.argsort(_KEYS, kind="stable")
    acc = int(np.cumsum(_KEYS[order])[-1])
    for i in range(200):
        acc ^= i * i
    return acc


def probe() -> float:
    """Seconds one fixed calibration step takes on the host right now.

    The step runs once untimed first, so the timed run finds its data
    in the core's caches: it measures the host, not how much of the
    cache the program's last record evicted (the timed machine's
    records slowed a cold step by ~50% more than replay's did).
    """
    _step()
    t0 = time.perf_counter()
    _step()
    return time.perf_counter() - t0


class SpeedTrack:
    """Probe samples of one run, and the host's speed at any moment."""

    def __init__(self) -> None:
        self._times: list[float] = []
        self._durations: list[float] = []
        #: host seconds spent probing, to take out of measured intervals
        self.spent = 0.0

    def sample(self, count: int = 1) -> None:
        """Probe ``count`` times, stamped at the moment of the call."""
        now = time.perf_counter()
        for _ in range(count):
            duration = probe()
            self._times.append(now)
            self._durations.append(duration)
        self.spent += time.perf_counter() - now

    def slowdown(self, start: float, end: float | None = None) -> float:
        """How much slower than the reference the program ran over an interval.

        The median probe within :data:`WINDOW_S` of the interval (or the
        :data:`MIN_SAMPLES` probes nearest its middle) over
        :data:`NOMINAL_S`, to the power :data:`SENSITIVITY`.
        """
        end = start if end is None else end
        lo = bisect.bisect_left(self._times, start - WINDOW_S)
        hi = bisect.bisect_right(self._times, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            middle = bisect.bisect_left(self._times, (start + end) / 2)
            lo = max(0, middle - MIN_SAMPLES // 2)
            hi = min(len(self._times), lo + MIN_SAMPLES)
            lo = max(0, hi - MIN_SAMPLES)
        probe_s = statistics.median(self._durations[lo:hi])
        return (probe_s / NOMINAL_S) ** SENSITIVITY

    def rescale(self, seconds: float, start: float, end: float | None = None) -> float:
        """``seconds`` spent over [start, end], at the reference speed."""
        return seconds / self.slowdown(start, end)
