"""Host seconds corrected for how fast a shared host runs at the moment.

On a shared host the same Python code runs up to 1.7 times slower for
seconds or minutes at a time while other tenants load the machine.  The
kernel does not count this as stolen time, and process CPU time reads the
same as wall time, so neither hides it.  In one busy half hour the raw wall
time of the campaign's cold pass varied by 0.21, and its warm pass by 0.39
(interquartile range over median, ten runs).

:class:`ReferenceClock` corrects for that.  While it runs, a real-time timer
interrupts the measured code every ``PERIOD_S`` seconds to time a fixed
calibration loop.  An interval then counts as its wall time, less the
calibrations, times ``REFERENCE_S`` over the loop's mean duration: what the
interval would have taken with the loop at its reference speed.  On 189
runs of a 1.3-second packet simulation in a busy period, this cut the
interquartile range over median from 0.25 to 0.07.  Over windows of ten
runs it removed all but one of the host's swings; that once, the loop slowed
far more than the simulator and the window read 20% low.  Medians over runs
absorb such a window.

The calibration loop never touches the measured program's state, so the
program computes exactly what it computes without the clock.  This module
imports nothing from the simulator, so a fresh interpreter can start a clock
on its first line.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import Any, Callable, Dict, List, Tuple

#: Seconds between calibrations; each takes about a millisecond.
PERIOD_S = 0.04
#: The calibration loop's duration, in seconds, at the reference speed.  It
#: sets the scale only: on the 2-vCPU x86 host this was tuned on, reference
#: seconds read about 1.1 times the wall seconds of a quiet moment.
REFERENCE_S = 0.001


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def calibration_loop(steps: int = 600) -> int:
    """A fixed mix of what the simulator does most: heap operations on
    tuples, object attribute reads and dictionary updates."""
    heap: List[Tuple[int, int, _Item]] = []
    table: Dict[int, int] = {}
    total = 0
    for step in range(steps):
        heapq.heappush(heap, ((step * 7919) % 997, step, _Item(step % 61, step)))
        if len(heap) > 32:
            _, _, item = heapq.heappop(heap)
            table[item.key] = table.get(item.key, 0) + item.value
            total += len(table)
    return total


class ReferenceClock:
    """Measures one interval, from :meth:`start` to :meth:`stop`, in
    reference seconds.  Only one clock may run in a process at a time."""

    def __init__(self) -> None:
        #: Durations of the calibrations, the first one made by start().
        self.samples: List[float] = []
        #: Wall seconds the calibrations inside the interval took.
        self.calibration_s = 0.0
        self._start = 0.0
        self._stop = 0.0
        self._busy = False
        self._previous: Any = None

    def _calibrate(self, *_: Any) -> None:
        if self._busy:  # a tick during a calibration is dropped
            return
        self._busy = True
        begin = time.perf_counter()
        calibration_loop()
        duration = time.perf_counter() - begin
        self.samples.append(duration)
        self.calibration_s += duration
        self._busy = False

    def start(self) -> None:
        self._calibrate()
        self.calibration_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop the clock; returns the interval in reference seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._stop = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        return self.seconds()

    @property
    def speed(self) -> float:
        """Reference seconds per wall second, from the samples so far."""
        return REFERENCE_S * sum(1.0 / sample for sample in self.samples) / len(self.samples)

    def seconds(self) -> float:
        """The interval so far, or up to :meth:`stop`, in reference seconds."""
        end = self._stop or time.perf_counter()
        return (end - self._start - self.calibration_s) * self.speed


def measure(action: Callable[[], Any]) -> Tuple[float, Any]:
    """Call ``action()``; returns its reference seconds and its result."""
    clock = ReferenceClock()
    clock.start()
    try:
        result = action()
    finally:
        seconds = clock.stop()
    return seconds, result
