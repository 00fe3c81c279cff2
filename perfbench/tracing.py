"""The traced run: spans around the simulator's public functions, a profiler.

Nothing here is installed during a timed run.  :func:`traced` patches each
layer's public entry points with a wrapper that records a span -- name,
start, end and the index of the enclosing span -- and restores the
originals on exit.  A span nested inside one of the same name (a summary
built while building a summary) is not recorded again, so a metric's total
counts each piece of work once.  Per-package self time comes from a sampling
profiler attached to the same run: on every tick of the process CPU-time
timer it notes which source file is executing.  Native code (JSON, hashing, heap
operations) counts towards the Python frame that called it.  Sampling costs
well under 1%, where ``cProfile`` made a packet run four times slower and
shifted the shares towards call-heavy code.
"""

from __future__ import annotations

import functools
import signal
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

from workloads import SRC

from repro.campaigns import runner as campaigns
from repro.experiments import runner
from repro.flowlevel import engine as flowlevel
from repro.metrics.collector import ExperimentMetrics
from repro.sim.engine import Simulator
from repro.store.runstore import RunStore

#: (owner, attribute, span name) of every wrapped entry point.  Module-level
#: functions are patched where their callers look them up.
ENTRY_POINTS: Tuple[Tuple[Any, str, str], ...] = (
    (Simulator, "run", "sim.run"),
    (runner, "build_topology", "topology.build"),
    (runner, "build_workload", "traffic.build"),
    (runner, "create_flow", "transport.create"),
    (flowlevel, "run_flow_experiment", "fluid.run"),
    (flowlevel, "max_min_rates", "fluid.solve"),
    (RunStore, "put_entry", "store.put"),
    (RunStore, "index_add", "store.index"),
    (RunStore, "get_artifact", "store.get"),
    (campaigns, "campaign_run_specs", "campaigns.plan"),
    (campaigns, "campaign_keys", "campaigns.plan"),
    (campaigns, "campaign_report_markdown", "campaigns.report"),
    (campaigns, "result_metrics_row", "metrics.summary"),
    (ExperimentMetrics, "summary_dict", "metrics.summary"),
)


class SpanRecorder:
    """Spans kept in memory as ``[name, start, end, parent_index]``."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._open: List[int] = []
        #: Bytes of every artifact ``RunStore.put_entry`` wrote.
        self.bytes_written = 0

    def wrap(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            if any(self.spans[index][0] == name for index in self._open):
                return function(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if name == "store.put":
                self.bytes_written += result[0].stat().st_size
            return result

        return traced

    def total_s(self, name: str) -> float:
        return sum(end - start for span_name, start, end, _ in self.spans if span_name == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def as_records(self) -> List[Dict[str, Any]]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


class SamplingProfiler:
    """Counts, per source file, the CPU-time ticks during which it executed.

    The kernel delivers the profiling timer at its own tick granularity, so
    ticks are converted to seconds as shares of the process CPU time measured
    over the same span, not by multiplying with the requested interval.
    """

    def __init__(self, interval_s: float = 0.001) -> None:
        self.interval_s = interval_s
        self.ticks: Dict[str, int] = {}
        self.cpu_s = 0.0

    def _tick(self, signum: int, frame: Any) -> None:
        filename = frame.f_code.co_filename if frame is not None else "?"
        self.ticks[filename] = self.ticks.get(filename, 0) + 1

    @contextmanager
    def running(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGPROF, self._tick)
        start = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            self.cpu_s += time.process_time() - start
            signal.signal(signal.SIGPROF, previous)

    def package_self_s(self) -> Dict[str, float]:
        """Sampled CPU seconds per ``repro`` package (``sim``, ``net``, ...).

        The fluid solver lives in ``repro/sim/fluid.py`` but belongs to the
        flow tier, so it is reported as ``fluid`` rather than ``sim``.
        """
        package_root = (SRC / "repro").resolve()
        seconds_per_tick = self.cpu_s / max(1, sum(self.ticks.values()))
        totals: Dict[str, float] = {}
        for filename, ticks in self.ticks.items():
            try:
                relative = Path(filename).resolve().relative_to(package_root)
            except ValueError:
                continue
            package = relative.parts[0] if len(relative.parts) > 1 else "repro"
            if relative.as_posix() == "sim/fluid.py":
                package = "fluid"
            totals[package] = totals.get(package, 0.0) + ticks * seconds_per_tick
        return totals


@contextmanager
def traced(recorder: SpanRecorder, profiler: SamplingProfiler) -> Iterator[None]:
    """Install the span wrappers and the profiler; undo both on exit."""
    originals = [(owner, attribute, getattr(owner, attribute))
                 for owner, attribute, _ in ENTRY_POINTS]
    for owner, attribute, name in ENTRY_POINTS:
        setattr(owner, attribute, recorder.wrap(name, getattr(owner, attribute)))
    try:
        with profiler.running():
            yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def diagnostic_values(results: List[Any], path: Tuple[str, ...]) -> List[int]:
    """One nested ``diagnostics`` counter of every profiled result that has it."""
    values = []
    for result in results:
        value: Any = result.diagnostics
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
        if value is not None:
            values.append(value)
    return values
