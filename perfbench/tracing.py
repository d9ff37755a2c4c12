"""Observer-only instruments for the benchmark: a tick clock and a span tracer.

Both instruments attach to the simulator from outside, through its public
surface only, and neither feeds anything back into the simulation: the
benchmark checks that the simulated outputs of traced episodes equal those
of untraced ones.

* :class:`TickClock` times host seconds per simulated tick with a tick
  observer (``VirtualizedSystem.add_tick_observer``): one sample per tick,
  the interval between two consecutive tick completions of one system.
  Work the driver does between ticks (the service loop's admit and retire)
  therefore lands in the tick that follows it.  An epoch-seconds float
  resolves about a quarter microsecond, a visible step on ticks of tens of
  microseconds, so this clock reads ``time.perf_counter``.  It also times
  the episode's body, and scales both to the reference host speed of
  :mod:`speed`.
* :class:`Tracer` wraps public methods and functions of the layers at class
  or module level while a traced episode runs.  Each call becomes a span
  (layer name, start, end, parent span) kept in memory; :meth:`Tracer.fold`
  turns an episode's spans into per-layer self time, the span minus the
  part of it covered by child spans, and span counts.

Span timestamps come from :func:`repro.util.wall_clock`, the clock the
campaign runner uses.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.util import wall_clock

from speed import calibration_s, scale

#: Host seconds between two calibrations inside a body.
SEGMENT_S = 0.1


class TickClock:
    """Times an episode's body and its ticks, scaled to the reference speed.

    :meth:`start` and :meth:`stop` bracket the body.  In between, the
    body is cut into *segments* of about ``segment_s`` host seconds at
    tick boundaries; the calibration kernel (:mod:`speed`) runs between
    two segments, outside both, and each segment's seconds and tick
    samples are multiplied by the scale of the calibrations on either
    side of it.  The host's speed changes every few seconds, so a short
    segment sees one speed.
    """

    def __init__(self, segment_s: float = SEGMENT_S) -> None:
        self.samples_ms = array("d")
        #: (first, end) sample indices of every body timed so far.
        self.episodes: List[Tuple[int, int]] = []
        self.segment_s = segment_s
        self._episode_first = 0
        self._split_after = math.inf
        self._segment_start = 0.0
        self._segment_first = 0
        self._calibration = 0.0
        self._host_s = 0.0
        self._scaled_s = 0.0

    def start(self, split: bool = True) -> None:
        """Calibrate, then open the first segment of a body.

        With ``split`` false the body is one segment; a traced episode
        uses that, so no calibration lands inside a span.
        """
        self._split_after = self.segment_s if split else math.inf
        self._host_s = self._scaled_s = 0.0
        self._calibration = calibration_s()
        self._episode_first = self._segment_first = len(self.samples_ms)
        self._segment_start = time.perf_counter()

    def stop(self) -> Tuple[float, float]:
        """Close the body; returns (scaled seconds, mean scale)."""
        self._close_segment(time.perf_counter())
        self._split_after = math.inf
        self.episodes.append((self._episode_first, len(self.samples_ms)))
        return self._scaled_s, self._scaled_s / self._host_s

    def profile_ms(self) -> List[float]:
        """Median over the episodes of each tick position's sample.

        A workload's episodes repeat the same simulated work tick by tick,
        so the median across them keeps each tick's own cost and drops
        host noise that hit a minority of the episodes.
        """
        samples = self.samples_ms
        ranges = [(first, end) for first, end in self.episodes if end > first]
        if not ranges:
            return []
        length = min(end - first for first, end in ranges)
        return [
            statistics.median(samples[first + position] for first, _ in ranges)
            for position in range(length)
        ]

    def _close_segment(self, now: float) -> None:
        after = calibration_s()
        factor = scale(self._calibration, after)
        samples = self.samples_ms
        for index in range(self._segment_first, len(samples)):
            samples[index] *= factor
        seconds = now - self._segment_start
        self._host_s += seconds
        self._scaled_s += seconds * factor
        self._calibration = after
        self._segment_first = len(samples)

    def attach(self, system: Any) -> None:
        """Time every tick of ``system`` after its first one.

        The first tick only sets the reference stamp: it would otherwise
        include whatever the driver did between building the system and
        running it.  A tick that follows a segment cut is timed from the
        cut, so the calibration is in no sample.
        """
        samples = self.samples_ms
        last: List[float] = []
        clock = self

        def observe(_system: Any, _tick_index: int) -> None:
            now = time.perf_counter()
            if last:
                samples.append((now - max(last[0], clock._segment_start)) * 1000.0)
                last[0] = now
            else:
                last.append(now)
            if now - clock._segment_start >= clock._split_after:
                clock._close_segment(now)
                clock._segment_start = time.perf_counter()

        system.add_tick_observer(observe)

    @contextmanager
    def every_system(self) -> Iterator[None]:
        """Attach to every ``VirtualizedSystem`` built inside the block.

        For drivers that build their systems internally: the constructor
        is wrapped at class level for the duration of the block.
        """
        from repro.hypervisor.system import VirtualizedSystem

        original = VirtualizedSystem.__init__
        clock = self

        @functools.wraps(original)
        def init(system: Any, *args: Any, **kwargs: Any) -> None:
            original(system, *args, **kwargs)
            clock.attach(system)

        VirtualizedSystem.__init__ = init  # type: ignore[method-assign]
        try:
            yield
        finally:
            VirtualizedSystem.__init__ = original  # type: ignore[method-assign]


class Tracer:
    """In-memory span recorder over wrapped public callables."""

    def __init__(self) -> None:
        self.active = False
        self._name_ids: Dict[str, int] = {}
        self._names: List[str] = []
        # One entry per span, in start order.
        self._span_name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open: List[int] = []
        self._hits: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Folded totals over every traced episode so far.
        self.self_s: Dict[str, float] = {}
        self.spans: Dict[str, int] = {}
        #: Spans whose parent is not a span of the same layer.
        self.outer_spans: Dict[str, int] = {}
        self.hits: Dict[str, int] = {}

    # -- wrappers ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        name_id = self._name_id(name)
        tracer = self
        span_name, parent = self._span_name, self._parent
        start, end, open_spans = self._start, self._end, self._open

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(start)
            span_name.append(name_id)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            open_spans.append(index)
            start.append(wall_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = wall_clock()
                open_spans.pop()

        return traced

    def _hit_wrapper(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        hits = self._hits

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            if result and tracer.active:
                hits[name] = hits.get(name, 0) + 1
            return result

        return counted

    # -- installation --------------------------------------------------------

    def span_method(self, cls: type, attr: str, name: str) -> None:
        """Make ``cls.attr`` a span named ``name``, if ``cls`` defines it."""
        self._patch_method(cls, attr, name, self._span_wrapper)

    def count_truthy(self, cls: type, attr: str, name: str) -> None:
        """Count calls of ``cls.attr`` that return a true value."""
        self._patch_method(cls, attr, name, self._hit_wrapper)

    def _patch_method(self, cls: type, attr: str, name: str, make: Callable[..., Any]) -> None:
        original = cls.__dict__.get(attr)
        if original is None or getattr(original, "__isabstractmethod__", False):
            return
        setattr(cls, attr, make(name, original))
        self._patches.append((cls, attr, original))

    def span_function(self, fn: Callable[..., Any], name: str) -> None:
        """Make every ``repro`` module's binding of ``fn`` a span."""
        wrapper = self._span_wrapper(name, fn)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def fold(self, scale: float = 1.0) -> None:
        """Fold the spans recorded so far into the totals and drop them.

        Span seconds are multiplied by ``scale`` as they are added.
        """
        if self._open:
            raise RuntimeError("fold() while spans are still open")
        count = len(self._start)
        start, end, parent, span_name = self._start, self._end, self._parent, self._span_name
        covered = [0.0] * count
        for index in range(count):
            up = parent[index]
            if up >= 0:
                covered[up] += end[index] - start[index]
        for index in range(count):
            name = self._names[span_name[index]]
            self_s = (end[index] - start[index] - covered[index]) * scale
            self.self_s[name] = self.self_s.get(name, 0.0) + self_s
            self.spans[name] = self.spans.get(name, 0) + 1
            up = parent[index]
            if up < 0 or span_name[up] != span_name[index]:
                self.outer_spans[name] = self.outer_spans.get(name, 0) + 1
        for name, value in self._hits.items():
            self.hits[name] = self.hits.get(name, 0) + value
        self._hits.clear()
        for column in (start, end, parent, span_name):
            del column[:]


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every module the workloads use.

    Span names follow the ``src/repro`` module that owns the callable.
    Scheduler and monitor hooks are wrapped on every class that defines
    them, so overriding subclasses (the Kyoto schedulers, the resilient
    monitor chain) nest spans of the same layer; self time keeps each
    layer's share exact.
    """
    from repro.cachesim.occupancy import LlcOccupancyDomain
    from repro.core.engine import KyotoEngine
    from repro.core.monitor import PollutionMonitor
    from repro.core.pollution import PollutionAccount
    from repro.experiments import campaign
    from repro.hypervisor.system import VirtualizedSystem
    from repro.partitioning.static import PartitionedLlcDomain
    from repro.scenario.materialize import materialize
    from repro.schedulers.base import Scheduler
    from repro.service import ServiceLoop
    from repro.telemetry import MetricsRecorder, StreamingSink

    for cls in _subclasses(Scheduler):
        tracer.span_method(cls, "on_tick_start", "schedulers.tick_start")
        tracer.span_method(cls, "refill_core", "schedulers.tick_start")
        tracer.span_method(cls, "on_tick_end", "schedulers.tick_end")
        tracer.span_method(cls, "on_accounting", "schedulers.accounting")
    tracer.span_method(KyotoEngine, "on_tick_end", "core.kyoto_tick_end")
    tracer.span_method(KyotoEngine, "on_accounting", "core.kyoto_accounting")
    for cls in _subclasses(PollutionMonitor):
        tracer.span_method(cls, "sample", "core.monitor_sample")
    tracer.count_truthy(PollutionAccount, "debit", "core.punishments")
    # Page colouring swaps in a partitioned domain that is not an
    # LlcOccupancyDomain subclass; its relax is the same layer.
    for cls in [LlcOccupancyDomain, PartitionedLlcDomain]:
        tracer.span_method(cls, "relax", "cachesim.relax")
    for attr in ("run_ticks", "run_ticks_until", "run_until_finished"):
        tracer.span_method(VirtualizedSystem, attr, "hypervisor.execute")
    tracer.span_method(VirtualizedSystem, "context_switch", "hypervisor.context_switch")
    tracer.span_method(VirtualizedSystem, "admit_vm", "hypervisor.admit")
    tracer.span_method(VirtualizedSystem, "retire_vm", "hypervisor.retire")
    tracer.span_method(ServiceLoop, "run", "service.loop")
    tracer.span_method(MetricsRecorder, "record", "telemetry.record")
    tracer.span_method(MetricsRecorder, "compact_retired_series", "telemetry.compact")
    tracer.span_method(StreamingSink, "append", "telemetry.stream_append")
    tracer.span_method(StreamingSink, "flush_series", "telemetry.stream_append")
    tracer.span_method(StreamingSink, "close", "telemetry.stream_close")
    tracer.span_function(materialize, "scenario.materialize")
    tracer.span_function(campaign.run_one, "experiments.run_one")
    tracer.span_function(campaign.run_campaign, "experiments.campaign")
    tracer.active = True


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found
