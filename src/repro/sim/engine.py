"""Discrete-event core: event queue, bandwidth-limited links, clock ratios.

The simulator is cycle-granular in the *SM clock domain* (700 MHz).  Latency
and bandwidth of slower/faster domains (NSU at half rate, DRAM at ~1.05x,
crossbar at 1.79x) are expressed by converting to SM cycles; components that
issue work every cycle of their own domain use a :class:`RateAccumulator`.

Links model serialization honestly: a packet of ``size`` bytes occupies the
link for ``ceil(size / bytes_per_cycle)`` cycles and is delivered after an
additional fixed propagation latency.  Queueing is implicit in the
``busy_until`` horizon (an infinite-queue, finite-rate server), which is the
standard first-order model for serdes links; finite NDP buffers -- the ones
the paper's deadlock-avoidance protocol manages -- are modelled explicitly in
:mod:`repro.core`.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

#: Sentinel for "no argument bound" in an event entry.  Distinct from
#: ``None`` so callbacks may legitimately receive ``None``.
_NOARG = object()


class Engine:
    """An integer-time event queue: one FIFO list per due cycle.

    Components call :meth:`at` / :meth:`after` to schedule callbacks; the
    system driver interleaves :meth:`process_due` with per-cycle component
    ticks and may fast-forward over idle regions with :meth:`next_event_time`.

    Each due cycle maps to a list of ``(fn, a, b)`` entries in scheduling
    order, and a heap holds each due cycle once, so only the first event
    of a cycle pays a heap push (most events join a cycle that is already
    open).  :meth:`process_due` runs the due lists in cycle order; an
    ``at(now)`` made by a callback joins the end of the list for ``now``,
    after every event already due.  That is exactly the ``(time, seq)``
    order of a single heap, without sequence numbers.

    Hot callers avoid per-event closure allocation with
    :meth:`call_at` / :meth:`call_after`, which bind up to two positional
    arguments into the event entry.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._due: dict[int, list[tuple]] = {}
        self._times: list[int] = []    # heap of the keys of ``_due``
        self.events_processed = 0
        self.calendar_events = 0       # joined an open cycle: no heap push
        self.subcycle_delays = 0

    # -- scheduling ----------------------------------------------------------

    def _ceil_delay(self, delay: float) -> int:
        if delay <= 0:
            raise ValueError(
                f"after() requires a positive delay, got {delay!r}; "
                "use at(engine.now, fn) for explicit same-cycle scheduling")
        if delay < 1:
            self.subcycle_delays += 1
        return math.ceil(delay)

    def call_at(self, time: int, fn: Callable, a=_NOARG, b=_NOARG) -> None:
        """Schedule ``fn`` to run at absolute cycle ``time``, with up to
        two positional arguments bound into the event entry -- the form
        hot callers use instead of constructing a closure per event."""
        time = int(time)
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        events = self._due.get(time)
        if events is None:
            self._due[time] = [(fn, a, b)]
            heapq.heappush(self._times, time)
        else:
            events.append((fn, a, b))
            self.calendar_events += 1

    def call_after(self, delay: float, fn: Callable, a=_NOARG,
                   b=_NOARG) -> None:
        """Schedule ``fn`` to run ``delay`` cycles from now (ceil'd), with
        arguments bound as in :meth:`call_at`.

        ``delay`` must be positive: a zero (or negative) delay would land
        the callback at ``now``, and whether it still runs this cycle then
        depends on where the caller sits relative to ``process_due`` -- the
        classic double-counting hazard for rate-domain callers converting
        fractional clock ratios.  Same-cycle scheduling must be explicit:
        use ``at(engine.now, fn)``.  Sub-cycle delays (0 < delay < 1) are
        legal and round up to one full cycle, but are counted in
        ``subcycle_delays`` so a misconverted clock ratio surfaces in the
        metrics summary instead of silently compressing to zero latency.
        A whole delay of at least one cycle needs no rounding and is never
        sub-cycle, so only other delays go through that check.
        """
        if delay.__class__ is int and delay >= 1:
            time = self.now + delay
        else:
            time = self.now + self._ceil_delay(delay)
        events = self._due.get(time)
        if events is None:
            self._due[time] = [(fn, a, b)]
            heapq.heappush(self._times, time)
        else:
            events.append((fn, a, b))
            self.calendar_events += 1

    #: The closure forms: ``at(time, fn)`` and ``after(delay, fn)``.
    at = call_at
    after = call_after
    #: Untraced alias for :meth:`Link.send`, so a delivery is not counted
    #: as an engine entry-point call.
    _schedule = call_at

    # -- dispatch ------------------------------------------------------------

    def process_due(self) -> int:
        """Run all events scheduled at or before the current cycle, cycle
        by cycle, each cycle's events in scheduling order."""
        times = self._times
        now = self.now
        due = self._due
        n = 0
        while times and times[0] <= now:
            t = times[0]
            events = due[t]
            # The list stays open while it runs, so an at(now) made by a
            # callback joins its end; list iteration picks it up.
            for fn, a, b in events:
                if a is _NOARG:
                    fn()
                elif b is _NOARG:
                    fn(a)
                else:
                    fn(a, b)
            del due[t]
            heapq.heappop(times)
            n += len(events)
        self.events_processed += n
        return n

    def next_event_time(self) -> int | None:
        return self._times[0] if self._times else None

    @property
    def pending(self) -> int:
        """Scheduled-but-undrained events.  Counting walks the open
        cycles; a per-cycle check asks ``next_event_time() is None``."""
        return sum(map(len, self._due.values()))

    def metrics_snapshot(self) -> dict:
        """Counters/gauges published into the metrics registry.
        ``events_recycled`` stays for the benchmark's reader and is 0:
        nothing is pooled."""
        return {"cycle": self.now, "pending_events": self.pending,
                "events_processed": self.events_processed,
                "events_recycled": 0,
                "calendar_events": self.calendar_events,
                "subcycle_delays": self.subcycle_delays}

    def drain(self) -> None:
        """Advance time event-to-event until the queue is empty (tests)."""
        times = self._times
        while times:
            self.now = max(self.now, times[0])
            self.process_due()


class RateAccumulator:
    """Fractional clock-ratio accumulator.

    ``rate`` is the number of *local* cycles per SM cycle.  Each SM cycle,
    :meth:`step` returns the number of whole local cycles that elapse, so a
    350 MHz NSU (rate 0.5) executes on every other SM cycle and a 1250 MHz
    crossbar (rate ~1.79) gets one or two slots per SM cycle.
    """

    __slots__ = ("rate", "_acc")

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self._acc = 0.0

    def step(self) -> int:
        self._acc += self.rate
        n = int(self._acc)
        self._acc -= n
        return n

    def step_many(self, cycles: int) -> int:
        """Advance ``cycles`` SM cycles at once; returns local cycles elapsed."""
        self._acc += self.rate * cycles
        n = int(self._acc)
        self._acc -= n
        return n


class Link:
    """A unidirectional bandwidth-limited channel.

    ``bytes_sent`` is the traffic/energy accounting: a fabric's total is
    the sum over its links.
    """

    __slots__ = ("engine", "name", "bytes_per_cycle", "latency",
                 "busy_until", "bytes_sent", "packets_sent")

    def __init__(self, engine: Engine, name: str, bytes_per_cycle: float,
                 latency: int = 4) -> None:
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        self.engine = engine
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency
        self.busy_until = 0
        self.bytes_sent = 0
        self.packets_sent = 0

    def send(self, size_bytes: int, deliver: Callable[..., None],
             arg=_NOARG) -> int:
        """Transmit ``size_bytes``; call ``deliver`` on arrival.

        Returns the delivery cycle.  Serialization queues behind earlier
        packets (``busy_until``); propagation latency is added on top.
        ``arg``, when given, is bound into the event entry and passed to
        ``deliver`` -- hot senders use this instead of building
        a closure per packet.
        """
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        engine = self.engine
        start = engine.now
        busy = self.busy_until
        if busy > start:
            start = busy
        busy = self.busy_until = start + math.ceil(
            size_bytes / self.bytes_per_cycle)
        arrival = busy + self.latency
        self.bytes_sent += size_bytes
        self.packets_sent += 1
        engine._schedule(arrival, deliver, arg)
        return arrival

    @property
    def queue_delay(self) -> int:
        """Cycles a packet submitted now would wait before serialization."""
        return max(0, self.busy_until - self.engine.now)

    def utilization(self, elapsed_cycles: int) -> float:
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.bytes_sent / (self.bytes_per_cycle * elapsed_cycles))
