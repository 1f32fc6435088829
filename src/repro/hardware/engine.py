"""Discrete-event simulation core.

Time is measured in integer CE instruction cycles (170 ns each).  Components
schedule callbacks at absolute cycles; ties are broken by scheduling order so
runs are deterministic.

The dispatch loop drains every event sharing the current cycle in one heap
pass before dispatching the batch, and fast-forwards the clock over idle
gaps (counting the skipped cycles).  Batching is order-preserving because
any event a callback schedules draws a later sequence number than
everything already popped, so dispatching the batch front-to-back and then
re-draining the heap is exactly heap order.

Idle fast-forward relies on one invariant: **no component mutates simulation
state off-queue**.  All state changes happen inside event callbacks (or
before ``run()`` starts), so cycles with no queued event are provably inert
and the clock can jump straight to the next event.  :meth:`Engine.schedule`
enforces the schedulable half of that contract: scheduling while a run is in
progress is only legal from within a dispatching callback.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional

from repro.errors import SimulationError
from repro.hardware import sanitize

Callback = Callable[[], None]


def _cancelled() -> None:
    """Dispatch target of a cancelled recurring occurrence (a no-op).

    The dead heap entry cannot be removed from the middle of the heap, so
    it is neutralized in place and dispatched as an inert event, counted
    like any other.
    """

#: Heap entries are mutable ``[cycle, sequence, callback]`` triples so that
#: :class:`RecurringEvent` can re-arm by rewriting its one entry in place.
Entry = list


class RecurringEvent:
    """A re-armable periodic event that reuses a single heap entry.

    Components with a fixed cadence (the PFU's one-request-per-cycle issue
    engine, clocked ports) re-arm from inside their own callback instead of
    paying :meth:`Engine.schedule` validation plus a fresh entry allocation
    per occurrence.  Each occurrence still draws a fresh sequence number, so
    tie order against ordinary events is identical to plain scheduling.
    """

    __slots__ = ("_engine", "interval", "callback", "_entry", "_pending")

    def __init__(self, engine: "Engine", interval: int, callback: Callback) -> None:
        if not isinstance(interval, int) or isinstance(interval, bool) or interval < 0:
            raise SimulationError(
                f"recurring interval must be an int >= 0, got {interval!r}"
            )
        self._engine = engine
        self.interval = interval
        self.callback = callback
        self._entry: Entry = [0, 0, self._fire]
        self._pending = False

    @property
    def pending(self) -> bool:
        """True while the next occurrence sits in the event queue."""
        return self._pending

    def _fire(self) -> None:
        self._pending = False
        self.callback()

    def schedule(self) -> None:
        """Arm the next occurrence ``interval`` cycles from now.

        The heap entry is physically in the queue while pending, so
        re-arming before the previous occurrence fired would corrupt the
        heap; that is rejected rather than silently mis-ordered.
        """
        if self._pending:
            raise SimulationError(
                "recurring event re-armed while an occurrence is still pending"
            )
        engine = self._engine
        if engine._sanitizer is not None:
            engine._sanitizer.check_schedule_call(
                engine, self.interval, "engine.recurring"
            )
        entry = self._entry
        entry[0] = engine._now + self.interval
        entry[1] = next(engine._sequence)
        self._pending = True
        heapq.heappush(engine._queue, entry)

    def cancel(self) -> None:
        """Cancel the pending occurrence (a no-op when none is pending).

        The in-queue entry cannot be cheaply removed from the heap, so it
        is neutralized in place (its callback slot becomes inert) and
        *detached*: a subsequent :meth:`schedule` arms a fresh entry,
        never rewriting the dead one still sitting in the queue.  The dead
        entry is dispatched as an inert event when its cycle comes.
        """
        if not self._pending:
            return
        self._entry[2] = _cancelled
        self._entry = [0, 0, self._fire]
        self._pending = False


class Engine:
    """A deterministic event queue over an integer cycle clock."""

    def __init__(self) -> None:
        self._queue: List[Entry] = []
        self._sequence = itertools.count()
        self._now = 0
        self._running = False
        self._in_dispatch = False
        self._run_dispatched = 0
        self._run_skipped = 0
        #: Armed invariant checker or None (see repro.hardware.sanitize).
        self._sanitizer = sanitize.current()
        #: Total events dispatched over this engine's lifetime.
        self.events_dispatched = 0
        #: Cycles the clock jumped over because no event was queued in them.
        self.idle_cycles_skipped = 0
        #: Optional enabled :class:`repro.trace.Tracer`; set by the machine.
        #: Dispatch totals are counted per run() so the per-event cost of
        #: instrumentation is zero.
        self.tracer = None

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def schedule(self, delay: int, callback: Callback) -> None:
        """Run ``callback`` ``delay`` cycles from now (integral delay >= 0).

        Integral floats (``5.0``) are coerced to int; non-integral delays
        raise, because events drifting off the integer cycle clock would
        break the sequence-number tie order that makes runs deterministic.
        """
        if type(delay) is not int:
            delay = _coerce_delay(delay)
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if self._running and not self._in_dispatch:
            raise SimulationError(
                "schedule() outside an event callback while the engine is "
                "running; components must not mutate simulation state "
                "off-queue (the idle fast-forward invariant, see DESIGN.md)"
            )
        heapq.heappush(
            self._queue, [self._now + delay, next(self._sequence), callback]
        )

    def schedule_after(self, delay: int, callback: Callback) -> None:
        """:meth:`schedule` minus validation, for dispatch-critical callers.

        ``delay`` MUST be a non-negative int the caller has already
        validated (a constant, or arithmetic over validated ints); hot
        components (crossbar transfers, memory service completions) use
        this to skip the per-call checks.  The sanitizer re-arms exactly
        those checks, so ``--sanitize`` runs catch a caller breaking the
        contract.
        """
        if self._sanitizer is not None:
            self._sanitizer.check_schedule_call(self, delay, "engine.schedule_after")
        heapq.heappush(
            self._queue, [self._now + delay, next(self._sequence), callback]
        )

    def schedule_at(self, cycle: int, callback: Callback) -> None:
        """Run ``callback`` at absolute time ``cycle``."""
        self.schedule(cycle - self._now, callback)

    def recurring(self, interval: int, callback: Callback) -> RecurringEvent:
        """A reusable periodic event; see :class:`RecurringEvent`."""
        return RecurringEvent(self, interval, callback)

    def pending(self) -> int:
        """Number of events not yet dispatched."""
        return len(self._queue)

    def run(self, until: Optional[int] = None, max_events: int = 50_000_000) -> int:
        """Dispatch events in time order.

        Args:
            until: Stop once the clock would pass this cycle (events at
                exactly ``until`` still run).  ``None`` runs to exhaustion.
            max_events: Safety valve against runaway simulations.

        Returns:
            The simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._run_dispatched = 0
        self._run_skipped = 0
        try:
            return self._dispatch(until, max_events)
        finally:
            self._running = False
            dispatched = self._run_dispatched
            self.events_dispatched += dispatched
            self.idle_cycles_skipped += self._run_skipped
            if self.tracer is not None:
                self.tracer.count("engine", "events_dispatched", dispatched)
                self.tracer.count("engine", "runs")
                if self._run_skipped:
                    self.tracer.count(
                        "engine", "idle_cycles_skipped", self._run_skipped
                    )

    def _dispatch(self, until: Optional[int], max_events: int) -> int:
        """Batched dispatch: drain each cycle's events in one heap pass."""
        queue = self._queue
        pop = heapq.heappop
        push = heapq.heappush
        batch: List[Entry] = []
        append = batch.append
        dispatched = 0
        now = self._now
        sanitizer = self._sanitizer
        self._in_dispatch = True
        try:
            while queue:
                time = queue[0][0]
                if time != now:
                    if sanitizer is not None:
                        sanitizer.check_clock_advance(self, time, now)
                    if until is not None and time > until:
                        now = until
                        break
                    if time - now > 1:
                        # Idle fast-forward: nothing is queued in the gap and
                        # nothing mutates state off-queue, so jump the clock.
                        self._run_skipped += time - now - 1
                    now = time
                if dispatched >= max_events:
                    # self._now still holds the last dispatched cycle.
                    raise SimulationError(
                        f"exceeded {max_events} events at cycle {self._now}; "
                        f"simulation is runaway"
                    )
                self._now = now
                entry = pop(queue)
                if not queue or queue[0][0] != time:
                    # Singleton cycle: dispatch without batch bookkeeping.
                    # Counted before the call so an aborted run accounts the
                    # raising event exactly like the batched path below.
                    dispatched += 1
                    entry[2]()
                    continue
                del batch[:]
                append(entry)
                budget = max_events - dispatched - 1
                while budget and queue and queue[0][0] == time:
                    append(pop(queue))
                    budget -= 1
                index = 0
                try:
                    for entry in batch:
                        entry[2]()
                        index += 1
                except BaseException:
                    # Keep undispatched same-cycle events in the queue so an
                    # aborted run leaves them for the next run().
                    for entry in batch[index + 1:]:
                        push(queue, entry)
                    dispatched += index + 1
                    raise
                dispatched += index
            else:
                if until is not None and until > now:
                    now = until
            self._now = now
            return now
        finally:
            self._in_dispatch = False
            self._run_dispatched = dispatched

    def run_until_idle(self) -> int:
        """Run until no events remain; returns the final time."""
        return self.run(until=None)


def _coerce_delay(delay: object) -> int:
    if isinstance(delay, bool):
        raise SimulationError(f"delay must be a cycle count, got {delay!r}")
    if isinstance(delay, int):
        return int(delay)
    if isinstance(delay, float) and delay.is_integer():
        return int(delay)
    raise SimulationError(
        f"delay must be an integral number of cycles, got {delay!r}; "
        f"fractional delays drift events off the integer cycle clock"
    )
