"""The simulation environment: clock, event schedule, and run loop.

The schedule has two lanes ordered by one global ``(time, seq)`` key:

- a **heap** for events scheduled into the future (positive delays), and
- an **immediate deque** for events scheduled *at the current time* —
  ``succeed``/``fail``, zero-delay timeouts, and process kickoffs, which
  together are the majority of all schedules in an array simulation.

Immediate entries are appended in ``seq`` order at the then-current
time, and time never moves backwards, so the deque is always sorted and
its head is its minimum; dispatch takes whichever lane holds the
smaller ``(time, seq)`` key. Because every immediate entry's time is
``now`` and its seq is implied by append order, the lane stores **bare
event objects** — no key tuples at all — and the lane comparison
"``heap[0] < imm[0]``" reduces to ``heap[0][0] <= now`` (a heap entry
at ``now`` always carries a smaller seq; see invariant 2 below). That
makes the common zero-delay schedule an O(1) allocation-free append and
its dispatch an O(1) popleft — instead of two O(log n) sift passes
through the heap — while dispatch order stays exactly what a single
heap would produce.

Cohort-batched dispatch
-----------------------
:meth:`Environment.run` drains every event sharing the next time
instant into one *cohort* and dispatches it through a single loop,
amortizing the per-event lane bookkeeping (lane choice, heap/deque
pops, clock writes) that otherwise dominates bursty workloads —
parallel stripe-unit accesses completing together, fan-out process
kickoffs, zero-delay hand-off storms.

Why the cohort order equals the one-at-a-time order, exactly:

1. While the immediate deque is non-empty, every entry in it carries
   ``time == now`` (entries are appended at the then-current time, and
   the run loop never advances the clock past a non-empty deque), and
   the deque is in ascending ``seq`` order.
2. A heap entry at ``time == now`` was necessarily pushed *before*
   ``now`` was reached (a push at ``now`` itself requires a positive
   delay and therefore lands strictly later), so its ``seq`` is smaller
   than that of every immediate entry, all of which were appended *at*
   ``now``.
3. Events created by cohort callbacks enter the immediate lane with
   ``seq`` values larger than every cohort member's, or enter the heap
   strictly later than ``now`` — nothing that appears mid-dispatch can
   sort before a not-yet-dispatched cohort member.

(1) and (2) make "pop every heap entry at ``now``, then extend with the
immediate deque" an ascending-``seq`` sequence without sorting; (3)
makes eager collection safe. Bit-identical ordering is pinned by
``tests/integration/test_golden_trace.py``.

Mid-cohort control flow keeps the one-at-a-time semantics: an escaping
exception (or an ``until=event`` stop) requeues the undispatched
remainder at the *front* of the immediate lane — where those entries
would still have been had they never been collected — and ``close()``
drops the remainder, exactly as it clears the lanes.

Hot-path notes: :meth:`Environment.run` has one unobserved loop for
all three ``until`` modes — ``until`` becomes a stop event and a
deadline, so the loop carries no per-mode copies. It is the most
executed code in the project, so it reads event state through the
``_state``/``_exception`` slots directly and inlines singleton dispatch
(a cohort of one — the common case for heap-paced workloads) without
building a list: one inlined body per lane, plus
:meth:`Environment._dispatch_cohort` for cohorts. The differential
test ``tests/sim/test_dispatch_differential.py`` pins this loop against
:meth:`Environment.step`.
Observation hooks: :meth:`Environment.add_observer` registers a
per-dispatch callback used by the tracing subsystem
(:class:`~repro.sim.tracing.EnvironmentTracer`); observed runs go
through one observed loop over the same cohort collection, so traces
record the exact production dispatch order. The class deliberately has
**no** ``__slots__``.
"""

from __future__ import annotations

import typing
from collections import deque
from heapq import heappop, heappush

from repro.sim.events import PROCESSED, AllOf, AnyOf, Event, SimulationError, Timeout
from repro.sim.process import GeneratorType, Process


class Environment:
    """Coordinates simulated time and event dispatch.

    Time is a float in **milliseconds** by convention throughout this
    project (disk service times are naturally expressed in ms), though
    the kernel itself is unit-agnostic.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = initial_time
        self._heap: list = []
        #: Events scheduled at the current instant, in FIFO (= seq)
        #: order. Bare event objects — conceptually each entry's key is
        #: (now, its seq), but since every entry is at ``now`` and the
        #: deque preserves append order, the keys are redundant and no
        #: tuple is allocated (see the module docstring).
        self._imm: typing.Deque = deque()
        #: Pre-bound ``self._imm.append`` — one attribute lookup instead
        #: of two on every zero-delay schedule (``close()`` clears the
        #: deque in place, so the binding never goes stale).
        self._imm_append = self._imm.append
        self._seq = 0  # tie-breaker keeps FIFO order among same-time events
        self._closed = False
        #: Per-dispatch observers (see :meth:`add_observer`). Kept out
        #: of the uninstrumented hot loop entirely: ``run()`` switches
        #: to the observed cohort loop only while this list is non-empty.
        self._observers: list = []

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event, to be succeeded/failed by user code."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: GeneratorType, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """An event firing once every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """An event firing once any event in ``events`` has fired."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and the run loop
    # ------------------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Queue a triggered event for callback dispatch after ``delay``.

        Zero-delay schedules take the immediate lane (see the module
        docstring); both lanes share the ``(time, seq)`` key space, so
        the split never reorders dispatch.
        """
        if self._closed:
            raise SimulationError("cannot schedule on a closed environment")
        if delay:
            if delay < 0:
                raise SimulationError(f"cannot schedule into the past (delay={delay})")
            heappush(self._heap, (self._now + delay, self._seq, event))
        else:
            # The immediate lane stores bare events: every entry is at
            # the current time in append (= seq) order, so the deque's
            # FIFO order *is* the (time, seq) order and no key tuple is
            # needed (see the module docstring).
            self._imm_append(event)
        self._seq += 1

    def close(self) -> None:
        """Shut the environment down: drop pending events, refuse new ones.

        After ``close()`` any attempt to schedule — including the
        :class:`~repro.sim.events.Timeout` fast path — raises
        :class:`SimulationError`. Used when a scenario ends mid-flight
        (e.g. a mission deadline) and stray completions must not fire.
        Closing from inside a callback also drops the undispatched
        remainder of the current same-instant cohort.
        """
        self._closed = True
        self._heap.clear()
        self._imm.clear()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def add_observer(self, observer: typing.Callable[[Event], None]) -> None:
        """Register a per-dispatch hook, called as ``observer(event)``.

        The hook runs after the event's callbacks have completed and
        only when dispatch did not raise, exactly as :meth:`step`
        calls it. Observers stack; remove them in reverse attach order
        via :meth:`remove_observer`. While any observer is attached,
        :meth:`run` dispatches through the observed cohort loop instead
        of the inlined fast loop, so observers add zero cost to
        unobserved runs.
        """
        self._observers.append(observer)

    def remove_observer(self, observer: typing.Callable[[Event], None]) -> None:
        """Unregister the most recently attached observer.

        Raises
        ------
        RuntimeError
            If ``observer`` is not the most recently attached one —
            observers must be removed in reverse attach order, exactly
            once. Removing blindly out of order would silently detach a
            live observer or "remove" one that is already gone.
        """
        if not self._observers or self._observers[-1] is not observer:
            raise RuntimeError(
                "cannot remove observer: not the most recently attached "
                "(observers must be removed in reverse attach order, "
                "exactly once)"
            )
        self._observers.pop()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none.

        A non-empty immediate lane always means "an event at ``now``"
        unless the heap holds an even-earlier entry (only possible
        after external interleaving — see :meth:`_merge_instant`).
        """
        heap = self._heap
        if self._imm:
            now = self._now
            if heap and heap[0][0] < now:
                return heap[0][0]
            return now
        return heap[0][0] if heap else float("inf")

    def step(self) -> None:
        """Advance to the next event and run its callbacks."""
        imm = self._imm
        heap = self._heap
        if imm:
            # Heap entries at `now` carry smaller seqs than every
            # immediate entry (module docstring, invariant 2), so the
            # heap goes first whenever its head time is <= now — the
            # exact condition `heap[0] < (now, imm-head seq)` reduces to.
            if heap and heap[0][0] <= self._now:
                when, _seq, event = heappop(heap)
                self._now = when
            else:
                event = imm.popleft()
        elif heap:
            when, _seq, event = heappop(heap)
            self._now = when
        else:
            raise SimulationError("step() on an empty schedule")
        event._run_callbacks()
        if event._exception is not None and not event.defused:
            raise event._exception
        for observe in self._observers:
            observe(event)

    # ------------------------------------------------------------------
    # Cohort collection and dispatch
    # ------------------------------------------------------------------
    def _merge_instant(self) -> list:
        """Collect the cohort when the heap holds entries at ``now``.

        Only reachable when the immediate deque is non-empty *and* the
        heap head shares its time — which, per the ordering proof in
        the module docstring, means the heap entries carry smaller
        ``seq`` values than every immediate entry. Normal ``run()``
        loops drain heap-at-now entries into the cohort before any
        immediate entry can exist at that instant, so this path only
        fires when dispatch was interleaved externally (a manual
        ``step()`` between ``run()`` calls, a requeue after an
        exception).
        """
        heap = self._heap
        imm = self._imm
        now = self._now
        cohort = []
        # Exact float equality is the contract here: cohort membership
        # means *the same* (bit-identical) time key, never "close to".
        # Heap pops come out in ascending (time, seq); all their seqs
        # precede every immediate entry's (module docstring, invariant
        # 2), so appending the lanes in this order is already the exact
        # dispatch order.
        while heap and heap[0][0] == now:  # simlint: disable=TIME001 (cohort = identical time key, not a tolerance comparison)
            cohort.append(heappop(heap)[2])
        cohort.extend(imm)
        imm.clear()
        return cohort

    def _requeue_after(self, cohort: list, event) -> None:
        """Return cohort members after ``event`` to the schedule.

        Used when dispatch stops mid-cohort (escaping exception,
        ``until=event`` satisfied). The remainder goes to the *front*
        of the immediate lane: every member is at ``time == now`` and
        precedes anything callbacks appended during the cohort, so the
        deque stays in dispatch order. No-op on a closed environment —
        ``close()`` drops pending events.
        """
        if self._closed:
            return
        index = cohort.index(event)
        rest = cohort[index + 1:]
        if rest:
            self._imm.extendleft(reversed(rest))

    def _dispatch_cohort(self, cohort: list, stop_on: typing.Optional[Event]) -> None:
        """Dispatch a same-instant cohort in ascending ``seq`` order.

        Stops after ``stop_on`` (the ``until`` event, or ``None``) fires,
        requeueing the undispatched remainder so a later ``run()``
        resumes exactly where this one stopped. The per-event body must
        stay semantically identical to ``Event._run_callbacks`` plus the
        exception check in :meth:`step` — keep them in sync.
        """
        processed = PROCESSED
        event = None
        try:
            for event in cohort:
                event._state = processed
                callbacks = event._callbacks
                if callbacks:
                    event._callbacks = None
                    if len(callbacks) == 1:  # one waiter is the common case
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if event._exception is not None and not event.defused:
                        raise event._exception
                    # `close()` can only be reached from inside a
                    # callback, so the flag needs checking only here —
                    # waiterless events skip the load entirely.
                    if self._closed:
                        return
                elif event._exception is not None and not event.defused:
                    raise event._exception
                if event is stop_on:
                    self._requeue_after(cohort, event)
                    return
        except BaseException:
            self._requeue_after(cohort, event)
            raise

    def run(self, until: typing.Union[None, float, Event] = None) -> object:
        """Run until the schedule drains, a deadline, or an event fires.

        Parameters
        ----------
        until:
            ``None`` runs until no events remain. A number runs until the
            clock reaches that time. An :class:`Event` runs until that
            event has fired, returning its value.

        All three modes share one loop: ``until`` becomes a stop event
        (``stop_on``) and a ``deadline`` (``inf`` unless ``until`` is a
        number). The deadline is tested only when a heap entry is
        popped — immediate entries sit at ``now``, which never exceeds
        it. When no observer is attached, the loop inlines singleton
        dispatch (the body of :meth:`step`) for each lane and batches
        same-instant events into cohorts (see the module docstring) —
        one method call per event is the dominant fixed cost of the
        kernel. The two inlined bodies must stay semantically identical
        to ``step()``; an observer attached *mid-run* (no current
        caller does this) only takes effect on the next ``run()`` call.
        """
        stop_on: typing.Optional[Event] = None
        deadline = float("inf")
        if isinstance(until, Event):
            stop_on = until
        elif until is not None:
            deadline = float(until)
            # `not >=` rather than `<`, so a NaN deadline is rejected too.
            if not deadline >= self._now:
                raise SimulationError(
                    f"run(until={deadline}) is in the past (now={self._now})"
                )
        if self._observers:
            self._run_observed(stop_on, deadline)
        else:
            heap = self._heap
            imm = self._imm
            pop = heappop
            popleft = imm.popleft
            processed = PROCESSED
            while stop_on is None or stop_on._state != processed:
                # Immediate entries carry when == self._now (they drain
                # before time can advance — see the module docstring),
                # so the deque branches skip the clock write.
                if imm:
                    if heap and heap[0][0] <= self._now:
                        cohort = self._merge_instant()
                    elif len(imm) == 1:
                        event = popleft()
                        event._state = processed
                        callbacks = event._callbacks
                        if callbacks:
                            event._callbacks = None
                            if len(callbacks) == 1:  # one waiter is the common case
                                callbacks[0](event)
                            else:
                                for callback in callbacks:
                                    callback(event)
                        if event._exception is not None and not event.defused:
                            raise event._exception
                        continue
                    else:
                        cohort = list(imm)
                        imm.clear()
                elif heap:
                    if heap[0][0] > deadline:
                        break
                    when, _seq, event = pop(heap)
                    self._now = when
                    if heap and heap[0][0] == when:
                        # Cohort members share `when`, so the deadline
                        # check on the first entry covers them all.
                        cohort = [event]
                        while heap and heap[0][0] == when:
                            cohort.append(pop(heap)[2])
                    else:
                        event._state = processed
                        callbacks = event._callbacks
                        if callbacks:
                            event._callbacks = None
                            if len(callbacks) == 1:  # one waiter is the common case
                                callbacks[0](event)
                            else:
                                for callback in callbacks:
                                    callback(event)
                        if event._exception is not None and not event.defused:
                            raise event._exception
                        continue
                elif stop_on is not None:
                    raise SimulationError("schedule drained before `until` event fired")
                else:
                    break
                self._dispatch_cohort(cohort, stop_on)
        if stop_on is not None:
            return stop_on.value
        if until is not None:
            self._now = deadline
        return None

    def _next_cohort(self, deadline: float) -> typing.Optional[list]:
        """Pop every event at the next instant, in dispatch order.

        Returns ``None`` when the schedule is empty or the next instant
        lies beyond ``deadline``. Advances the clock when the cohort
        comes off the heap.
        """
        imm = self._imm
        heap = self._heap
        if imm:
            if heap and heap[0][0] <= self._now:
                return self._merge_instant()
            cohort = list(imm)
            imm.clear()
            return cohort
        if heap:
            when = heap[0][0]
            if when > deadline:
                return None
            cohort = [heappop(heap)[2]]
            while heap and heap[0][0] == when:
                cohort.append(heappop(heap)[2])
            self._now = when
            return cohort
        return None

    def _run_observed(self, stop_on: typing.Optional[Event], deadline: float) -> None:
        """:meth:`run`'s loop with per-event observer notification.

        Uses the same cohort collection as the inlined fast loop, so
        observers (tracers) record the exact production dispatch order.
        """
        while stop_on is None or stop_on._state != PROCESSED:
            cohort = self._next_cohort(deadline)
            if cohort is None:
                if stop_on is not None:
                    raise SimulationError("schedule drained before `until` event fired")
                return
            event = None
            try:
                for event in cohort:
                    event._run_callbacks()
                    if event._exception is not None and not event.defused:
                        raise event._exception
                    for observe in self._observers:
                        observe(event)
                    if event is stop_on:
                        self._requeue_after(cohort, event)
                        return
                    if self._closed:
                        break
            except BaseException:
                self._requeue_after(cohort, event)
                raise
