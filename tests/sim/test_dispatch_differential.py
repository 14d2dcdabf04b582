"""Differential dispatch-order test for every ``Environment.run`` loop.

The golden traces attach an :class:`~repro.sim.tracing.EnvironmentTracer`,
so they only ever exercise the *observed* loop. This test pins the
unobserved one — the loop every benchmark and experiment runs — by
running small random programs through each way of driving the kernel
and comparing the ``(now, tag)`` callback logs against a one-event-at-
a-time :meth:`~repro.sim.Environment.step` loop:

- ``run()`` to exhaustion;
- ``run(until=t)`` sliced at random deadlines, including deadlines equal
  to event times, then ``run()`` for the rest;
- ``run(until=event)`` on a chosen event and on the last one to fire,
  then ``run()`` for the rest;

each with and without a no-op observer. The programs mix timeouts on
colliding times (heap cohorts), zero-delay ``succeed`` chains (immediate-
lane cohorts), processes that spawn and join processes, waits on shared
events (several callbacks per event), caught failures, and ``all_of`` /
``any_of`` joins.
"""

from __future__ import annotations

import typing

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim import Environment

#: Few distinct delays, so event times collide often.
DELAYS = (0.0, 0.5, 1.0, 2.0)
#: Slice deadlines: every reachable event time on the 0.5 grid, plus
#: off-grid points between them.
BOUNDARIES = tuple(x / 4 for x in range(0, 41))

delays = st.sampled_from(DELAYS)
delay_lists = st.lists(delays, max_size=3)

leaf_step = st.one_of(
    st.tuples(st.just("wait"), delays),
    st.tuples(st.just("all_of"), delay_lists),
    st.tuples(st.just("any_of"), delay_lists.filter(bool)),
    st.tuples(st.just("chain"), st.integers(1, 3)),
    st.tuples(st.just("await"), st.integers(0, 7)),
    st.tuples(st.just("catch"), st.none()),
)
leaf_script = st.lists(leaf_step, max_size=4)
step = st.one_of(
    leaf_step,
    st.tuples(st.just("spawn"), leaf_script),
    st.tuples(st.just("join"), leaf_script),
)
op = st.one_of(
    st.tuples(st.just("timeout"), delays),
    st.tuples(st.just("chain"), st.integers(1, 4)),
    st.tuples(st.just("process"), st.lists(step, max_size=5)),
    st.tuples(st.just("all_of"), delay_lists),
    st.tuples(st.just("any_of"), delay_lists.filter(bool)),
)
programs = st.lists(op, min_size=1, max_size=8)


class Program:
    """One program built on a fresh environment, logging every dispatch."""

    def __init__(self, ops: list, observed: bool):
        self.env = env = Environment()
        self.log: typing.List[typing.Tuple[float, str]] = []
        self.observed = observed
        #: Top-level timeouts, awaited by processes' ``await`` steps.
        self.shared: list = []
        #: Every top-level event, in creation order (``until`` targets).
        self.events: list = []
        for index, (kind, arg) in enumerate(ops):
            tag = f"op{index}"
            if kind == "timeout":
                event = env.timeout(arg, tag)
                self.shared.append(event)
            elif kind == "chain":
                event = self._chain(tag, arg)
            elif kind == "process":
                event = env.process(self._process(tag, arg))
            elif kind == "all_of":
                event = env.all_of([env.timeout(d) for d in arg])
            else:
                event = env.any_of([env.timeout(d) for d in arg])
            self._tag(event, tag)
            self.events.append(event)

    def _tag(self, event, tag: str) -> None:
        event.callbacks.append(lambda e: self.log.append((self.env.now, tag)))

    def _chain(self, tag: str, length: int):
        """A zero-delay ``succeed`` chain: each link triggers the next."""
        env = self.env

        def link(index: int):
            def fire(event):
                self.log.append((env.now, f"{tag}.{index}"))
                if index + 1 < length:
                    successor = env.event()
                    successor.callbacks.append(link(index + 1))
                    successor.succeed()

            return fire

        first = env.event()
        first.callbacks.append(link(0))
        return first.succeed()

    def _process(self, tag: str, script: list):
        env = self.env
        self.log.append((env.now, f"{tag}:start"))
        for index, (kind, arg) in enumerate(script):
            name = f"{tag}.{index}"
            if kind == "wait":
                yield env.timeout(arg)
            elif kind == "all_of":
                yield env.all_of([env.timeout(d) for d in arg])
            elif kind == "any_of":
                yield env.any_of([env.timeout(d) for d in arg])
            elif kind == "chain":
                yield self._chain(name, arg)
            elif kind == "await":
                if self.shared:
                    yield self.shared[arg % len(self.shared)]
            elif kind == "catch":
                failing = env.event()
                failing.fail(RuntimeError(name))
                try:
                    yield failing
                except RuntimeError:
                    pass
            elif kind == "spawn":
                env.process(self._process(name, arg))
            else:
                yield env.process(self._process(name, arg))
            self.log.append((env.now, name))
        return tag

    def run(self, until=None):
        if not self.observed:
            return self.env.run(until)
        observer = _noop
        self.env.add_observer(observer)
        try:
            return self.env.run(until)
        finally:
            self.env.remove_observer(observer)


def _noop(event) -> None:
    pass


def _reference(ops: list) -> typing.Tuple[list, list]:
    """The one-event-at-a-time log of a :meth:`Environment.step` loop,
    and for each top-level event the log length once it was dispatched."""
    program = Program(ops, observed=False)
    env = program.env
    cuts: list = [None] * len(ops)
    while env.peek() != float("inf"):
        env.step()
        for index, event in enumerate(program.events):
            if cuts[index] is None and event.processed:
                cuts[index] = len(program.log)
    return program.log, cuts


@settings(max_examples=150, deadline=None)
@given(
    ops=programs,
    boundaries=st.lists(st.sampled_from(BOUNDARIES), max_size=5).map(sorted),
    target=st.integers(0, 7),
)
def test_every_run_mode_matches_step_order(ops, boundaries, target):
    reference, cuts = _reference(ops)
    last = max(range(len(ops)), key=cuts.__getitem__)
    for observed in (False, True):
        mode = "observed" if observed else "unobserved"

        program = Program(ops, observed)
        program.run()
        assert program.log == reference, f"{mode} run()"

        program = Program(ops, observed)
        for deadline in boundaries:
            program.run(until=deadline)
            assert program.env.now == deadline
            # Everything at or before the deadline ran, nothing after.
            expected = [entry for entry in reference if entry[0] <= deadline]
            assert program.log == expected, f"{mode} run(until={deadline})"
        program.run()
        assert program.log == reference, f"{mode} sliced at {boundaries}"

        for index in (target % len(ops), last):
            program = Program(ops, observed)
            stop = program.events[index]
            assert program.run(until=stop) == stop.value
            # Stopped right after the target's dispatch, mid-cohort or not.
            assert program.log == reference[: cuts[index]], (
                f"{mode} run(until=op{index})"
            )
            program.run()
            assert program.log == reference, f"{mode} resumed after op{index}"
