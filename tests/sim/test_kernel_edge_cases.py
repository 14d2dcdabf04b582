"""Edge cases in the kernel that the array stack depends on."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError, Store


class TestConditionEdges:
    def test_any_of_ignores_later_children(self):
        env = Environment()
        late_fired = []
        late = env.timeout(10.0)
        late.callbacks.append(lambda e: late_fired.append(True))

        def body(env):
            yield env.any_of([env.timeout(1.0), late])
            return env.now

        process = env.process(body(env))
        assert env.run(until=process) == 1.0
        env.run()  # the late child still fires harmlessly
        assert late_fired == [True]

    def test_any_of_with_failing_first_child(self):
        env = Environment()

        def failing(env):
            yield env.timeout(1.0)
            raise RuntimeError("early death")

        def body(env):
            try:
                yield env.any_of([env.process(failing(env)), env.timeout(5.0)])
            except RuntimeError:
                return "caught"

        process = env.process(body(env))
        assert env.run(until=process) == "caught"

    def test_nested_conditions(self):
        env = Environment()

        def body(env):
            inner = env.all_of([env.timeout(1.0), env.timeout(2.0)])
            yield env.all_of([inner, env.timeout(3.0)])
            return env.now

        process = env.process(body(env))
        assert env.run(until=process) == 3.0

    def test_condition_over_condition_values(self):
        env = Environment()

        def body(env):
            first = env.timeout(1.0, value="a")
            both = yield env.all_of([first, env.timeout(2.0, value="b")])
            return set(both.values())

        process = env.process(body(env))
        assert env.run(until=process) == {"a", "b"}


class TestInterruptEdges:
    def test_interrupt_while_waiting_on_condition(self):
        env = Environment()
        outcome = []

        def sleeper(env):
            try:
                yield env.all_of([env.timeout(100.0), env.timeout(200.0)])
            except Interrupt:
                outcome.append(env.now)

        process = env.process(sleeper(env))

        def interrupter(env):
            yield env.timeout(5.0)
            process.interrupt()

        env.process(interrupter(env))
        env.run()
        assert outcome == [5.0]

    def test_process_can_continue_after_interrupt(self):
        env = Environment()
        log = []

        def resilient(env):
            try:
                yield env.timeout(100.0)
            except Interrupt:
                log.append("interrupted")
            yield env.timeout(1.0)
            log.append(env.now)

        process = env.process(resilient(env))

        def interrupter(env):
            yield env.timeout(2.0)
            process.interrupt()

        env.process(interrupter(env))
        env.run()
        assert log == ["interrupted", 3.0]


class TestStoreEdges:
    def test_cancelled_getter_is_skipped(self):
        env = Environment()
        store = Store(env)
        abandoned = store.get()
        abandoned.succeed("cancelled-by-user-code")  # caller gave up
        received = []

        def consumer(env):
            item = yield store.get()
            received.append(item)

        env.process(consumer(env))

        def producer(env):
            yield env.timeout(1.0)
            store.put("real-item")

        env.process(producer(env))
        env.run()
        assert received == ["real-item"]

    def test_put_then_many_gets(self):
        env = Environment()
        store = Store(env)
        for i in range(3):
            store.put(i)
        got = []

        def consumer(env):
            while True:
                if len(store) == 0:
                    return
                item = yield store.get()
                got.append(item)

        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2]


class TestSchedulingDiscipline:
    def test_zero_delay_events_run_before_later_ones(self):
        env = Environment()
        order = []

        def body(env):
            order.append("start")
            yield env.timeout(0.0)
            order.append("after-zero")
            yield env.timeout(1.0)
            order.append("after-one")

        env.process(body(env))
        t = env.timeout(0.5)
        t.callbacks.append(lambda e: order.append("half"))
        env.run()
        assert order == ["start", "after-zero", "half", "after-one"]

    def test_failed_event_not_consumed_raises_at_step(self):
        env = Environment()
        env.event().fail(ValueError("nobody listening"))
        with pytest.raises(ValueError):
            env.run()


class TestAnyOfFailureDefusing:
    def test_failing_child_is_defused_and_fails_the_condition(self):
        env = Environment()
        doomed = env.event()

        def bomber(env):
            yield env.timeout(1.0)
            doomed.fail(RuntimeError("child blew up"))

        outcome = []

        def waiter(env):
            try:
                yield env.any_of([doomed, env.timeout(5.0)])
            except RuntimeError as error:
                outcome.append((env.now, str(error)))

        env.process(bomber(env))
        env.process(waiter(env))
        env.run()
        assert outcome == [(1.0, "child blew up")]
        # The losing child was defused when the condition consumed its
        # failure, so the kernel did not re-raise it at dispatch.
        assert doomed.defused

    def test_all_of_failing_child_defuses_too(self):
        env = Environment()
        doomed = env.event()
        caught = []

        def waiter(env):
            try:
                yield env.all_of([env.timeout(1.0), doomed])
            except KeyError:
                caught.append(env.now)

        env.process(waiter(env))
        doomed.fail(KeyError("lost"))
        env.run()
        assert caught == [0.0]
        assert doomed.defused


class TestAllOfZeroEvents:
    def test_fires_immediately_at_current_sim_time(self):
        env = Environment()
        seen = []

        def body(env):
            yield env.timeout(3.5)
            result = yield env.all_of([])
            seen.append((env.now, result))

        env.process(body(env))
        env.run()
        # The empty join fires on the same tick it was created, with an
        # empty value dict — no time may pass.
        assert seen == [(3.5, {})]

    def test_empty_all_of_is_already_triggered(self):
        env = Environment()
        join = env.all_of([])
        assert join.triggered and not join.processed
        env.run()
        assert join.processed and join.value == {}


class TestSameInstantTimeoutFIFO:
    @pytest.mark.parametrize("delay", [0.0, 1.0])
    def test_fifo_across_100_seeded_shuffles(self, delay):
        # Same-instant timeouts must dispatch in creation order no
        # matter what order the creating code enumerates them in —
        # delay 0.0 exercises the immediate lane, 1.0 the heap.
        import random

        for seed in range(100):
            env = Environment()
            tags = list(range(20))
            random.Random(seed).shuffle(tags)
            order = []
            for tag in tags:
                t = env.timeout(delay)
                t.callbacks.append(lambda e, tag=tag: order.append(tag))
            env.run()
            assert order == tags, f"seed {seed} broke FIFO order"

    def test_fifo_across_100_seeded_shuffles_mixed_lanes(self):
        # Both lanes meeting at one instant, plus events created
        # mid-cohort: a driver timeout at t=1 (heap, earliest seq) fires
        # zero-delay timeouts (immediate lane, created AT t=1) while the
        # heap still holds the shuffled t=1 timeouts created up front.
        # The cohort order must be: driver, then the heap members in
        # creation order (their seqs predate reaching t=1), then the
        # zero-delay members in creation order (invariants 1-3 in
        # repro.sim.environment).
        import random

        for seed in range(100):
            rng = random.Random(seed)
            env = Environment()
            order = []

            heap_tags = [f"h{i}" for i in range(10)]
            imm_tags = [f"z{i}" for i in range(10)]
            shuffled_imm = imm_tags[:]
            rng.shuffle(shuffled_imm)

            def fire_immediates(event, tags=tuple(shuffled_imm), env=env):
                order.append("driver")
                for tag in tags:
                    t = env.timeout(0.0)
                    t.callbacks.append(lambda e, tag=tag: order.append(tag))

            driver = env.timeout(1.0)
            driver.callbacks.append(fire_immediates)
            shuffled_heap = heap_tags[:]
            rng.shuffle(shuffled_heap)
            for tag in shuffled_heap:
                t = env.timeout(1.0)
                t.callbacks.append(lambda e, tag=tag: order.append(tag))
            env.run()
            assert order == ["driver"] + shuffled_heap + shuffled_imm, (
                f"seed {seed} broke cohort order"
            )

    def test_merge_path_after_external_step_interleave(self):
        # A manual step() can leave the immediate lane non-empty while
        # the heap still holds entries at `now` — the _merge_instant
        # path. The heap entry (smaller seq) must dispatch first.
        env = Environment()
        order = []
        a = env.timeout(1.0)
        a.callbacks.append(
            lambda e: env.timeout(0.0).callbacks.append(lambda e2: order.append("C"))
        )
        b = env.timeout(1.0)
        b.callbacks.append(lambda e: order.append("B"))
        env.step()  # dispatches A at t=1; C now sits in the immediate lane
        assert env.peek() == 1.0
        env.run()
        assert order == ["B", "C"]


def _noop_observer(event):
    pass


#: Every loop of Environment.run(): unobserved and observed, each run to
#: exhaustion (until=None) and to a deadline past the schedule.
RUN_LOOPS = [
    (observed, until) for observed in (False, True) for until in (None, 10.0)
]


def _run(env, observed, until):
    """``env.run(until)``, through the observed loop when ``observed``."""
    if not observed:
        return env.run(until)
    env.add_observer(_noop_observer)
    try:
        return env.run(until)
    finally:
        env.remove_observer(_noop_observer)


class TestMidCohortControlFlow:
    def _tagged_timeout(self, env, order, tag):
        t = env.timeout(0.0)
        t.callbacks.append(lambda e: order.append(tag))
        return t

    def test_close_mid_cohort_drops_remainder(self):
        for observed, until in RUN_LOOPS:
            env = Environment()
            order = []
            self._tagged_timeout(env, order, 1)
            closer = env.timeout(0.0)
            closer.callbacks.append(lambda e, env=env: env.close())
            self._tagged_timeout(env, order, 3)
            self._tagged_timeout(env, order, 4)
            _run(env, observed, until)
            assert order == [1], (observed, until)
            assert env.closed

    def test_exception_mid_cohort_requeues_remainder(self):
        for observed, until in RUN_LOOPS:
            env = Environment()
            order = []
            self._tagged_timeout(env, order, 1)
            boom = env.event()
            boom.fail(RuntimeError("mid-cohort"))
            self._tagged_timeout(env, order, 3)
            self._tagged_timeout(env, order, 4)
            with pytest.raises(RuntimeError, match="mid-cohort"):
                _run(env, observed, until)
            # The undispatched remainder survived the exception and
            # fires, in order, on the next run.
            assert order == [1], (observed, until)
            _run(env, observed, until)
            assert order == [1, 3, 4], (observed, until)

    def test_until_event_mid_cohort_requeues_remainder(self):
        # The stop itself is an until=event run; the resuming run goes
        # through every loop.
        for observed, until in RUN_LOOPS:
            env = Environment()
            order = []
            self._tagged_timeout(env, order, 1)
            target = env.event()
            target.succeed("stop-here")
            self._tagged_timeout(env, order, 3)
            assert _run(env, observed, target) == "stop-here"
            assert order == [1], (observed, until)
            _run(env, observed, until)
            assert order == [1, 3], (observed, until)


class TestClosedEnvironment:
    def test_timeout_on_closed_env_raises(self):
        env = Environment()
        env.close()
        # Both the heap path (positive delay) and the immediate lane
        # (zero delay) bypass Environment.schedule, so each replicates
        # the closed guard; this is the double-schedule regression
        # fix's contract.
        with pytest.raises(SimulationError):
            env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.timeout(0.0)

    def test_succeed_fail_schedule_process_on_closed_env_raise(self):
        env = Environment()
        pending = env.event()
        env.close()
        with pytest.raises(SimulationError):
            pending.succeed()
        with pytest.raises(SimulationError):
            env.event().fail(RuntimeError("late"))
        with pytest.raises(SimulationError):
            env.schedule(env.event())

        def body(env):
            yield env.timeout(1.0)

        with pytest.raises(SimulationError):
            env.process(body(env))

    def test_close_drops_pending_events(self):
        env = Environment()
        fired = []
        t = env.timeout(5.0)
        t.callbacks.append(lambda e: fired.append(e))
        env.run(until=2.0)
        env.close()
        env.run()  # schedule is empty; nothing fires
        assert fired == []
        assert env.closed
        assert env.peek() == float("inf")

    def test_timeout_is_born_triggered_so_succeed_is_double_schedule(self):
        # A live Timeout enters the schedule in __init__; a second
        # trigger would enqueue it twice. succeed() must refuse.
        env = Environment()
        t = env.timeout(1.0)
        with pytest.raises(SimulationError):
            t.succeed()
        env.run()
        assert t.processed
