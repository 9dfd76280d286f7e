"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.continuum.simulator import (
    Interrupt,
    Resource,
    Simulator,
    SimulationError,
    Store,
)


class TestBasicScheduling:
    def test_timeout_advances_time(self):
        sim = Simulator()
        done = []

        def proc():
            yield sim.timeout(2.5)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [2.5]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []

        def proc(delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(proc(3, "c"))
        sim.process(proc(1, "a"))
        sim.process(proc(2, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_tiebreak_at_same_time(self):
        sim = Simulator()
        order = []

        def proc(tag):
            yield sim.timeout(1)
            order.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_run_until_time_stops_clock_there(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(100)

        sim.process(proc())
        sim.run(until=10)
        assert sim.now == 10

    def test_run_until_event_returns_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1)
            return "result"

        p = sim.process(proc())
        assert sim.run(until=p) == "result"

    def test_run_until_past_raises(self):
        sim = Simulator(start_time=5)
        with pytest.raises(SimulationError):
            sim.run(until=1)

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_nested_processes(self):
        sim = Simulator()

        def child():
            yield sim.timeout(2)
            return 42

        def parent():
            value = yield sim.process(child())
            return value + 1

        p = sim.process(parent())
        assert sim.run(until=p) == 43
        assert sim.now == 2


class TestEventSemantics:
    def test_manual_event_succeed(self):
        sim = Simulator()
        gate = sim.event()
        seen = []

        def waiter():
            value = yield gate
            seen.append(value)

        def opener():
            yield sim.timeout(1)
            gate.succeed("open")

        sim.process(waiter())
        sim.process(opener())
        sim.run()
        assert seen == ["open"]

    def test_double_trigger_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_failed_event_propagates_into_process(self):
        sim = Simulator()
        caught = []

        def waiter(gate):
            try:
                yield gate
            except RuntimeError as exc:
                caught.append(str(exc))

        gate = sim.event()
        sim.process(waiter(gate))
        gate.fail(RuntimeError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_unhandled_failure_raises_from_run(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_yielding_non_event_is_an_error(self):
        sim = Simulator()

        def bad():
            yield 42

        p = sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run(until=p)

    def test_process_rejects_non_generator(self):
        sim = Simulator()

        def not_a_generator():
            return 42

        with pytest.raises(TypeError, match="requires a generator"):
            sim.process(not_a_generator())
        assert sim.peek() == float("inf")
        sim.run()
        assert sim.processed_events == 0

    def test_process_exception_becomes_failed_event(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1)
            raise ValueError("inside")

        p = sim.process(bad())
        with pytest.raises(ValueError, match="inside"):
            sim.run(until=p)


class TestCombinators:
    def test_all_of_waits_for_every_event(self):
        sim = Simulator()

        def proc():
            yield sim.all_of([sim.timeout(1), sim.timeout(3), sim.timeout(2)])
            return sim.now

        p = sim.process(proc())
        assert sim.run(until=p) == 3

    def test_any_of_fires_on_first(self):
        sim = Simulator()

        def proc():
            yield sim.any_of([sim.timeout(5), sim.timeout(1)])
            return sim.now

        p = sim.process(proc())
        assert sim.run(until=p) == 1

    def test_all_of_empty_fires_immediately(self):
        sim = Simulator()

        def proc():
            yield sim.all_of([])
            return sim.now

        p = sim.process(proc())
        assert sim.run(until=p) == 0


class TestInterrupts:
    def test_interrupt_delivers_cause(self):
        sim = Simulator()
        seen = []

        def victim():
            try:
                yield sim.timeout(100)
            except Interrupt as intr:
                seen.append((sim.now, intr.cause))

        def attacker(victim_proc):
            yield sim.timeout(2)
            victim_proc.interrupt("preempted")

        v = sim.process(victim())
        sim.process(attacker(v))
        sim.run()
        assert seen == [(2, "preempted")]

    def test_interrupt_dead_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1)

        p = sim.process(quick())
        sim.run()
        p.interrupt("late")  # must not raise
        sim.run()


class TestFailureDelivery:
    """Interrupts and plain event failures share one throw() path in
    Process._resume; the waiter tells them apart by exception type."""

    def test_plain_failure_delivered_as_original_exception(self):
        sim = Simulator()
        seen = []

        def waiter(event):
            try:
                yield event
            except ValueError as exc:
                seen.append(("value-error", str(exc), sim.now))
            except Interrupt:  # pragma: no cover - wrong branch
                seen.append(("interrupt", None, sim.now))

        def failer(event):
            yield sim.timeout(3)
            event.fail(ValueError("boom"))

        event = sim.event()
        sim.process(waiter(event))
        sim.process(failer(event))
        sim.run()
        assert seen == [("value-error", "boom", 3)]

    def test_interrupt_vs_failure_distinguished(self):
        sim = Simulator()
        seen = []

        def waiter(tag, event):
            try:
                yield event
            except Interrupt as intr:
                seen.append((tag, "interrupt", intr.cause))
            except RuntimeError as exc:
                seen.append((tag, "failure", str(exc)))

        interrupted = sim.event()
        failed = sim.event()
        p1 = sim.process(waiter("a", interrupted))
        sim.process(waiter("b", failed))

        def driver():
            yield sim.timeout(1)
            p1.interrupt("preempt")
            failed.fail(RuntimeError("died"))

        sim.process(driver())
        sim.run()
        assert sorted(seen) == [("a", "interrupt", "preempt"),
                                ("b", "failure", "died")]

    def test_delivered_failure_is_defused(self):
        # A failure consumed by a waiting process must not re-raise
        # out of step() as an un-waited-for error.
        sim = Simulator()
        recovered = []

        def waiter(event):
            try:
                yield event
            except KeyError:
                recovered.append(sim.now)
                yield sim.timeout(1)
                recovered.append(sim.now)

        event = sim.event()
        sim.process(waiter(event))

        def failer():
            yield sim.timeout(2)
            event.fail(KeyError("gone"))

        sim.process(failer())
        sim.run()  # would raise KeyError if the failure were not defused
        assert recovered == [2, 3]

    def test_run_until_failed_event_raises(self):
        sim = Simulator()

        def failer(event):
            yield sim.timeout(5)
            event.fail(OSError("device lost"))

        event = sim.event()
        sim.process(failer(event))
        with pytest.raises(OSError, match="device lost"):
            sim.run(until=event)
        assert sim.now == 5


class TestTimeoutRun:
    def _log_run(self, sim, times, log):
        return sim.timeout_run(times, list(range(len(times))),
                               lambda value: log.append((sim.now, value)))

    def test_same_instant_deliveries_take_one_heap_step(self):
        sim = Simulator()
        log = []
        self._log_run(sim, [2.0, 1.0, 2.0, 1.0], log)
        steps = 0
        while sim.peek() != float("inf"):
            sim.step()
            steps += 1
        assert log == [(1.0, 1), (1.0, 3), (2.0, 0), (2.0, 2)]
        assert steps == 2
        assert sim.processed_events == 4

    def test_urgent_event_scheduled_mid_run_goes_first(self):
        sim = Simulator()
        log = []

        def deliver(value):
            log.append(value)
            if value == 0:
                def proc():
                    log.append("init")
                    yield sim.timeout(0)
                    log.append("after")

                sim.process(proc())

        sim.timeout_run([1.0, 1.0, 1.0], [0, 1, 2], deliver)
        sim.run()
        assert log == [0, "init", 1, 2, "after"]

    def test_keys_are_reserved_in_list_order(self):
        """A timeout made after the run, at the same instant, fires
        after every run entry at that instant."""
        sim = Simulator()
        log = []
        self._log_run(sim, [1.0, 1.0], log)
        sim.timeout(1.0).callbacks.append(lambda e: log.append("later"))
        sim.run()
        assert log == [(1.0, 0), (1.0, 1), "later"]

    def test_raise_leaves_the_rest_pending(self):
        sim = Simulator()
        log = []

        def deliver(value):
            if value == 1:
                raise RuntimeError("boom")
            log.append(value)

        sim.timeout_run([1.0, 1.0, 1.0, 2.0], [0, 1, 2, 3], deliver)
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.processed_events == 1
        assert sim.peek() == 1.0
        sim.run()
        assert log == [0, 2, 3]
        assert sim.processed_events == 3

    def test_entry_in_the_past_rejected(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError, match="past"):
            sim.timeout_run([4.0], [None], lambda value: None)
        sim.timeout_run([], [], lambda value: None)
        assert sim.peek() == float("inf")


class TestResource:
    def test_capacity_enforced(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        timeline = []

        def user(tag):
            req = res.request()
            yield req
            timeline.append((tag, "start", sim.now))
            yield sim.timeout(5)
            res.release(req)
            timeline.append((tag, "end", sim.now))

        sim.process(user("a"))
        sim.process(user("b"))
        sim.run()
        assert timeline == [
            ("a", "start", 0),
            ("a", "end", 5),
            ("b", "start", 5),
            ("b", "end", 10),
        ]

    def test_parallel_when_capacity_allows(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        ends = []

        def user():
            req = res.request()
            yield req
            yield sim.timeout(5)
            res.release(req)
            ends.append(sim.now)

        sim.process(user())
        sim.process(user())
        sim.run()
        assert ends == [5, 5]

    def test_release_unheld_request_raises(self):
        sim = Simulator()
        res = Resource(sim)
        fake = sim.event()
        with pytest.raises(SimulationError):
            res.release(fake)

    def test_queue_length_visible(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        res.request()
        res.request()
        assert res.count == 1
        assert len(res.queue) == 1

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def producer():
            yield store.put("item")

        def consumer():
            item = yield store.get()
            got.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == ["item"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((item, sim.now))

        def producer():
            yield sim.timeout(3)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [("late", 3)]

    def test_bounded_capacity_blocks_put(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        events = []

        def producer():
            yield store.put(1)
            events.append(("put1", sim.now))
            yield store.put(2)
            events.append(("put2", sim.now))

        def consumer():
            yield sim.timeout(5)
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert events == [("put1", 0), ("put2", 5)]

    def test_fifo_order(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def producer():
            for i in range(3):
                yield store.put(i)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2]
