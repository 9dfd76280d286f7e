"""Discrete-event simulation kernel.

A compact, generator-based process simulator in the style of SimPy,
implemented from scratch so the reproduction has no external simulation
dependency. Processes are Python generators that ``yield`` events; the
:class:`Simulator` advances virtual time and resumes processes when the
events they wait on fire.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield sim.timeout(2.0)
...     log.append(sim.now)
>>> _ = sim.process(proc(sim))
>>> sim.run()
>>> log
[2.0]
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.core.errors import ReproError


class SimulationError(ReproError):
    """Raised for illegal simulator operations (double-trigger, etc.)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event priorities: URGENT fires before NORMAL at the same timestamp.
URGENT = 0
NORMAL = 1

# Heap entries are (time, key, event) where key packs (priority, seq)
# into one int: priority in the top bits, the schedule sequence number
# in the low 56. One packed int compares cheaper than two tuple slots;
# 2**56 schedules at 10M events/s would take two centuries to exhaust.
_SEQ_BITS = 56


class Event:
    """A condition that may fire once at some point in simulated time.

    Processes wait on events by yielding them. After the event fires,
    :attr:`value` carries its payload (or the exception, when failed).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        # Set when a failed event's exception was delivered to someone.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded. Valid only after triggering."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The payload the event fired with."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":  # perf: hot
        """Schedule this event to fire successfully with *value*."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        heappush(sim._queue,
                 (sim._now, (priority << _SEQ_BITS) | sim._seq, self))
        sim._seq += 1
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Schedule this event to fire with an exception."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        sim = self.sim
        heappush(sim._queue,
                 (sim._now, (priority << _SEQ_BITS) | sim._seq, self))
        sim._seq += 1
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run *callback(event)* when the event is processed."""
        if self.callbacks is None:
            # Already processed: run immediately so late waiters still see it.
            callback(self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """Event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):  # perf: hot
        # Inlined Event.__init__ + scheduling: timeouts are the single
        # most constructed object in a simulation (timeout(0) yields in
        # polling loops especially), so skip the super() dispatch and
        # the _schedule call. delay==0 takes the first branch free.
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        heappush(sim._queue,
                 (sim._now + delay if delay else sim._now,
                  (NORMAL << _SEQ_BITS) | sim._seq, self))
        sim._seq += 1


class TimeoutRun(Event):
    """Many NORMAL-priority deliveries riding one heap entry.

    Equivalent, delivery for delivery, to one :class:`Timeout` per value
    created in list order, firing at its entry of *times* with the one
    callback ``deliver(value)``. The run reserves the consecutive heap
    keys those timeouts would take, stable-sorts its entries into
    ``(time, key)`` order and keeps one heap entry, for the first one
    pending. When that entry fires it delivers the value, then delivers
    each next value directly while it is at the same instant and still
    precedes the heap top (an URGENT event a handler scheduled, another
    run); otherwise it re-pushes itself under the next entry's own
    ``(time, key)``. Every delivery counts one ``processed_events``; a
    :class:`~repro.obs.profiler.DesProfiler` sees one event per heap
    step. If ``deliver`` raises, the values after it stay pending.
    """

    __slots__ = ("_entries", "_next", "_deliver")

    def __init__(self, sim: "Simulator", times: list[float], values: list,
                 deliver: Callable[[Any], None]):
        super().__init__(sim)
        self._ok = True
        key = (NORMAL << _SEQ_BITS) | sim._seq
        # Keys are unique, so the sort never compares two values.
        self._entries = entries = sorted(
            zip(times, range(key, key + len(times)), values))
        if entries and entries[0][0] < sim._now:
            raise SimulationError(
                f"run entry at {entries[0][0]} lies in the past")
        sim._seq += len(entries)
        self._next = 0
        self._deliver = deliver
        if entries:
            self._arm()

    def _arm(self) -> None:
        when, key, _ = self._entries[self._next]
        self.callbacks = [TimeoutRun._fire]
        # step() sets the clock from this key, and the traced bus stamps
        # records with the clock as it stands: a caller's int time must
        # not become the clock.
        heappush(self.sim._queue, (float(when), key, self))

    def _fire(self) -> None:  # perf: hot
        # Called by step() as the run's one callback, with the run itself.
        sim = self.sim
        queue = sim._queue
        entries = self._entries
        deliver = self._deliver
        i = self._next
        now, _, value = entries[i]
        i += 1
        try:
            deliver(value)
            while i < len(entries):
                entry = entries[i]
                if entry[0] != now or (queue and queue[0] < entry):
                    break
                # The previous delivery is done: count it as its own
                # Timeout's step would have.
                sim.processed_events += 1
                i += 1
                deliver(entry[2])
        finally:
            self._next = i
            if i < len(entries):
                self._arm()


class Process(Event):
    """A running generator-based process.

    The process event itself fires when the generator finishes; its value
    is the generator's return value (or the uncaught exception).
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError("process() requires a generator")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Kick off on construction via an immediate initialization event.
        init = Event(sim)
        init._ok = True
        init.callbacks.append(self._resume)
        sim._schedule(init, URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        self.sim._schedule(interrupt_event, URGENT)
        interrupt_event.add_callback(self._resume)

    def _resume(self, trigger: Event) -> None:
        if not self.is_alive:
            return
        # Detach from whatever we were officially waiting on.
        self._waiting_on = None
        try:
            if trigger._ok:
                target = self.generator.send(trigger._value)
            else:
                # Interrupts and plain failures both arrive via throw();
                # the process distinguishes them by exception type.
                trigger._defused = True
                target = self.generator.throw(trigger._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # process died with an error
            self.fail(exc)
            return
        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded a non-event: {target!r}"
            )
            try:
                self.generator.throw(exc)
            except StopIteration as stop:
                self.succeed(stop.value)
            except BaseException as err:
                self.fail(err)
            return
        self._waiting_on = target
        target.add_callback(self._resume)


class AllOf(Event):
    """Fires when every child event has fired; fails fast on first failure."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if self._pending == 0:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed({e: e._value for e in self.events})


class AnyOf(Event):
    """Fires as soon as any child event fires."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed({event: event._value})


class Simulator:
    """The event loop: a priority queue of (time, packed-key, event)."""

    __slots__ = ("_now", "_queue", "_seq", "processed_events", "_profiler")

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self.processed_events = 0
        # Opt-in profiling hook (repro.obs.profiler.DesProfiler). Dark
        # by default: step() pays one attribute check; the wall-clock
        # source lives on the profiler, never here.
        self._profiler: Any = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create an untriggered event; something must succeed()/fail() it."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after *delay* simulated seconds."""
        return Timeout(self, delay, value)

    def timeout_run(self, times: list[float], values: list,
                    deliver: Callable[[Any], None]) -> TimeoutRun:
        """Deliver ``deliver(value)`` for each of *values* at its entry of
        *times*, scheduled as one :class:`TimeoutRun`."""
        return TimeoutRun(self, times, values, deliver)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a generator as a process; returns its completion event."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of *events* have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of *events* fires."""
        return AnyOf(self, events)

    # -- scheduling and execution -------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        heappush(self._queue, (self._now + delay,
                               (priority << _SEQ_BITS) | self._seq, event))
        self._seq += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:  # perf: hot
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        prof = self._profiler
        when, _key, event = heappop(self._queue)
        if prof is not None:
            sim_dt = when - self._now
            t0 = prof.clock()
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(event)
        if prof is not None:
            prof.account(event, callbacks or (), sim_dt, prof.clock() - t0)
        self.processed_events += 1
        if event._ok is False and not event._defused:
            # An un-waited-for failure must not pass silently.
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:  # perf: hot
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be a time (run up to and including that instant), an
        :class:`Event` (run until it fires, returning its value), or None
        (run to quiescence).
        """
        if isinstance(until, Event):
            stop_event = until
            while not stop_event.processed:
                if not self._queue:
                    raise SimulationError(
                        "simulation ran dry before the awaited event fired"
                    )
                self.step()
            if stop_event._ok:
                return stop_event._value
            stop_event._defused = True
            raise stop_event._value
        deadline = float("inf") if until is None else float(until)
        if deadline < self._now:
            raise SimulationError("run(until=...) lies in the past")
        queue = self._queue
        while queue and queue[0][0] <= deadline:
            self.step()
        if self._now < deadline < float("inf"):
            self._now = deadline
        return None


class Resource:
    """A capacity-limited resource with a FIFO wait queue.

    Usage::

        req = resource.request()
        yield req
        ...critical section...
        resource.release(req)
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.users: list[Event] = []
        self.queue: deque[Event] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Event:
        """Return an event that fires once a slot is granted."""
        event = Event(self.sim)
        if len(self.users) < self.capacity:
            self.users.append(event)
            event.succeed(event)
        else:
            self.queue.append(event)
        return event

    def release(self, request: Event) -> None:
        """Return the slot held by *request* and wake the next waiter."""
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue:
            self.queue.remove(request)
            return
        else:
            raise SimulationError("release() of a request that holds no slot")
        while self.queue and len(self.users) < self.capacity:
            waiter = self.queue.popleft()
            self.users.append(waiter)
            waiter.succeed(waiter)


class Store:
    """An unbounded (or bounded) FIFO buffer of items between processes."""

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        self.sim = sim
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def put(self, item: Any) -> Event:
        """Return an event that fires once *item* is accepted."""
        event = Event(self.sim)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed(None)
        elif len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed(None)
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        event = Event(self.sim)
        if self.items:
            item = self.items.popleft()
            event.succeed(item)
            if self._putters:
                putter, pending = self._putters.popleft()
                self.items.append(pending)
                putter.succeed(None)
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self.items)
