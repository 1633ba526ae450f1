"""Core of the discrete-event simulation kernel.

The design follows the classic event-list architecture: a binary heap of
``(time, priority, sequence, event)`` tuples.  Ties at equal time are broken
first by priority (lower runs first) and then by scheduling order, which
makes runs fully deterministic.

Processes are Python generators.  A process yields an :class:`Event`; when
that event triggers, the kernel resumes the generator, sending the event's
value in (or throwing the event's exception).  A :class:`Process` is itself
an event, so processes can wait on each other.

Hot-path notes
--------------
The dominant cycle in every experiment is "schedule timeout -> pop ->
resume one generator".  The kernel therefore carries a few fast paths,
all bit-identical to the straightforward implementations (event order,
clock values, and RNG draw order are unchanged):

- ``heappush``/``heappop`` are imported as locals instead of attribute
  lookups on the :mod:`heapq` module;
- :class:`Timeout` construction is flattened (no ``super().__init__``
  chain, the heap push is inlined);
- :meth:`Environment.call_later` callbacks are :class:`_Invoke` records
  instead of closure objects;
- when :mod:`repro.fastpath` is enabled (the default), :meth:`Environment.run`
  uses an inlined event loop and recycles value-less :class:`Timeout`
  events through a small free list.  Only events whose sole callback is
  kernel-owned (a :class:`Process` resume or an :class:`_Invoke`) are
  recycled, so any event a caller might still hold a reference to —
  condition members, interrupted targets, timeouts carrying values —
  is never reused;
- when batched dispatch is additionally enabled (``REPRO_BATCH``, the
  default), the run loop drains all events sharing one timestamp as a
  single batch: the stop-time/stop-event head checks and the clock
  assignment are hoisted to the tick boundary, and the inner loop walks
  the batch with one float comparison per event instead of the full
  ``(time, priority, sequence)`` tuple discipline.  Batched
  environments also accept :meth:`Environment.defer` — fire-and-forget
  work flattened straight into the heap entry (one tuple, no event
  object), skipping the :class:`Timeout`/callback machinery entirely
  (the transport's deliveries and the engines' self-rescheduling
  query arrivals use this).  Batch order is provably identical to the
  serial pops: entries still live in the one heap, so same-tick events
  run in exactly the (priority, sequence) order the plain loop would
  pop them in.
"""

from __future__ import annotations

from heapq import heappush, heappop
from typing import Any, Callable, Generator, Iterable, Optional

from repro import fastpath
from repro.errors import ProcessError, SchedulingError, SimulationError

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for urgent bookkeeping events (run before NORMAL at a tick).
URGENT = 0

_PENDING = object()

#: Upper bound on the Timeout free list (per environment).
_POOL_CAP = 1024


class Event:
    """A one-shot event that may succeed with a value or fail with an error.

    Callbacks receive the event as their only argument once it triggers.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._scheduled = False
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire (value decided)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception when it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SchedulingError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self.triggered:
            raise SchedulingError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- misc -----------------------------------------------------------
    def defuse(self) -> None:
        """Mark a failed event as handled so it does not halt the run."""
        self._defused = True

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SchedulingError(f"negative timeout delay {delay!r}")
        # Flattened Event.__init__ + _schedule: this constructor runs a
        # quarter of a million times per quick-scale experiment.
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._scheduled = True
        self._defused = False
        self.delay = delay = float(delay)
        heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))
        env._eid += 1

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class _Invoke:
    """Kernel-owned ``call_later`` callback: calls ``fn(*args)``.

    A tagged record instead of a closure so the run loop can recognise
    fire-and-forget deliveries and recycle their carrier timeouts.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable, args: tuple) -> None:
        self.fn = fn
        self.args = args

    def __call__(self, _event: Event) -> None:
        self.fn(*self.args)


# Deferred entries (see Environment.defer) are flattened straight into
# the heap tuple: ``(time, priority, sequence, fn, args)`` — one
# allocation per record, distinguished from ``(time, priority,
# sequence, event)`` entries by tuple length alone.  Mixing lengths in
# one heap is safe because the ``sequence`` field is unique, so tuple
# comparison never reaches index 3.


class Initialize(Event):
    """Internal event that starts a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]


class _InterruptEvent(Event):
    """Internal immediate event used to deliver an interrupt."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process", cause: Any):
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        env._schedule(self, URGENT)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is an event that triggers when the generator finishes; its
    value is the generator's return value.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise ProcessError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SchedulingError(f"{self!r} has terminated; cannot interrupt")
        if self is self.env.active_process:
            raise SchedulingError("a process cannot interrupt itself")
        # Detach from the event currently waited on; the interrupt event
        # resumes the process instead (the stale event must not resume the
        # process a second time when it eventually fires).
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._target = None
        _InterruptEvent(self.env, self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self._value is not _PENDING:  # pragma: no cover - defensive
            return
        env = self.env
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_target = generator.send(event._value)
                else:
                    event._defused = True
                    next_target = generator.throw(event._value)
            except StopIteration as stop:
                self._finish(True, stop.value)
                break
            except BaseException as error:
                self._finish(False, error)
                break

            if isinstance(next_target, Event):
                if next_target.env is env:
                    if next_target.callbacks is None:
                        # Already processed: resume immediately with its value.
                        event = next_target
                        continue
                    next_target.callbacks.append(self._resume)
                    self._target = next_target
                    break
                self._finish(
                    False,
                    ProcessError(
                        f"process {self.name!r} yielded event from a foreign "
                        "environment"
                    ),
                )
                generator.close()
                break
            self._finish(
                False,
                ProcessError(
                    f"process {self.name!r} yielded non-event "
                    f"{next_target!r}"
                ),
            )
            generator.close()
            break
        env._active_process = None

    def _finish(self, ok: bool, value: Any) -> None:
        self._target = None
        self._ok = ok
        self._value = value
        self.env._schedule(self, NORMAL)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


#: The unbound resume used to recognise kernel-owned callbacks in the
#: fast run loop (``bound.__func__ is _PROCESS_RESUME``).
_PROCESS_RESUME = Process._resume


class _Condition(Event):
    """Base for AnyOf / AllOf composition events."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events of different environments")
        if not self._events:
            self.succeed(self._collect())
            return
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {
            event: event._value
            for event in self._events
            if event.triggered and event._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _maybe_fail(self, event: Event) -> bool:
        if not event._ok:
            event._defused = True
            if not self.triggered:
                self.fail(event._value)
            return True
        return False


class AnyOf(_Condition):
    """Triggers as soon as any of the given events triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if self._maybe_fail(event):
            return
        self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers once all of the given events have triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if self._maybe_fail(event):
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed(self._collect())


class Environment:
    """The simulation environment: virtual clock plus event loop.

    Parameters
    ----------
    initial_time:
        Starting value of the clock (defaults to ``0.0``).

    The :mod:`repro.fastpath` flags are captured at construction: an
    environment created while the fast paths are enabled uses the inlined
    run loop and the :class:`Timeout` free list for its whole lifetime,
    and one created while batched dispatch is also enabled uses the
    same-tick batch loop and accepts zero-allocation :meth:`defer`
    records.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # 4-tuples carry Events; 5-tuples (batched mode only) carry
        # flat (fn, args) deferred records.
        self._queue: list[tuple] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._fast = fastpath.ENABLED
        self._batched = self._fast and fastpath.BATCHED
        self._timeout_pool: list[Timeout] = []

    # -- properties -------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def queue_size(self) -> int:
        """Number of scheduled (not yet processed) events."""
        return len(self._queue)

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        if value is None and self._fast:
            pool = self._timeout_pool
            if pool:
                if delay < 0:
                    raise SchedulingError(f"negative timeout delay {delay!r}")
                event = pool.pop()
                event.callbacks = []
                event._ok = True
                event._value = None
                event._defused = False
                event.delay = delay = float(delay)
                heappush(
                    self._queue, (self._now + delay, NORMAL, self._eid, event)
                )
                self._eid += 1
                return event
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def call_later(self, delay: float, function: Callable, *args) -> Timeout:
        """Schedule ``function(*args)`` to run after ``delay`` time units.

        A lightweight alternative to spawning a process for fire-and-forget
        work such as message deliveries.
        """
        timeout = self.timeout(delay)
        timeout.callbacks.append(_Invoke(function, args))
        return timeout

    def defer(self, delay: float, function: Callable, *args) -> None:
        """Fire-and-forget :meth:`call_later` with no event handle.

        In a batched environment the call is flattened straight into
        the heap entry — no :class:`Timeout`, no callbacks list, no
        record object — occupying the same ``(time, NORMAL, sequence)``
        slot the timeout would have, so dispatch order is unchanged.  Outside
        batched mode it falls back to :meth:`call_later` (discarding
        the handle), keeping the two paths bit-identical.
        """
        if self._batched:
            if delay < 0:
                raise SchedulingError(f"negative timeout delay {delay!r}")
            heappush(
                self._queue,
                (self._now + delay, NORMAL, self._eid, function, args),
            )
            self._eid += 1
            return
        self.call_later(delay, function, *args)

    def defer_urgent(self, function: Callable, *args) -> None:
        """:meth:`defer` ``function(*args)`` to now, ahead of NORMAL events.

        The slot a new :class:`Process` takes for its first resume
        (URGENT, now): a self-rescheduling :meth:`defer` record started
        here runs where the process it replaces would have started.
        """
        if self._batched:
            heappush(
                self._queue, (self._now, URGENT, self._eid, function, args)
            )
            self._eid += 1
            return
        event = Event(self)
        event.callbacks.append(_Invoke(function, args))
        event._value = None
        self._schedule(event, URGENT)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event triggering when any of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering when all of ``events`` have."""
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if delay < 0:
            raise SchedulingError(f"cannot schedule {event!r} in the past")
        event._scheduled = True
        heappush(self._queue, (self._now + delay, priority, self._eid, event))
        self._eid += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        entry = heappop(self._queue)
        self._now = entry[0]
        if len(entry) == 5:
            # Deferred record — possible only in a batched environment
            # whose events are being stepped manually; semantics match
            # the batch loop.
            entry[3](*entry[4])
            return
        event = entry[3]
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            value = event._value
            if isinstance(value, BaseException):
                raise value
            raise SimulationError(f"unhandled event failure: {value!r}")

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the given time, event, or event-queue exhaustion.

        Parameters
        ----------
        until:
            ``None`` runs until no events remain.  A number runs until the
            clock reaches it.  An :class:`Event` runs until that event has
            been processed and returns its value.
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SchedulingError(
                    f"until={stop_time} lies in the past (now={self._now})"
                )

        queue = self._queue
        if self._batched:
            # Batched dispatch: all events sharing the head timestamp are
            # drained as one batch.  The stop-time check and the clock
            # assignment run once per tick; the inner loop needs only a
            # float equality per event (entries still come off the one
            # heap, so same-tick order is exactly the plain loop's
            # (priority, sequence) order).  Flat deferred records —
            # fire-and-forget deliveries — bypass the event machinery.
            pool = self._timeout_pool
            while queue:
                if stop_event is not None and stop_event.callbacks is None:
                    return stop_event.value
                tick = queue[0][0]
                if tick > stop_time:
                    self._now = stop_time
                    return None
                self._now = tick
                while queue and queue[0][0] == tick:
                    entry = heappop(queue)
                    if len(entry) == 5:
                        entry[3](*entry[4])
                        continue
                    event = entry[3]
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if event._ok:
                        if (
                            type(event) is Timeout
                            and event._value is None
                            and len(callbacks) == 1
                            and len(pool) < _POOL_CAP
                        ):
                            callback = callbacks[0]
                            if (
                                type(callback) is _Invoke
                                or getattr(callback, "__func__", None)
                                is _PROCESS_RESUME
                            ):
                                event._value = _PENDING
                                pool.append(event)
                    elif not event._defused:
                        value = event._value
                        if isinstance(value, BaseException):
                            raise value
                        raise SimulationError(
                            f"unhandled event failure: {value!r}"
                        )
                    if (
                        stop_event is not None
                        and stop_event.callbacks is None
                    ):
                        return stop_event.value
        elif self._fast:
            # Inlined step() loop: localised heap ops, direct slot reads,
            # and Timeout recycling.  Event order, clock values, and every
            # raise are identical to the plain loop below.
            pool = self._timeout_pool
            while queue:
                if stop_event is not None and stop_event.callbacks is None:
                    return stop_event.value
                if queue[0][0] > stop_time:
                    self._now = stop_time
                    return None
                self._now, _, _, event = heappop(queue)
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if event._ok:
                    # Recycle the dominant event shape: a value-less
                    # Timeout whose only callback was kernel-owned (a
                    # process resume or a call_later delivery) — nothing
                    # else can still hold a reference to it.
                    if (
                        type(event) is Timeout
                        and event._value is None
                        and len(callbacks) == 1
                        and len(pool) < _POOL_CAP
                    ):
                        callback = callbacks[0]
                        if (
                            type(callback) is _Invoke
                            or getattr(callback, "__func__", None)
                            is _PROCESS_RESUME
                        ):
                            event._value = _PENDING
                            pool.append(event)
                elif not event._defused:
                    value = event._value
                    if isinstance(value, BaseException):
                        raise value
                    raise SimulationError(
                        f"unhandled event failure: {value!r}"
                    )
        else:
            while queue:
                if stop_event is not None and stop_event.processed:
                    return stop_event.value
                if self.peek() > stop_time:
                    self._now = stop_time
                    return None
                self.step()

        if stop_event is not None:
            if stop_event.processed:
                return stop_event.value
            raise SimulationError(
                "event queue exhausted before the awaited event triggered"
            )
        if stop_time != float("inf"):
            self._now = stop_time
        return None

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={len(self._queue)}>"
