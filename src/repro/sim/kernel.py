"""Core event loop and process machinery.

The simulator keeps a heap of plain ``(time, sequence, callback, value,
event_or_None)`` tuples, which ``heapq`` compares in C.  The ``sequence``
counter makes ordering of same-time events deterministic (FIFO by
schedule order), which matters for reproducing waveform traces
bit-exactly across runs.  Zero-delay events — the dominant traffic on
the hot path (every trigger fire, spawn, and finished-process join) —
ride a separate FIFO now-queue of ``(callback, value, event_or_None)``
that preserves the same total order while skipping the heap.

Only :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return a
cancellable :class:`Event` handle.  Process wakeups (``Timeout``, bare
``int``, ``spawn``, trigger fan-out, joins) and timed deliveries
(``_wake_after``: a die's latch actions) are enqueued with no handle:
nothing can cancel them, so nothing is allocated for them.  An entry
with a handle runs as ``callback()``, one without as ``callback(value)``.

Processes are plain Python generators.  A process yields *commands* to
the kernel:

``Timeout(delay)``
    Resume the process ``delay`` nanoseconds later.

``WaitTrigger(trigger)``
    Resume the process when the trigger fires; the fired value is sent
    back into the generator.

``WaitProcess(process)``
    Resume when the given process terminates; the process's return value
    is sent back.

A generator may also delegate with ``yield from`` to compose processes
synchronously, which is the idiom the operation library uses to nest
ONFI operations (e.g. READ invoking READ STATUS).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


class SimError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a finished sim)."""


@dataclass
class Timeout:
    """Process command: sleep for ``delay`` nanoseconds."""

    delay: int


@dataclass
class WaitTrigger:
    """Process command: block until a trigger fires."""

    trigger: "Trigger"  # noqa: F821 - defined in repro.sim.sync


@dataclass
class WaitProcess:
    """Process command: block until another process terminates."""

    process: "Process"


class Event:
    """Handle on a callback scheduled through :meth:`Simulator.schedule`.
    Cancellable until it has run."""

    __slots__ = ("time", "callback", "cancelled", "_done")

    def __init__(self, time: int, callback: Callable[[], None]):
        self.time = time
        self.callback = callback
        self.cancelled = False
        self._done = False

    def cancel(self) -> None:
        self.cancelled = True

    @property
    def pending(self) -> bool:
        return not self.cancelled and not self._done


class Process:
    """A generator-based simulated process.

    The kernel resumes the generator with the value produced by the
    command it last yielded (a trigger's payload, a joined process's
    return value, or ``None`` after a timeout).
    """

    __slots__ = (
        "sim", "gen", "name", "finished", "value", "_waiters", "error",
        "_resume",
    )

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.finished = False
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self._waiters: list[Callable[[Any], None]] = []
        # The one wakeup callback of this process: every queue entry and
        # waiter list holds this same bound method.  None once finished.
        self._resume: Optional[Callable[..., None]] = self._step

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.finished else "running"
        return f"<Process {self.name} {state}>"

    def _step(self, send_value: Any = None) -> None:
        if self.finished:
            return
        sim = self.sim
        tracer = sim._tracer
        if tracer is not None:
            tracer.kernel_process("step", self.name, sim.now)
        try:
            command = self.gen.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:  # surface process crashes loudly
            self.finished = True
            self.error = exc
            raise
        # Exact-class dispatch, with the enqueue inlined, for the two
        # commands that are nearly all of the traffic; everything else
        # (subclasses, ints, joins, a traced run) takes the slow path.
        cls = command.__class__
        if cls is Timeout:
            delay = command.delay
            if delay.__class__ is int and delay > 0 and tracer is None:
                sim.events_scheduled = seq = sim.events_scheduled + 1
                heappush(sim._heap,
                         (sim.now + delay, seq, self._resume, None, None))
            else:
                sim._wake_after(delay, self._resume)
        elif cls is WaitTrigger:
            command.trigger._waiters.append(self._resume)
        elif isinstance(command, Timeout):
            sim._wake_after(command.delay, self._resume)
        elif isinstance(command, WaitTrigger):
            command.trigger._add_waiter(self._resume)
        elif isinstance(command, WaitProcess):
            command.process._add_join_waiter(self._resume)
        elif isinstance(command, int):
            # Bare integers are accepted as a shorthand for Timeout.
            sim._wake_after(command, self._resume)
        else:
            raise SimError(
                f"process {self.name!r} yielded unsupported command {command!r}"
            )

    def _finish(self, value: Any) -> None:
        self.finished = True
        self.value = value
        # Nothing resumes a finished process; dropping the bound method
        # leaves no process <-> method cycle for the cycle collector.
        self._resume = None
        tracer = self.sim._tracer
        if tracer is not None:
            tracer.kernel_process("finish", self.name, self.sim.now)
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(value)

    def _add_join_waiter(self, waiter: Callable[[Any], None]) -> None:
        if self.finished:
            # Resume on a fresh event to keep ordering causal.
            self.sim._wake((waiter,), self.value)
        else:
            self._waiters.append(waiter)

    def join(self) -> Generator:
        """Process command helper: ``result = yield from other.join()``."""
        result = yield WaitProcess(self)
        return result


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> log = []
    >>> def worker():
    ...     yield Timeout(5)
    ...     log.append(sim.now)
    >>> _ = sim.spawn(worker())
    >>> sim.run()
    >>> log
    [5]
    """

    def __init__(self) -> None:
        self.now: int = 0
        # Timed entries: (time, seq, callback, value, event_or_None).
        # ``seq`` is unique, so the C tuple comparison never reaches the
        # callback.
        self._heap: list[tuple] = []
        # Zero-delay entries (trigger resumptions, spawns, joins of
        # finished processes): (callback, value, event_or_None).  They
        # bypass the heap entirely: they can only ever run at the
        # current time, after every heap entry already scheduled for
        # this instant, in FIFO order — exactly the (time, seq) order
        # the heap would produce, without the O(log n) push/pop.
        self._now_queue: deque[tuple] = deque()
        #: Every entry ever enqueued, timed or zero-delay, cancellable or
        #: not.  Doubles as the heap's FIFO tie-break sequence.
        self.events_scheduled = 0
        # Optional observability hook (repro.obs.Tracer).  Every kernel
        # call site guards with a single `is not None` check so the
        # untraced fast path stays one attribute load per event.
        self._tracer = None
        # Optional liveness sanitizer (repro.sanitize).  Consulted only
        # when the heap drains, so the hot loop is untouched.
        self._san_liveness = None

    # -- observability -------------------------------------------------

    def set_tracer(self, tracer) -> None:
        """Attach (or detach with ``None``) a :class:`repro.obs.Tracer`.

        All instrumentation points in the stack discover the tracer
        through their simulator, so this one call enables tracing for
        channels, executors, CPUs, runtimes, ops, and hosts alike.
        """
        self._tracer = tracer

    @property
    def tracer(self):
        return self._tracer

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` ns from now.

        The returned :class:`Event` is the only way to cancel it."""
        if delay < 0:
            raise SimError(f"negative delay {delay}")
        now = self.now
        delay = int(delay)
        event = Event(now + delay, callback)
        self.events_scheduled = seq = self.events_scheduled + 1
        if delay:
            heappush(self._heap, (event.time, seq, callback, None, event))
        else:
            # An immediately-ready event never touches the heap (see
            # ``_now_queue``); ordering is unchanged.
            self._now_queue.append((callback, None, event))
        if self._tracer is not None:
            self._tracer.kernel_event("schedule", now, event.time)
        return event

    def _wake_after(self, delay: int, waiter: Callable[[Any], None],
                    value: Any = None) -> None:
        """Uncancellable, argument-carrying ``schedule``: run
        ``waiter(value)`` ``delay`` ns from now (a process's own timed
        wakeup, a die's latch action).  The timed sibling of :meth:`_wake`:
        ``schedule``'s order and tracer instants, no :class:`Event`."""
        if delay < 0:
            raise SimError(f"negative delay {delay}")
        delay = int(delay)
        now = self.now
        self.events_scheduled = seq = self.events_scheduled + 1
        if delay:
            heappush(self._heap, (now + delay, seq, waiter, value, None))
        else:
            self._now_queue.append((waiter, value, None))
        if self._tracer is not None:
            self._tracer.kernel_event("schedule", now, now + delay)

    def _wake(self, waiters: Iterable[Callable[[Any], None]], value: Any) -> None:
        """Enqueue ``waiter(value)`` for each waiter at the current time.

        No handle exists for these entries, so they cannot be cancelled."""
        append = self._now_queue.append
        for waiter in waiters:
            append((waiter, value, None))
            self.events_scheduled += 1
            if self._tracer is not None:
                self._tracer.kernel_event("schedule", self.now, self.now)

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self.now:
            raise SimError(f"cannot schedule in the past ({time} < {self.now})")
        return self.schedule(time - self.now, callback)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Create a process from a generator and start it immediately."""
        process = Process(self, gen, name)
        if self._tracer is not None:
            self._tracer.kernel_process("spawn", process.name, self.now)
        self._wake((process._resume,), None)
        return process

    # -- running -------------------------------------------------------

    def run(self, until: Optional[int] = None) -> None:
        """Run events until the queues drain or ``until`` (absolute ns)."""
        heap = self._heap
        nq = self._now_queue
        if until is None or until >= self.now:
            while True:
                # Heap entries stamped for the current instant were
                # scheduled before any entry now sitting in the
                # now-queue (a zero-delay schedule can only happen at
                # the current time), so they drain first; the now-queue
                # then drains FIFO before time may advance.
                if nq and not (heap and heap[0][0] <= self.now):
                    callback, value, event = nq.popleft()
                    if event is None:
                        if self._tracer is not None:
                            self._tracer.kernel_event("fire", self.now, self.now)
                        callback(value)
                        continue
                    time = self.now
                elif not heap or (until is not None and heap[0][0] > until):
                    break
                else:
                    time, _, callback, value, event = heappop(heap)
                if event is not None:
                    if event.cancelled:
                        # Cancellation itself is a plain flag flip (Event
                        # has no simulator back-reference); it becomes
                        # observable here, when the dead entry surfaces.
                        if self._tracer is not None:
                            self._tracer.kernel_event("cancel", self.now, time)
                        continue
                    event._done = True
                if time < self.now:  # pragma: no cover - invariant guard
                    raise SimError("event heap time went backwards")
                self.now = time
                if self._tracer is not None:
                    self._tracer.kernel_event("fire", time, time)
                if event is None:
                    callback(value)
                else:
                    callback()
        if self._san_liveness is not None and not heap and not nq:
            # Quiescent point: nothing left to run anywhere.  If work is
            # still outstanding, that is a deadlock, not completion.
            self._san_liveness.on_quiescent(self.now)
        if until is not None and self.now < until:
            self.now = until

    def run_process(self, gen: Generator, name: str = "", until: Optional[int] = None):
        """Spawn ``gen``, run the simulation, and return the process value."""
        process = self.spawn(gen, name)
        self.run(until=until)
        if not process.finished:
            raise SimError(f"process {process.name!r} did not finish by {self.now} ns")
        return process.value

    @property
    def pending_events(self) -> int:
        """Entries still due to run (a wakeup without a handle always is)."""
        return sum(
            1 for entry in (*self._heap, *self._now_queue)
            if entry[-1] is None or entry[-1].pending
        )
