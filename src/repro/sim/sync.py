"""Synchronization primitives for simulated processes.

These are the building blocks the controller models use for arbitration
and hand-off:

* :class:`Trigger` — a one-to-many pulse carrying a payload (R/B# edges,
  transaction-completion notifications).
* :class:`Mutex` — FIFO-fair exclusive ownership (the channel bus token).
* :class:`Queue` — unbounded FIFO with blocking ``get`` (transaction
  queues between the scheduling and execution halves of BABOL).
* :class:`Condition` — level-triggered predicate wait (status changes).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.sim.kernel import Simulator, WaitTrigger


class Trigger:
    """A repeatable event that resumes all current waiters when fired.

    Three ways to hear a pulse, by what the listener is:

    * a *waiter* is a process: one-shot, resumed through the scheduler
      (one kernel step), so firing is never re-entrant for it;
    * a *subscriber* is persistent and synchronous: every ``fire`` calls
      it with the value — a listener that only forwards the pulse needs
      no process and costs no step;
    * a *one-shot callback* (:meth:`once`) is synchronous too, but hears
      only the next ``fire`` and is forgotten before it runs — for a
      listener that holds its caller (a task blocked on this pulse), so
      that a fired trigger keeps nothing of it alive.

    ``fire`` queues the waiters, then calls subscribers, then one-shot
    callbacks, each in registration order.  A synchronous listener must
    not block and must not fire this trigger.
    """

    __slots__ = ("sim", "_waiters", "_subscribers", "_once", "fire_count")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._waiters: list[Callable[[Any], None]] = []
        self._subscribers: tuple[Callable[[Any], None], ...] = ()
        self._once: tuple[Callable[[Any], None], ...] = ()
        self.fire_count = 0

    def _add_waiter(self, waiter: Callable[[Any], None]) -> None:
        self._waiters.append(waiter)

    def subscribe(self, callback: Callable[[Any], None]) -> None:
        """Call ``callback(value)`` from inside every future ``fire``."""
        self._subscribers += (callback,)

    def once(self, callback: Callable[[Any], None]) -> None:
        """Call ``callback(value)`` from inside the next ``fire`` only."""
        self._once += (callback,)

    def fire(self, value: Any = None) -> None:
        """Fire now: every process currently waiting resumes with ``value``."""
        self.fire_count += 1
        waiters = self._waiters
        if waiters:
            self._waiters = []
            # Resume via the scheduler so firing is never re-entrant.
            self.sim._wake(waiters, value)
        for callback in self._subscribers:
            callback(value)
        once = self._once
        if once:
            self._once = ()
            for callback in once:
                callback(value)

    def wait(self) -> Generator:
        """Process command helper: ``value = yield from trigger.wait()``."""
        value = yield WaitTrigger(self)
        return value


class Mutex:
    """FIFO-fair mutual exclusion.

    ``yield from mutex.acquire()`` blocks until ownership is granted;
    ``mutex.try_acquire()`` takes it only when that needs no blocking;
    ``mutex.release()`` hands the lock to the longest waiter.
    """

    __slots__ = ("sim", "locked", "owner", "_queue", "acquire_count")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.locked = False
        self.owner: Any = None
        self._queue: deque[Trigger] = deque()
        self.acquire_count = 0

    def try_acquire(self, owner: Any = None) -> bool:
        """Take a free lock without a generator frame; False when held.

        A lock being handed to a waiter stays ``locked`` throughout
        (see :meth:`release`), so this can never jump the FIFO queue:
        on False, fall back to ``yield from mutex.acquire(owner)``.
        """
        if self.locked:
            return False
        self.locked = True
        self.owner = owner
        self.acquire_count += 1
        return True

    def acquire(self, owner: Any = None) -> Generator:
        if not self.locked:
            self.locked = True
            self.owner = owner
            self.acquire_count += 1
            return
            yield  # pragma: no cover - makes this a generator
        gate = Trigger(self.sim)
        self._queue.append(gate)
        yield from gate.wait()
        self.owner = owner
        self.acquire_count += 1

    def release(self) -> None:
        if not self.locked:
            raise RuntimeError("release of an unlocked Mutex")
        self.owner = None
        if self._queue:
            gate = self._queue.popleft()
            gate.fire()
        else:
            self.locked = False

    @property
    def waiters(self) -> int:
        return len(self._queue)


class Queue:
    """Unbounded FIFO with blocking ``get`` and synchronous ``put``."""

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: deque = deque()
        self._getters: deque[Trigger] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            gate = self._getters.popleft()
            gate.fire(item)
        else:
            self._items.append(item)

    def get(self) -> Generator:
        """``item = yield from queue.get()`` — blocks until available."""
        if self._items:
            return self._items.popleft()
        gate = Trigger(self.sim)
        self._getters.append(gate)
        item = yield from gate.wait()
        return item

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; ``None`` when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def __len__(self) -> int:
        return len(self._items)

    def peek_all(self) -> tuple:
        """Snapshot of queued items (schedulers use this to reorder)."""
        return tuple(self._items)

    def remove(self, item: Any) -> bool:
        """Remove a specific queued item (priority schedulers pluck)."""
        try:
            self._items.remove(item)
            return True
        except ValueError:
            return False


class Condition:
    """Level-triggered wait on an arbitrary predicate.

    The owner of the state calls :meth:`notify` after every change;
    ``notify`` resumes, in registration order, only the waiters whose
    predicate holds *now*.  That is exact: a waiter resumed on a false
    predicate would only wait again, and the change that makes it true
    brings its own notify.  A resumed waiter still re-checks (an earlier
    waiter of the same notify may have consumed the state) and, if it
    lost, registers again.
    """

    __slots__ = ("sim", "_waiters", "_spare")

    def __init__(self, sim: Simulator):
        self.sim = sim
        # (predicate, gate) in registration order.
        self._waiters: list[tuple[Callable[[], bool], Trigger]] = []
        # The gate of the last waiter to leave, for the next to reuse.
        self._spare: Optional[WaitTrigger] = None

    def notify(self, _value: Any = None) -> None:
        """(Takes a value so that it can ``Trigger.subscribe`` to a pulse.)"""
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for waiter in waiters:
                if waiter[0]():
                    waiter[1].fire()
                else:
                    self._waiters.append(waiter)

    def wait_for(self, predicate: Callable[[], bool]) -> Generator:
        if predicate():
            return
        wait, self._spare = self._spare, None
        if wait is None:
            wait = WaitTrigger(Trigger(self.sim))
        waiter = (predicate, wait.trigger)
        while True:
            self._waiters.append(waiter)
            yield wait
            if predicate():
                self._spare = wait
                return
