"""Unit tests for the discrete-event simulation kernel."""

import random

import pytest

from repro.obs import ALL_CATEGORIES, Tracer
from repro.sim import (
    Condition,
    Mutex,
    Queue,
    SimError,
    Simulator,
    Timeout,
    Trigger,
    WaitProcess,
    WaitTrigger,
)


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(30, lambda: log.append(("b", sim.now)))
    sim.schedule(10, lambda: log.append(("a", sim.now)))
    sim.schedule(20, lambda: log.append(("m", sim.now)))
    sim.run()
    assert log == [("a", 10), ("m", 20), ("b", 30)]


def test_same_time_events_fifo_by_schedule_order():
    sim = Simulator()
    log = []
    for tag in "abc":
        sim.schedule(5, lambda t=tag: log.append(t))
    sim.run()
    assert log == ["a", "b", "c"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.schedule(-1, lambda: None)


def test_cancelled_event_does_not_run():
    sim = Simulator()
    log = []
    event = sim.schedule(10, lambda: log.append("x"))
    event.cancel()
    sim.run()
    assert log == []


def test_run_until_stops_the_clock():
    sim = Simulator()
    log = []
    sim.schedule(100, lambda: log.append("late"))
    sim.run(until=50)
    assert sim.now == 50
    assert log == []
    sim.run()
    assert log == ["late"]


def test_schedule_at_absolute_time():
    sim = Simulator()
    log = []
    sim.schedule_at(42, lambda: log.append(sim.now))
    sim.run()
    assert log == [42]


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimError):
        sim.schedule_at(5, lambda: None)


def test_process_timeout_advances_clock():
    sim = Simulator()

    def worker():
        yield Timeout(7)
        yield Timeout(3)
        return sim.now

    assert sim.run_process(worker()) == 10


def test_process_bare_int_is_timeout():
    sim = Simulator()

    def worker():
        yield 25
        return sim.now

    assert sim.run_process(worker()) == 25


def test_process_join_returns_value():
    sim = Simulator()

    def child():
        yield Timeout(5)
        return "done"

    def parent():
        proc = sim.spawn(child())
        value = yield from proc.join()
        return value, sim.now

    assert sim.run_process(parent()) == ("done", 5)


def test_join_already_finished_process():
    sim = Simulator()

    def child():
        return 11
        yield  # pragma: no cover

    def parent():
        proc = sim.spawn(child())
        yield Timeout(50)
        value = yield from proc.join()
        return value

    assert sim.run_process(parent()) == 11


def test_process_exception_propagates():
    sim = Simulator()

    def bad():
        yield Timeout(1)
        raise ValueError("boom")

    sim.spawn(bad())
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_unsupported_yield_raises():
    sim = Simulator()

    def weird():
        yield "nonsense"

    sim.spawn(weird())
    with pytest.raises(SimError):
        sim.run()


def test_trigger_resumes_all_waiters():
    sim = Simulator()
    trigger = Trigger(sim)
    results = []

    def waiter(tag):
        value = yield from trigger.wait()
        results.append((tag, value, sim.now))

    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))
    sim.schedule(15, lambda: trigger.fire("go"))
    sim.run()
    assert sorted(results) == [("a", "go", 15), ("b", "go", 15)]
    assert trigger.fire_count == 1


def test_trigger_does_not_resume_late_waiters():
    sim = Simulator()
    trigger = Trigger(sim)
    log = []

    def late():
        yield Timeout(20)
        value = yield from trigger.wait()
        log.append(value)

    sim.spawn(late())
    sim.schedule(5, lambda: trigger.fire("early"))
    sim.schedule(30, lambda: trigger.fire("second"))
    sim.run()
    assert log == ["second"]


def test_mutex_is_fifo_fair():
    sim = Simulator()
    mutex = Mutex(sim)
    order = []

    def contender(tag, arrive, hold):
        yield Timeout(arrive)
        yield from mutex.acquire(owner=tag)
        order.append((tag, sim.now))
        yield Timeout(hold)
        mutex.release()

    sim.spawn(contender("first", 0, 100))
    sim.spawn(contender("second", 10, 10))
    sim.spawn(contender("third", 20, 10))
    sim.run()
    assert order == [("first", 0), ("second", 100), ("third", 110)]


def test_mutex_release_unlocked_raises():
    sim = Simulator()
    with pytest.raises(RuntimeError):
        Mutex(sim).release()


def test_mutex_try_acquire_takes_only_a_free_lock():
    sim = Simulator()
    mutex = Mutex(sim)
    assert mutex.try_acquire("a") is True
    assert (mutex.locked, mutex.owner, mutex.acquire_count) == (True, "a", 1)
    assert mutex.try_acquire("b") is False      # held
    assert (mutex.owner, mutex.acquire_count) == ("a", 1)
    mutex.release()
    assert not mutex.locked and mutex.owner is None
    assert mutex.try_acquire("b") is True
    assert (mutex.owner, mutex.acquire_count) == ("b", 2)


def test_mutex_try_acquire_cannot_jump_the_queue_during_hand_off():
    """``release()`` with a queued waiter leaves the lock ``locked``
    while the waiter's wake-up is still in the now-queue: a
    ``try_acquire`` at that same instant must lose to it."""
    sim = Simulator()
    mutex = Mutex(sim)
    order = []

    def waiter():
        yield from mutex.acquire("waiter")
        order.append(("waiter", sim.now))
        mutex.release()

    def holder():
        assert mutex.try_acquire("holder")
        yield Timeout(50)
        mutex.release()                         # hands off, same instant:
        assert mutex.locked and mutex.waiters == 0
        assert mutex.try_acquire("jumper") is False
        order.append(("refused", sim.now))

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    assert order == [("refused", 50), ("waiter", 50)]
    assert not mutex.locked and mutex.acquire_count == 2


@pytest.mark.parametrize("seed", range(8))
def test_mutex_try_acquire_with_fallback_grants_like_acquire(seed):
    """A seeded interleaving of callers; the ones that try first and
    fall back to ``acquire`` are granted the lock in the order, at the
    times and with the event count of the all-``acquire`` program."""

    def run(try_first):
        rng = random.Random(seed)
        sim = Simulator()
        mutex = Mutex(sim)
        grants = []
        tried = {True: 0, False: 0}

        def caller(tag, tries):
            for _ in range(4):
                yield Timeout(rng.randrange(1, 120))
                took = tries and mutex.try_acquire(tag)
                if tries:
                    tried[took] += 1
                if not took:
                    yield from mutex.acquire(tag)
                assert mutex.owner == tag
                grants.append((tag, sim.now))
                yield Timeout(rng.randrange(1, 20))
                mutex.release()

        for tag in range(6):
            sim.spawn(caller(tag, try_first and tag % 2 == 0))
        sim.run()
        if try_first:   # both outcomes of the try were exercised
            assert tried[True] and tried[False]
        return grants, sim.now, sim.events_scheduled, mutex.acquire_count

    grants = run(try_first=True)
    assert grants == run(try_first=False)
    assert len(grants[0]) == 24


def test_queue_get_blocks_until_put():
    sim = Simulator()
    queue = Queue(sim)
    got = []

    def consumer():
        item = yield from queue.get()
        got.append((item, sim.now))

    sim.spawn(consumer())
    sim.schedule(40, lambda: queue.put("payload"))
    sim.run()
    assert got == [("payload", 40)]


def test_queue_preserves_fifo_and_try_get():
    sim = Simulator()
    queue = Queue(sim)
    queue.put(1)
    queue.put(2)
    assert len(queue) == 2
    assert queue.try_get() == 1
    assert queue.try_get() == 2
    assert queue.try_get() is None


def test_queue_remove_specific_item():
    sim = Simulator()
    queue = Queue(sim)
    queue.put("a")
    queue.put("b")
    assert queue.remove("a") is True
    assert queue.remove("zzz") is False
    assert queue.peek_all() == ("b",)


def test_condition_wait_for_predicate():
    sim = Simulator()
    cond = Condition(sim)
    state = {"ready": False}
    log = []

    def waiter():
        yield from cond.wait_for(lambda: state["ready"])
        log.append(sim.now)

    def setter():
        yield Timeout(10)
        cond.notify()  # spurious: predicate still false
        yield Timeout(10)
        state["ready"] = True
        cond.notify()

    sim.spawn(waiter())
    sim.spawn(setter())
    sim.run()
    assert log == [20]


def test_run_process_unfinished_raises():
    sim = Simulator()

    def forever():
        trigger = Trigger(sim)
        yield from trigger.wait()

    with pytest.raises(SimError):
        sim.run_process(forever())


def test_nested_yield_from_composition():
    sim = Simulator()

    def inner():
        yield Timeout(5)
        return 2

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b, sim.now

    assert sim.run_process(outer()) == (4, 10)


# --- slow-path commands and the Event handle ---------------------------------


def test_negative_timeout_from_process_rejected():
    sim = Simulator()

    def body():
        yield Timeout(-1)

    sim.spawn(body())
    with pytest.raises(SimError):
        sim.run()


def test_event_handle_not_pending_after_fire_or_cancel():
    sim = Simulator()
    fired = sim.schedule(5, lambda: None)
    now_fired = sim.schedule(0, lambda: None)
    cancelled = sim.schedule(5, lambda: None)
    assert fired.pending and now_fired.pending and cancelled.pending
    assert sim.pending_events == 3
    cancelled.cancel()
    assert not cancelled.pending and sim.pending_events == 2
    sim.run()
    assert not fired.pending and not now_fired.pending
    assert sim.pending_events == 0


def test_process_wakeups_count_as_pending_events():
    sim = Simulator()

    def body():
        yield Timeout(5)

    sim.spawn(body())
    assert sim.pending_events == 1  # the spawn, in the now-queue
    sim.run(until=1)
    assert sim.pending_events == 1  # the Timeout, in the heap
    sim.run()
    assert sim.pending_events == 0


def test_timeout_subclass_and_zero_delays_take_effect():
    class Nap(Timeout):
        pass

    sim = Simulator()
    log = []

    def body():
        yield Nap(7)
        log.append(sim.now)
        yield Nap(0)
        yield Timeout(0)
        yield 0
        log.append(sim.now)
        yield 3
        log.append(sim.now)

    sim.run_process(body())
    assert log == [7, 7, 10]


# --- ordering differential against a sorted-list reference -------------------


class _RefHandle:
    def __init__(self, time, seq, fn):
        self.time, self.seq, self.fn, self.cancelled = time, seq, fn, False

    def cancel(self):
        self.cancelled = True


class _RefSim:
    """The ordering contract spelled out: one list sorted by (time, seq)."""

    def __init__(self):
        self.now, self.events_scheduled, self.entries = 0, 0, []
        self.instants = []  # what a tracer's kernel/events track shows

    def schedule(self, delay, fn):
        self.events_scheduled += 1
        self.entries.append(_RefHandle(self.now + delay, self.events_scheduled, fn))
        self.instants.append(("schedule", self.now, self.now + delay))
        return self.entries[-1]

    def _wake_after(self, delay, waiter, value=None):
        """The argument-carrying entry is ``schedule`` minus the handle."""
        self.schedule(delay, lambda: waiter(value))

    def spawn(self, gen, name=""):
        proc = _RefProcess(self, gen)
        self.schedule(0, proc.step)
        return proc

    def run(self, until=None):
        while self.entries:
            self.entries.sort(key=lambda e: (e.time, e.seq))
            if until is not None and self.entries[0].time > until:
                break
            entry = self.entries.pop(0)
            if entry.cancelled:
                self.instants.append(("cancel", self.now, entry.time))
            else:
                self.now = entry.time
                self.instants.append(("fire", self.now, self.now))
                entry.fn()
        if until is not None and self.now < until:
            self.now = until

    @property
    def pending_events(self):
        return sum(not e.cancelled for e in self.entries)


class _RefTrigger:
    def __init__(self, sim):
        self.sim, self._waiters = sim, []

    def fire(self, value=None):
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.sim.schedule(0, lambda w=waiter: w(value))


class _RefProcess:
    def __init__(self, sim, gen):
        self.sim, self.gen = sim, gen
        self.finished, self.value, self._waiters = False, None, []

    def step(self, value=None):
        try:
            cmd = self.gen.send(value)
        except StopIteration as stop:
            self.finished, self.value = True, stop.value
            for waiter in self._waiters:
                waiter(stop.value)
            return
        if isinstance(cmd, (int, Timeout)):
            self.sim.schedule(getattr(cmd, "delay", cmd), self.step)
        elif isinstance(cmd, WaitTrigger):
            cmd.trigger._waiters.append(self.step)
        elif cmd.process.finished:
            self.sim.schedule(0, lambda: self.step(cmd.process.value))
        else:
            cmd.process._waiters.append(self.step)


def _run_random_program(seed, sim, trigger_cls, kinds=6):
    """Drive ``sim`` with a seeded program; every random draw happens
    inside a callback, so equal callback order means equal programs.
    ``kinds=8`` adds the argument-carrying entry (``_wake_after``) to
    the mix, at zero and non-zero delays."""
    rng = random.Random(seed)
    stops = sorted(random.Random(~seed).sample(range(1, 150), 3))
    log, handles, procs, budget = [], [], [], [120]
    triggers = [trigger_cls(sim) for _ in range(3)]

    def callback(tag):
        return lambda: act(tag)

    def worker(tag):
        for step in range(rng.randrange(1, 5)):
            kind = rng.randrange(4)
            if kind == 0:
                got = yield Timeout(rng.randrange(30))
            elif kind == 1:
                got = yield rng.randrange(30)
            elif kind == 2:
                got = yield WaitTrigger(rng.choice(triggers))
            else:  # finished, unfinished or (never resuming) itself
                got = yield WaitProcess(rng.choice(procs))
            act((tag, step, got))
        return tag

    def act(tag):
        log.append((tag, sim.now))
        for _ in range(rng.randrange(1, 5)):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            tag = ("n", budget[0])
            kind = rng.randrange(kinds)
            if kind == 0:
                handles.append(sim.schedule(0, callback(tag)))
            elif kind == 1:
                handles.append(sim.schedule(rng.randrange(1, 40), callback(tag)))
            elif kind == 2 and handles:  # before or after it fired
                rng.choice(handles).cancel()
            elif kind == 3:  # still sitting in the now-queue / the heap
                sim.schedule(rng.choice((0, 0, 9)), callback(tag)).cancel()
            elif kind == 4:
                procs.append(sim.spawn(worker(tag), name=str(tag)))
            elif kind == 5:
                rng.choice(triggers).fire(tag)
            elif kind == 6:  # rides the now-queue
                sim._wake_after(0, act, ("carried", tag))
            else:  # ties with schedule()d entries of the same instant
                sim._wake_after(rng.choice((1, 9, 9, 30)), act,
                                ("carried", tag))

    for root in range(4):
        sim.schedule(root * 11, callback(("root", root)))
    checkpoints = []
    for until in (*stops, None):
        sim.run(until=until)
        checkpoints.append(
            (len(log), sim.now, sim.pending_events, sim.events_scheduled))
    return log, checkpoints


def test_callback_order_matches_sorted_list_reference():
    for seed in range(240):
        got = _run_random_program(seed, Simulator(), Trigger)
        want = _run_random_program(seed, _RefSim(), _RefTrigger)
        assert got == want, f"seed {seed}"


def _kernel_instants(tracer):
    return [(e.name, e.ts, (e.args or {}).get("fire_at", e.ts))
            for e in tracer.events if e.track == "kernel/events"]


@pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))
def test_argument_carrying_entry_matches_sorted_list_reference(traced):
    """``_wake_after`` mixed with ``schedule``, ``cancel``, triggers and
    processes over ``run(until=)`` halves: the callbacks run in the
    reference's order with the reference's ``now`` and values,
    ``events_scheduled`` counts one per entry, and a tracer sees the
    ``schedule`` / ``fire`` / ``cancel`` instants ``schedule`` would
    have produced."""
    carried = 0
    for seed in range(160):
        sim, ref = Simulator(), _RefSim()
        tracer = Tracer(categories=ALL_CATEGORIES) if traced else None
        sim.set_tracer(tracer)
        got = _run_random_program(seed, sim, Trigger, kinds=8)
        want = _run_random_program(seed, ref, _RefTrigger, kinds=8)
        assert got == want, f"seed {seed}"
        assert sim.events_scheduled == ref.events_scheduled
        if traced:
            assert _kernel_instants(tracer) == ref.instants, f"seed {seed}"
        carried += sum(tag[0] == "carried" for tag, _ in got[0])
    assert carried > 300  # the mix did exercise the new entry


def test_wake_after_carries_its_value_and_cannot_be_cancelled():
    sim = Simulator()
    log = []
    assert sim._wake_after(7, log.append, "late") is None  # no handle
    sim._wake_after(0, log.append, "now")
    sim.schedule(7, lambda: log.append("scheduled after, same instant"))
    assert sim.pending_events == 3 and sim.events_scheduled == 3
    sim.run()
    assert log == ["now", "late", "scheduled after, same instant"]
    assert sim.now == 7
    with pytest.raises(SimError):
        sim._wake_after(-1, log.append)


# --- Trigger subscribers ------------------------------------------------------


def test_trigger_subscriber_is_synchronous_persistent_and_sees_the_value():
    sim = Simulator()
    trigger = Trigger(sim)
    log = []

    def waiter(tag):
        value = yield WaitTrigger(trigger)
        log.append((tag, value, sim.now))

    sim.spawn(waiter("w1"))
    sim.run()
    # Subscribed after the waiter registered: it is still called after
    # the one-shot waiters were queued (their entries are pending when
    # the subscriber runs, not yet run).
    trigger.subscribe(
        lambda value: log.append(("sub", value, sim.pending_events)))
    before = sim.events_scheduled
    trigger.fire("a")
    assert log == [("sub", "a", 1)]            # inside fire(), waiter queued
    assert sim.events_scheduled == before + 1  # the waiter's step only
    sim.run()
    assert log == [("sub", "a", 1), ("w1", "a", 0)]
    trigger.fire("b")                          # survives fires; no waiter left
    trigger.fire("c")
    assert log[2:] == [("sub", "b", 0), ("sub", "c", 0)]
    assert sim.events_scheduled == before + 1  # a subscriber costs no step


def test_trigger_subscribers_run_in_subscription_order():
    sim = Simulator()
    trigger = Trigger(sim)
    log = []
    trigger.subscribe(lambda v: log.append(("first", v)))
    trigger.subscribe(lambda v: log.append(("second", v)))
    trigger.fire(1)
    assert log == [("first", 1), ("second", 1)]


# --- Condition: predicate at notify -------------------------------------------


def test_condition_waiter_with_a_false_predicate_is_not_resumed():
    sim = Simulator()
    cond = Condition(sim)
    state = {"a": False, "b": False}
    log = []

    def waiter(key):
        yield from cond.wait_for(lambda: state[key])
        log.append((key, sim.now))

    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))
    sim.run()
    steps = sim.events_scheduled
    cond.notify()                      # nobody's predicate holds
    assert sim.events_scheduled == steps and sim.pending_events == 0
    state["b"] = True
    cond.notify()                      # only b is resumed ...
    assert sim.events_scheduled == steps + 1
    sim.run()
    assert log == [("b", 0)]
    state["a"] = True
    cond.notify()                      # ... and a kept its registration
    sim.run()
    assert log == [("b", 0), ("a", 0)]


def test_condition_resumes_in_registration_order_and_the_loser_rewaits():
    sim = Simulator()
    cond = Condition(sim)
    tokens = []
    log = []

    def consumer(tag):
        yield from cond.wait_for(lambda: bool(tokens))
        log.append((tag, tokens.pop(), sim.now))

    sim.spawn(consumer("first"))
    sim.spawn(consumer("second"))
    sim.spawn(consumer("third"))
    sim.run()
    tokens.append("t1")
    cond.notify()          # all three predicates hold at notify time
    sim.run()
    # The first registered took the token; the others re-checked, lost,
    # and wait again — in their original relative order.
    assert log == [("first", "t1", 0)]
    tokens.extend(["t2", "t3"])
    cond.notify()
    sim.run()
    assert log == [("first", "t1", 0), ("second", "t3", 0),
                   ("third", "t2", 0)]


def test_condition_concurrent_waiters_never_share_a_gate():
    """A finished waiter's gate is reused by the next waiter — by one."""
    sim = Simulator()
    cond = Condition(sim)
    state = {"warm": False, "a": False, "b": False}
    log = []

    def waiter(key):
        yield from cond.wait_for(lambda: state[key])
        log.append(key)

    sim.spawn(waiter("warm"))
    sim.run()
    state["warm"] = True
    cond.notify()
    sim.run()                      # its gate is now the spare one
    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))
    sim.run()
    state["b"] = True
    steps = sim.events_scheduled
    cond.notify()
    sim.run()
    assert log == ["warm", "b"]
    assert sim.events_scheduled == steps + 1   # a did not ride b's gate
    state["a"] = True
    cond.notify()
    sim.run()
    assert log == ["warm", "b", "a"]


def test_condition_predicate_true_at_entry_never_yields():
    sim = Simulator()
    cond = Condition(sim)

    def body():
        yield from cond.wait_for(lambda: True)
        return sim.events_scheduled

    # One entry for the spawn, none for the wait.
    assert sim.run_process(body()) == 1
    assert list(cond.wait_for(lambda: True)) == []


def test_condition_notify_accepts_a_trigger_value():
    """``Condition.notify`` can subscribe to a pulse directly (the
    environment listens to ``executor.slot_freed`` this way)."""
    sim = Simulator()
    cond = Condition(sim)
    pulse = Trigger(sim)
    pulse.subscribe(cond.notify)
    state = {"room": False}
    log = []

    def waiter():
        yield from cond.wait_for(lambda: state["room"])
        log.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    pulse.fire("ignored")
    sim.run()
    assert log == []
    state["room"] = True
    pulse.fire("ignored")
    sim.run()
    assert log == [0]
