"""The host-only hand-offs around a transaction (PR 24).

Four replacements, each checked against what it replaced:

* the stock schedulers key ``min`` with ``operator.attrgetter`` — a
  seeded property test against the lambdas they had;
* a blocked task learns of its transaction's completion through a
  one-shot synchronous ``Trigger.once`` callback — several waiters on one
  posted transaction, and no reference cycle left behind (the exact
  timeline is ``tests/test_softenv_timeline.py``'s 72 configurations);
* the executor parks on one gate — differential against the
  ``Condition`` hand-off it had, over seeded push/complete interleavings;
* the wake-up tick rides ``Simulator._wake_after`` — completions inside
  one window share one tick.
"""

import gc
import random
from types import SimpleNamespace

import pytest

from repro.bus import Channel
from repro.core import BabolController, ControllerConfig
from repro.core.executor import Executor
from repro.core.packetizer import Packetizer
from repro.core.softenv import GHZ, CoroutineEnvironment, Cpu, RtosEnvironment
from repro.core.softenv.task_scheduler import (
    FifoTaskScheduler,
    PriorityTaskScheduler,
    RoundRobinTaskScheduler,
)
from repro.core.softenv.txn_scheduler import (
    FifoTxnScheduler,
    PriorityTxnScheduler,
    RoundRobinTxnScheduler,
)
from repro.core.transaction import Transaction, TxnKind
from repro.core.ufsm import UfsmBank
from repro.core.ufsm.ca_writer import cmd
from repro.flash.package import build_channel_population
from repro.onfi import NVDDR2_200
from repro.onfi.commands import CMD
from repro.sim import Simulator, Timeout
from repro.sim.sync import Condition, Trigger

from tests.helpers import TEST_PROFILE

# ---------------------------------------------------------------------------
# Scheduler keys
# ---------------------------------------------------------------------------

# The keys as they were written at d304518.
OLD_TASK_KEYS = {
    FifoTaskScheduler: None,  # ready[0]
    RoundRobinTaskScheduler: lambda task: (task.last_resumed_at, task.id),
    PriorityTaskScheduler: lambda task: (
        task.priority, task.ready_since, task.id),
}


def old_txn_select(scheduler, pending):
    if isinstance(scheduler, FifoTxnScheduler):
        return min(pending, key=lambda txn: (txn.enqueued_at, txn.id))
    if isinstance(scheduler, RoundRobinTxnScheduler):
        return min(pending, key=lambda txn: (
            (txn.lun_position - scheduler._last_position - 1) % 64,
            txn.enqueued_at, txn.id))

    def key(txn):
        priority = txn.priority
        if (scheduler.age_threshold_ns is not None
                and txn.kind is TxnKind.POLL
                and txn.sim.now - txn.enqueued_at >= scheduler.age_threshold_ns):
            priority = -1
        return (priority, txn.enqueued_at, txn.id)

    return min(pending, key=key)


def random_tasks(rng, n):
    # Few distinct values per attribute: every prefix of a key ties often.
    return [SimpleNamespace(id=ident, last_resumed_at=rng.choice((-1, 5, 9)),
                            priority=rng.choice((0, 1, 2)),
                            ready_since=rng.choice((0, 7)))
            for ident in rng.sample(range(100), n)]


def random_txns(rng, n, now):
    sim = SimpleNamespace(now=now)
    return [SimpleNamespace(id=ident, sim=sim, lun_position=rng.randrange(8),
                            kind=rng.choice(list(TxnKind)),
                            priority=rng.choice((0, 1, 2)),
                            enqueued_at=rng.choice((0, 40, 90)))
            for ident in rng.sample(range(100), n)]


@pytest.mark.parametrize("scheduler_type", sorted(OLD_TASK_KEYS,
                                                  key=lambda t: t.name))
def test_task_scheduler_picks_what_the_lambda_key_picked(scheduler_type):
    rng = random.Random(24)
    scheduler = scheduler_type()
    old = OLD_TASK_KEYS[scheduler_type]
    for _ in range(300):
        ready = random_tasks(rng, rng.randrange(1, 9))
        expected = ready[0] if old is None else min(ready, key=old)
        assert scheduler.select(ready) is expected


@pytest.mark.parametrize("make", [
    FifoTxnScheduler, RoundRobinTxnScheduler, PriorityTxnScheduler,
    lambda: PriorityTxnScheduler(age_threshold_ns=50),
], ids=["fifo", "round-robin", "priority", "priority-aged"])
def test_txn_scheduler_picks_what_the_lambda_key_picked(make):
    rng = random.Random(11)
    scheduler, reference = make(), make()
    promoted = 0
    for _ in range(300):
        pending = random_txns(rng, rng.randrange(1, 9), now=100)
        expected = old_txn_select(reference, pending)
        if isinstance(reference, RoundRobinTxnScheduler):  # the old select
            reference._last_position = expected.lun_position  # rotated too
        assert scheduler.select(pending) is expected
        promoted += expected is not min(pending, key=PriorityTxnScheduler._key)
    if getattr(scheduler, "age_threshold_ns", None) is not None:
        # An aged poll jumps the C key's order: the closure is in use.
        assert promoted > 20
    elif isinstance(scheduler, PriorityTxnScheduler):
        assert promoted == 0


# ---------------------------------------------------------------------------
# The completion callback
# ---------------------------------------------------------------------------


def make_rig(runtime=RtosEnvironment, queue_depth=1, executor_type=Executor,
             exclusive=False):
    sim = Simulator()
    luns = build_channel_population(sim, TEST_PROFILE, 2, seed=2)
    channel = Channel(sim, luns, interface=NVDDR2_200)
    executor = executor_type(sim, channel, queue_depth=queue_depth)
    env = runtime(sim=sim, executor=executor, ufsm=UfsmBank(NVDDR2_200),
                  packetizer=Packetizer(None),
                  cpu=Cpu(sim, GHZ, exclusive=exclusive))
    return sim, executor, env


def status_txn(sim, env, lun=0, label=""):
    txn = Transaction(sim, lun, kind=TxnKind.POLL, label=label)
    txn.add_segment(env.ufsm.ca_writer.emit([cmd(CMD.READ_STATUS)],
                                            chip_mask=1 << lun))
    return txn


def test_trigger_once_is_synchronous_one_shot_and_forgotten_first():
    sim = Simulator()
    trigger = Trigger(sim)
    heard = []
    trigger.subscribe(lambda value: heard.append(("sub", value)))
    trigger.once(lambda value: heard.append(("once-a", value)))
    trigger.once(lambda value: (heard.append(("once-b", value)),
                                heard.append(trigger._once)))
    before = sim.events_scheduled
    trigger.fire(1)
    # Inside fire, after the subscribers, in order — and already dropped
    # when the callback runs.
    assert heard == [("sub", 1), ("once-a", 1), ("once-b", 1), ()]
    assert sim.events_scheduled == before  # no kernel entry
    trigger.fire(2)
    assert heard[4:] == [("sub", 2)]


def test_two_tasks_waiting_on_one_posted_transaction_both_wake():
    sim, executor, env = make_rig()
    shared = {}
    woke = {}

    def poster(ctx):
        txn = Transaction(sim, 0, label="shared")  # holds the bus 50 us:
        txn.add_segment(env.ufsm.timer.emit(50_000))  # time to block on it
        shared["txn"] = txn
        yield from ctx.post_transaction(txn)
        yield from ctx.wait_transaction(txn)
        woke["poster"] = sim.now
        return txn

    def bystander(ctx):
        while "txn" not in shared:
            yield from ctx.yield_control()
        assert shared["txn"].finished_at is None  # really blocks on it
        got = yield from ctx.wait_transaction(shared["txn"])
        woke["bystander"] = sim.now
        return got

    tasks = [env.submit(poster, 0), env.submit(bystander, 1)]
    sim.run()
    txn = shared["txn"]
    assert [task.state.value for task in tasks] == ["done", "done"]
    assert set(woke) == {"poster", "bystander"}
    wake_ns = txn.finished_at + env.cpu.cycles_to_ns(env.costs.wakeup)
    assert all(at >= wake_ns for at in woke.values())
    assert tasks[0].result is txn
    # One-shot: the fired trigger holds neither task any more, and a
    # second pulse reaches nobody (no tick armed, no kernel entry).
    assert txn.completed._once == () and txn.completed._subscribers == ()
    before = sim.events_scheduled
    txn.completed.fire(txn)
    assert sim.events_scheduled == before and env._tick_batch == []


def live_transactions():
    return [obj for obj in gc.get_objects() if isinstance(obj, Transaction)]


def test_a_finished_transaction_is_reclaimed_without_the_cycle_collector():
    """Nothing a completion touches may point back at the transaction:
    at d304518 ``Trigger.last_value`` did (txn -> completed -> txn), so
    every transaction — with its segments, its DMA handles and, through a
    listener left registered, its task — waited for a gc pass: ~41 000
    unreachable objects after these 200 reads, ~3 MB of peak RSS on the
    waveform benchmark workloads."""
    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        controller = BabolController(sim, ControllerConfig(
            vendor=TEST_PROFILE, lun_count=2, runtime="rtos",
            track_data=False, seed=6))
        pushed = []
        push = controller.executor.push
        controller.executor.push = lambda txn: (pushed.append(txn.id),
                                                push(txn))[1]
        for i in range(200):
            controller.run_to_completion(
                controller.read_page(i % 2, 1, i % 8, 0))
        assert len(pushed) > 1000
        # Only the executor's own frame still names its last transaction.
        assert [txn.id for txn in live_transactions()] == pushed[-1:]
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        unreachable = [type(obj).__name__ for obj in gc.garbage]
        assert "Transaction" not in unreachable
        assert "WaveformSegment" not in unreachable
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


# ---------------------------------------------------------------------------
# The executor's gate
# ---------------------------------------------------------------------------


class ConditionExecutor(Executor):
    """The hand-off as it was at d304518: ``push`` notifies a
    ``Condition`` the pipeline waits on, the queue's length being the
    predicate.  (The pipeline below is that commit's, minus its tracer
    span; ``_parked`` stays false, so the inherited ``push`` never
    touches the gate.)"""

    def __init__(self, sim, channel, **kwargs):
        self._cond = Condition(sim)
        super().__init__(sim, channel, **kwargs)

    def push(self, txn):
        super().push(txn)
        self._cond.notify()

    def _run(self):
        queue = self._queue
        while True:
            yield from self._cond.wait_for(queue.__len__)
            txn = queue.popleft()
            self.has_room = True
            self.slot_freed.fire(self)
            if self.dispatch_latency_ns:
                yield self._dispatch
            if not self.channel.mutex.try_acquire(txn):
                yield from self.channel.acquire(owner=txn)
            txn.started_at = self.sim.now
            yield from self.channel.run_transaction(txn)
            txn.finished_at = self.sim.now
            self.busy_ns += txn.finished_at - txn.started_at
            self.channel.release()
            self.executed += 1
            txn.completed.fire(txn)


def drive_interleaving(executor_type, queue_depth, seed):
    """Seeded pushes racing completions; the observable record."""
    sim, executor, env = make_rig(queue_depth=queue_depth,
                                  executor_type=executor_type)
    rng = random.Random(seed)
    popped_at = []
    executor.slot_freed.subscribe(lambda _: popped_at.append(sim.now))
    txns = []

    def producer():
        for index in range(40):
            gap = rng.choice((0, 0, 30, 50, 120, 400, 2_000))
            if gap:
                yield Timeout(gap)
            while not executor.has_room:
                yield from executor.slot_freed.wait()
            txn = status_txn(sim, env, lun=index % 2, label=f"t{index}")
            txns.append(txn)
            executor.push(txn)

    sim.run_process(producer(), name="producer")
    sim.run()
    assert executor.executed == 40 and executor.has_room
    return {
        "now": sim.now,
        "events_scheduled": sim.events_scheduled,
        "popped_at": popped_at,
        "timeline": [(txn.label, txn.dispatched_at, txn.started_at,
                      txn.finished_at) for txn in txns],
        "gate_fires": executor._gate.fire_count,
    }


@pytest.mark.parametrize("queue_depth", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_the_gate_is_the_condition_hand_off(queue_depth, seed):
    gate = drive_interleaving(Executor, queue_depth, seed)
    cond = drive_interleaving(ConditionExecutor, queue_depth, seed)
    assert cond.pop("gate_fires") == 0  # the reference never used it
    fires = gate.pop("gate_fires")
    assert gate == cond
    # Transactions pop in push order, and the gate fired only for pushes
    # that found the pipeline parked — fewer than one per transaction.
    assert [row[0] for row in gate["timeline"]] == [f"t{i}" for i in range(40)]
    assert 0 < fires < 40


def test_a_push_while_the_pipeline_is_mid_transaction_does_not_fire_the_gate():
    sim, executor, env = make_rig(queue_depth=2)
    first = status_txn(sim, env, label="first")
    executor.push(first)
    sim.run(until=10)  # the pipeline took it and sits in its 50 ns dispatch
    assert first.started_at is None and not executor._parked
    fires = executor._gate.fire_count
    assert executor.has_room
    executor.push(status_txn(sim, env, label="second"))
    executor.push(status_txn(sim, env, label="third"))
    assert executor._gate.fire_count == fires
    assert not executor.has_room
    with pytest.raises(RuntimeError, match="overflow"):
        executor.push(status_txn(sim, env))
    sim.run()
    assert executor.executed == 3 and executor._parked
    assert executor._gate.fire_count == fires  # drained without parking
    executor.push(status_txn(sim, env, label="fourth"))
    assert executor._gate.fire_count == fires + 1 and not executor._parked
    sim.run()
    assert executor.executed == 4


# ---------------------------------------------------------------------------
# The wake-up tick
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("exclusive", [False, True],
                         ids=["private-core", "exclusive-core"])
def test_two_completions_inside_one_window_share_one_tick(exclusive):
    sim, executor, env = make_rig(CoroutineEnvironment, exclusive=exclusive)
    ticks = []
    on_tick = env._on_tick
    env._on_tick = lambda value=None: (
        ticks.append((sim.now, len(env._tick_batch))), on_tick(value))[1]
    finished = []

    def op(ctx):
        txn = status_txn(sim, env, lun=ctx.lun_position)
        yield from ctx.add_transaction(txn)
        finished.append((txn.finished_at, sim.now))

    events = []  # cancellable Events anybody asks the kernel for
    schedule = sim.schedule
    sim.schedule = lambda *args: (events.append(args), schedule(*args))[1]
    tasks = [env.submit(op, 0), env.submit(op, 1)]
    sim.run()
    window = env.cpu.cycles_to_ns(env.costs.wakeup)
    (first, _), (second, _) = finished
    assert 0 < second - first < window      # both inside one window
    assert ticks == [(first + window, 2)]   # one tick, at the first's
    assert [task.ready_since for task in tasks] == [first + window] * 2
    assert all(task.state.value == "done" for task in tasks)
    assert events == []  # the tick rode _wake_after

