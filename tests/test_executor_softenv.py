"""Unit tests for the executor and the software environments."""

import pytest

from repro.bus import Channel
from repro.core.executor import Executor
from repro.core.packetizer import Packetizer
from repro.core.softenv import (
    CORO_COSTS,
    Cpu,
    CoroutineEnvironment,
    EnvYield,
    GHZ,
    MHZ,
    RTOS_COSTS,
    RtosEnvironment,
    TaskState,
)
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
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE


def make_rig(lun_count=2, runtime=RtosEnvironment, freq=GHZ, **env_kwargs):
    sim = Simulator()
    luns = build_channel_population(sim, TEST_PROFILE, lun_count, seed=2)
    channel = Channel(sim, luns, interface=NVDDR2_200)
    executor = Executor(sim, channel)
    bank = UfsmBank(NVDDR2_200)
    env = runtime(
        sim=sim, executor=executor, ufsm=bank,
        packetizer=Packetizer(None), cpu=Cpu(sim, freq), **env_kwargs,
    )
    return sim, channel, executor, env


def status_txn(sim, env, lun=0, kind=TxnKind.POLL):
    txn = Transaction(sim, lun, kind=kind)
    txn.add_segment(env.ufsm.ca_writer.emit([cmd(CMD.READ_STATUS)], chip_mask=1 << lun))
    return txn


# --- executor ------------------------------------------------------------


def test_executor_executes_pushed_txn():
    sim, channel, executor, env = make_rig()
    txn = status_txn(sim, env)
    executor.push(txn)
    sim.run()
    assert executor.executed == 1
    assert txn.finished_at is not None
    assert txn.started_at >= executor.dispatch_latency_ns


def test_executor_respects_queue_depth():
    sim, channel, executor, env = make_rig()
    executor.push(status_txn(sim, env))
    with pytest.raises(RuntimeError, match="overflow"):
        executor.push(status_txn(sim, env))


def test_executor_rejects_empty_txn():
    sim, channel, executor, env = make_rig()
    with pytest.raises(ValueError):
        executor.push(Transaction(sim, 0))


def test_executor_slot_freed_fires_before_completion():
    sim, channel, executor, env = make_rig()
    events = []
    executor.slot_freed._add_waiter(lambda _: events.append(("slot", sim.now)))
    txn = status_txn(sim, env)
    txn.completed._add_waiter(lambda _: events.append(("done", sim.now)))
    executor.push(txn)
    sim.run()
    assert events[0][0] == "slot"
    assert events[0][1] <= events[1][1]


def test_executor_requires_positive_depth():
    sim = Simulator()
    luns = build_channel_population(sim, TEST_PROFILE, 1)
    channel = Channel(sim, luns)
    with pytest.raises(ValueError):
        Executor(sim, channel, queue_depth=0)


# --- environment basics ------------------------------------------------------


def test_env_runs_simple_operation():
    sim, channel, executor, env = make_rig()

    def op(ctx):
        txn = ctx.transaction(TxnKind.POLL)
        txn.add_segment(ctx.ufsm.ca_writer.emit([cmd(CMD.READ_STATUS)],
                                                chip_mask=ctx.chip_mask))
        result = yield from ctx.add_transaction(txn)
        return result.id

    task = env.submit(op, lun_position=0)
    sim.run()
    assert task.state is TaskState.DONE
    assert isinstance(task.result, int)
    assert env.tasks_completed == 1


def test_env_post_then_wait_pipelines():
    sim, channel, executor, env = make_rig()
    order = []

    def op(ctx):
        first = ctx.transaction(TxnKind.CMD_ADDR, label="one")
        first.add_segment(ctx.ufsm.ca_writer.emit([cmd(CMD.READ_STATUS)],
                                                  chip_mask=1))
        second = ctx.transaction(TxnKind.CMD_ADDR, label="two")
        second.add_segment(ctx.ufsm.ca_writer.emit([cmd(CMD.READ_STATUS)],
                                                   chip_mask=1))
        yield from ctx.post_transaction(first)
        yield from ctx.post_transaction(second)
        order.append("posted-both")
        yield from ctx.wait_transaction(first)
        yield from ctx.wait_transaction(second)
        return (first.finished_at, second.finished_at)

    task = env.submit(op, 0)
    sim.run()
    first_done, second_done = task.result
    assert order == ["posted-both"]
    assert first_done < second_done


def test_env_sleep_suspends_for_duration():
    sim, channel, executor, env = make_rig()

    def op(ctx):
        yield from ctx.sleep(5_000)
        return sim.now

    task = env.submit(op, 0)
    sim.run()
    assert task.result >= 5_000


def test_env_yield_control_rotates_tasks():
    sim, channel, executor, env = make_rig()
    trace = []

    def op(tag):
        def gen(ctx):
            for _ in range(3):
                trace.append(tag)
                yield EnvYield()
            return tag
        gen.__name__ = f"op-{tag}"
        return gen

    env.submit(op("a"), 0)
    env.submit(op("b"), 1)
    sim.run()
    # Fair rotation interleaves the two tasks.
    assert trace[:4] == ["a", "b", "a", "b"]


def test_env_admission_serializes_same_lun():
    sim, channel, executor, env = make_rig()
    spans = []

    def op(ctx):
        start = sim.now
        yield from ctx.sleep(10_000)
        spans.append((start, sim.now))
        return None

    env.submit(op, 0)
    env.submit(op, 0)  # same LUN: must wait for the first
    sim.run()
    assert len(spans) == 2
    assert spans[1][0] >= spans[0][1]


def test_env_different_luns_run_concurrently():
    sim, channel, executor, env = make_rig()
    spans = []

    def op(ctx):
        start = sim.now
        yield from ctx.sleep(50_000)
        spans.append((start, sim.now))
        return None

    env.submit(op, 0)
    env.submit(op, 1)
    sim.run()
    assert spans[1][0] < spans[0][1]  # overlapping lifetimes


def test_env_unsupported_command_raises():
    sim, channel, executor, env = make_rig()

    def op(ctx):
        yield "garbage"

    env.submit(op, 0)
    with pytest.raises(TypeError, match="unsupported command"):
        sim.run()


def test_wait_task_returns_result():
    sim, channel, executor, env = make_rig()

    def op(ctx):
        yield from ctx.sleep(100)
        return 99

    task = env.submit(op, 0)

    def waiter():
        value = yield from env.wait_task(task)
        return value

    assert sim.run_process(waiter()) == 99


# --- CPU cost model -------------------------------------------------------


def test_cpu_cycles_to_ns_scaling():
    sim = Simulator()
    cpu = Cpu(sim, 100 * MHZ)
    assert cpu.cycles_to_ns(100) == 1000
    assert Cpu(sim, GHZ).cycles_to_ns(100) == 100
    assert Cpu(sim, GHZ, cpi=2.0).cycles_to_ns(100) == 200


def test_cpu_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Cpu(sim, 0)
    with pytest.raises(ValueError):
        Cpu(sim, GHZ, cpi=0)


def test_slower_cpu_slows_the_environment():
    def run_once(freq):
        sim, channel, executor, env = make_rig(runtime=CoroutineEnvironment, freq=freq)

        def op(ctx):
            for _ in range(5):
                txn = ctx.transaction(TxnKind.POLL)
                txn.add_segment(ctx.ufsm.ca_writer.emit(
                    [cmd(CMD.READ_STATUS)], chip_mask=1))
                yield from ctx.add_transaction(txn)
            return sim.now

        task = env.submit(op, 0)
        sim.run()
        return task.result

    assert run_once(150 * MHZ) > 4 * run_once(GHZ)


def test_runtime_cost_tables_ordered():
    assert CORO_COSTS.poll_cycle_estimate() > 5 * RTOS_COSTS.poll_cycle_estimate()
    # The calibration anchor: ~30us poll period at 1 GHz for coroutines.
    assert 20_000 <= CORO_COSTS.poll_cycle_estimate() <= 40_000


# --- schedulers ---------------------------------------------------------


class _FakeTask:
    def __init__(self, id, priority=1, last=0, ready=0):
        self.id = id
        self.priority = priority
        self.last_resumed_at = last
        self.ready_since = ready


def test_fifo_task_scheduler_takes_head():
    tasks = [_FakeTask(1), _FakeTask(2)]
    assert FifoTaskScheduler().select(tasks).id == 1


def test_round_robin_task_scheduler_prefers_least_recent():
    tasks = [_FakeTask(1, last=50), _FakeTask(2, last=10)]
    assert RoundRobinTaskScheduler().select(tasks).id == 2


def test_priority_task_scheduler_orders_by_priority():
    tasks = [_FakeTask(1, priority=2, ready=0), _FakeTask(2, priority=0, ready=5)]
    assert PriorityTaskScheduler().select(tasks).id == 2


def _txn(sim, lun, kind, enq):
    txn = Transaction(sim, lun, kind=kind)
    txn.enqueued_at = enq
    return txn


def test_fifo_txn_scheduler_by_enqueue_time():
    sim = Simulator()
    a = _txn(sim, 0, TxnKind.POLL, 10)
    b = _txn(sim, 1, TxnKind.DATA_OUT, 5)
    assert FifoTxnScheduler().select([a, b]) is b


def test_priority_txn_scheduler_prefers_data_over_polls():
    sim = Simulator()
    poll = _txn(sim, 0, TxnKind.POLL, 0)
    data = _txn(sim, 1, TxnKind.DATA_OUT, 100)
    assert PriorityTxnScheduler().select([poll, data]) is data


def test_priority_txn_scheduler_poll_pressure():
    sim = Simulator()
    pending = [_txn(sim, 0, TxnKind.POLL, 0), _txn(sim, 1, TxnKind.DATA_OUT, 0)]
    assert PriorityTxnScheduler.poll_pressure(pending) == 0.5
    assert PriorityTxnScheduler.poll_pressure([]) == 0.0


def test_round_robin_txn_scheduler_rotates_luns():
    sim = Simulator()
    scheduler = RoundRobinTxnScheduler()
    a = _txn(sim, 0, TxnKind.CMD_ADDR, 0)
    b = _txn(sim, 1, TxnKind.CMD_ADDR, 0)
    first = scheduler.select([a, b])
    second = scheduler.select([a, b])
    assert {first.lun_position, second.lun_position} == {0, 1}
    assert first is not second
