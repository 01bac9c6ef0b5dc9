"""The waveform tier's software-environment timeline, pinned to a recording.

``tests/fixtures/softenv_timeline.json`` was recorded on 08fb7bd, the
parent of the "one kernel step per modelled delay" change (PR 23), and
re-recorded when admission began to serve a LUN's waiting ops by
priority class (the lowest first, FIFO within a class) — with FIFO
admission that commit replays the previous workload's recording
exactly — with

    PYTHONPATH=src python -m tests.test_softenv_timeline --record

It holds, for a mixed workload (reads, programs, an erase, a
``read_with_retry``, a pipelined ``EnvPost``/``EnvWaitTxn`` op, a
timed-wait ``EnvSleep`` read and an erase that trips the watchdog) on
1 ch x 4 LUN under every combination of runtime, task scheduler,
transaction scheduler, executor queue depth and core arrangement (a
private core, or two environments on one ``exclusive`` core through
``core/storage.py``): every transaction's and task's timestamps, every
list a scheduler's ``select`` was handed and the nanosecond it was
handed it, and the counters of the CPU, the environment, the channel
and the dies.  The replay must equal it untraced and with a ``Tracer``
attached.  Re-record only for a deliberate timeline change, on the
commit whose behaviour is the reference.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import sys
from dataclasses import replace

import pytest

from repro.core import BabolController, ControllerConfig
from repro.core.ops import (
    erase_block_op,
    read_page_timed_wait_op,
)
from repro.core.ops.base import single_latch_txn
from repro.core.recovery import Watchdog
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
from repro.core.storage import StorageConfig, StorageController
from repro.core.transaction import TxnKind
from repro.core.ufsm.ca_writer import cmd
from repro.flash.vendors import VendorTiming
from repro.obs import Tracer
from repro.onfi.commands import CMD
from repro.onfi.geometry import PhysicalAddress
from repro.sim import Simulator, Timeout
from repro.sim.kernel import NS_PER_US
from tests.helpers import TEST_PROFILE

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "softenv_timeline.json"

# Exact (jitter-free) array times, short enough that a run is a few
# hundred transactions: ties between completions, ticks and charges are
# the interesting part.
PROFILE = replace(TEST_PROFILE, timing=VendorTiming(
    t_read_ns=12 * NS_PER_US, t_prog_ns=30 * NS_PER_US,
    t_bers_ns=70 * NS_PER_US, jitter=0.0))
LUNS = 4

TASK_SCHEDULERS = {"fifo": FifoTaskScheduler,
                   "round-robin": RoundRobinTaskScheduler,
                   "priority": PriorityTaskScheduler}
TXN_SCHEDULERS = {"fifo": FifoTxnScheduler,
                  "round-robin": RoundRobinTxnScheduler,
                  "priority": lambda: PriorityTxnScheduler(
                      age_threshold_ns=6 * NS_PER_US)}
CONFIGS = [
    "/".join(parts) for parts in itertools.product(
        ("rtos", "coroutine"), TASK_SCHEDULERS, TXN_SCHEDULERS,
        ("qd1", "qd2"), ("private", "shared"))]


class _Recording:
    """Wraps a scheduler: logs each list ``select`` is handed, when, and
    the choice — tasks and transactions named by their labels, whose
    process-global ids would differ between runs."""

    def __init__(self, inner, sim, log: list):
        self.inner, self.sim, self.log = inner, sim, log

    def select(self, items):
        choice = self.inner.select(items)
        self.log.append([self.sim.now, [item.label for item in items],
                         items.index(choice)])
        return choice


def pipelined_status_op(ctx):
    """Two polls posted back to back (``EnvPost``), then awaited in
    order (``EnvWaitTxn``) — the second wait finds its transaction
    already finished whenever the executor outran the scheduler."""
    first = yield from ctx.post_transaction(single_latch_txn(
        ctx, [cmd(CMD.READ_STATUS)], kind=TxnKind.POLL, label="pipe-a"))
    second = yield from ctx.post_transaction(single_latch_txn(
        ctx, [cmd(CMD.READ_STATUS)], kind=TxnKind.CONFIG, label="pipe-b"))
    yield from ctx.wait_transaction(first)
    yield from ctx.yield_control()
    yield from ctx.wait_transaction(second)
    return second.finished_at - first.finished_at


def _workload(sim, controller, tasks: list):
    """Submit the mixed workload: a burst at t=0 (admission defers the
    second op of a LUN), then stragglers from a driver process."""
    codec = controller.codec
    calls = itertools.count()

    def submit(task):
        tasks.append(task)

    def retry(lun, page):
        return controller.read_with_retry(
            lun, 2, page, 0, validate=lambda handle: next(calls) % 3 == 2)

    def timed(lun, page):
        return controller.submit(
            read_page_timed_wait_op, lun, codec=codec,
            address=PhysicalAddress(block=1, page=page), dram_address=0,
            wait_ns=PROFILE.timing.t_read_ns + 500, label="timed-read")

    submit(controller.read_page(0, 1, 0, 0, priority=2))
    submit(controller.program_page(1, 1, 0, 0))
    submit(controller.erase_block(2, 3, priority=0))
    submit(controller.read_page(3, 1, 1, 0))
    submit(controller.program_page(0, 1, 1, 0, priority=0))
    submit(retry(1, 2))
    submit(controller.submit(pipelined_status_op, 3, label="pipelined"))

    def driver():
        yield Timeout(7_300)
        submit(timed(2, 4))
        submit(controller.read_page(0, 1, 2, 0))
        submit(controller.read_page(1, 1, 6, 0, priority=0))
        yield Timeout(21_050)
        submit(controller.submit(pipelined_status_op, 1, priority=0,
                                 label="pipelined"))
        submit(controller.read_page(3, 1, 3, 0, priority=2))
        yield Timeout(40_000)
        submit(controller.program_page(2, 1, 5, 0))
        # The last op of LUN 3 runs under a watchdog it must trip (in
        # the read's class, so admission keeps it behind that read).
        controller.env.watchdog = Watchdog(budget_ns=9_000)
        submit(controller.submit(
            erase_block_op, 3, priority=2, codec=codec, block=5,
            label="doomed-erase"))
        controller.env.watchdog = None

    sim.spawn(driver(), name="driver")


def _build(config: str, sim: Simulator):
    runtime, task_name, txn_name, depth, core = config.split("/")
    channel = ControllerConfig(
        vendor=PROFILE, lun_count=LUNS, runtime=runtime, track_data=False,
        executor_queue_depth=int(depth[2:]))
    if core == "shared":
        storage = StorageController(sim, StorageConfig(
            channel_count=2, channel=channel, shared_cpu=True))
        controllers = storage.channels
    else:
        controllers = [BabolController(sim, channel)]
    logs = []
    for controller in controllers:
        log = {"task_select": [], "txn_select": [], "txns": [], "tasks": []}
        env = controller.env
        env.task_scheduler = _Recording(
            TASK_SCHEDULERS[task_name](), sim, log["task_select"])
        env.txn_scheduler = _Recording(
            TXN_SCHEDULERS[txn_name](), sim, log["txn_select"])
        logs.append(log)
    return controllers, logs


def run_timeline(config: str, tracer=None) -> dict:
    """Run the workload under ``config``; JSON-shaped timeline."""
    sim = Simulator()
    if tracer is not None:
        sim.set_tracer(tracer)
    controllers, logs = _build(config, sim)
    for controller, log in zip(controllers, logs):
        # A transaction is seen the moment it is dispatched.
        push = controller.executor.push

        def recording_push(txn, push=push, seen=log["txns"]):
            seen.append(txn)
            push(txn)

        controller.executor.push = recording_push
        _workload(sim, controller, log["tasks"])
    sim.run()
    channels = []
    for controller, log in zip(controllers, logs):
        env, stats = controller.env, controller.channel.stats
        assert all(task.finished_at is not None for task in log["tasks"])
        channels.append({
            "txns": [[t.label, t.lun_position, t.enqueued_at, t.dispatched_at,
                      t.started_at, t.finished_at] for t in log["txns"]],
            "tasks": [[t.label, t.lun_position, t.admitted_at,
                       t.last_resumed_at, t.finished_at,
                       None if t.error is None else type(t.error).__name__]
                      for t in log["tasks"]],
            "task_select": log["task_select"],
            "txn_select": log["txn_select"],
            "env": [env.tasks_submitted, env.tasks_completed,
                    env.tasks_failed, env.txns_enqueued, env.txns_dispatched],
            "executor": [controller.executor.executed,
                         controller.executor.busy_ns],
            "channel": [stats.segments, stats.busy_ns, stats.data_bytes_out,
                        stats.data_bytes_in, dict(sorted(stats.per_kind.items()))],
            "op_counts": [dict(sorted(lun.op_counts.items()))
                          for lun in controller.luns],
            "lun_busy_ns": [lun.busy_ns_total for lun in controller.luns],
        })
    cpus = {id(c.env.cpu): c.env.cpu for c in controllers}.values()
    return {
        "now": sim.now,
        "cpus": [[cpu.cycles_charged, cpu.contention_waits, cpu.busy_ns]
                 for cpu in cpus],
        "channels": channels,
    }


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def summarize(timeline: dict) -> dict:
    """What the fixture keeps of one run.  The per-task rows and the
    counters are kept whole; the long lists (one row per transaction,
    one per ``select`` call) as a count and a digest of every row — run
    ``python -m tests.test_softenv_timeline --dump CONFIG`` on both
    commits and ``diff`` to see which row moved."""
    channels = []
    for channel in timeline["channels"]:
        kept = dict(channel)
        for key in ("txns", "task_select", "txn_select"):
            kept[key] = [len(channel[key]), _digest(channel[key])]
        channels.append(kept)
    return dict(timeline, channels=channels)


def record() -> None:
    table = {config: summarize(run_timeline(config)) for config in CONFIGS}
    FIXTURE.write_text("{\n" + ",\n".join(   # one run per line
        f" {json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
        for key in sorted(table)) + "\n}\n")
    print(f"{len(table)} timelines -> {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    elif len(sys.argv) == 3 and sys.argv[1] == "--dump":
        json.dump(run_timeline(sys.argv[2]), sys.stdout, indent=0)
    else:
        sys.exit("usage: python -m tests.test_softenv_timeline "
                 "--record | --dump CONFIG")
    sys.exit(0)


@pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize("config", CONFIGS)
def test_timeline_equals_the_recording(config, traced):
    recorded = json.loads(FIXTURE.read_text())[config]
    tracer = Tracer() if traced else None
    timeline = run_timeline(config, tracer)
    # JSON round trip: tuples and int keys compare as the file holds them.
    assert json.loads(json.dumps(summarize(timeline))) == recorded
    if traced:
        # Every charge is a ``cpu`` span, wherever the charge is written.
        spans = [e for e in tracer.events if e.cat == "cpu"]
        assert sum(e.args["cycles"] for e in spans) == sum(
            cycles for cycles, _, _ in timeline["cpus"])
        assert sum(e.value for e in spans) == sum(
            busy_ns for _, _, busy_ns in timeline["cpus"])


def test_workload_reaches_every_environment_command():
    """The recording is only an oracle for what the workload exercises:
    an op error from the watchdog, a retry sweep, a wait on an already
    finished transaction, contention on the shared core, a full
    executor queue."""
    timeline = run_timeline("rtos/fifo/fifo/qd1/shared")
    assert timeline["cpus"][0][1] > 0          # contention_waits
    for channel in timeline["channels"]:
        errors = [row[5] for row in channel["tasks"]]
        assert errors.count("OpTimeout") == 1 and channel["env"][2] == 1
        labels = {row[0] for row in channel["txns"]}
        assert {"pipe-a", "pipe-b", "read-status", "read-transfer-timed",
                "set-features", "program-confirm", "erase"} <= labels
        assert any(len(pending) > 1 for _, pending, _ in channel["txn_select"])
        assert any(len(ready) > 1 for _, ready, _ in channel["task_select"])
        assert channel["op_counts"][1].get("SET_FEATURES", 0) >= 2
