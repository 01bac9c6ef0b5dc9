"""The software environment runtime.

This module is the "Operation Scheduling" half of Fig. 5.  An operation
is a Python generator that yields *environment commands*:

``EnvAwait(txn)``
    The paper's ``co_await add_transaction(...)``: enqueue the
    transaction and suspend until the executor has transmitted it.

``EnvPost(txn)``
    Enqueue without suspending (multi-transaction pipelining).

``EnvWaitTxn(txn)``
    Suspend until a previously posted transaction completes.

``EnvSleep(ns)``
    Suspend for a fixed simulated time (used by the timed-wait
    ablation instead of status polling).

``EnvYield()``
    Cooperative yield: go to the back of the ready queue.

Operations compose with plain ``yield from`` (Algorithm 2 invoking
Algorithm 1).  The environment's main loop runs on the modeled CPU and
charges the runtime's cycle costs for every scheduler iteration,
context switch, enqueue, and dispatch — so a 150 MHz soft-core really
does schedule ~7× slower than the 1 GHz ARM, which is the effect
Fig. 10 sweeps.

Each of those four charges is one kernel step and the loop takes no
other: on a private core a charge is written where it happens
(``cycles_charged += c``, yield ``cpu.pauses[c]``), the loop parks on a
gate that is fired only once it has work again, and the executor's
"slot freed" pulse reaches that check synchronously.  On an
``exclusive`` core every charge still goes through ``Cpu.execute``:
its per-charge mutex hand-off is how environments sharing it interleave.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Generator, Optional

from repro.core.executor import Executor
from repro.core.packetizer import Packetizer
from repro.core.recovery import OpAborted, OpTimeout, RecoverableOpError
from repro.core.softenv.cpu import Cpu
from repro.core.softenv.task_scheduler import RoundRobinTaskScheduler, TaskScheduler
from repro.core.softenv.txn_scheduler import FifoTxnScheduler, TxnScheduler
from repro.core.transaction import Transaction, TxnKind
from repro.core.ufsm.base import UfsmBank
from repro.onfi.status import StatusBits, StatusRegister
from repro.sim import Simulator, Trigger, WaitTrigger

_task_ids = itertools.count()
_ARDY = int(StatusBits.ARDY)

#: Admission order: the lowest ``priority`` class first; ``sorted`` is
#: stable, so FIFO within a class.
_CLASS = attrgetter("priority")


@dataclass(frozen=True)
class RuntimeCosts:
    """Cycle costs of one software runtime's primitives.

    ``context_switch`` / ``scheduler_iteration`` / ``enqueue`` /
    ``dispatch`` are *serializing*: they occupy the CPU and bound how
    many transactions per second the runtime can push.  ``wakeup`` is a
    *latency*: the delay between a hardware completion and the runtime
    noticing it (event-loop granularity, completion-queue batching).
    It stretches idle-channel round trips — the Fig. 11 polling period
    — without consuming CPU, which is why a heavyweight runtime can
    still saturate a busy channel (Fig. 10 at 8 LUNs).
    """

    context_switch: int
    scheduler_iteration: int
    enqueue: int
    dispatch: int
    wakeup: int

    def poll_cycle_estimate(self) -> int:
        """Cycles of one status-poll round trip (Fig. 11's quantity)."""
        return (
            self.context_switch
            + self.scheduler_iteration
            + self.enqueue
            + self.dispatch
            + self.wakeup
        )

    def serialized_txn_cycles(self) -> int:
        """CPU cycles consumed per transaction (the throughput bound)."""
        return (
            self.context_switch
            + self.scheduler_iteration
            + self.enqueue
            + self.dispatch
        )


# -- environment commands ---------------------------------------------------


@dataclass
class EnvAwait:
    txn: Transaction


@dataclass
class EnvPost:
    txn: Transaction


@dataclass
class EnvWaitTxn:
    txn: Transaction


@dataclass
class EnvSleep:
    ns: int


@dataclass
class EnvYield:
    pass


class TaskState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class Task:
    """One admitted operation instance."""

    __slots__ = (
        "id", "gen", "lun_position", "priority", "state", "result",
        "completed", "submitted_at", "admitted_at", "finished_at",
        "last_resumed_at", "ready_since", "send_value", "label", "error",
        "pair", "plan", "factory", "partner",
    )

    def __init__(
        self,
        sim: Simulator,
        gen: Optional[Generator],
        lun_position: int,
        priority: int = 1,
        label: str = "",
        pair: Optional[tuple] = None,
        plan: Optional[tuple] = None,
        factory: Optional[Callable] = None,
    ):
        self.id = next(_task_ids)
        self.gen = gen
        self.lun_position = lun_position
        self.priority = priority
        self.state = TaskState.READY
        self.result: Any = None
        self.completed = Trigger(sim)
        self.submitted_at = sim.now
        self.admitted_at: Optional[int] = None
        self.finished_at: Optional[int] = None
        self.last_resumed_at = -1
        self.ready_since = sim.now
        self.send_value: Any = None
        self.label = label or getattr(gen, "__name__", "op")
        # A RecoverableOpError the operation raised (watchdog timeout,
        # FAIL status surfaced as an exception); None on the happy path.
        self.error: Optional[BaseException] = None
        # A full-page PROGRAM admission may pair: ``(plane, address,
        # dram_address, codec)``; None for every other op.
        self.pair = pair
        # ``(template, operands)`` when the TLM template runner runs the
        # op, which then has no ``gen`` unless a generic holder takes it
        # in (``factory`` builds it); the partner of a templated pair.
        self.plan = plan
        self.factory = factory
        self.partner: Optional["Task"] = None

    def describe(self) -> str:
        return f"task#{self.id} {self.label} lun{self.lun_position} {self.state.value}"


class OperationContext:
    """What an operation sees: the µFSM bank, Packetizer, and its target.

    This is the abstraction boundary Section III discusses — everything
    below it (pin timing, DMA pacing, channel arbitration) is hidden;
    everything above it (operation structure, category-3 waits,
    polling-vs-timer decisions) belongs to the SSD Architect.
    """

    def __init__(
        self,
        env: "SoftwareEnvironment",
        lun_position: int,
        chip_mask: Optional[int] = None,
    ):
        self.env = env
        self.sim = env.sim
        self.lun_position = lun_position
        self.chip_mask = chip_mask if chip_mask is not None else (1 << lun_position)
        self.ufsm: UfsmBank = env.ufsm
        self.packetizer: Packetizer = env.packetizer
        # Nanosecond poll budget (repro.core.recovery.Watchdog) shared
        # by every busy-wait this op performs; None = unbounded (the
        # historical behaviour, byte-identical paths).
        self.watchdog = env.watchdog
        # The vendor profile of the attached package, if known: op-IR
        # programs resolve per-vendor overrides through it.
        self.vendor = getattr(env, "vendor", None)

    # -- transaction building ------------------------------------------

    def transaction(self, kind: TxnKind = TxnKind.CMD_ADDR, priority: Optional[int] = None,
                    label: str = "") -> Transaction:
        return Transaction(
            self.sim, self.lun_position, kind=kind, priority=priority, label=label
        )

    # -- the co_await-style verbs (generators; use with ``yield from``) --

    def add_transaction(self, txn: Transaction) -> Generator:
        """Enqueue and suspend until executed (Algorithm 1, line 8)."""
        result = yield EnvAwait(txn)
        return result

    def post_transaction(self, txn: Transaction) -> Generator:
        """Enqueue without suspending (pipelined multi-txn operations)."""
        yield EnvPost(txn)
        return txn

    def wait_transaction(self, txn: Transaction) -> Generator:
        yield EnvWaitTxn(txn)

    def sleep(self, ns: int) -> Generator:
        yield EnvSleep(ns)

    def yield_control(self) -> Generator:
        yield EnvYield()


class SoftwareEnvironment:
    """The runtime: admission, task scheduling, transaction dispatch."""

    runtime_name = "generic"

    def __init__(
        self,
        sim: Simulator,
        executor: Executor,
        ufsm: UfsmBank,
        packetizer: Packetizer,
        cpu: Cpu,
        costs: RuntimeCosts,
        task_scheduler: Optional[TaskScheduler] = None,
        txn_scheduler: Optional[TxnScheduler] = None,
        vendor=None,
    ):
        self.sim = sim
        self.executor = executor
        self.ufsm = ufsm
        self.packetizer = packetizer
        self.cpu = cpu
        self.costs = costs
        self.vendor = vendor
        self.task_scheduler = task_scheduler or RoundRobinTaskScheduler()
        self.txn_scheduler = txn_scheduler or FifoTxnScheduler()
        # Optional Watchdog giving every busy-wait an ns budget; the
        # controller installs it from its config (None = off).
        self.watchdog = None

        self._ready: list[Task] = []
        self._pending_txns: list[Transaction] = []
        self._admission_queue: list[Task] = []
        # LUN -> the task holding it: a LUN runs one op at a time, and
        # only its holder's finish frees it (a program chain moves it on).
        self._running: dict[int, Task] = {}
        # The loop parks on this gate when it finds no work; only a
        # change made from outside the loop (a submit, a task made ready,
        # a freed executor slot) can give it work while it is parked.
        self._park = WaitTrigger(Trigger(sim))
        self._parked = False
        self._stopped = False
        self._tick_batch: list[Task] = []  # non-empty = a tick is due
        # Completion-notice latency in ns, converted once per bound core
        # (core/storage.py rebinds ``cpu`` onto a shared core).
        self._wakeup_cpu: Optional[Cpu] = None
        self._wakeup_ns = 0

        self.tasks_submitted = 0
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.txns_enqueued = 0
        self.txns_dispatched = 0
        self.programs_paired = 0  # multi-plane PROGRAMs run for two
        # Pairs a program chain took behind another (each one's loads
        # under the tPROG before it); where the die has CACHE PROGRAM.
        self.programs_chained = 0
        self.chains_programs = vendor is not None and vendor.supports_cache
        # The TLM template runner (``fastops.PlanExecutor``) of tasks
        # admitted with a plan, and the LUNs whose template erase sleeps
        # until a planned task it may take in is queued -> its wake.
        self.plan_runner = None
        self._waking: dict[int, Trigger] = {}
        # What a suspended erase may take in (:meth:`_urgent`): the
        # nominal array time of a read and of a PROGRAM, and the penalty
        # a RESUME adds to the erase.
        timing = vendor.timing if vendor is not None else None
        self._t_read = timing.t_read_ns if timing else 0
        self._t_prog = timing.t_prog_ns if timing else 0
        self._t_resume = timing.t_resume_ns if timing else 0
        # Tasks run inside a suspended erase, by op kind, on both paths.
        self.inside_suspension = {"read": 0, "program": 0}

        # The executor tells us when a queue slot frees so the dispatcher
        # half of the loop can run again.
        executor.slot_freed.subscribe(self._unpark)
        self._loop = sim.spawn(self._run(), name=f"{self.runtime_name}-env")

    # ------------------------------------------------------------------
    # FTL-facing API
    # ------------------------------------------------------------------

    def submit(
        self,
        op_factory: Callable[[OperationContext], Generator],
        lun_position: int,
        priority: int = 1,
        chip_mask: Optional[int] = None,
        label: str = "",
        pair: Optional[tuple] = None,
        plan: Optional[tuple] = None,
    ) -> Task:
        """Request an operation; admission may defer it (busy LUN).
        ``pair``: the op is a full-page PROGRAM that admission may run
        together with a queued one on another plane (``Task.pair``).
        ``plan``: the template runner's ``(template, operands)`` for the
        op, which it then runs once admitted (``Task.plan``)."""
        gen = None if plan is not None else op_factory(
            OperationContext(self, lun_position, chip_mask=chip_mask))
        task = Task(self.sim, gen, lun_position, priority=priority,
                    label=label or getattr(op_factory, "__name__", "op"),
                    pair=pair, plan=plan, factory=op_factory)
        self.tasks_submitted += 1
        self._admission_queue.append(task)
        self._admit_eligible()
        if self._parked and plan is None:  # a plan gives the loop no work
            self._unpark()
        if plan is not None and lun_position in self._waking \
                and self._inside_ns(task) is not None \
                and priority < self._running[lun_position].priority:
            # The LUN's template erase: it may take the task in.
            self._waking.pop(lun_position).fire()
        return task

    @staticmethod
    def wait_task(task: Task) -> Generator:
        """Process helper: ``result = yield from env.wait_task(task)``."""
        if task.state is TaskState.DONE:
            return task.result
        result = yield from task.completed.wait()
        return result

    # ------------------------------------------------------------------
    # Admission (the Task Scheduler's gate)
    # ------------------------------------------------------------------

    def _admit_eligible(self) -> None:
        """Admit a waiting task on every LUN that runs none (a LUN runs
        one op at a time, templated or not): the lowest ``priority``
        class first (0 host reads, 1 host writes and journal, 2 garbage
        collection, as the FTL assigns them), in submission order within
        a class, to the template runner if it has a plan.  An admitted
        full-page PROGRAM takes the first waiting one on another plane
        of its die, in the same order, and the two run as one
        multi-plane PROGRAM (:meth:`_pair_up`); where the die has CACHE
        PROGRAM that pair starts a program chain (:meth:`chain_next`)."""
        queue = self._admission_queue
        if not queue:
            return
        top = queue[0].priority
        for task in queue:  # one class waiting (the usual case): no sort
            if task.priority != top:
                queue = sorted(queue, key=_CLASS)
                break
        admitted: list[Task] = []
        for task in queue:
            if task.admitted_at is not None:
                continue  # taken as an admitted PROGRAM's partner
            if task.lun_position not in self._running:
                self._running[task.lun_position] = task
                task.admitted_at = self.sim.now
                admitted.append(task)
                if task.pair is not None:
                    self._pair_up(task, queue, admitted)
                if task.plan is None:
                    task.ready_since = self.sim.now
                    self._ready.append(task)
                else:
                    self.plan_runner.admit(task)
        for task in admitted:
            self._admission_queue.remove(task)

    @staticmethod
    def _partner(task: Task, queue: list) -> Optional[Task]:
        """The pairing rule: the first task in admission order (lowest
        class first, FIFO within a class) among ``queue``, in submission
        order, that is a full-page PROGRAM on ``task``'s die, another
        plane and the same path (planned or not), and not yet admitted."""
        plane = task.pair[0]
        lun_position = task.lun_position
        generic = task.plan is None
        partner = None
        for other in queue:
            pair = other.pair
            if pair is not None and pair[0] != plane \
                    and other.lun_position == lun_position \
                    and other.admitted_at is None \
                    and (other.plan is None) is generic \
                    and (partner is None
                         or other.priority < partner.priority):
                partner = other
        return partner

    def _pair_up(self, task: Task, queue: list, admitted: list) -> None:
        """An admitted full-page PROGRAM takes its partner
        (:meth:`_partner`) out of the queue, and its op becomes the one
        paired PROGRAM (one tPROG, a pass/fail per page) that finishes
        both; a planned pair needs a template.  Where the die has CACHE
        PROGRAM and another pair waits for it, the pair is a program
        chain's first step instead (:meth:`chain_next`)."""
        other = self._partner(task, queue)
        if other is None:
            return
        runner = self.plan_runner
        planned = task.plan is not None
        if planned:
            plan = runner.pair_plan(task, other)
            if plan is None:
                return
        other.admitted_at = other.ready_since = self.sim.now
        other.state = TaskState.RUNNING
        admitted.append(other)
        self.programs_paired += 1
        chain = self.chains_programs and (not planned or runner.chains) \
            and self._next_pair(task.lun_position, planned) is not None
        if planned:
            task.plan = runner.head_plan(task, other) if chain else plan
            task.partner = other
        elif chain:
            task.gen = self._run_chain(task, other, None, True)
        else:
            task.gen = self._run_pair(task, other)

    def chain_next(self, lun_position: int, planned: bool
                   ) -> Optional[tuple[Task, Task]]:
        """The chain rule, the one both tiers ask when a program chain on
        ``lun_position`` has a pair loaded and is about to confirm it:
        after its first step's loads, and after each step has read the
        status of the pair it confirmed (before that pair's tasks
        finish).  The task admission would admit next on the die must be
        a full-page PROGRAM on the chain's path (``planned``) with a
        partner by the pairing rule, and no class-0 task may wait (a
        host read ends the chain).  The pair returned is taken: admitted,
        out of the queue, and holding the die — the loaded pairs' tasks
        finish when their status is read, and whichever holds the die
        last frees it.  None: the loaded pair is the chain's last."""
        pair = self._next_pair(lun_position, planned)
        if pair is None:
            return None
        now = self.sim.now
        for task in pair:
            self._admission_queue.remove(task)
            task.admitted_at = task.ready_since = now
            task.state = TaskState.RUNNING
        self._running[lun_position] = pair[0]
        self.programs_paired += 1
        self.programs_chained += 1
        return pair

    def _next_pair(self, lun_position: int, planned: bool
                   ) -> Optional[tuple[Task, Task]]:
        """The pair the chain rule would take on ``lun_position`` now
        (:meth:`chain_next`), left where it is."""
        queue = self._admission_queue
        first = None
        for task in queue:
            if task.lun_position == lun_position \
                    and task.admitted_at is None and (
                        first is None or task.priority < first.priority):
                first = task
        if first is None or first.priority <= 0 or first.pair is None \
                or (first.plan is not None) is not planned:
            return None
        other = self._partner(first, queue)
        return None if other is None else (first, other)

    def drop_behind(self, lun_position: int, behind: tuple,
                    confirmed: tuple, exc: RecoverableOpError) -> None:
        """A program chain's step failed with ``exc``, the pair
        ``behind`` taken and its pages loaded, never confirmed: a RESET
        task takes the die over and settles ``confirmed`` — the tasks
        of the pair the step confirmed — and ``behind``
        (:meth:`_reset_behind`).  No other op sees the die until the
        RESET ends."""
        task = Task(self.sim, None, lun_position, priority=0,
                    label="chain-reset")
        task.gen = self._reset_behind(lun_position, behind, confirmed, exc)
        task.admitted_at = self.sim.now
        self.tasks_submitted += 1
        self._running[lun_position] = task
        self._make_ready(task)

    def _reset_behind(self, lun_position: int, behind: tuple,
                      confirmed: tuple, exc: RecoverableOpError
                      ) -> Generator:
        """Read the die's status, then RESET it: the RESET drops the
        pair ``behind``, whose tasks return to the admission queue unrun
        in their place (they fail too if the RESET fails), and it ends a
        hang.  The tasks in ``confirmed`` fail with ``exc`` — unless the
        status showed their CACHE PROGRAM still in the array (RDY
        without ARDY), which the RESET aborts: they fail with
        :class:`OpAborted` then, since the status after the RESET is no
        verdict on a program that never committed.  Returns the error
        they failed with."""
        from repro.core.ops import read_status_op, reset_op

        ctx = OperationContext(self, lun_position)
        try:
            status = yield from read_status_op(ctx)
            if StatusRegister.is_ready(status) \
                    and not StatusRegister.is_array_ready(status):
                exc = OpAborted("program", lun_position)
            yield from reset_op(ctx)
        except RecoverableOpError as failed:
            for task in confirmed:
                self._fail(task, exc)
            for task in behind:
                self._fail(task, failed)
            raise
        for task in confirmed:
            self._fail(task, exc)
        self.programs_paired -= 1
        self.programs_chained -= 1
        queue = self._admission_queue
        for task in behind:
            task.admitted_at = None
            task.state = TaskState.READY
            at = len(queue)
            while at and queue[at - 1].id > task.id:
                at -= 1
            queue.insert(at, task)
        return exc

    def _run_pair(self, task: Task, partner: Task) -> Generator:
        """``task``'s op once paired: both pages in one paired PROGRAM;
        the partner finishes with its own page's pass/fail."""
        from repro.core.ops import paired_program_op

        _, address, dram_address, codec = task.pair
        pages = ((address, dram_address), partner.pair[1:3])
        ctx = OperationContext(self, task.lun_position)
        try:
            passed = yield from paired_program_op(ctx, codec=codec, pages=pages)
        except RecoverableOpError as exc:
            yield from self._settle(ctx, (partner,), exc)
        self._finish_task(partner, passed[1])
        return passed[0]

    def _run_chain(self, task: Task, partner: Task, behind: Optional[tuple],
                   first: bool) -> Generator:
        """``task``'s op in a program chain: its and ``partner``'s pages,
        loaded here when ``first`` (by the step before else), are
        confirmed with CACHE PROGRAM while the ``behind`` pair loads —
        when ``first``, the chain rule picks it after the loads — or
        with PROGRAM, ending the chain, when none is behind.  The two
        tasks finish with their pages' status once the chain rule has
        picked the pair after ``behind``, whose first task runs the
        chain on."""
        from repro.core.ops import program_chain_end_op, program_chain_step_op

        codec = task.pair[3]
        pages = (task.pair[1:3], partner.pair[1:3])
        ctx = OperationContext(self, task.lun_position)
        after = None
        try:
            if first:
                yield from program_chain_step_op(ctx, codec=codec, pages=pages)
                behind = self.chain_next(task.lun_position, False)
            if behind is None:
                passed = yield from program_chain_end_op(
                    ctx, codec=codec, pages=pages)
            else:
                passed = yield from program_chain_step_op(
                    ctx, codec=codec, finished=pages,
                    pages=(behind[0].pair[1:3], behind[1].pair[1:3]))
                after = self.chain_next(task.lun_position, False)
        except RecoverableOpError as exc:
            if behind is None:
                yield from self._settle(ctx, (partner,), exc)
            # This task holds the die through the RESET that settles
            # its pair and drops the one behind (`_reset_behind`).
            self._running[task.lun_position] = task
            raise (yield from self._reset_behind(
                task.lun_position, behind, (partner,), exc))
        self._finish_task(partner, passed[1])
        if behind is not None:
            behind[0].gen = self._run_chain(*behind, after, False)
            self._make_ready(behind[0])
        return passed[0]

    def _settle(self, ctx: OperationContext, others: tuple,
                exc: RecoverableOpError) -> Generator:
        """The op the task holding ``ctx``'s die runs failed with
        ``exc``: fail ``others`` (a pair's partner) with it, and raise it
        for the holder.  A watchdog timeout leaves the die maybe still
        busy, so the holder first keeps the die until its array is ready
        — the status it then reads goes on the error
        (``OpTimeout.status``), the verdict no later op on the die can
        change — or, still busy after one more watchdog budget, RESETs
        it: the op never committed, and the tasks fail with
        :class:`OpAborted`.  If that RESET times out too, the die is
        hung: its busy status goes on the error."""
        if isinstance(exc, OpTimeout) and exc.status is None:
            from repro.core.ops import read_status_op, reset_op

            lun = self.executor.channel.luns[ctx.lun_position]
            deadline = self.sim.now + exc.budget_ns
            while True:
                # Wait on the die: the next instant its status can change.
                at = lun.ready_at(_ARDY)
                at = deadline if at is None else min(at, deadline)
                if at > self.sim.now:
                    yield from ctx.sleep(at - self.sim.now)
                exc.status = yield from read_status_op(ctx)
                if StatusRegister.is_array_ready(exc.status):
                    break
                if self.sim.now >= deadline:
                    try:
                        yield from reset_op(ctx)
                        exc = OpAborted(exc.what, ctx.lun_position)
                    except RecoverableOpError:
                        pass
                    break
        for task in others:
            self._fail(task, exc)
        raise exc

    def _fail(self, task: Task, exc: RecoverableOpError) -> None:
        """Finish a task an op run for it failed (no result)."""
        task.error = exc
        self.tasks_failed += 1
        self._finish_task(task, None)

    # ------------------------------------------------------------------
    # Main loop (runs on the modeled CPU)
    # ------------------------------------------------------------------

    def _unpark(self, _value: Any = None) -> None:
        """Resume the parked loop if it has work now.  (Takes a value so
        that it can subscribe to the executor's slot-freed pulse.)"""
        if self._parked and (self._ready or (
                self._pending_txns and self.executor.has_room)):
            self._parked = False
            self._park.trigger.fire()

    def _run(self) -> Generator:
        sim = self.sim
        costs = self.costs
        while not self._stopped:
            cpu = self.cpu
            if self._pending_txns and self.executor.has_room:
                # Dispatcher half: choose the next transaction and hand
                # it to the hardware.
                pause = cpu.pauses[costs.dispatch]
                if pause is None:
                    yield from cpu.execute(costs.dispatch)
                else:
                    cpu.cycles_charged += costs.dispatch
                    yield pause
                    if sim._tracer is not None:
                        cpu.trace_busy(costs.dispatch, pause.delay)
                if not (self._pending_txns and self.executor.has_room):
                    continue  # world changed while we were computing
                txn = self.txn_scheduler.select(self._pending_txns)
                self._pending_txns.remove(txn)
                self.executor.push(txn)
                self.txns_dispatched += 1
                if sim._tracer is not None:
                    self._trace_queue_depths()
                continue
            if self._ready:
                # Task half: pick, context-switch, resume one step.
                pause = cpu.pauses[costs.scheduler_iteration]
                if pause is None:
                    yield from cpu.execute(costs.scheduler_iteration)
                else:
                    cpu.cycles_charged += costs.scheduler_iteration
                    yield pause
                    if sim._tracer is not None:
                        cpu.trace_busy(costs.scheduler_iteration, pause.delay)
                if not self._ready:
                    continue
                task = self.task_scheduler.select(self._ready)
                self._ready.remove(task)
                if sim._tracer is not None:
                    self._trace_queue_depths()
                pause = cpu.pauses[costs.context_switch]
                if pause is None:
                    yield from cpu.execute(costs.context_switch)
                else:
                    cpu.cycles_charged += costs.context_switch
                    yield pause
                    if sim._tracer is not None:
                        cpu.trace_busy(costs.context_switch, pause.delay)
                yield from self._step_task(task)
                continue
            self._parked = True
            yield self._park

    def _step_task(self, task: Task) -> Generator:
        """Resume one task until it suspends or finishes."""
        sim = self.sim
        task.state = TaskState.RUNNING
        task.last_resumed_at = sim.now
        send, task.send_value = task.send_value, None
        while True:
            try:
                command = task.gen.send(send)
            except StopIteration as stop:
                self._finish_task(task, stop.value)
                return
            except RecoverableOpError as exc:
                # Watchdog timeouts / surfaced FAIL bits are policy
                # events, not runtime bugs: attach the error and finish
                # the task (result None) so waiters unblock and a
                # recovery manager can escalate — after a timeout, once
                # the task's die is settled (``_settle``).  Anything else
                # still propagates — a protocol violation must stay loud.
                task.gen.close()
                if isinstance(exc, OpTimeout) and exc.status is None:
                    task.gen = self._settle(
                        OperationContext(self, task.lun_position), (), exc)
                    send = None
                    continue
                self._fail(task, exc)
                return
            kind = command.__class__
            if kind is EnvAwait or kind is EnvPost:
                cpu = self.cpu
                enqueue = self.costs.enqueue
                pause = cpu.pauses[enqueue]
                if pause is None:
                    yield from cpu.execute(enqueue)
                else:
                    cpu.cycles_charged += enqueue
                    yield pause
                    if sim._tracer is not None:
                        cpu.trace_busy(enqueue, pause.delay)
                self._enqueue_txn(command.txn)
                if kind is EnvPost:
                    send = command.txn
                    continue  # posting does not suspend the task
                self._block_on_txn(task, command.txn)
            elif kind is EnvWaitTxn:
                self._block_on_txn(task, command.txn)
            elif kind is EnvSleep:
                task.state = TaskState.BLOCKED
                sim._wake_after(command.ns, self._make_ready, task)
            elif kind is EnvYield:
                task.state = TaskState.READY
                task.ready_since = sim.now
                self._ready.append(task)
            else:
                raise TypeError(
                    f"operation {task.label!r} yielded unsupported command "
                    f"{command!r}")
            return

    # -- transitions -----------------------------------------------------

    def _trace_queue_depths(self) -> None:
        """Counter samples of the scheduler's two queues (caller guards
        on ``sim._tracer``; this is never on the untraced path)."""
        tracer = self.sim._tracer
        track = f"env/{self.runtime_name}"
        tracer.counter("sched", track, "ready_tasks", self.sim.now,
                       len(self._ready))
        tracer.counter("sched", track, "pending_txns", self.sim.now,
                       len(self._pending_txns))

    def _enqueue_txn(self, txn: Transaction) -> None:
        txn.enqueued_at = self.sim.now
        self._pending_txns.append(txn)
        self.txns_enqueued += 1
        if self.sim._tracer is not None:
            self._trace_queue_depths()

    def _block_on_txn(self, task: Task, txn: Transaction) -> None:
        if txn.finished_at is not None:  # already executed
            task.send_value = txn
            task.state = TaskState.READY
            task.ready_since = self.sim.now
            self._ready.append(task)
            return
        task.state = TaskState.BLOCKED
        # One-shot: the callback holds the task, whose frame holds the
        # transaction — left registered, that is a reference cycle.
        txn.completed.once(partial(self._txn_woke, task))

    def _txn_woke(self, task: Task, txn: Transaction) -> None:
        task.send_value = txn
        cpu = self.cpu
        if cpu is not self._wakeup_cpu:
            self._wakeup_cpu = cpu
            self._wakeup_ns = cpu.cycles_to_ns(self.costs.wakeup)
        delay = self._wakeup_ns
        if not delay:
            self._make_ready(task)
            return
        # Completion-notice latency: the runtime observes hardware
        # completions at its event-loop granularity.  Completions landing
        # within one window share the same tick (the loop drains its
        # completion queue in a batch), so the latency amortizes across
        # LUNs instead of serializing per event.  The CPU is not held.
        if not self._tick_batch:
            self.sim._wake_after(delay, self._on_tick)
        self._tick_batch.append(task)

    def _on_tick(self, _value: Any = None) -> None:
        batch, self._tick_batch = self._tick_batch, []
        for task in batch:
            self._make_ready(task)

    def _make_ready(self, task: Task) -> None:
        if task.state is TaskState.DONE:  # pragma: no cover - guard
            return
        task.state = TaskState.READY
        task.ready_since = self.sim.now
        self._ready.append(task)
        if self.sim._tracer is not None:
            self._trace_queue_depths()
        if self._parked:
            self._unpark()

    def _finish_task(self, task: Task, result: Any) -> None:
        task.state = TaskState.DONE
        task.result = result
        task.finished_at = self.sim.now
        tracer = self.sim._tracer
        if tracer is not None:
            start = task.admitted_at if task.admitted_at is not None \
                else task.submitted_at
            tracer.complete(
                "task", f"task/lun{task.lun_position}", task.label,
                start, self.sim.now - start,
                # task.id is process-global; keeping it out of the trace
                # keeps repeat runs byte-identical.
                {"admission_wait_ns": start - task.submitted_at},
            )
        self.tasks_completed += 1
        if self._running.get(task.lun_position) is task:  # it frees the LUN
            del self._running[task.lun_position]
            self._admit_eligible()
            if self._parked and self._ready:  # the template runner's task
                self._unpark()
        task.completed.fire(result)

    # ------------------------------------------------------------------
    # Erase suspension: the preemption point between poll rounds
    # ------------------------------------------------------------------

    def erase_deadline(self, ctx: OperationContext,
                       chip_mask: Optional[int]) -> Optional[int]:
        """The nominal end of the erase a poll loop is about to wait on
        (now + tBERS), or None: the loop polls another die than the
        op's own, or that die is not erasing, so it has no preemption
        point."""
        vendor = self.vendor
        if vendor is None or not vendor.supports_suspend or (
                chip_mask is not None and chip_mask != ctx.chip_mask):
            return None
        now = self.sim.now
        if not self.executor.channel.luns[ctx.lun_position].erasing_past(now):
            return None
        return now + vendor.timing.t_bers_ns

    def preempt_erase(self, ctx: OperationContext,
                      deadline: int) -> Generator:
        """The preemption point of the erase the task holding ``ctx``'s
        LUN runs: if a waiting task may run inside it by the rule
        (:meth:`_urgent`, with the erase ending at ``deadline``, the
        holder's nominal estimate), SUSPEND -> the tasks the rule takes,
        run inside the holder (a planned one on the generic runtime) ->
        RESUME.  The SUSPEND, the declared ``suspend`` shape, is
        guarded: the executor sends it only while the die is still
        erasing past its end.  Returns the new nominal end."""
        lun_position = ctx.lun_position
        holder = self._running[lun_position].priority
        if self._urgent(lun_position, holder,
                        deadline - self.sim.now) is None:
            return deadline
        from repro.core.opir.registry import resolved_op
        from repro.core.ops import resume_op

        lun = self.executor.channel.luns[lun_position]
        run, lowered, operands = resolved_op(ctx, "suspend", {})
        steps = run(ctx, lowered, operands)
        send = next(steps)  # the EnvAwait of the shape's one transaction
        suspend = send.txn
        suspend.guard = lambda txn: lun.erasing_past(
            txn.started_at + txn.duration_ns)
        yield send
        steps.close()
        if not suspend.segments:
            return deadline  # the erase ends first: nothing was sent
        left = deadline - suspend.started_at
        while True:
            task = self._urgent(lun_position, holder, left)
            if task is None:
                break
            yield from self._run_inside(task)
        yield from resume_op(ctx)
        return self.sim.now + left + self._t_resume

    def _inside_ns(self, task: Task) -> Optional[int]:
        """The nominal array time of ``task``'s op if it is one a
        suspended erase may take in — tPROG for a full-page PROGRAM (one
        admission may pair, ``Task.pair``), tR for a read (class 0, the
        FTL's host reads) — else None."""
        if task.pair is not None:
            return self._t_prog
        return self._t_read if task.priority <= 0 else None

    def _urgent(self, lun_position: int, holder: int, left: int,
                planned: bool = False) -> Optional[Task]:
        """The erase-preemption rule, the one both paths ask: the first
        task waiting for the LUN, in admission order (lowest class
        first, FIFO within a class), that may run inside the erase of
        class ``holder`` holding it with ``left`` ns of the erase to go.
        That is a read or a full-page PROGRAM (:meth:`_inside_ns`) of a
        class strictly below ``holder``, for which ``left`` exceeds its
        own array time plus t_resume: the suspension saves it more than
        it costs the erase.  So an erase never runs inside one, and a
        class-1 erase (the meta ring's) takes in reads only.
        ``planned``: only a task with a plan, the only kind the template
        runner can run inside an erase (a generic one waits it out)."""
        floor = left - self._t_resume
        first = None
        for task in self._admission_queue:
            if task.lun_position == lun_position and task.priority < holder \
                    and (first is None or task.priority < first.priority) \
                    and (task.plan is not None or not planned):
                need = self._inside_ns(task)
                if need is not None and need < floor:
                    first = task
        return first

    def _take_inside(self, task: Task, templated: bool) -> Optional[Task]:
        """Admit a waiting task into the op that holds its LUN.  A
        full-page PROGRAM takes its partner by the pairing rule
        (:meth:`_partner`), and the two run as one paired PROGRAM —
        ``templated``: on the template runner, which needs the pair's
        template (``pair_plan``).  Returns the partner taken, or None."""
        queue = self._admission_queue
        queue.remove(task)
        now = self.sim.now
        task.admitted_at = task.ready_since = now
        task.state = TaskState.RUNNING
        partner = None
        if task.pair is not None:
            partner = self._partner(task, queue)
            if partner is not None and templated:
                plan = self.plan_runner.pair_plan(task, partner)
                if plan is None:
                    partner = None
                else:
                    task.plan = plan
                    task.partner = partner
            if partner is not None:
                queue.remove(partner)
                partner.admitted_at = partner.ready_since = now
                partner.state = TaskState.RUNNING
                self.programs_paired += 1
        if self.executor.channel.luns[task.lun_position].status.suspended:
            kind = "read" if task.pair is None else "program"
            self.inside_suspension[kind] += 1 if partner is None else 2
        return partner

    def _run_inside(self, task: Task) -> Generator:
        """Run a waiting task inside the op that holds its LUN (a planned
        one as the waveform tier does)."""
        partner = self._take_inside(task, False)
        if partner is not None:
            task.gen = self._run_pair(task, partner)
        elif task.gen is None:
            task.gen = task.factory(OperationContext(self, task.lun_position))
        try:
            result = yield from task.gen
        except RecoverableOpError as exc:
            self._fail(task, exc)
            return
        self._finish_task(task, result)

    # -- reporting ----------------------------------------------------------

    def describe(self) -> str:
        return (
            f"{self.runtime_name} env on {self.cpu.describe()}: "
            f"{self.tasks_completed}/{self.tasks_submitted} tasks, "
            f"{self.txns_dispatched} txns dispatched "
            f"(task={self.task_scheduler.name}, txn={self.txn_scheduler.name})"
        )
