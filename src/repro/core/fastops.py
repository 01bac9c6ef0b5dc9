"""The TLM template runner: straight-line data-plane ops without the runtime.

The generic execution path is faithful to the paper's software stack:
every transaction crosses the modeled runtime (admission, scheduler
iterations, context switches, completion wakeups) and every status
poll is a full round trip.  The equivalence harness holds that path to
0 ns drift against the waveform tier — but a scale-out throughput
workload pays the per-op machinery millions of times without reading
anything from it.

For operations submitted through the FTL-facing convenience wrappers
(``controller.read_page`` and friends) there is therefore one other way
to run an op under TLM.  A straight-line program — transactions, handle
declarations, polls, sleeps, a return — is compiled once per *shape*
into a :class:`_Template`: segment durations, per-action offsets,
latched opcodes, batched channel-stats deltas, and the closed-form
software cost.  Running a template is one channel-mutex hold plus one
``Timeout`` per transaction, with the die driven by *direct calls into
the same LUN action handlers* the waveform tier uses (``_on_command`` /
``_on_address`` / data movement) at their exact logical nanoseconds.
Same handlers, same order, same RNG draws — die state, payload bytes,
status bits, LUN-side fault hooks, and array aging are identical to the
waveform tier; only the bus-segment *objects* and the runtime's
per-event machinery are gone.  Each poll site becomes a ready-wait:
sleep to the die's next pending completion, then one real STATUS
command and sample.  Per-op software latency is *modeled* (charged in
closed form), not replayed.

Submission is O(1) in the op's shape.  A builder declares, beside
itself, ``plan(**kwargs) -> (shape_key, operands)``
(:func:`repro.core.opir.registry.op_program`): the hashable values its
structure depends on, and the per-call leaves — address bytes, DMA
targets — in program order.  :class:`PlanExecutor` keeps one memo
``(builder, shape_key) -> template``.  The first submission of a shape
builds the program, asks
:func:`~repro.core.opir.summarize.plan_fingerprint` whether it has a
template at all, checks the declared operands against the program's
leaves and compiles; every later one is the ``plan`` call and a dict
hit.  A builder with no declaration (a vendor override) takes the
*reference* plan on every submission — build, the fingerprint as shape
key, the leaves read off the program — through the same memo.

The decision is made once, in :meth:`PlanExecutor.try_submit`.
Anything the template cannot reproduce takes the generic path, which is
exact: programs with control flow, callees, gang masks or hook kwargs,
and every op submitted while something is watching bus segments that a
template never creates — a tracer, a channel fault hook, or (for ops
that move data) a DDR PHY trim outside the sampling eye.  Observers
must be attached before the ops they should see are submitted; an op
already queued finishes as a template.  A watchdog or runtime
sanitizers stand the whole runner down (see ``BabolController``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from types import SimpleNamespace
from typing import Callable, Generator, NamedTuple, Optional

from repro.core.opir.compile import compile_segment
from repro.core.opir.interp import _mint_handle
from repro.core.opir.nodes import (
    DeclareHandle,
    EvalState,
    OpProgram,
    PollStatus,
    Return,
    SoftSleep,
    Txn,
    lower_expr,
)
from repro.core.opir.registry import _cached_program, _resolved_builder
from repro.core.opir.summarize import (
    plan_fingerprint,
    program_operands,
    wrapper_callee,
)
from repro.core.recovery import RecoverableOpError
from repro.core.softenv.base import Task, TaskState
from repro.core.ufsm.ca_writer import cmd
from repro.dram import DmaHandle
from repro.flash.lun import _DataSource
from repro.onfi.commands import CMD
from repro.onfi.signals import (
    AddressLatch,
    CommandLatch,
    DataInAction,
    DataOutAction,
)
from repro.onfi.status import StatusRegister
from repro.sim import Timeout


class _BurstShim:
    """Stand-in for a :class:`DataOutAction` / :class:`DataInAction` on
    the template path — the LUN handlers only read ``nbytes``,
    ``dma_handle`` and (data-in) ``column``, so one mutable shim per
    executor replaces an allocation per burst.  Safe because set and
    use happen in the same scheduler turn."""

    __slots__ = ("nbytes", "column", "dma_handle")


# Template phase tags (first element of each phase tuple).
_PH_TXN = 0
_PH_HANDLE = 1
_PH_POLL = 2
_PH_SLEEP = 3

# Template op tags (first element of each die-op tuple).
_OP_CMD = 0
_OP_ADDR = 1
_OP_DATA_OUT = 2
_OP_DATA_IN = 3

# Memo states beside a template / None: a shape not seen yet, and a
# declared shape that must take the reference plan.
_UNSEEN = object()
_REFERENCE = object()


class _Template(NamedTuple):
    """A straight-line op program compiled to an execution recipe.

    A template holds what segment durations, action offsets and stats
    depend on — the program's *shape*: latch counts and opcodes, burst
    sizes, timer parameters, poll shapes.  Values that vary per call
    (address bytes, DRAM targets, inline payloads) are not baked: they
    are the op's *operands*, a flat tuple in program order
    (:func:`~repro.core.opir.summarize.program_operands`), and die ops
    and handle phases hold an index into it.  One compile therefore
    serves a whole workload's worth of addresses.

    Phases are tuples tagged by ``_PH_*``; transaction phases carry
    per-segment die-op lists tagged by ``_OP_*`` with offsets relative
    to the transaction start, plus the batched channel-stats delta
    ``(segments, busy_ns, bytes_in, bytes_out, per-kind counts)``.
    DMA handles are minted per run, so concurrent runs never alias a
    descriptor.
    """

    sw_ns: int
    phases: tuple
    result: Optional[Callable]  # the Return, lowered to f(regs, handles)
    has_data: bool


def _parked() -> Generator:
    """Placeholder generator for plan-run tasks: the runner completes
    the task itself; the environment never steps it."""
    return
    yield  # pragma: no cover


class PlanExecutor:
    """Runs templatable op-IR programs without the generic runtime.

    One FIFO per LUN preserves the environment's admission semantics
    (``max_tasks_per_lun=1``): operations against the same die run in
    submission order, one at a time; operations against different dies
    contend only for the channel mutex, exactly like the generic path.
    """

    def __init__(self, controller):
        self.controller = controller
        self.sim = controller.sim
        self.env = controller.env
        self.channel = controller.channel
        # The slice of OperationContext the op-IR compiler reads; nothing
        # a template keeps depends on the chip mask.
        self._ctx = SimpleNamespace(ufsm=controller.ufsm, chip_mask=1,
                                    packetizer=controller.packetizer)
        cpu = controller.cpu
        costs = controller.env.costs
        # The closed-form software cost constants (see module docstring).
        self.pre_txn_ns = cpu.cycles_to_ns(costs.serialized_txn_cycles())
        self.wakeup_ns = cpu.cycles_to_ns(costs.wakeup)
        self.repoll_ns = max(controller.config.vendor.timing.t_poll_min_ns, 1)
        self._queues: dict[int, deque] = {}
        self._running: set[int] = set()
        # THE template memo: (builder, shape key) -> _Template, None (the
        # shape has no template) or _REFERENCE.  The shape key is the
        # one the builder's ``plan`` declares; for a builder that
        # declares none it is the built program's fingerprint.
        self._memo: dict[tuple, object] = {}
        self._shim = _BurstShim()
        self.ops_planned = 0
        self.ops_declined = 0
        self.shapes_compiled = 0

    @property
    def ops_templated(self) -> int:
        """Every planned op runs as a template (the name the benchmark
        ledger reads; kept so its template ratio stays defined)."""
        return self.ops_planned

    # -- submission ----------------------------------------------------

    def try_submit(self, op_name: str, lun_position: int, priority: int,
                   label: str, kwargs: dict) -> Optional[Task]:
        """Plan and enqueue one operation; None = take the generic path."""
        planned = self._plan(op_name, lun_position, kwargs)
        if planned is None:
            self.ops_declined += 1
            return None
        self.ops_planned += 1
        task = Task(self.sim, _parked(), lun_position, priority=priority,
                    label=label or op_name)
        self.env.tasks_submitted += 1
        queue = self._queues.setdefault(lun_position, deque())
        queue.append((task,) + planned)
        if lun_position not in self._running:
            self._running.add(lun_position)
            self.sim.spawn(self._runner(lun_position),
                           name=f"tlm-plan-lun{lun_position}")
        return task

    def _plan(self, op_name: str, lun_position: int,
              kwargs: dict) -> Optional[tuple]:
        """``(template, operands)`` when this submission runs as a
        template, None when it needs the generic runtime."""
        channel = self.channel
        if self.sim._tracer is not None or channel._fault_hook is not None:
            return None  # bus-level observers need real segments
        for value in kwargs.values():
            if callable(value):
                return None  # hooks need the interpreter
        vendor = self.controller.config.vendor
        memo = self._memo
        template = _REFERENCE
        try:
            builder = _resolved_builder(op_name, vendor)
            declared = getattr(builder, "plan", None)
            if declared is not None:
                shape_key, operands = declared(**kwargs)
                template = memo.get((builder, shape_key), _UNSEEN)
            if template is _UNSEEN or template is _REFERENCE:
                built = self._reference_plan(builder, kwargs, vendor)
        except Exception:
            return None  # bad args: let the generic path report
        if template is _UNSEEN:
            # First submission of a declared shape: the declaration is
            # checked, once, against the program it stands for.  A
            # wrapper around an undeclared override is not covered by
            # its own declaration; its shape is pinned to the reference.
            fingerprint, leaves, program, declares = built
            if not declares:
                template = memo[builder, shape_key] = _REFERENCE
            elif fingerprint is not None and leaves != operands:
                raise AssertionError(
                    f"{op_name}: declared operands {operands!r} are not the "
                    f"built program's leaves {leaves!r}")
            else:
                template = self._compile((builder, shape_key), program,
                                         fingerprint)
        if template is _REFERENCE:
            fingerprint, operands, program, _ = built
            template = memo.get((builder, fingerprint), _UNSEEN)
            if template is _UNSEEN:
                template = self._compile((builder, fingerprint), program,
                                         fingerprint)
        if template is None:
            return None
        if template.has_data and channel.interface.ddr \
                and not channel.phy.data_reliable(lun_position):
            return None  # the PHY corrupts bursts per segment
        return template, operands

    @staticmethod
    def _reference_plan(builder, kwargs: dict, vendor) -> tuple:
        """``(fingerprint, operands, program, declares)`` read off the
        built program.  A pure wrapper is planned as its callee — the
        program its template is compiled from; ``declares`` tells
        whether that program's builder has a ``plan`` of its own."""
        program = _cached_program(builder, kwargs)
        fingerprint = plan_fingerprint(program, vendor)[0]
        callee = wrapper_callee(program)
        if fingerprint is not None and callee is not None:
            builder = _resolved_builder(callee[0], vendor)
            program = _cached_program(builder, callee[1])
        return (fingerprint, program_operands(program), program,
                hasattr(builder, "plan"))

    # -- template compilation ------------------------------------------

    def _compile(self, key: tuple, program: OpProgram,
                 fingerprint) -> Optional[_Template]:
        """Bake the first program seen of a shape into the memo.

        Segments are lowered once through the real µFSM emitters — the
        same compile the interpreter performs per run — and only their
        durations, action offsets, baked opcodes, and operand indices
        are kept.  The shape key guarantees the result is valid for
        every program of the shape.
        """
        template = None
        if fingerprint is not None:
            self.shapes_compiled += 1
            try:
                template = self._compile_template(program)
            except Exception:
                pass  # let the generic path report
        if len(self._memo) >= 512:  # bounded like the registry's caches
            self._memo.clear()
        self._memo[key] = template
        return template

    def _compile_template(self, program: OpProgram) -> _Template:
        ctx = self._ctx
        state = EvalState(None)  # scratch: compile-time handle minting
        phases = []
        result = None
        has_data = False
        txn_count = 0
        poll_count = 0
        slot = 0  # index of the next operand, in program order
        for node in program.nodes:
            if isinstance(node, Txn):
                phase, slot = self._compile_txn(node, slot, state)
                has_data = has_data or phase[2][3] or phase[2][2]
                phases.append(phase)
                txn_count += 1
            elif isinstance(node, DeclareHandle):
                state.handles[node.name] = _mint_handle(ctx, node, state)
                # mint(operand, nbytes): the Packetizer's own verb for a
                # DRAM-bound handle; the interpreter's mint on the
                # re-bound node for the rare capture / inline one.
                if node.source in ("from_flash", "to_flash"):
                    mint = getattr(ctx.packetizer, node.source)
                else:
                    field = "data" if node.source == "inline" \
                        else "dram_address"
                    mint = (lambda operand, _nbytes, node=node, field=field:
                            _mint_handle(ctx, replace(node, **{field: operand}),
                                         state))
                phases.append((_PH_HANDLE, node.name, mint, node.nbytes, slot))
                slot += 1
            elif isinstance(node, PollStatus):
                phases.append(self._compile_poll(node))
                poll_count += 1
            elif isinstance(node, SoftSleep):
                phases.append((_PH_SLEEP, node.ns))
            elif isinstance(node, Return):
                result = lower_expr(node.expr)
                break
        sw_ns = (self.pre_txn_ns * (txn_count + poll_count)
                 + self.wakeup_ns * poll_count)
        return _Template(sw_ns, tuple(phases), result, has_data)

    def _compile_txn(self, node: Txn, slot: int, state: EvalState):
        hold = 0
        nseg = 0
        bytes_in = 0
        bytes_out = 0
        kinds: dict[str, int] = {}
        segs = []
        for seg_node in node.segments:
            segment = compile_segment(self._ctx, seg_node, state)
            nseg += 1
            kinds[segment.kind.value] = kinds.get(segment.kind.value, 0) + 1
            ops = []
            for offset, action in segment.actions:
                at = hold + offset
                if isinstance(action, CommandLatch):
                    ops.append((_OP_CMD, at, action.opcode))
                elif isinstance(action, AddressLatch):
                    # Address bytes vary per call: one operand per
                    # address latch, in latch order.
                    ops.append((_OP_ADDR, at, slot))
                    slot += 1
                elif isinstance(action, DataOutAction):
                    bytes_out += action.nbytes
                    ops.append((_OP_DATA_OUT, at, action.nbytes,
                                seg_node.handle.name))
                elif isinstance(action, DataInAction):
                    bytes_in += action.nbytes
                    ops.append((_OP_DATA_IN, at, action.nbytes,
                                seg_node.handle.name, action.column))
                # IdleWait: pure time, no die effect.
            segs.append(tuple(ops))
            hold += segment.duration_ns
        stats = (nseg, hold, bytes_in, bytes_out, tuple(kinds.items()))
        return (_PH_TXN, hold, stats, tuple(segs)), slot

    def _compile_poll(self, node: PollStatus):
        # The status round trip; its durations are mask-free.
        ufsm = self._ctx.ufsm
        latch = ufsm.ca_writer.emit([cmd(CMD.READ_STATUS)], chip_mask=1)
        data = ufsm.data_reader.emit(1, DmaHandle(None, 0, 1), chip_mask=1)
        cmd_off = latch.actions[0][0]
        data_off = next(off for off, action in data.actions
                        if isinstance(action, DataOutAction))
        sample_off = latch.duration_ns + data_off
        hold = latch.duration_ns + data.duration_ns
        kinds = ((latch.kind.value, 1), (data.kind.value, 1))
        predicate = (StatusRegister.is_ready if node.until == "ready"
                     else StatusRegister.is_array_ready)
        return (_PH_POLL, predicate, node.dest, node.max_polls, hold,
                cmd_off, sample_off, kinds)

    # -- template execution --------------------------------------------

    def _run_template(self, lun, label: str, template: _Template,
                      operands: tuple) -> Generator:
        regs: dict = {}
        handles: dict = {}
        channel = self.channel
        sim = self.sim
        if template.sw_ns:
            yield Timeout(template.sw_ns)
        for phase in template.phases:
            tag = phase[0]
            if tag == _PH_TXN:
                _, hold, stats, segs = phase
                yield from channel.acquire(owner=label)
                base = sim.now
                try:
                    for ops in segs:
                        self._apply_seg(lun, ops, base, handles, operands)
                finally:
                    lun._action_time = None
                chan_stats = channel.stats
                nseg, busy, b_in, b_out, kinds = stats
                chan_stats.segments += nseg
                chan_stats.busy_ns += busy
                chan_stats.data_bytes_in += b_in
                chan_stats.data_bytes_out += b_out
                per_kind = chan_stats.per_kind
                for key, count in kinds:
                    per_kind[key] = per_kind.get(key, 0) + count
                if hold:
                    yield Timeout(hold)
                channel.release()
            elif tag == _PH_POLL:
                yield from self._template_poll(lun, label, phase, regs)
            elif tag == _PH_HANDLE:
                _, name, mint, nbytes, slot = phase
                handles[name] = mint(operands[slot], nbytes)
            else:  # _PH_SLEEP
                yield Timeout(phase[1])
        if template.result is not None:
            return template.result(regs, handles)
        return None

    def _apply_seg(self, lun, ops, base: int, handles: dict,
                   operands: tuple) -> None:
        """Drive the die through one segment's decoded actions — the
        same LUN handlers, at the same logical nanoseconds, in the same
        order as inline waveform delivery; only the segment object is
        gone.  Catch-up mirrors ``deliver_segment_inline``: pending
        completions due before an action fire first, with the segment-
        start epoch breaking exact-time ties."""
        catch_up = True if lun._pending_completions else False
        epoch = lun._completion_seq
        for op in ops:
            at = base + op[1]
            if catch_up:
                lun._run_due_completions(at, epoch)
            lun._action_time = at
            tag = op[0]
            if tag == _OP_CMD:
                lun._on_command(op[2])
            elif tag == _OP_ADDR:
                lun._on_address(operands[op[2]])
            else:  # a burst: (tag, offset, nbytes, handle name, column)
                shim = self._shim
                shim.nbytes = op[2]
                shim.dma_handle = handles[op[3]]
                if tag == _OP_DATA_OUT:
                    lun._on_data_out(shim)
                else:
                    shim.column = op[4]
                    lun._on_data_in(shim)

    def _template_poll(self, lun, label: str, phase,
                       regs: dict) -> Generator:
        _, predicate, dest, max_polls, hold, cmd_off, sample_off, kinds = phase
        channel = self.channel
        sim = self.sim
        # The die knows when its busy window ends; sleeping there first
        # makes the common case exactly one status round trip.  (Under
        # load the waveform tier's poll count converges to the same
        # one-poll floor, because contention stretches each round trip
        # past the remaining busy time.)
        end = lun.next_completion_ns()
        now = sim.now
        if end is not None and end > now:
            yield Timeout(end - now)
        polls = 0
        while True:
            yield from channel.acquire(owner=label)
            base = sim.now
            if lun._pending_completions:
                epoch = lun._completion_seq
                lun._run_due_completions(base + cmd_off, epoch)
                lun._action_time = base + cmd_off
                lun._on_command(CMD.READ_STATUS)
                lun._run_due_completions(base + sample_off, epoch)
            else:
                lun._action_time = base + cmd_off
                lun._on_command(CMD.READ_STATUS)
            lun._action_time = base + sample_off
            if lun._data_source is _DataSource.STATUS:
                # The 1-byte status burst, minus the array and handle.
                lun.last_status_sample_ns = base + sample_off
                status = lun.status.value()
            else:
                # A completion between latch and burst re-armed the data
                # source; sample through the real produce path so the
                # (degenerate) byte matches inline delivery exactly.
                status = int(lun._produce_data(1)[0])
            lun._action_time = None
            chan_stats = channel.stats
            chan_stats.segments += 2
            chan_stats.busy_ns += hold
            chan_stats.data_bytes_out += 1
            per_kind = chan_stats.per_kind
            for key, count in kinds:
                per_kind[key] = per_kind.get(key, 0) + count
            yield Timeout(hold)
            channel.release()
            polls += 1
            if predicate(status):
                if dest:
                    regs[dest] = status
                return
            if polls >= max_polls:
                raise RuntimeError("status poll budget exhausted — stuck LUN?")
            # Not ready: charge the extra round's runtime cost, then
            # sleep to the die's next pending completion, or re-poll on
            # the minimum legal grid when the die is opaque (hung-die
            # faults keep the same poll-budget escape as the generic
            # path).
            extra = self.pre_txn_ns + self.wakeup_ns
            if extra:
                yield Timeout(extra)
            end = lun.next_completion_ns()
            now = sim.now
            if end is not None and end > now:
                yield Timeout(end - now)
            else:
                yield Timeout(self.repoll_ns)

    # -- the per-LUN runner --------------------------------------------

    def _runner(self, lun_position: int) -> Generator:
        queue = self._queues[lun_position]
        lun = self.channel.luns[lun_position]
        try:
            while queue:
                task, template, operands = queue.popleft()
                task.admitted_at = self.sim.now
                task.state = TaskState.RUNNING
                result = None
                try:
                    result = yield from self._run_template(
                        lun, task.label, template, operands)
                except RecoverableOpError as exc:
                    task.error = exc
                    self.env.tasks_failed += 1
                task.state = TaskState.DONE
                task.result = result
                task.finished_at = self.sim.now
                self.env.tasks_completed += 1
                task.completed.fire(result)
        finally:
            self._running.discard(lun_position)
