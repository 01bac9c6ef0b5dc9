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
declarations, polls, sleeps, a return — is compiled once per structural
fingerprint (:func:`repro.core.opir.summarize.plan_fingerprint`) into a
:class:`_Template`: segment durations, per-action offsets, latched
opcodes, batched channel-stats deltas, and the closed-form software
cost.  Running a template is one channel-mutex hold plus one
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
from typing import Generator, Optional

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
    eval_expr,
)
from repro.core.opir.registry import _cached_program, _resolved_builder
from repro.core.opir.summarize import plan_fingerprint, wrapper_callee
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


class _PlanContext:
    """The slice of :class:`OperationContext` the op-IR compiler needs:
    the µFSM bank, the op's chip mask, and the Packetizer."""

    __slots__ = ("ufsm", "chip_mask", "packetizer", "lun", "label")

    def __init__(self, ufsm, chip_mask: int, packetizer, lun, label: str):
        self.ufsm = ufsm
        self.chip_mask = chip_mask
        self.packetizer = packetizer
        self.lun = lun
        self.label = label


class _OutShim:
    """Stand-in for a :class:`DataOutAction` on the template path — the
    LUN handler only reads ``nbytes`` and ``dma_handle``, so one
    mutable shim per executor replaces an allocation per burst.  Safe
    because set and use happen in the same scheduler turn."""

    __slots__ = ("nbytes", "dma_handle")


class _InShim:
    """Stand-in for a :class:`DataInAction` (adds ``column``)."""

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

_NO_RESULT = object()


class _Template:
    """A straight-line op program compiled to an execution recipe.

    Templates are shared across every program with the same structural
    *fingerprint* (:func:`~repro.core.opir.summarize.plan_fingerprint`):
    latch counts and opcodes, burst sizes, timer parameters, poll
    shapes — everything segment durations and action offsets depend on.
    Values that vary per instance (address bytes, DRAM targets, inline
    payloads) are *not* baked; die ops and handle phases record node
    paths into the instance program and the runner reads them per run.
    One compile therefore serves a whole workload's worth of addresses.

    Phases are tuples tagged by ``_PH_*``; transaction phases carry
    per-segment die-op lists tagged by ``_OP_*`` with offsets relative
    to the transaction start, plus the batched channel-stats delta
    ``(segments, busy_ns, bytes_in, bytes_out, per-kind counts)``.
    DMA handles are minted per run, so concurrent runs never alias a
    descriptor.
    """

    __slots__ = ("sw_ns", "phases", "result_expr", "has_data")

    def __init__(self, sw_ns, phases, result_expr, has_data):
        self.sw_ns = sw_ns
        self.phases = phases
        self.result_expr = result_expr
        self.has_data = has_data


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
        self.ufsm = controller.ufsm
        self.packetizer = controller.packetizer
        cpu = controller.cpu
        costs = controller.env.costs
        # The closed-form software cost constants (see module docstring).
        self.pre_txn_ns = cpu.cycles_to_ns(costs.serialized_txn_cycles())
        self.wakeup_ns = cpu.cycles_to_ns(costs.wakeup)
        self.repoll_ns = max(controller.config.vendor.timing.t_poll_min_ns, 1)
        self._queues: dict[int, deque] = {}
        self._running: set[int] = set()
        # Per-shape dispatch cache, keyed by (op name, kwarg names): a
        # builder's control-flow *shape* is a function of which kwargs
        # it receives, never of their values (addresses and DMA targets
        # only parameterize latch bytes), so one walk per shape decides
        # every submission of that shape.  Values: None (no template)
        # or the builder name to use — the wrapper's callee when the
        # wrapper forwards its kwargs unchanged, saving a program build
        # per submission.
        self._shapes: dict[tuple, Optional[str]] = {}
        # Two-level template cache.  id(program) -> (program, template)
        # answers repeat submissions of a cached program in one dict
        # hit (the reference pins the id); fingerprint -> template
        # shares one compiled recipe across all programs that differ
        # only in instance values.  Both bounded like the registry.
        self._templates: dict[int, tuple] = {}
        self._tpl_shapes: dict[tuple, _Template] = {}
        self._out_shim = _OutShim()
        self._in_shim = _InShim()
        self.ops_planned = 0
        self.ops_declined = 0

    @property
    def ops_templated(self) -> int:
        """Every planned op runs as a template (the name the benchmark
        ledger reads; kept so its template ratio stays defined)."""
        return self.ops_planned

    # -- submission ----------------------------------------------------

    def try_submit(self, op_name: str, lun_position: int, priority: int,
                   label: str, kwargs: dict) -> Optional[Task]:
        """Plan and enqueue one operation; None = take the generic path."""
        planned = self._plan(op_name, lun_position, label, kwargs)
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

    def _plan(self, op_name: str, lun_position: int, label: str,
              kwargs: dict) -> Optional[tuple]:
        """``(program, template)`` when this submission runs as a
        template, None when it needs the generic runtime."""
        channel = self.channel
        if self.sim._tracer is not None or channel._fault_hook is not None:
            return None  # bus-level observers need real segments
        for value in kwargs.values():
            if callable(value):
                return None  # hooks need the interpreter
        shape = (op_name, frozenset(kwargs))
        vendor = self.controller.config.vendor
        try:
            build_name = self._shapes[shape]
        except KeyError:
            build_name = self._classify_shape(op_name, vendor, kwargs)
            self._shapes[shape] = build_name
        if build_name is None:
            return None
        try:
            program = _cached_program(_resolved_builder(build_name, vendor),
                                      kwargs)
        except Exception:
            return None  # bad args: let the generic path report
        template = self._template_for(program, vendor, lun_position, label)
        if template is None:
            return None
        if template.has_data and channel.interface.ddr \
                and not channel.phy.data_reliable(lun_position):
            return None  # the PHY corrupts bursts per segment
        return program, template

    @staticmethod
    def _classify_shape(op_name: str, vendor, kwargs: dict) -> Optional[str]:
        """One-time dispatch decision for a (op, kwarg-names) shape:
        the name of the builder to template, or None."""
        try:
            program = _cached_program(_resolved_builder(op_name, vendor),
                                      kwargs)
            if plan_fingerprint(program, vendor)[0] is None:
                return None
            callee = wrapper_callee(program)
            if callee is None:
                return op_name
            # The fingerprint is the callee's; building the callee from
            # this op's kwargs is only the same program when the
            # wrapper forwards them unchanged.
            return callee[0] if callee[1] == kwargs else None
        except Exception:
            return None

    # -- template compilation ------------------------------------------

    def _template_for(self, program: OpProgram, vendor, lun_position: int,
                      label: str) -> Optional[_Template]:
        key = id(program)
        entry = self._templates.get(key)
        if entry is not None and entry[0] is program:
            return entry[1]
        template = None
        fingerprint = plan_fingerprint(program, vendor)[0]
        if fingerprint is not None:
            template = self._tpl_shapes.get(fingerprint)
            if template is None:  # new shape: compile once
                ctx = _PlanContext(self.ufsm, 1 << lun_position,
                                   self.packetizer,
                                   self.channel.luns[lun_position], label)
                try:
                    template = self._compile_template(ctx, program)
                except Exception:
                    pass  # let the generic path report
                else:
                    if len(self._tpl_shapes) >= 512:
                        self._tpl_shapes.clear()
                    self._tpl_shapes[fingerprint] = template
        if len(self._templates) >= 2048:
            self._templates.clear()
        self._templates[key] = (program, template)
        return template

    def _compile_template(self, ctx: _PlanContext,
                          program: OpProgram) -> _Template:
        """Bake one program of a fingerprint class into a template.

        Segments are lowered once through the real µFSM emitters — the
        same compile the interpreter performs per run — and only their
        durations, action offsets, baked opcodes, and node paths for
        instance values are kept.  The fingerprint guarantees the
        result is valid for every program in the class.
        """
        state = EvalState(None)  # scratch: compile-time handle minting
        phases = []
        result_expr = _NO_RESULT
        has_data = False
        txn_count = 0
        poll_count = 0
        for index, node in enumerate(program.nodes):
            if isinstance(node, Txn):
                phase = self._compile_txn(ctx, node, index, state)
                has_data = has_data or phase[2][3] or phase[2][2]
                phases.append(phase)
                txn_count += 1
            elif isinstance(node, DeclareHandle):
                state.handles[node.name] = _mint_handle(ctx, node, state)
                phases.append((_PH_HANDLE, index))
            elif isinstance(node, PollStatus):
                phases.append(self._compile_poll(node))
                poll_count += 1
            elif isinstance(node, SoftSleep):
                phases.append((_PH_SLEEP, node.ns))
            elif isinstance(node, Return):
                result_expr = node.expr
                break
        sw_ns = (self.pre_txn_ns * (txn_count + poll_count)
                 + self.wakeup_ns * poll_count)
        return _Template(sw_ns, tuple(phases), result_expr, has_data)

    def _compile_txn(self, ctx: _PlanContext, node: Txn, node_index: int,
                     state: EvalState):
        hold = 0
        nseg = 0
        bytes_in = 0
        bytes_out = 0
        kinds: dict[str, int] = {}
        segs = []
        for seg_index, seg_node in enumerate(node.segments):
            segment = compile_segment(ctx, seg_node, state)
            nseg += 1
            kinds[segment.kind.value] = kinds.get(segment.kind.value, 0) + 1
            ops = []
            addr_index = 0
            for offset, action in segment.actions:
                at = hold + offset
                if isinstance(action, CommandLatch):
                    ops.append((_OP_CMD, at, action.opcode))
                elif isinstance(action, AddressLatch):
                    # Address bytes vary per instance: record the path
                    # to the latch (the j-th address-kind latch of this
                    # LatchSeq) instead of the bytes.
                    latch_index = addr_index
                    addr_index += 1
                    position = 0
                    for li, latch in enumerate(seg_node.latches):
                        if latch.kind != "cmd":
                            if position == latch_index:
                                ops.append((_OP_ADDR, at, node_index,
                                            seg_index, li))
                                break
                            position += 1
                elif isinstance(action, DataOutAction):
                    bytes_out += action.nbytes
                    ops.append((_OP_DATA_OUT, at, action.nbytes,
                                seg_node.handle.name))
                elif isinstance(action, DataInAction):
                    bytes_in += action.nbytes
                    ops.append((_OP_DATA_IN, at, action.nbytes,
                                action.column, seg_node.handle.name))
                # IdleWait: pure time, no die effect.
            segs.append(tuple(ops))
            hold += segment.duration_ns
        stats = (nseg, hold, bytes_in, bytes_out, tuple(kinds.items()))
        return (_PH_TXN, hold, stats, tuple(segs))

    def _compile_poll(self, node: PollStatus):
        # The status round trip; its durations are mask-free.
        latch = self.ufsm.ca_writer.emit([cmd(CMD.READ_STATUS)], chip_mask=1)
        data = self.ufsm.data_reader.emit(1, DmaHandle(None, 0, 1),
                                          chip_mask=1)
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

    def _run_template(self, ctx: _PlanContext, template: _Template,
                      program: OpProgram) -> Generator:
        state = EvalState(None)
        handles = state.handles
        nodes = program.nodes
        lun = ctx.lun
        channel = self.channel
        sim = self.sim
        if template.sw_ns:
            yield Timeout(template.sw_ns)
        for phase in template.phases:
            tag = phase[0]
            if tag == _PH_TXN:
                _, hold, stats, segs = phase
                yield from channel.acquire(owner=ctx.label)
                base = sim.now
                try:
                    for ops in segs:
                        self._apply_seg(lun, ops, base, handles, nodes)
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
                yield from self._template_poll(ctx, phase, state)
            elif tag == _PH_HANDLE:
                node = nodes[phase[1]]
                handles[node.name] = _mint_handle(ctx, node, state)
            else:  # _PH_SLEEP
                yield Timeout(phase[1])
        if template.result_expr is not _NO_RESULT:
            return eval_expr(template.result_expr, state)
        return None

    def _apply_seg(self, lun, ops, base: int, handles: dict, nodes) -> None:
        """Drive the die through one segment's decoded actions — the
        same LUN handlers, at the same logical nanoseconds, in the same
        order as inline waveform delivery; only the segment object is
        gone.  Catch-up mirrors ``deliver_segment_inline``: pending
        completions due before an action fire first, with the segment-
        start epoch breaking exact-time ties."""
        if not ops:
            return
        if lun._pending_completions:
            epoch = lun._completion_seq
            run_due = lun._run_due_completions
            for op in ops:
                at = base + op[1]
                run_due(at, epoch)
                lun._action_time = at
                self._apply_op(lun, op, handles, nodes)
        else:
            for op in ops:
                lun._action_time = base + op[1]
                self._apply_op(lun, op, handles, nodes)

    def _apply_op(self, lun, op, handles: dict, nodes) -> None:
        tag = op[0]
        if tag == _OP_CMD:
            lun._on_command(op[2])
        elif tag == _OP_ADDR:
            # op = (_OP_ADDR, offset, node idx, segment idx, latch idx):
            # the address bytes live in the instance program.
            lun._on_address(nodes[op[2]].segments[op[3]].latches[op[4]].value)
        elif tag == _OP_DATA_OUT:
            shim = self._out_shim
            shim.nbytes = op[2]
            shim.dma_handle = handles[op[3]]
            lun._on_data_out(shim)
        else:  # _OP_DATA_IN
            shim = self._in_shim
            shim.nbytes = op[2]
            shim.column = op[3]
            shim.dma_handle = handles[op[4]]
            lun._on_data_in(shim)

    def _template_poll(self, ctx: _PlanContext, phase,
                       state: EvalState) -> Generator:
        _, predicate, dest, max_polls, hold, cmd_off, sample_off, kinds = phase
        lun = ctx.lun
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
            yield from channel.acquire(owner=ctx.label)
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
                    state.regs[dest] = status
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
                task, program, template = queue.popleft()
                task.admitted_at = self.sim.now
                task.state = TaskState.RUNNING
                ctx = _PlanContext(self.ufsm, 1 << lun_position,
                                   self.packetizer, lun, task.label)
                result = None
                try:
                    result = yield from self._run_template(
                        ctx, template, program)
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
