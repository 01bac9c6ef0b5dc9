"""The op-program interpreter: run an IR program through a context.

``run_program`` is a generator over environment commands, exactly like
a hand-written operation — the software environment cannot tell the
difference (and the golden tests assert it cannot: same segments, same
nanoseconds, same results).  Composition goes through the public
``*_op`` wrappers (:class:`~repro.core.opir.nodes.CallOp`) and status
polls through :func:`~repro.core.ops.base.poll_until_ready`, so traced
spans nest the way Algorithm 2 nests Algorithm 1 and vendor overrides
resolve for callees too.
"""

from __future__ import annotations

import numpy as np

from repro.core.opir.compile import build_transaction
from repro.core.opir.nodes import (
    Branch,
    BreakIf,
    CallOp,
    DeclareHandle,
    EvalState,
    Loop,
    OpProgram,
    PollStatus,
    Return,
    SelectFirstReady,
    SetReg,
    SoftSleep,
    Txn,
    effective_poll_period,
    eval_expr,
)


# Poll/compose helpers live in ``repro.core.ops``, which imports this
# module — so they are resolved lazily, once, at first use.
_POLL_FNS = None
_OPS_MODULE = None
_SELECT_FNS = None


class _BreakSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value):
        super().__init__()
        self.value = value


def run_program(ctx, program: OpProgram, hooks=None):
    """Execute ``program`` against ``ctx``; returns its Return value."""
    state = EvalState(hooks)
    try:
        yield from _interpret_nodes(ctx, program.nodes, state)
    except _ReturnSignal as signal:
        return signal.value
    return None


def _interpret_nodes(ctx, nodes, state: EvalState):
    for node in nodes:
        if isinstance(node, Txn):
            txn = build_transaction(ctx, node, state)
            yield from ctx.add_transaction(txn)
        elif isinstance(node, DeclareHandle):
            state.handles[node.name] = _mint_handle(ctx, node, state)
        elif isinstance(node, PollStatus):
            yield from _poll(ctx, node, state)
        elif isinstance(node, SoftSleep):
            yield from ctx.sleep(eval_expr(node.ns, state))
        elif isinstance(node, CallOp):
            yield from _call_op(ctx, node, state)
        elif isinstance(node, SetReg):
            state.regs[node.name] = eval_expr(node.expr, state)
        elif isinstance(node, Branch):
            branch = node.then if eval_expr(node.pred, state) else node.orelse
            yield from _interpret_nodes(ctx, branch, state)
        elif isinstance(node, Loop):
            for index in range(node.count):
                state.regs[node.var] = index
                try:
                    yield from _interpret_nodes(ctx, node.body, state)
                except _BreakSignal:
                    break
        elif isinstance(node, BreakIf):
            if eval_expr(node.pred, state):
                for name, expr in node.sets:
                    state.regs[name] = eval_expr(expr, state)
                raise _BreakSignal()
        elif isinstance(node, SelectFirstReady):
            yield from _select_first_ready(ctx, node, state)
        elif isinstance(node, Return):
            raise _ReturnSignal(eval_expr(node.expr, state))
        else:
            raise TypeError(f"{type(node).__name__} is not a step node")


def _mint_handle(ctx, node: DeclareHandle, state: EvalState):
    packetizer = ctx.packetizer
    if node.source == "capture":
        return packetizer.capture(node.nbytes)
    if node.source == "from_flash":
        return packetizer.from_flash(node.dram_address, node.nbytes)
    if node.source == "to_flash":
        return packetizer.to_flash(node.dram_address, node.nbytes)
    if node.source == "inline":
        data = eval_expr(node.data, state)
        return packetizer.inline(np.array(data, dtype=np.uint8))
    raise ValueError(f"unknown handle source {node.source!r}")


def _poll(ctx, node: PollStatus, state: EvalState):
    global _POLL_FNS
    if _POLL_FNS is None:
        from repro.core.ops.base import poll_until_array_ready, poll_until_ready

        _POLL_FNS = (poll_until_ready, poll_until_array_ready)
    poll_until_ready, poll_until_array_ready = _POLL_FNS

    mask = None if node.chip_mask is None else eval_expr(node.chip_mask, state)
    period = effective_poll_period(node.period_ns)
    if node.until == "ready":
        status = yield from poll_until_ready(
            ctx, chip_mask=mask, max_polls=node.max_polls, period_ns=period
        )
    elif node.until == "array_ready":
        status = yield from poll_until_array_ready(
            ctx, chip_mask=mask, max_polls=node.max_polls, period_ns=period
        )
    else:
        raise ValueError(f"PollStatus until must be 'ready' or 'array_ready', got {node.until!r}")
    if node.dest:
        state.regs[node.dest] = status


def _call_op(ctx, node: CallOp, state: EvalState):
    global _OPS_MODULE
    if _OPS_MODULE is None:
        import repro.core.ops as _OPS_MODULE  # noqa: PLW0603
    ops_module = _OPS_MODULE

    try:
        fn = getattr(ops_module, f"{node.op}_op")
    except AttributeError:
        raise KeyError(f"CallOp target {node.op!r} is not a library operation") from None
    kwargs = {name: eval_expr(value, state) for name, value in node.kwargs}
    result = yield from fn(ctx, **kwargs)
    if node.dest:
        state.regs[node.dest] = result


def _select_first_ready(ctx, node: SelectFirstReady, state: EvalState):
    global _SELECT_FNS
    if _SELECT_FNS is None:
        from repro.core.ops.status import read_status_op
        from repro.core.ufsm.chip_control import ChipControl
        from repro.onfi.status import StatusRegister

        _SELECT_FNS = (read_status_op, ChipControl, StatusRegister)
    read_status_op, ChipControl, StatusRegister = _SELECT_FNS

    winner = None
    for _ in range(node.max_rounds):
        for position in node.positions:
            mask = ChipControl.mask_for(position)
            status = yield from read_status_op(ctx, chip_mask=mask)
            if StatusRegister.is_ready(status):
                winner = position
                break
        if winner is not None:
            break
    else:
        raise RuntimeError("gang poll budget exhausted — no replica became ready")
    state.regs[node.dest_pos] = winner
    state.regs[node.dest_mask] = ChipControl.mask_for(winner)
