"""The waveform executor: run a lowered op program through a context.

``run_program`` yields environment commands exactly like a hand-written
operation (the golden tests hold it to the seed generators: same
segments, same nanoseconds, same results).  It is one generator,
:func:`run_lowered`, over the flat steps of
:func:`repro.core.opir.compile.lower`: no program node is visited at run
time.  Per transmission, what is *fresh* is the ``Transaction``, each
``WaveformSegment`` object (taps, sanitizers, fault hooks and Chip
Control read it, keep it and write ``emitted_at`` / ``chip_mask`` / its
DMA handles) and the actions carrying this call's address bytes and DMA
handles; what is *shared* is everything the lowering proved — a segment
is bound (``WaveformSegment.bind``) from the validated prototype its
recipe keeps, so kind, duration, label, offsets, burst sizes and a
fill-free actions tuple are the prototype's, unchecked and uncounted
here.  The ``Transaction`` is built and ``EnvAwait`` yielded in place:
``ctx.transaction`` + ``ctx.add_transaction`` without their frames.
Composition goes through the callee's ``X_op`` handle
(:mod:`repro.core.ops.library`) and status polls through the poll loop
of ``core/ops/base`` (``poll_until_ready``'s), so
traced spans nest the way Algorithm 2 nests Algorithm 1 and vendor
overrides resolve for callees too.
"""

from __future__ import annotations

from repro.core.opir.compile import (
    ADDR,
    BRANCH,
    BREAK_IF,
    CALL,
    DATA_OUT,
    HANDLE,
    LOOP,
    POLL,
    RETURN,
    SELECT,
    SET,
    SLEEP,
    TXN,
    Lowered,
    lower,
)
from repro.core.opir.nodes import OpProgram, SelectFirstReady
from repro.core.softenv.base import EnvAwait
from repro.core.transaction import Transaction
from repro.core.ufsm.chip_control import ChipControl
from repro.onfi.signals import AddressLatch, DataInAction, DataOutAction
from repro.onfi.status import StatusRegister


def run_program(ctx, program: OpProgram, hooks=None):
    """Execute ``program`` against ``ctx``; returns its Return value."""
    lowered, operands = lower(ctx.ufsm, program)
    return run_lowered(ctx, lowered, operands, hooks)


def run_lowered(ctx, lowered: Lowered, operands: tuple, hooks=None):
    """Run lowered steps with ``operands`` bound to their slots."""
    steps = lowered.steps
    regs: dict = {}
    handles: dict = {}
    counters: dict = {}  # LOOP pc -> next index
    pc = 0
    end = len(steps)
    while pc < end:
        step = steps[pc]
        pc += 1
        tag = step[0]
        if tag == TXN:
            txn = Transaction(ctx.sim, ctx.lun_position, step[1], None,
                              step[2])
            segments = txn.segments
            for recipe in step[3]:
                ufsm, _, _, actions, fills, mask, _, via = recipe
                if fills:
                    actions = list(actions)
                    for index in fills:
                        offset, what, a, b, c = actions[index]
                        if what == ADDR:
                            action = AddressLatch(operands[a])
                        elif what == DATA_OUT:
                            action = DataOutAction(a, handles[b])
                        else:
                            action = DataInAction(a, c, handles[b])
                        actions[index] = (offset, action)
                    actions = tuple(actions)
                if mask is None:
                    mask = ctx.chip_mask
                elif type(mask) is not int:
                    mask = mask(regs, handles, hooks)
                ufsm.emissions += 1
                segment = recipe.prototype.bind(actions, 1 if via else mask)
                if via:  # emitted with the default mask, then redirected
                    # by Chip Control: the gang-scheduling idiom (Fig. 6d)
                    ctx.ufsm.chip_control.apply(segment, mask)
                segments.append(segment)
            yield EnvAwait(txn)
        elif tag == HANDLE:
            handles[step[1]] = step[2](
                ctx.packetizer, operands[step[4]], step[3])
        elif tag == POLL:
            mask = step[4]
            if mask is not None and type(mask) is not int:
                mask = mask(regs, handles, hooks)
            status = yield from step[1](
                ctx, chip_mask=mask, max_polls=step[5], period_ns=step[6])
            if step[3]:
                regs[step[3]] = status
        elif tag == RETURN:
            return step[1](regs, handles, hooks)
        elif tag == SET:
            regs[step[1]] = step[2](regs, handles, hooks)
        elif tag == CALL:
            if step[2] is None:
                raise KeyError(
                    f"CallOp target {step[1]!r} is not a library operation")
            result = yield from step[2](ctx, **dict(zip(
                step[3], step[4](regs, handles, hooks))))
            if step[5]:
                regs[step[5]] = result
        elif tag == BRANCH:
            if step[1] is None or not step[1](regs, handles, hooks):
                pc = step[2]
        elif tag == LOOP:
            index = counters.get(pc, 0)
            if index < step[2]:
                regs[step[1]] = index
                counters[pc] = index + 1
            else:
                counters[pc] = 0
                pc = step[3]
        elif tag == BREAK_IF:
            if step[1](regs, handles, hooks):
                for name, expr in step[2]:
                    regs[name] = expr(regs, handles, hooks)
                counters[step[3]] = 0
                pc = step[4]
        elif tag == SLEEP:
            ns = step[1]
            yield from ctx.sleep(
                ns if type(ns) is int else ns(regs, handles, hooks))
        elif tag == SELECT:
            yield from _select_first_ready(ctx, step[1], step[2], regs)


def _select_first_ready(ctx, node: SelectFirstReady, read_status_op,
                        regs: dict):
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
    regs[node.dest_pos] = winner
    regs[node.dest_mask] = ChipControl.mask_for(winner)
