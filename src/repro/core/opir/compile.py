"""The op-program lowering: an :class:`OpProgram` to flat steps, once.

The "table to wires" half of the IR.  :func:`lower` walks a program one
time, emitting every segment through the bank's real µFSM emitters, and
keeps what is fixed per *shape*: segment kinds, durations, action
offsets, labels, and every value position lowered by
:func:`~repro.core.opir.nodes.lower_expr`.  What varies per call —
address-latch bytes, DMA targets, inline payloads — becomes an *operand
slot*, an index into a flat tuple in program order.  The waveform
executor (:mod:`repro.core.opir.interp`) runs the steps; the TLM
template (:mod:`repro.core.fastops`) folds them.  Steps are tuples
tagged by the ints below (``f`` is a lowered ``f(regs, handles, hooks)``;
``mask`` is None = the op's target, an int, or an ``f``)::

    (TXN, kind, label, recipes)   recipe = (µFSM, SegmentKind, duration_ns,
                                  actions, fills, mask, label, via_chip_control)
    (HANDLE, name, mint, nbytes, slot)   mint(packetizer, operand, nbytes)
    (POLL, poll_fn, until, dest, mask, max_polls, period_ns)
                                  poll_fn is ERASE_POLL for a "ready" wait
                                  after a transaction that latches an erase
    (SLEEP, ns | f)   (SET, name, f)   (RETURN, f)   (SELECT, node, read_status_op)
    (CALL, op, fn, names, f, dest)
    (BRANCH, f | None, else_pc)   None = unconditional jump
    (LOOP, var, count, exit_pc)   (BREAK_IF, f, sets, loop_pc, exit_pc)

A recipe's ``actions`` holds ``(offset, action)`` where the shape fixes
the action (command latches, idle waits) and ``(offset, tag, a, b, c)``
at the indices in ``fills``: ``ADDR`` (a = operand slot), ``DATA_OUT`` /
``DATA_IN`` (a = nbytes, b = handle name, c = column).  A lowered recipe
is a :class:`Recipe`: those eight slots, read off the validated segment
the µFSM emitted, plus that segment as ``prototype`` — what a
transmission binds (:meth:`WaveformSegment.bind`).
"""

from __future__ import annotations

import numpy as np

from repro.core.opir.nodes import (
    Branch,
    BreakIf,
    CallOp,
    DataXfer,
    DeclareHandle,
    LatchSeq,
    Loop,
    OpProgram,
    PollStatus,
    Return,
    SelectFirstReady,
    SetReg,
    SoftSleep,
    TimerWait,
    Txn,
    effective_poll_period,
    lower_expr,
)
import repro.core.ops as ops
from repro.core.ops.base import ERASE_POLL, POLL_LOOPS
from repro.core.packetizer import Packetizer
from repro.dram import DmaHandle
from repro.onfi.protocol import OPCODES
from repro.onfi.signals import (
    AddressLatch,
    CommandLatch,
    DataInAction,
    DataOutAction,
)

STEP_NAMES = ("TXN", "HANDLE", "POLL", "SLEEP", "CALL", "SET", "BRANCH",
              "LOOP", "BREAK_IF", "SELECT", "RETURN")
(TXN, HANDLE, POLL, SLEEP, CALL, SET, BRANCH, LOOP, BREAK_IF, SELECT,
 RETURN) = range(len(STEP_NAMES))
ADDR, DATA_OUT, DATA_IN = range(3)

# DeclareHandle source -> mint(packetizer, operand, nbytes): the operand
# is a DRAM address, or an inline handle's immediate bytes.
_MINTS = {
    "capture": lambda packetizer, _, nbytes: packetizer.capture(nbytes),
    "from_flash": Packetizer.from_flash,
    "to_flash": Packetizer.to_flash,
    "inline": lambda packetizer, data, _: packetizer.inline(
        np.array(data, dtype=np.uint8)),
}
UNFOLDED = object()  # Lowered.template before the TLM runner asked


class Recipe(tuple):
    """One segment of a lowered transaction: the eight slots of the
    module docstring, and ``prototype`` — the segment ``ufsm`` emitted
    for this shape, validated once by its constructor.  Kind, duration
    and label are taken from it, so slots and prototype cannot differ."""

    def __new__(cls, ufsm, prototype, actions, fills, mask, via):
        assert ([entry[0] for entry in actions]
                == [offset for offset, _ in prototype.actions]), \
            "a recipe's offsets are its prototype's"
        self = super().__new__(cls, (
            ufsm, prototype.kind, prototype.duration_ns, actions, fills,
            mask, prototype.label, via))
        self.prototype = prototype
        return self


class Lowered:
    """One lowered shape.  ``program`` is the instance it was lowered
    from; ``alias`` is set instead of ``steps`` for a pure wrapper —
    ``(run, callee Lowered)``, the callee's shape run under the
    wrapper's own operands; ``template`` caches the TLM runner's fold of
    ``steps`` (None when the steps have no template)."""

    __slots__ = ("steps", "program", "alias", "template")

    def __init__(self, steps: tuple, program: OpProgram, alias=None):
        self.steps = steps
        self.program = program
        self.alias = alias
        self.template = UNFOLDED


def resolve_timer_ns(bank, node: TimerWait) -> int:
    """The duration of a :class:`TimerWait` against ``bank``'s timing."""
    if (node.ns is None) == (node.param is None):
        raise ValueError("TimerWait needs exactly one of ns= or param=")
    if node.ns is not None:
        return node.ns
    try:
        return getattr(bank.ca_writer.timing, node.param)
    except AttributeError:
        raise ValueError(
            f"TimerWait param {node.param!r} is not a timing parameter"
        ) from None


def _mask(chip_mask):
    if chip_mask is None or type(chip_mask) is int:
        return chip_mask
    return lower_expr(chip_mask)


def _lower_segment(bank, node, operands: list, declared: set) -> Recipe:
    """One segment node to its recipe, via the bank's µFSM emitters."""
    name = None
    if isinstance(node, LatchSeq):
        ufsm = bank.ca_writer
        segment = ufsm.emit(list(node.latches), label=node.label)
    elif isinstance(node, TimerWait):
        ufsm = bank.timer
        segment = ufsm.emit(resolve_timer_ns(bank, node), label=node.label)
    elif isinstance(node, DataXfer):
        name = node.handle.name
        if name not in declared:
            raise KeyError(f"handle {name!r} referenced before declaration")
        scratch = DmaHandle(None, 0, node.nbytes)
        if node.direction == "out":
            ufsm = bank.data_reader
            segment = ufsm.emit(node.nbytes, scratch, label=node.label)
        elif node.direction == "in":
            ufsm = bank.data_writer
            segment = ufsm.emit(node.nbytes, scratch, column=node.column,
                                after_address=node.after_address,
                                label=node.label)
        else:
            raise ValueError("DataXfer direction must be 'out' or 'in', "
                             f"got {node.direction!r}")
    else:
        raise TypeError(f"{type(node).__name__} is not a segment node")
    actions = list(segment.actions)
    fills = []
    for index, (offset, action) in enumerate(actions):
        if isinstance(action, AddressLatch):
            actions[index] = (offset, ADDR, len(operands), None, None)
            operands.append(action.address_bytes)
        elif isinstance(action, DataOutAction):
            actions[index] = (offset, DATA_OUT, action.nbytes, name, None)
        elif isinstance(action, DataInAction):
            actions[index] = (offset, DATA_IN, action.nbytes, name,
                              action.column)
        else:
            continue  # a command latch or idle wait: fixed by the shape
        fills.append(index)
    return Recipe(ufsm, segment, tuple(actions), tuple(fills),
                  _mask(node.chip_mask),
                  getattr(node, "via_chip_control", False))


def _latches_erase(recipes: tuple) -> bool:
    """A transaction's segments latch a command that starts an erase."""
    for recipe in recipes:
        for _, action in recipe.prototype.actions:
            if isinstance(action, CommandLatch):
                row = OPCODES.get(action.opcode)
                if row is not None and row.busy is not None \
                        and row.busy.kind == "erase":
                    return True
    return False


def lower(bank, program: OpProgram) -> tuple[Lowered, tuple]:
    """Lower ``program`` against ``bank``'s current data mode:
    ``(Lowered, operands)`` — the steps, and this instance's values for
    their operand slots."""
    steps: list = []
    operands: list = []
    declared: set = set()
    erasing = False  # the last transaction latched an erase

    def block(nodes, loop=None, top=False) -> None:
        nonlocal erasing
        for node in nodes:
            if isinstance(node, Txn):
                recipes = tuple(
                    _lower_segment(bank, seg, operands, declared)
                    for seg in node.segments)
                erasing = _latches_erase(recipes)
                steps.append((TXN, node.kind, node.label, recipes))
            elif isinstance(node, DeclareHandle):
                if node.source not in _MINTS:
                    raise ValueError(f"unknown handle source {node.source!r}")
                steps.append((HANDLE, node.name, _MINTS[node.source],
                              node.nbytes, len(operands)))
                operands.append(node.data if node.source == "inline"
                                else node.dram_address)
                declared.add(node.name)
            elif isinstance(node, PollStatus):
                if node.until not in POLL_LOOPS:
                    raise ValueError("PollStatus until must be 'ready' or "
                                     f"'array_ready', got {node.until!r}")
                loop_fn = POLL_LOOPS[node.until]
                if erasing and node.until == "ready":
                    loop_fn = ERASE_POLL
                erasing = False
                steps.append((POLL, loop_fn, node.until, node.dest,
                              _mask(node.chip_mask), node.max_polls,
                              effective_poll_period(node.period_ns)))
            elif isinstance(node, SoftSleep):
                steps.append((SLEEP, node.ns if type(node.ns) is int
                              else lower_expr(node.ns)))
            elif isinstance(node, CallOp):
                steps.append((
                    CALL, node.op, getattr(ops, f"{node.op}_op", None),
                    tuple(name for name, _ in node.kwargs),
                    lower_expr(tuple(value for _, value in node.kwargs)),
                    node.dest))
            elif isinstance(node, SetReg):
                steps.append((SET, node.name, lower_expr(node.expr)))
            elif isinstance(node, Branch):
                at = len(steps)
                steps.append(None)
                block(node.then, loop)
                skip = len(steps)  # end of then: jump over orelse
                steps.append(None)
                steps[at] = (BRANCH, lower_expr(node.pred), len(steps))
                block(node.orelse, loop)
                steps[skip] = (BRANCH, None, len(steps))
            elif isinstance(node, Loop):
                head = len(steps)
                steps.append(None)
                breaks: list = []
                block(node.body, (head + 1, breaks))
                steps.append((BRANCH, None, head))
                steps[head] = (LOOP, node.var, node.count, len(steps))
                for at in breaks:
                    steps[at] += (len(steps),)
            elif isinstance(node, BreakIf):
                if loop is None:
                    raise ValueError("BreakIf outside a Loop")
                loop[1].append(len(steps))
                steps.append((BREAK_IF, lower_expr(node.pred), tuple(
                    (name, lower_expr(expr)) for name, expr in node.sets),
                    loop[0]))
            elif isinstance(node, SelectFirstReady):
                steps.append((SELECT, node, ops.read_status_op))
            elif isinstance(node, Return):
                steps.append((RETURN, lower_expr(node.expr)))
                if top:
                    return  # nothing after a top-level Return can run
            else:
                raise TypeError(f"{type(node).__name__} is not a step node")

    emitted = [ufsm.emissions for ufsm in bank.all()]
    block(program.nodes, top=True)
    for ufsm, count in zip(bank.all(), emitted):
        ufsm.emissions = count  # lowering drives no bus; runs count
    bank.shapes_lowered += 1
    return Lowered(tuple(steps), program), tuple(operands)
