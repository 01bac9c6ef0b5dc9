"""The op-program IR: declarative node set for flash operations.

BABOL's core claim is that flash operations are *software* — programs
over the five µFSMs (Fig. 8, Algorithms 1–3).  This module makes that
literal: an operation is an :class:`OpProgram`, a tree of small frozen
dataclasses describing latch sequences, timer waits, data bursts,
status polls, and the (rare) data-dependent control flow.  Programs are
pure values — no generators, no context — which is what buys the three
things imperative generators could never give us:

* a static linter (:mod:`repro.analysis.op_lint`) can walk a program
  and check tCCS/tADL ordering, poll budgets, and channel-hold time
  before anything runs;
* programs serialize to JSON (:mod:`repro.core.opir.serialize`) for
  trace replay and cross-run diffing;
* vendors override whole operations by supplying a different program
  builder (:mod:`repro.flash.vendors`), not by monkeypatching code.

Execution is split the way the paper splits it — prepared ahead of the
hardware: a *lowering* (:mod:`repro.core.opir.compile`) turns a program,
once per shape, into flat steps through the µFSM emitters of a
:class:`~repro.core.ufsm.base.UfsmBank`, and an *executor*
(:mod:`repro.core.opir.interp`) runs those steps through an
:class:`~repro.core.softenv.base.OperationContext` with byte/ns
identical behaviour to the original hand-written generators (pinned by
``tests/test_opir_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from repro.core.transaction import TxnKind
from repro.core.ufsm.ca_writer import Latch
from repro.onfi.status import StatusRegister

__all__ = [
    "Reg",
    "HandleRef",
    "E",
    "EvalState",
    "eval_expr",
    "lower_expr",
    "LatchSeq",
    "TimerWait",
    "DataXfer",
    "Txn",
    "DeclareHandle",
    "PollStatus",
    "SoftSleep",
    "CallOp",
    "SetReg",
    "Branch",
    "Loop",
    "BreakIf",
    "SelectFirstReady",
    "Return",
    "OpProgram",
    "SEGMENT_NODES",
    "STEP_NODES",
]


# ---------------------------------------------------------------------------
# Expressions: the tiny value language of the IR.
#
# Any "value position" in a node (a chip mask, a register assignment, a
# return expression, CallOp kwargs) may hold a literal, a tuple/list of
# values, or one of the three expression kinds below.  The reference
# evaluator is :func:`eval_expr`; the lowering evaluates the same
# language through :func:`lower_expr`.  Undefined registers evaluate to
# ``None`` (matching the seeds' ``level_used = None`` initializations).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reg:
    """Read a named register of the running operation."""

    name: str


@dataclass(frozen=True)
class HandleRef:
    """Reference a DMA handle minted by a :class:`DeclareHandle`."""

    name: str


@dataclass(frozen=True)
class E:
    """A primitive operator application; ``args`` are value positions.

    Operators:

    ``item``            ``args = (seq, index)`` — subscript
    ``and``             ``args = (a, b)`` — Python ``and``
    ``gt`` / ``ne``     ``args = (a, b)`` — comparisons
    ``not_failed``      ``args = (status,)`` — ``not StatusRegister.is_failed``
    ``delivered``       ``args = (handle,)`` — the raw delivered array
    ``delivered_byte``  ``args = (handle,)`` — ``int(delivered[0])``
    ``delivered_tuple`` ``args = (handle,)`` — ``tuple(int(b) ...)``
    ``hook``            ``args = (hook_name, *call_args)`` — invoke a
                        caller-supplied callable (e.g. an ECC validate)
    """

    op: str
    args: tuple = ()


class EvalState:
    """Mutable evaluation state: registers, handles, and hooks."""

    __slots__ = ("regs", "handles", "hooks")

    def __init__(self, hooks: Optional[dict] = None):
        self.regs: dict[str, Any] = {}
        self.handles: dict[str, Any] = {}
        self.hooks: dict[str, Callable] = dict(hooks or {})


def eval_expr(value: Any, state: EvalState) -> Any:
    """Evaluate a value position against the interpreter state."""
    if isinstance(value, Reg):
        return state.regs.get(value.name)
    if isinstance(value, HandleRef):
        try:
            return state.handles[value.name]
        except KeyError:
            raise KeyError(f"handle {value.name!r} referenced before declaration") from None
    if isinstance(value, E):
        return _apply(value, state)
    if isinstance(value, tuple):
        return tuple(eval_expr(item, state) for item in value)
    if isinstance(value, list):
        return [eval_expr(item, state) for item in value]
    return value


def _apply(expr: E, state: EvalState) -> Any:
    op = expr.op
    if op == "hook":
        name = expr.args[0]
        try:
            hook = state.hooks[name]
        except KeyError:
            raise KeyError(f"program calls hook {name!r} but none was supplied") from None
        return hook(*(eval_expr(a, state) for a in expr.args[1:]))
    args = [eval_expr(a, state) for a in expr.args]
    if op == "item":
        return args[0][args[1]]
    if op == "and":
        return args[0] and args[1]
    if op == "gt":
        return args[0] > args[1]
    if op == "ne":
        return args[0] != args[1]
    if op == "not_failed":
        return not StatusRegister.is_failed(args[0])
    if op == "delivered":
        return args[0].delivered
    if op == "delivered_byte":
        return int(args[0].delivered[0])
    if op == "delivered_tuple":
        return tuple(int(b) for b in args[0].delivered)
    raise ValueError(f"unknown expression operator {op!r}")


# Python source of each E operator, for :func:`lower_expr`.  ``and`` is a
# call so that both sides are evaluated, as :func:`eval_expr` does.
_E_SOURCE = {
    "item": "{0}[{1}]",
    "and": "both({0}, {1})",
    "gt": "({0} > {1})",
    "ne": "({0} != {1})",
    "not_failed": "(not is_failed({0}))",
    "delivered": "{0}.delivered",
    "delivered_byte": "int({0}.delivered[0])",
    "delivered_tuple": "tuple(int(b) for b in {0}.delivered)",
}


def _hook(hooks: Optional[dict], name: str) -> Callable:
    try:
        return hooks[name]
    except (KeyError, TypeError):
        raise KeyError(f"program calls hook {name!r} but none was supplied") from None


def lower_expr(value: Any) -> Callable[..., Any]:
    """Lower a value position, once, into a flat ``f(regs, handles,
    hooks=None)``.

    The result equals :func:`eval_expr` against a state with those
    registers, handles and hooks, without the per-node recursion: the
    lowering (:mod:`repro.core.opir.compile`) calls this once for every
    value position of a program, and both tiers evaluate the result.
    """
    consts: list = []

    def source(node: Any) -> str:
        if isinstance(node, Reg):
            return f"regs.get({node.name!r})"
        if isinstance(node, HandleRef):
            return f"handles[{node.name!r}]"
        if isinstance(node, E):
            if node.op == "hook":
                args = ", ".join(map(source, node.args[1:]))
                return f"hook(hooks, {node.args[0]!r})({args})"
            try:
                return _E_SOURCE[node.op].format(*map(source, node.args))
            except KeyError:
                raise ValueError(f"unknown expression operator {node.op!r}") from None
        if isinstance(node, (tuple, list)):
            items = "".join(source(item) + ", " for item in node)
            return f"({items})" if isinstance(node, tuple) else f"[{items}]"
        consts.append(node)
        return f"consts[{len(consts) - 1}]"

    return eval(f"lambda regs, handles, hooks=None: {source(value)}",
                {"consts": consts, "is_failed": StatusRegister.is_failed,
                 "hook": _hook, "both": lambda a, b: a and b})


# ---------------------------------------------------------------------------
# Segment nodes: lowered to segment recipes through the µFSM emitters.  A
# ``chip_mask`` of ``None`` means "the operation's target mask"
# (``ctx.chip_mask``) — resolved at run time, so one program serves any
# LUN position.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatchSeq:
    """One C/A Writer emission: a tuple of command/address latches.

    ``via_chip_control=True`` reproduces the gang-scheduling idiom: the
    segment is emitted with the default mask and then redirected by the
    Chip Control µFSM (Fig. 6d), exactly as ``gang_read_op`` did.
    """

    latches: tuple[Latch, ...]
    chip_mask: Any = None
    label: str = ""
    via_chip_control: bool = False


@dataclass(frozen=True)
class TimerWait:
    """A Timer µFSM segment: a category-2/3 wait on the channel.

    Exactly one of ``ns`` (absolute) or ``param`` (a
    :class:`~repro.onfi.timing.TimingSet` attribute such as ``"tCCS"``,
    resolved against the bank's current mode when lowered) must be
    given.  ``reason`` documents *why* a long wait holds the channel —
    the channel-hold lint (OPL004) requires it for waits over its
    threshold.
    """

    ns: Optional[int] = None
    param: Optional[str] = None
    chip_mask: Any = None
    label: str = ""
    reason: str = ""


@dataclass(frozen=True)
class DataXfer:
    """A data burst: ``direction`` is ``"out"`` (Data Reader, flash to
    controller) or ``"in"`` (Data Writer).  ``after_address=True``
    prepends the tADL wait on the in path (the SET FEATURES / PROGRAM
    contract)."""

    direction: str
    nbytes: int
    handle: HandleRef
    column: int = 0
    after_address: bool = False
    chip_mask: Any = None
    label: str = ""


SEGMENT_NODES = (LatchSeq, TimerWait, DataXfer)


# ---------------------------------------------------------------------------
# Step nodes: lowered to flat steps, run in order by the executor.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Txn:
    """Build one transaction from segment nodes and ``co_await`` it."""

    kind: TxnKind
    segments: tuple
    label: str = ""


@dataclass(frozen=True)
class DeclareHandle:
    """Mint a Packetizer DMA handle and bind it to ``name``.

    ``source`` selects the Packetizer verb: ``"from_flash"`` /
    ``"to_flash"`` (DRAM-bound, need ``dram_address``), ``"capture"``
    (controller-internal register reads), or ``"inline"`` (immediate
    bytes from ``data``, e.g. SET FEATURES parameters).
    """

    name: str
    source: str
    nbytes: int = 0
    dram_address: Optional[int] = None
    data: tuple = ()


# THE definition of "unpaced": a PollStatus with no explicit period
# re-polls back to back.  The lowering's fallback, the ops-layer
# defaults, and the OPL008 lint all resolve pacing through
# effective_poll_period so the semantics cannot drift apart.
UNPACED_POLL_PERIOD_NS = 0


def effective_poll_period(period_ns: Optional[int]) -> int:
    """Resolve a ``PollStatus.period_ns`` field (None = unpaced)."""
    return UNPACED_POLL_PERIOD_NS if period_ns is None else period_ns


@dataclass(frozen=True)
class PollStatus:
    """Poll READ STATUS until a readiness bit (Algorithm 2, lines 7..9).

    ``until`` is ``"ready"`` (RDY — array or register free) or
    ``"array_ready"`` (ARDY — the cache ops' inner readiness).  The
    final status byte lands in register ``dest`` when given.  A finite
    ``max_polls`` is mandatory — the linter rejects unbounded polls.

    ``period_ns`` paces the loop: the task soft-sleeps that long
    between polls (channel released) instead of re-polling back to
    back.  ``None`` keeps the historical unpaced loop; the linter
    (OPL008) flags explicit periods below the vendor minimum.
    """

    until: str = "ready"
    dest: Optional[str] = None
    chip_mask: Any = None
    max_polls: int = 100_000
    period_ns: Optional[int] = None


@dataclass(frozen=True)
class SoftSleep:
    """Suspend the task in software for ``ns`` — the channel is NOT
    held (contrast with an in-transaction :class:`TimerWait`)."""

    ns: Any


@dataclass(frozen=True)
class CallOp:
    """Invoke another registered operation (Algorithm 2 calling
    Algorithm 1).  Goes through the callee's ``X_op`` handle, so traced
    spans nest and vendor overrides resolve for the callee too."""

    op: str
    kwargs: tuple = ()  # tuple of (name, value) pairs; values are value positions
    dest: Optional[str] = None


@dataclass(frozen=True)
class SetReg:
    """Assign ``expr`` to register ``name``."""

    name: str
    expr: Any = None


@dataclass(frozen=True)
class Branch:
    """Run ``then`` when ``pred`` evaluates truthy, else ``orelse``."""

    pred: Any
    then: tuple = ()
    orelse: tuple = ()


@dataclass(frozen=True)
class Loop:
    """Run ``body`` ``count`` times with the index bound to register
    ``var``; a :class:`BreakIf` inside the body exits early."""

    var: str
    count: int
    body: tuple = ()


@dataclass(frozen=True)
class BreakIf:
    """Break the innermost :class:`Loop` when ``pred`` is truthy,
    applying the ``sets`` register assignments first."""

    pred: Any
    sets: tuple = ()  # tuple of (reg_name, expr) pairs


@dataclass(frozen=True)
class SelectFirstReady:
    """Round-robin status-poll a set of LUN positions until one reports
    RDY (the gang-read / RAIL idiom).  The winning position lands in
    ``dest_pos`` and its single-chip mask in ``dest_mask``."""

    positions: tuple[int, ...]
    dest_pos: str = "winner"
    dest_mask: str = "winner_mask"
    max_rounds: int = 100_000


@dataclass(frozen=True)
class Return:
    """Finish the program; ``expr`` is the operation's result."""

    expr: Any = None


STEP_NODES = (
    Txn,
    DeclareHandle,
    PollStatus,
    SoftSleep,
    CallOp,
    SetReg,
    Branch,
    Loop,
    BreakIf,
    SelectFirstReady,
    Return,
)


@dataclass(frozen=True)
class OpProgram:
    """A complete operation: a name and an ordered node tuple.

    ``continues``: the program starts where the op before it on the die
    stopped — a PROGRAM loaded and awaiting its confirm (a program
    chain's step or end, :mod:`repro.core.opir.programs`) — instead of
    on a die that awaits a new command."""

    name: str
    nodes: tuple
    doc: str = field(default="", compare=False)
    continues: bool = False

    def walk(self):
        """Pre-order traversal of every node (steps and segments)."""
        yield from _walk(self.nodes)


def _walk(nodes):
    for node in nodes:
        yield node
        if isinstance(node, Txn):
            yield from _walk(node.segments)
        elif isinstance(node, Branch):
            yield from _walk(node.then)
            yield from _walk(node.orelse)
        elif isinstance(node, Loop):
            yield from _walk(node.body)


def kwargs_tuple(mapping: dict) -> tuple:
    """Normalize a kwargs dict into the sorted pair-tuple CallOp wants."""
    return tuple(sorted(mapping.items()))


def wrapper_callee(program: OpProgram) -> Optional[tuple[str, dict]]:
    """(callee name, static kwargs) when ``program`` is a pure
    one-CallOp wrapper (``full_page_read`` → ``read_page``); None when
    it is not, or an argument depends on runtime registers or hooks."""
    nodes = program.nodes
    if not (len(nodes) == 2 and isinstance(nodes[0], CallOp)
            and isinstance(nodes[1], Return)
            and isinstance(nodes[1].expr, Reg)
            and nodes[1].expr.name == nodes[0].dest):
        return None
    state = EvalState(None)
    kwargs = {}
    for name, value in nodes[0].kwargs:
        try:
            kwargs[name] = eval_expr(value, state)
        except Exception:
            return None
    return nodes[0].op, kwargs


Value = Union[Reg, HandleRef, E, int, str, bytes, None]
