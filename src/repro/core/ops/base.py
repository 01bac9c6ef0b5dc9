"""Shared building blocks for operations."""

from __future__ import annotations

from functools import partial
from typing import Callable, Generator, Optional

from repro.core.opir.nodes import UNPACED_POLL_PERIOD_NS
from repro.core.softenv.base import OperationContext
from repro.core.transaction import Transaction, TxnKind
from repro.core.ufsm.ca_writer import Latch
from repro.obs.instrument import traced_body
from repro.onfi.status import StatusBits, StatusRegister


def single_latch_txn(
    ctx: OperationContext,
    latches: list[Latch],
    kind: TxnKind = TxnKind.CMD_ADDR,
    chip_mask: Optional[int] = None,
    label: str = "",
) -> Transaction:
    """One transaction wrapping a single C/A Writer emission."""
    mask = chip_mask if chip_mask is not None else ctx.chip_mask
    txn = ctx.transaction(kind, label=label)
    txn.add_segment(ctx.ufsm.ca_writer.emit(latches, chip_mask=mask, label=label))
    return txn


#: ``PollStatus.until`` -> (what the poll's errors call it, the status
#: bit it waits for).
POLLS = {"ready": ("status", int(StatusBits.RDY)),
         "array_ready": ("array-ready", int(StatusBits.ARDY))}


def poll_budget_exhausted(what: str) -> RuntimeError:
    """The error of a poll that used up ``max_polls`` — one text for the
    generic loop below and the TLM template runner."""
    return RuntimeError(f"{what} poll budget exhausted — stuck LUN?")


def _poll_status(
    ctx: OperationContext,
    predicate: Callable[[int], bool],
    chip_mask: Optional[int],
    max_polls: int,
    what: str,
    period_ns: int = UNPACED_POLL_PERIOD_NS,
    erase: bool = False,
) -> Generator:
    """Poll READ STATUS until ``predicate`` accepts the status byte.

    Each iteration is a full software round trip — this loop is exactly
    what the Fig. 11 logic-analyzer experiment measures the period of.
    A non-zero ``period_ns`` soft-sleeps between polls (the channel is
    free meanwhile); the unpaced fallback is
    :data:`~repro.core.opir.nodes.UNPACED_POLL_PERIOD_NS`, shared with
    the IR lowering and the OPL008 lint.  The two public polls below
    differ only in the predicate.

    When the environment carries a :class:`~repro.core.recovery.Watchdog`
    the loop is additionally bounded in *nanoseconds*: once the budget
    elapses on the simulated clock, :class:`OpTimeout` is raised — a
    recoverable error the environment attaches to the task instead of
    crashing the scheduler, so a hung die can be escalated (retry →
    RESET → degrade) while the rest of the package keeps serving.

    This loop runs on both fidelity tiers: every poll of an op the
    TLM template runner does not take is on the bus, as in waveform.

    ``erase`` (:data:`ERASE_POLL`, chosen by the lowering for the wait
    after an erase latch): between rounds is the environment's
    preemption point, where a waiting read or PROGRAM may suspend the
    erase (``SoftwareEnvironment.preempt_erase``).
    """
    from repro.core.opir.registry import resolved_op
    from repro.core.recovery import OpTimeout

    watchdog = ctx.watchdog
    deadline = None if watchdog is None else ctx.sim.now + watchdog.budget_ns
    # Waiting on an erase: between rounds, a waiting op may suspend it.
    erase_end = ctx.env.erase_deadline(ctx, chip_mask) if erase else None
    # READ STATUS, resolved once for the loop (what ``read_status_op``
    # resolves per call); each poll runs the shape, under that op's span.
    run, lowered, operands = resolved_op(
        ctx, "read_status", {"chip_mask": chip_mask})
    polls = 0
    while polls < max_polls:
        tracer = ctx.sim._tracer
        if tracer is None or not tracer.wants("op"):
            status = yield from run(ctx, lowered, operands)
        else:
            status = yield from traced_body(
                tracer, "read_status_op", ctx, run, (lowered, operands), {})
        polls += 1
        if predicate(status):
            return status
        if deadline is not None and ctx.sim.now >= deadline:
            raise OpTimeout(what, ctx.lun_position, watchdog.budget_ns)
        if erase_end is not None:
            erase_end = yield from ctx.env.preempt_erase(ctx, erase_end)
        if period_ns:
            yield from ctx.sleep(period_ns)
    raise poll_budget_exhausted(what)


#: ``PollStatus.until`` -> the loop a lowered POLL step runs: the two
#: public polls below, minus their forwarding frame.
POLL_LOOPS = {
    "ready": partial(_poll_status, predicate=StatusRegister.is_ready,
                     what=POLLS["ready"][0]),
    "array_ready": partial(_poll_status,
                           predicate=StatusRegister.is_array_ready,
                           what=POLLS["array_ready"][0]),
}


#: The "ready" loop for the wait after an erase latch: it has the
#: preemption point.
ERASE_POLL = partial(POLL_LOOPS["ready"], erase=True)


def poll_until_ready(
    ctx: OperationContext,
    chip_mask: Optional[int] = None,
    max_polls: int = 100_000,
    period_ns: int = UNPACED_POLL_PERIOD_NS,
) -> Generator:
    """Poll until RDY (Algorithm 2, lines 7..9); returns the status byte."""
    status = yield from _poll_status(
        ctx, StatusRegister.is_ready, chip_mask, max_polls,
        POLLS["ready"][0],
        period_ns=period_ns,
    )
    return status


def poll_until_array_ready(
    ctx: OperationContext,
    chip_mask: Optional[int] = None,
    max_polls: int = 100_000,
    period_ns: int = UNPACED_POLL_PERIOD_NS,
) -> Generator:
    """Poll until ARDY: cache operations' inner readiness."""
    status = yield from _poll_status(
        ctx, StatusRegister.is_array_ready, chip_mask, max_polls,
        POLLS["array_ready"][0],
        period_ns=period_ns,
    )
    return status
