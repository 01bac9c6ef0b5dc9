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


class _TlmPollPlanner:
    """The TLM tier's poll fast-forward: skip redundant busy polls.

    A solo read spends most of its simulated life polling STATUS during
    tR — dozens of full software round trips that all observe "busy".
    Under the waveform tier those polls ARE the measured behaviour
    (Fig. 11); under TLM only their timing grid matters.  The planner
    measures the loop's steady polling period P from consecutive status
    samples, asks the die when its earliest pending completion lands,
    and replaces ``k`` redundant iterations with one soft-sleep of
    ``k*P - g`` ns, where ``g`` is the scheduler+context-switch cost an
    extra sleep-resume adds versus straight-line continuation.  The
    next real poll then samples on exactly the nanosecond the waveform
    tier's ``k``-th poll would have — 0 ns drift for ops nothing
    suspends.

    Safety: the skip is bounded by the watchdog deadline grid (an
    ``OpTimeout`` still raises on its exact waveform nanosecond) and by
    the remaining ``max_polls`` budget; a hung die has no pending
    completion, so its polls never fast-forward and liveness behaviour
    is unchanged.  The loop always re-polls after a skip, so a stale
    estimate merely costs one extra (on-grid) iteration.
    """

    __slots__ = ("lun", "resume_cost_ns", "prev_sample", "gap_iters")

    def __init__(self, lun, resume_cost_ns: int):
        self.lun = lun
        self.resume_cost_ns = resume_cost_ns
        self.prev_sample: Optional[int] = None
        self.gap_iters = 1  # loop iterations covered by the last gap

    @classmethod
    def create(cls, ctx: OperationContext,
               chip_mask: Optional[int]) -> Optional["_TlmPollPlanner"]:
        backend = ctx.backend
        if backend is None or not getattr(backend, "poll_fast_forward", False):
            return None
        mask = chip_mask if chip_mask is not None else ctx.chip_mask
        if not isinstance(mask, int) or mask <= 0 or mask & (mask - 1):
            return None  # gang polls walk multiple dies — keep them exact
        executor = getattr(ctx.env, "executor", None)
        channel = getattr(executor, "channel", None)
        if channel is None:
            return None
        position = mask.bit_length() - 1
        if position >= len(channel.luns):
            return None
        env = ctx.env
        cpu = env.cpu
        resume = (cpu.cycles_to_ns(env.costs.scheduler_iteration)
                  + cpu.cycles_to_ns(env.costs.context_switch))
        return cls(channel.luns[position], resume)

    def plan(self, check_ns: int, deadline: Optional[int],
             polls_left: int) -> tuple[int, int]:
        """Return (iterations to skip, ns to sleep); (0, 0) = poll on."""
        sample = self.lun.last_status_sample_ns
        prev, self.prev_sample = self.prev_sample, sample
        gap_iters, self.gap_iters = self.gap_iters, 1
        if prev is None or sample is None or sample <= prev:
            return 0, 0
        period = (sample - prev) // gap_iters
        if period <= 0:
            return 0, 0
        end = self.lun.next_completion_ns()
        if end is None or end - sample <= period:
            return 0, 0  # idle, hung, or ready by the very next poll
        skip = -(-(end - sample) // period) - 1  # land on first grid >= end
        if deadline is not None:
            # Never skip past the check where the watchdog would fire.
            to_deadline = -(-(deadline - check_ns) // period)
            skip = min(skip, to_deadline - 1)
        skip = min(skip, polls_left - 1)
        sleep_ns = skip * period - self.resume_cost_ns
        if skip < 1 or sleep_ns < 1:
            return 0, 0
        self.prev_sample = sample
        self.gap_iters = skip + 1
        return skip, sleep_ns


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

    Under the TLM fidelity tier redundant busy polls are skipped by the
    :class:`_TlmPollPlanner` — same sampling grid, same final status,
    same timeout nanosecond, far fewer simulated round trips.

    ``erase`` (:data:`ERASE_POLL`, chosen by the lowering for the wait
    after an erase latch): between rounds is the environment's
    preemption point, where a waiting host read may suspend the erase
    (``SoftwareEnvironment.preempt_erase``).  A fast-forwarded sleep
    passes over the rounds it skips, so under TLM a read that arrives
    mid-skip waits for the next round that runs.
    """
    from repro.core.opir.registry import resolved_op
    from repro.core.recovery import OpTimeout

    watchdog = ctx.watchdog
    deadline = None if watchdog is None else ctx.sim.now + watchdog.budget_ns
    planner = _TlmPollPlanner.create(ctx, chip_mask)
    # Waiting on an erase: between rounds, a host read may suspend it.
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
        if planner is not None:
            skip, sleep_ns = planner.plan(
                ctx.sim.now, deadline, max_polls - polls)
            if skip:
                polls += skip
                yield from ctx.sleep(sleep_ns)
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
