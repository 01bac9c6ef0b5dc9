"""Controller-side error recovery: watchdog, escalation, degradation.

The operation layer already *detects* failure — every program/erase
program polls READ STATUS and returns ``not FAIL`` — but until now
nothing above it had a policy for what to do when an op reports FAIL,
or when a die simply never deasserts R/B#.  This module supplies that
policy:

* :class:`Watchdog` — a poll budget in **nanoseconds** (not iterations)
  that :func:`repro.core.ops.base._poll_status` checks against the
  simulated clock.  When the budget is exhausted the op raises
  :class:`OpTimeout` instead of spinning to the iteration cap.
* :class:`RecoverableOpError` — the exception family the software
  environment converts into ``task.error`` (the task completes with a
  ``None`` result and the error attached) instead of letting it
  propagate and kill the scheduler loop.  Every other LUN keeps being
  served.
* :class:`RecoveryManager` — the escalation state machine a host-side
  process drives ops through::

      op times out
        └─ bounded retry-with-backoff: re-poll status; a *slow* die
           (stretched busy) finishes here and the op is re-issued
           (skipped for an op a RESET aborted, :class:`OpAborted`:
           the status after that RESET is no verdict on it)
        └─ targeted RESET (legal while the array is busy; cancels the
           hung operation, which never committed) then re-issue
        └─ mark the die degraded/offline; subsequent ops fail fast
           with :class:`DieDegraded` while the rest of the package
           keeps serving (graceful degradation)

  Program/erase ops that complete but report the ONFI FAIL bit are
  surfaced as :class:`OpFailed` so the FTL's bad-block machinery can
  take over (rewrite + retirement).

Everything here is opt-in: with no watchdog installed the poll loop is
byte-for-byte the historical one, and a controller without a
``RecoveryManager`` behaves exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.onfi.status import StatusRegister
from repro.sim import Timeout


class RecoverableOpError(RuntimeError):
    """Base for op-level failures the environment must survive.

    Raised inside an operation generator; the software environment
    catches it, attaches it to the task as ``task.error``, and finishes
    the task with a ``None`` result so waiters unblock.
    """

    def __init__(self, message: str, lun: int = -1):
        super().__init__(message)
        self.lun = lun


class OpFailed(RecoverableOpError):
    """A program/erase completed with the ONFI FAIL bit set."""

    def __init__(self, kind: str, lun: int, detail: str = ""):
        super().__init__(
            f"{kind} on LUN {lun} reported FAIL{': ' + detail if detail else ''}",
            lun=lun,
        )
        self.kind = kind


class OpTimeout(RecoverableOpError):
    """A busy-wait exhausted its watchdog budget (stuck LUN).

    ``status``: the status byte the environment read on the die after
    the timeout, holding it (``SoftwareEnvironment._settle``) — ready,
    the verdict on the op, or still busy on a hung die; None when no one
    read it."""

    def __init__(self, what: str, lun: int, budget_ns: int):
        super().__init__(
            f"{what} watchdog expired after {budget_ns} ns on LUN {lun}",
            lun=lun,
        )
        self.what = what
        self.budget_ns = budget_ns
        self.status: Optional[int] = None


class OpAborted(RecoverableOpError):
    """A RESET aborted the op while its array time ran: it never
    committed, and the status the RESET left is no verdict on it."""

    def __init__(self, kind: str, lun: int):
        super().__init__(f"{kind} on LUN {lun} aborted by a RESET", lun=lun)
        self.kind = kind


class DieDegraded(RuntimeError):
    """The die was taken offline after escalation failed."""

    def __init__(self, lun: int, reason: str = "escalation exhausted"):
        super().__init__(f"LUN {lun} degraded: {reason}")
        self.lun = lun


@dataclass(frozen=True)
class Watchdog:
    """Nanosecond poll budget for the status-poll loops."""

    budget_ns: int

    def __post_init__(self) -> None:
        if self.budget_ns <= 0:
            raise ValueError("watchdog budget must be positive")

    @classmethod
    def for_vendor(cls, vendor, multiplier: float = 4.0) -> "Watchdog":
        """Budget sized off the vendor's slowest array time (tBERS is
        the worst case; jitter and suspend/resume stay inside a small
        multiple of it)."""
        timing = vendor.timing
        worst = max(
            timing.t_read_ns,
            timing.t_prog_ns,
            timing.t_bers_ns,
            timing.t_reset_ns,
            timing.t_param_read_ns,
        )
        return cls(budget_ns=int(worst * multiplier))


@dataclass(frozen=True)
class RecoveryPolicy:
    """Escalation knobs for :class:`RecoveryManager`."""

    max_status_retries: int = 2   # stage-1 re-polls before RESET
    backoff_ns: int = 100_000     # first retry delay; doubles per retry
    raise_on_fail: bool = True    # surface OpFailed on ONFI FAIL


@dataclass
class RecoveryStats:
    """Counters in the :class:`ReliabilityStats` style, exported to the
    obs metrics layer so chaos runs are visible in dumps/traces."""

    timeouts: int = 0             # ops whose watchdog expired
    op_failures: int = 0          # program/erase reporting FAIL
    status_retries: int = 0       # stage-1 backoff re-polls issued
    resets: int = 0               # stage-2 targeted RESETs issued
    recovered_by_retry: int = 0   # slow die: op finished late, re-issue OK
    recovered_by_reset: int = 0   # RESET cleared the hang, re-issue OK
    degraded: int = 0             # dies taken offline
    rejected_on_degraded: int = 0  # ops refused against an offline die

    def as_dict(self) -> dict:
        return {
            "timeouts": self.timeouts,
            "op_failures": self.op_failures,
            "status_retries": self.status_retries,
            "resets": self.resets,
            "recovered_by_retry": self.recovered_by_retry,
            "recovered_by_reset": self.recovered_by_reset,
            "degraded": self.degraded,
            "rejected_on_degraded": self.rejected_on_degraded,
        }


class RecoveryManager:
    """Drives controller ops through the retry → RESET → degrade
    escalation.  Use from a simulation process::

        recovery = RecoveryManager(controller)
        result = yield from recovery.program_page(lun, block, page, addr)
    """

    def __init__(
        self,
        controller,
        policy: Optional[RecoveryPolicy] = None,
        watchdog: Optional[Watchdog] = None,
    ):
        self.controller = controller
        self.policy = policy or RecoveryPolicy()
        self.stats = RecoveryStats()
        self.degraded_luns: set[int] = set()
        if watchdog is not None:
            controller.env.watchdog = watchdog
        if controller.env.watchdog is None:
            raise ValueError(
                "RecoveryManager needs a watchdog (pass one here or set "
                "ControllerConfig.watchdog) — without a poll budget a hung "
                "die can never time out"
            )

    # -- guarded op surface (mirrors the controller convenience API) ----

    def read_page(self, lun: int, block: int, page: int,
                  dram_address: int) -> Generator:
        result = yield from self._guarded(
            "read", lun,
            lambda: self.controller.read_page(lun, block, page, dram_address),
        )
        return result

    def program_page(self, lun: int, block: int, page: int,
                     dram_address: int) -> Generator:
        result = yield from self._guarded(
            "program", lun,
            lambda: self.controller.program_page(lun, block, page, dram_address),
        )
        return result

    def erase_block(self, lun: int, block: int) -> Generator:
        result = yield from self._guarded(
            "erase", lun,
            lambda: self.controller.erase_block(lun, block),
        )
        return result

    # -- the state machine ----------------------------------------------

    def _guarded(self, kind: str, lun: int, submit) -> Generator:
        if lun in self.degraded_luns:
            self.stats.rejected_on_degraded += 1
            raise DieDegraded(lun, reason="die is offline")
        task = submit()
        result = yield from self.controller.wait(task)
        if task.error is None:
            return self._check(kind, lun, result)
        result = yield from self._escalate(kind, lun, submit, task.error)
        return result

    def _check(self, kind: str, lun: int, result):
        if kind in ("program", "erase") and not result:
            self.stats.op_failures += 1
            if self.policy.raise_on_fail:
                raise OpFailed(kind, lun)
        return result

    def _escalate(self, kind: str, lun: int, submit,
                  error: RecoverableOpError) -> Generator:
        self.stats.timeouts += 1
        # Stage 1: bounded retry-with-backoff.  The die may merely be
        # slow (a stretched busy): re-poll status and, once it reports
        # ready, re-issue the operation against the now-idle array.  An
        # op a RESET aborted skips it: the die's status is no verdict.
        # A status the environment read while it held the die counts as
        # the first re-poll: no other op ran on the die before it.
        retries = 0 if isinstance(error, OpAborted) \
            else self.policy.max_status_retries
        status = getattr(error, "status", None)
        for attempt in range(retries):
            if status is None:
                yield Timeout(self.policy.backoff_ns << attempt)
                self.stats.status_retries += 1
                status = yield from self._read_status(lun)
            if status is not None and StatusRegister.is_ready(status):
                if kind in ("program", "erase"):
                    # The slow die finished the op while we waited: the
                    # array committed (or FAILed) — re-issuing would
                    # double-program.  The status byte is the verdict.
                    self.stats.recovered_by_retry += 1
                    return self._check(
                        kind, lun, not StatusRegister.is_failed(status))
                # Reads are idempotent: re-issue against the idle array.
                task = submit()
                result = yield from self.controller.wait(task)
                if task.error is None:
                    self.stats.recovered_by_retry += 1
                    return self._check(kind, lun, result)
                break
            status = None
        # Stage 2: targeted RESET.  Legal while the array is busy; it
        # cancels the hung operation (which never committed to the
        # array) and returns the die to idle after tRST.
        self.stats.resets += 1
        reset_task = self.controller.reset(lun)
        yield from self.controller.wait(reset_task)
        if reset_task.error is None:
            task = submit()
            result = yield from self.controller.wait(task)
            if task.error is None:
                self.stats.recovered_by_reset += 1
                return self._check(kind, lun, result)
        # Stage 3: the RESET itself hung (or the re-issue did): the die
        # is gone.  Take it offline; the rest of the package keeps
        # serving.
        self.degraded_luns.add(lun)
        self.stats.degraded += 1
        raise DieDegraded(lun)

    def _read_status(self, lun: int) -> Generator:
        from repro.core.ops import read_status_op

        task = self.controller.submit(read_status_op, lun)
        status = yield from self.controller.wait(task)
        if task.error is not None:
            return None
        return status
