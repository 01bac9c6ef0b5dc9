"""Transaction schedulers: which prepared transaction uses the channel.

"The Transaction Scheduler decides the order in which the transactions
sitting on the individual operations use the channel" (Section V).
The priority policy is the one that lets the Coroutine controller edge
out the hardware baseline on saturated channels (Fig. 10): it moves
data bursts ahead of command preambles and defers READ STATUS polls,
which are pure overhead while the channel is contended.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import attrgetter
from typing import Optional, Sequence

from repro.core.transaction import Transaction, TxnKind


class TxnScheduler(ABC):
    """Policy choosing the next transaction to dispatch."""

    name = "txn-scheduler"

    @abstractmethod
    def select(self, pending: Sequence[Transaction]) -> Transaction:
        """Pick one transaction from a non-empty pending list."""


class FifoTxnScheduler(TxnScheduler):
    """Dispatch in enqueue order."""

    name = "fifo"
    _key = attrgetter("enqueued_at", "id")

    def select(self, pending: Sequence[Transaction]) -> Transaction:
        return min(pending, key=self._key)


class RoundRobinTxnScheduler(TxnScheduler):
    """Rotate across LUN positions so no die starves the others."""

    name = "round-robin"

    def __init__(self) -> None:
        self._last_position = -1

    def select(self, pending: Sequence[Transaction]) -> Transaction:
        def rotation_key(txn: Transaction) -> tuple:
            distance = (txn.lun_position - self._last_position - 1) % 64
            return (distance, txn.enqueued_at, txn.id)

        choice = min(pending, key=rotation_key)
        self._last_position = choice.lun_position
        return choice


class PriorityTxnScheduler(TxnScheduler):
    """Data first, preambles next, polls last — with poll aging.

    Pure deferral starves status polls behind a deep transfer backlog,
    which stalls the very detections that refill that backlog (a
    pipeline oscillation).  A poll that has waited longer than
    ``age_threshold_ns`` is therefore promoted to the front: it costs
    well under a microsecond of channel time and its completion lets
    another LUN's transfer enter the queue while the current one is
    still streaming.
    """

    name = "priority"
    _key = attrgetter("priority", "enqueued_at", "id")

    def __init__(self, age_threshold_ns: Optional[int] = None):
        # Aging is off by default: measurements (see the transaction-
        # scheduler ablation bench) show promoted polls cost more wakeup
        # round trips than the detections they accelerate are worth.
        self.age_threshold_ns = age_threshold_ns

    def select(self, pending: Sequence[Transaction]) -> Transaction:
        threshold = self.age_threshold_ns
        if threshold is None:
            return min(pending, key=self._key)

        def aged_key(txn: Transaction) -> tuple:
            priority = txn.priority
            if (txn.kind is TxnKind.POLL
                    and txn.sim.now - txn.enqueued_at >= threshold):
                priority = -1  # aged poll: cheap, and it unblocks work
            return (priority, txn.enqueued_at, txn.id)

        return min(pending, key=aged_key)

    @staticmethod
    def poll_pressure(pending: Sequence[Transaction]) -> float:
        """Fraction of the pending queue that is polling traffic."""
        if not pending:
            return 0.0
        polls = sum(1 for txn in pending if txn.kind is TxnKind.POLL)
        return polls / len(pending)
