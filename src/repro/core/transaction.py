"""Transactions: the waveform instruction set.

A transaction bundles one or more waveform segments that must hit the
channel back-to-back ("it is never descheduled before it completes",
Section II).  Operations build transactions out of µFSM emissions and
enqueue them; the transaction scheduler decides their order; the
executor transmits them atomically.

The class also carries the scheduling metadata (kind, priority, target
LUN) the transaction schedulers key on, and the timestamps the metrics
layer uses to attribute latency to software vs. channel time.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.onfi.signals import WaveformSegment
from repro.sim import Simulator
from repro.sim.sync import Trigger

_txn_ids = itertools.count()


class TxnKind(enum.Enum):
    """Scheduling class of a transaction."""

    CMD_ADDR = "cmd_addr"    # command/address preambles and confirms
    DATA_OUT = "data_out"    # page transfers out of the package
    DATA_IN = "data_in"      # page transfers into the package
    POLL = "poll"            # READ STATUS polling traffic
    CONFIG = "config"        # features, resets, calibration


# Default priorities: data movement first (it is the goodput), then
# command preambles (they start new array work), polls last (they are
# retried anyway).  The priority transaction scheduler keys on these.
DEFAULT_PRIORITY = {
    TxnKind.DATA_OUT: 0,
    TxnKind.DATA_IN: 0,
    TxnKind.CMD_ADDR: 1,
    TxnKind.CONFIG: 1,
    TxnKind.POLL: 2,
}
# Also on each member, so that a transaction resolves its default with
# an attribute load instead of hashing the enum (a Python-level hash).
for _kind, _priority in DEFAULT_PRIORITY.items():
    _kind.default_priority = _priority
del _kind, _priority


class Transaction:
    """An atomic, queueable unit of channel work."""

    __slots__ = (
        "id", "sim", "lun_position", "kind", "priority", "segments",
        "completed", "enqueued_at", "dispatched_at", "started_at",
        "finished_at", "label", "guard",
    )

    def __init__(
        self,
        sim: Simulator,
        lun_position: int,
        kind: TxnKind = TxnKind.CMD_ADDR,
        priority: Optional[int] = None,
        label: str = "",
    ):
        self.id = next(_txn_ids)
        self.sim = sim
        self.lun_position = lun_position
        self.kind = kind
        self.priority = kind.default_priority if priority is None else priority
        self.segments: list[WaveformSegment] = []
        self.completed = Trigger(sim)
        self.enqueued_at: Optional[int] = None
        self.dispatched_at: Optional[int] = None
        self.started_at: Optional[int] = None
        self.finished_at: Optional[int] = None
        self.label = label
        # ``guard(txn) -> bool``, asked by the executor as it takes the
        # channel: False sends nothing (the segments are dropped).
        self.guard = None

    def add_segment(self, segment: WaveformSegment) -> None:
        self.segments.append(segment)

    @property
    def duration_ns(self) -> int:
        return sum(segment.duration_ns for segment in self.segments)

    @property
    def queueing_delay_ns(self) -> Optional[int]:
        """Software-attributable delay: enqueue to channel start."""
        if self.enqueued_at is None or self.started_at is None:
            return None
        return self.started_at - self.enqueued_at

    def describe(self) -> str:
        return (
            f"txn#{self.id} lun{self.lun_position} {self.kind.value} "
            f"prio={self.priority} segs={len(self.segments)} "
            f"dur={self.duration_ns}ns {self.label}"
        )
