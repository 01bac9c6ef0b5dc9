"""Operation Execution: the hardware half of BABOL.

A small hardware pipeline (Fig. 5, right-hand module) that drains
transaction descriptors from a shallow queue and drives their waveform
segments onto the channel.  Because descriptors are *prepared in
advance* by software, the only latency this stage adds is a fixed
hardware dispatch time — that asynchrony is the paper's first design
principle.

Each transaction's segments go on the bus one by one, each holding it
for its duration (``Channel.run_transaction``), on both fidelity tiers:
only a TLM template bypasses this pipeline.

The queue is deliberately shallow (default depth 1): keeping ordering
decisions in software until the last possible moment is what lets the
transaction scheduler reorder under contention.

The pipeline is the queue's only consumer, so the hand-offs around it
are plain state: ``has_room`` is an attribute kept beside the queue (the
dispatcher reads it three times per transaction), and an idle pipeline
parks on one gate that ``push`` fires only while it is parked.
"""

from __future__ import annotations

from collections import deque

from repro.bus.channel import Channel
from repro.core.transaction import Transaction
from repro.sim import Simulator, Timeout, WaitTrigger
from repro.sim.sync import Trigger


class Executor:
    """Drains prepared transactions onto the channel: ``has_room`` says
    whether ``push`` may be called, ``slot_freed`` pulses when the
    pipeline takes a descriptor out of the queue."""

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        dispatch_latency_ns: int = 50,
        queue_depth: int = 1,
    ):
        if queue_depth < 1:
            raise ValueError("executor queue depth must be >= 1")
        self.sim = sim
        self.channel = channel
        self.dispatch_latency_ns = dispatch_latency_ns
        # Fixed hardware dispatch: descriptor decode + channel request.
        # One command serves every transaction (the kernel reads .delay).
        self._dispatch = Timeout(dispatch_latency_ns)
        self.queue_depth = queue_depth
        self._queue: deque[Transaction] = deque()
        self.has_room = True  # len(_queue) < queue_depth, kept by push/_run
        self._gate = Trigger(sim)  # wakes the pipeline, when parked
        self._parked = False
        self.slot_freed = Trigger(sim)  # software listens: room to dispatch
        self.executed = 0
        self.busy_ns = 0
        self._process = sim.spawn(self._run(), name="executor")

    # -- software-facing interface ------------------------------------

    @property
    def pending(self) -> int:
        return len(self._queue)

    def push(self, txn: Transaction) -> None:
        """Hand a prepared transaction to the hardware (must have room)."""
        if not self.has_room:
            raise RuntimeError("executor queue overflow — respect has_room")
        if not txn.segments:
            raise ValueError(f"empty transaction {txn.describe()}")
        txn.dispatched_at = self.sim.now
        queue = self._queue
        queue.append(txn)
        self.has_room = len(queue) < self.queue_depth
        if self._parked:
            self._parked = False
            self._gate.fire()

    # -- the hardware pipeline -----------------------------------------

    def _run(self):
        queue = self._queue
        idle = WaitTrigger(self._gate)
        while True:
            if not queue:
                self._parked = True
                yield idle
            txn = queue.popleft()
            self.has_room = True
            self.slot_freed.fire(self)
            if self.dispatch_latency_ns:
                yield self._dispatch
            if not self.channel.mutex.try_acquire(txn):
                yield from self.channel.acquire(owner=txn)
            txn.started_at = self.sim.now
            guard = txn.guard
            if guard is not None and not guard(txn):
                txn.segments.clear()  # refused at the last moment
            else:
                yield from self.channel.run_transaction(txn)
            txn.finished_at = self.sim.now
            self.busy_ns += txn.finished_at - txn.started_at
            tracer = self.sim._tracer
            if tracer is not None:
                tracer.complete(
                    "txn", f"executor/{self.channel.name}",
                    txn.label or txn.kind.value,
                    txn.started_at, txn.finished_at - txn.started_at,
                    # NB: no txn.id here — that counter is process-global,
                    # and trace output must be a pure function of the run.
                    {"lun": txn.lun_position,
                     "queue_ns": txn.started_at - txn.dispatched_at},
                )
            self.channel.release()
            self.executed += 1
            txn.completed.fire(txn)

    def describe(self) -> str:
        return (
            f"Executor depth={self.queue_depth} executed={self.executed} "
            f"busy={self.busy_ns}ns"
        )
