"""Host Interface Controller: the page-granular front end of Fig. 1.

One :class:`~repro.host.engine.ChannelQueuePair` over the FTL — its
``iodepth`` workers run :func:`~repro.host.engine.ftl_dispatch`, a
doorbell per command — plus an open-loop backlog: a command submitted
while every slot is taken waits host-side, in FIFO order, and takes the
next freed slot.  Its latency counts from its own submission, backlog
wait included, the way fio measures an I/O it posted at t0.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Generator

from repro.analysis.metrics import summarize_latencies
from repro.ftl.ftl import PageMappedFtl
from repro.sim import Simulator
from repro.sim.sync import Trigger


class HostOpcode(enum.Enum):
    READ = "read"
    WRITE = "write"
    TRIM = "trim"
    FLUSH = "flush"


class HostInterface:
    """Queue-depth-limited command front end over an FTL.

    Commands are :class:`~repro.host.engine.ScaleCommand` records;
    ``completed`` lists them in completion order.
    """

    def __init__(self, sim: Simulator, ftl: PageMappedFtl, iodepth: int = 8):
        # engine imports HostOpcode from here.
        from repro.host.engine import ChannelQueuePair

        if iodepth <= 0:
            raise ValueError("iodepth must be positive")
        self.sim = sim
        self.ftl = ftl
        self.iodepth = iodepth
        self._pair = ChannelQueuePair(sim, 0, iodepth, (ftl,), name="hic")
        self.completed = self._pair.completions
        self._backlog: deque = deque()
        self._drained = Trigger(sim)  # nothing backlogged or outstanding
        self.submitted = 0
        # Synchronous, so a freed slot is refilled before its worker
        # looks for the next entry.
        self._pair.cq_pulse.subscribe(self._refill)

    def submit(self, command) -> None:
        command.submitted_at = self.sim.now
        command.channel = 0
        command.local_lpn = command.lpn
        command.cid = self.submitted
        self.submitted += 1
        if self._backlog or not self._pair.free_slots:
            self._backlog.append(command)
        else:
            self._pair.stage(command)
            self._pair.ring()

    def _refill(self, _completed) -> None:
        pair = self._pair
        if self._backlog:
            pair.stage(self._backlog.popleft())
            pair.ring()
        elif not pair.outstanding:
            self._drained.fire()

    def drain(self) -> Generator:
        """Process helper: wait until every submitted command completed."""
        while self._backlog or self._pair.outstanding:
            yield from self._drained.wait()

    # -- metrics ----------------------------------------------------------

    def mean_latency_ns(self) -> float:
        return summarize_latencies(
            [c.latency_ns for c in self.completed]).mean_ns

    def p99_latency_ns(self) -> float:
        return summarize_latencies(
            [c.latency_ns for c in self.completed]).p99_ns
