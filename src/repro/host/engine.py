"""Queue-depth host engine: the scale-out workload front end.

Where :func:`~repro.host.workload.measure_read_throughput` keeps one
closed loop per LUN (one outstanding command each), this module models
what a real NVMe host does against a multi-channel array:

* one :class:`ChannelQueuePair` per channel — a bounded submission
  queue, a completion list, and one device-side worker per queue slot,
  so a queue of depth 32 really does keep up to 32 commands in flight
  on its channel;
* **batched doorbells** — submissions stage host-side and the doorbell
  rings once per batch (``doorbell_batch``), the way a driver updates
  the SQ tail once after writing several entries;
* **backpressure** — a queue pair never holds more than ``queue_depth``
  commands across staged + queued + in-flight; the closed-loop driver
  blocks on the completion pulse when its target queue is full.

Everything is driven by simulator events in FIFO order, so a run is a
pure function of (topology, job): two identical runs complete the same
commands in the same order at the same nanoseconds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.analysis.metrics import _percentile
from repro.ftl.ftl import PageMappedFtl, ShardedFtl
from repro.host.hic import HostOpcode
from repro.sim import Simulator
from repro.sim.kernel import NS_PER_S
from repro.sim.sync import Trigger


class QueueSaturatedError(RuntimeError):
    """Submission against a queue pair with no free slot."""


@dataclass(slots=True)
class ScaleCommand:
    """One host command routed through a channel queue pair.

    Slotted, without a per-instance dict: a run keeps one per command.
    """

    opcode: HostOpcode
    lpn: int
    dram_address: int = 0
    payload: Optional[object] = None  # uint8 ndarray, staged into shard
                                      # DRAM and released at submit
    tag: int = 0                      # caller-owned (e.g. write version)
    cid: int = -1                 # engine-local, assigned at submit
    channel: int = -1             # routed shard, assigned at submit
    local_lpn: int = -1           # shard-local LPN, assigned at submit
    slot: int = -1                # pair DRAM slot, held until completion
    submitted_at: int = 0
    started_at: Optional[int] = None
    finished_at: Optional[int] = None

    @property
    def latency_ns(self) -> Optional[int]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


class ChannelQueuePair:
    """A bounded SQ/CQ pair bound to one channel shard."""

    def __init__(self, sim: Simulator, engine: "ScaleEngine",
                 channel: int, depth: int):
        if depth <= 0:
            raise ValueError("queue depth must be positive")
        self.sim = sim
        self.engine = engine
        self.channel = channel
        self.depth = depth
        self._staged: list[ScaleCommand] = []   # written, doorbell not rung
        self._sq: deque[ScaleCommand] = deque()  # device-visible
        self._idle: deque[Trigger] = deque()     # parked workers, FIFO
        # DRAM slot pool: a slot is held from stage to completion, so a
        # buffer is never reused while its command is in flight.  (A
        # plain ``submitted % depth`` scheme is only collision-free
        # when completions are FIFO — mixed read/write latencies break
        # that.)
        self._slots: deque[int] = deque(range(depth))
        self.inflight = 0
        self.completions: list[ScaleCommand] = []
        self.cq_pulse = Trigger(sim)
        self.doorbells = 0
        self.submitted = 0
        self._workers = [
            sim.spawn(self._worker(), name=f"qp{channel}-w{i}")
            for i in range(depth)
        ]

    # -- host side -----------------------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self._staged) + len(self._sq) + self.inflight

    @property
    def free_slots(self) -> int:
        return self.depth - self.outstanding

    def stage(self, command: ScaleCommand) -> None:
        """Write one SQ entry host-side (doorbell not yet rung)."""
        if self.free_slots <= 0:
            raise QueueSaturatedError(
                f"channel {self.channel} queue full (depth {self.depth})"
            )
        command.submitted_at = self.sim.now
        command.slot = self._slots.popleft()
        self.submitted += 1
        self._staged.append(command)

    def ring(self) -> int:
        """Ring the doorbell: publish every staged entry in one batch."""
        if not self._staged:
            return 0
        batch = len(self._staged)
        self._sq.extend(self._staged)
        self._staged.clear()
        self.doorbells += 1
        # Wake exactly as many parked workers as there are entries to
        # claim, oldest first.  A broadcast would resume the whole
        # depth-sized pool per doorbell only for all but `batch` of
        # them to re-park — at depth 32 that is most of the kernel's
        # event traffic.  Wakes are scheduled in park order, so the
        # command-to-pop pairing is identical to a broadcast.
        wake = min(len(self._idle), len(self._sq))
        for _ in range(wake):
            self._idle.popleft().fire()
        return batch

    # -- device side ---------------------------------------------------

    def _worker(self) -> Generator:
        ftl = self.engine.shard(self.channel)
        while True:
            while not self._sq:
                gate = Trigger(self.sim)
                self._idle.append(gate)
                yield from gate.wait()
            command = self._sq.popleft()
            self.inflight += 1
            command.started_at = self.sim.now
            if command.opcode is HostOpcode.READ:
                yield from ftl.read(command.local_lpn, command.dram_address)
            elif command.opcode is HostOpcode.WRITE:
                yield from ftl.write(command.local_lpn, command.dram_address)
            elif command.opcode is HostOpcode.FLUSH:
                yield from ftl.flush()
            else:
                ftl.trim(command.local_lpn)
            command.finished_at = self.sim.now
            self.inflight -= 1
            self._slots.append(command.slot)
            self.completions.append(command)
            tracer = self.sim._tracer
            if tracer is not None:
                tracer.complete(
                    "host", f"host/qp{self.channel}", command.opcode.value,
                    command.submitted_at,
                    command.finished_at - command.submitted_at,
                    # cid is engine-local and deterministic, safe to log.
                    {"lpn": command.lpn, "cid": command.cid},
                )
            self.engine._completed(command)
            self.cq_pulse.fire(command)


class ScaleEngine:
    """Routes commands to per-channel queue pairs over a sharded FTL.

    Accepts a :class:`~repro.ftl.ftl.ShardedFtl` (one queue pair per
    channel) or a plain :class:`~repro.ftl.ftl.PageMappedFtl` (treated
    as a one-channel array), so the same driver exercises both.
    """

    def __init__(
        self,
        sim: Simulator,
        ftl,
        queue_depth: int = 32,
        doorbell_batch: int = 4,
        record_acks: bool = False,
        auto_dram: bool = False,
        dram_base: int = 0,
        dram_stride: int = 32 * 1024,
    ):
        if doorbell_batch <= 0:
            raise ValueError("doorbell_batch must be positive")
        self.sim = sim
        self.ftl = ftl
        self.queue_depth = queue_depth
        self.doorbell_batch = doorbell_batch
        # Ack ledger: completed state-changing commands in completion
        # order, the ground truth a crash-consistency check replays
        # against.  Opt-in — long throughput runs don't pay for it.
        self.record_acks = record_acks
        self.acks: list[ScaleCommand] = []
        # auto_dram: address every command from its pair's slot pool,
        # guaranteeing the buffer stays untouched for the whole flight.
        self.auto_dram = auto_dram
        self.dram_base = dram_base
        self.dram_stride = dram_stride
        if isinstance(ftl, ShardedFtl):
            self._shards = ftl.shards
        else:
            self._shards = [ftl]
        self.pairs = [
            ChannelQueuePair(sim, self, channel, queue_depth)
            for channel in range(len(self._shards))
        ]
        self.completion_pulse = Trigger(sim)
        self.submitted = 0
        self.completed = 0
        self._next_cid = 0

    def shard(self, channel: int) -> PageMappedFtl:
        return self._shards[channel]

    @property
    def channel_count(self) -> int:
        return len(self.pairs)

    @property
    def outstanding(self) -> int:
        return sum(pair.outstanding for pair in self.pairs)

    @property
    def doorbells_rung(self) -> int:
        return sum(pair.doorbells for pair in self.pairs)

    def route(self, lpn: int) -> tuple[int, int]:
        """(channel, shard-local LPN) for a global LPN."""
        if isinstance(self.ftl, ShardedFtl):
            return self.ftl.router.route(lpn)
        return 0, lpn

    def pair_for(self, lpn: int) -> ChannelQueuePair:
        return self.pairs[self.route(lpn)[0]]

    def submit(self, command: ScaleCommand) -> int:
        """Stage one command on its channel's queue pair.

        Raises :class:`QueueSaturatedError` when that pair has no free
        slot — callers implement backpressure by waiting on
        ``completion_pulse``.  The doorbell rings automatically once a
        pair accumulates ``doorbell_batch`` staged entries; partial
        batches are flushed by :meth:`ring_doorbells`.
        """
        channel, local = self.route(command.lpn)
        command.channel = channel
        command.local_lpn = local
        command.cid = self._next_cid
        pair = self.pairs[channel]
        pair.stage(command)         # raises before any state is shared
        if self.auto_dram:
            command.dram_address = (
                self.dram_base + command.slot * self.dram_stride
            )
        if command.payload is not None:
            # Stage the write payload into the shard's DRAM now; the
            # slot pool keeps the buffer untouched until completion.
            # The host buffer is consumed here: the command stays in the
            # completion/ack ledger, its payload does not.
            self.shard(channel).controller.dram.write(
                command.dram_address, command.payload
            )
            command.payload = None
        self._next_cid += 1
        self.submitted += 1
        if len(pair._staged) >= self.doorbell_batch:
            pair.ring()
        return command.cid

    def ring_doorbells(self) -> int:
        """Flush every partial batch; returns entries published."""
        return sum(pair.ring() for pair in self.pairs)

    def drain(self) -> Generator:
        """Process helper: block until nothing is outstanding."""
        self.ring_doorbells()
        while self.outstanding:
            yield from self.completion_pulse.wait()

    def _completed(self, command: ScaleCommand) -> None:
        self.completed += 1
        if self.record_acks and command.opcode is not HostOpcode.READ:
            self.acks.append(command)
        self.completion_pulse.fire(command)


@dataclass(frozen=True)
class ScaleJob:
    """One scale-run description (the fio analogue for the engine)."""

    pattern: str = "sequential"    # "sequential" | "random"
    opcode: HostOpcode = HostOpcode.READ
    io_count: int = 256
    seed: int = 42
    working_set_pages: int = 0     # 0 = whole mapped range
    dram_stride: int = 32 * 1024
    dram_base: int = 0

    def validate(self) -> None:
        if self.pattern not in ("sequential", "random"):
            raise ValueError("pattern must be 'sequential' or 'random'")
        if self.io_count <= 0:
            raise ValueError("io_count must be positive")


@dataclass
class ScaleRunResult:
    """Simulated-time outcome of one scale run."""

    channels: int
    queue_depth: int
    commands: int
    payload_bytes: int
    elapsed_ns: int
    mean_latency_ns: float
    p50_latency_ns: float
    p95_latency_ns: float
    p99_latency_ns: float
    max_latency_ns: int
    doorbells: int
    per_channel_commands: list[int] = field(default_factory=list)

    @property
    def throughput_mb_s(self) -> float:
        if self.elapsed_ns == 0:
            return 0.0
        return self.payload_bytes / (self.elapsed_ns / NS_PER_S) / 1e6

    @property
    def iops(self) -> float:
        if self.elapsed_ns == 0:
            return 0.0
        return self.commands / (self.elapsed_ns / NS_PER_S)

    def to_json_obj(self) -> dict:
        """JSON-ready summary with stable, sorted keys."""
        return {
            "channels": self.channels,
            "commands": self.commands,
            "doorbells": self.doorbells,
            "elapsed_ns": self.elapsed_ns,
            "iops": round(self.iops, 1),
            "latency_us": {
                "max": round(self.max_latency_ns / 1000, 3),
                "mean": round(self.mean_latency_ns / 1000, 3),
                "p50": round(self.p50_latency_ns / 1000, 3),
                "p95": round(self.p95_latency_ns / 1000, 3),
                "p99": round(self.p99_latency_ns / 1000, 3),
            },
            "payload_bytes": self.payload_bytes,
            "per_channel_commands": list(self.per_channel_commands),
            "queue_depth": self.queue_depth,
            "throughput_mb_s": round(self.throughput_mb_s, 2),
        }


def run_scale_workload(
    sim: Simulator,
    engine: ScaleEngine,
    job: ScaleJob,
) -> ScaleRunResult:
    """Drive ``job`` through ``engine`` with closed-loop backpressure.

    A single submitter process keeps every channel's queue pair as full
    as the depth budget allows (strict submission order — head-of-line
    blocking on a saturated channel is intentional, it is what a single
    submission thread does), rings partial doorbells before blocking,
    and waits on the completion pulse to refill.
    """
    job.validate()
    ftl = engine.ftl
    working_set = job.working_set_pages or (
        ftl.mapped_count if hasattr(ftl, "mapped_count") else ftl.map.mapped_count
    )
    if working_set == 0 and job.opcode is HostOpcode.READ:
        raise ValueError("read job against an empty FTL — prefill first")

    if job.pattern == "sequential":
        lpns = [i % max(working_set, 1) for i in range(job.io_count)]
    else:
        import numpy as np

        rng = np.random.default_rng(job.seed)
        lpns = rng.integers(0, max(working_set, 1), size=job.io_count).tolist()

    start = sim.now

    # DRAM buffers come from the pair's slot pool (a slot is held from
    # stage to completion), never from a ``submitted % depth`` sequence:
    # even single-opcode jobs complete out of order when some commands
    # stall on GC or checkpoint work, and a modulo slot could be reused
    # while the earlier command holding it is still in flight.  Engines
    # already configured with ``auto_dram`` keep their own addressing.
    restore = None
    if not engine.auto_dram:
        restore = (engine.dram_base, engine.dram_stride)
        engine.auto_dram = True
        engine.dram_base = job.dram_base
        engine.dram_stride = job.dram_stride

    def submitter() -> Generator:
        queue = deque(int(lpn) for lpn in lpns)
        while queue:
            # Fill: push as long as the head command's channel has room.
            while queue:
                pair = engine.pair_for(queue[0])
                if pair.free_slots <= 0:
                    break
                engine.submit(ScaleCommand(
                    opcode=job.opcode,
                    lpn=queue.popleft(),
                ))
            if not queue:
                break
            # Head channel is saturated: publish partial batches so the
            # device sees everything, then sleep until a completion frees
            # a slot.  (A full pair implies outstanding > 0 once rung.)
            engine.ring_doorbells()
            yield from engine.completion_pulse.wait()
        yield from engine.drain()

    try:
        sim.run_process(submitter(), name="scale-submitter")
    finally:
        if restore is not None:
            engine.auto_dram = False
            engine.dram_base, engine.dram_stride = restore

    completions = [c for pair in engine.pairs for c in pair.completions]
    latencies = sorted(c.latency_ns for c in completions)
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    return ScaleRunResult(
        channels=engine.channel_count,
        queue_depth=engine.queue_depth,
        commands=len(completions),
        payload_bytes=len(completions) * engine.shard(0).page_size,
        elapsed_ns=sim.now - start,
        mean_latency_ns=mean,
        p50_latency_ns=_percentile(latencies, 0.50),
        p95_latency_ns=_percentile(latencies, 0.95),
        p99_latency_ns=_percentile(latencies, 0.99),
        max_latency_ns=latencies[-1] if latencies else 0,
        doorbells=engine.doorbells_rung,
        per_channel_commands=[len(pair.completions) for pair in engine.pairs],
    )
