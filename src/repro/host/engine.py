"""Queue-depth host engine: the scale-out workload front end.

Where :func:`~repro.host.workload.measure_read_throughput` keeps one
closed loop per LUN (one outstanding command each), this module models
what a real NVMe host does against a multi-channel array:

* one :class:`ChannelQueuePair` per channel — a bounded SQ, a
  completion list, one worker per slot (QD32 keeps 32 commands in
  flight); the HIC runs on the same pair;
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

from repro.analysis.metrics import per_second, summarize_latencies
from repro.ftl.ftl import PageMappedFtl, ShardedFtl
from repro.host.hic import HostOpcode
from repro.sim import Simulator
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

    @property
    def span(self) -> tuple[str, dict]:
        # cid is engine-local and deterministic, safe to log.
        return self.opcode.value, {"lpn": self.lpn, "cid": self.cid}


def ftl_dispatch(shards, command: ScaleCommand):
    """What an engine or HIC pair's workers run: the command's op on
    ``shards[command.channel]`` at ``command.local_lpn``.  Returns the
    shard op's generator, so the worker's ``yield from`` drives it
    without a frame of its own."""
    ftl = shards[command.channel]
    opcode = command.opcode
    if opcode is HostOpcode.READ:
        return ftl.read(command.local_lpn, command.dram_address)
    if opcode is HostOpcode.WRITE:
        return ftl.write(command.local_lpn, command.dram_address)
    if opcode is HostOpcode.FLUSH:
        return ftl.flush()
    ftl.trim(command.local_lpn)
    return ()


class ChannelQueuePair:
    """A bounded SQ/CQ pair: the one device-side host queue.

    ``depth`` workers each take the oldest published entry, run
    :func:`ftl_dispatch` on ``shards`` for it, then complete it: one
    span on ``host/<name>``, one ``cq_pulse`` (a front end hears its
    completions as a synchronous subscriber).  A command record is a
    :class:`ScaleCommand`; the front end stamps ``submitted_at`` and
    routes ``channel`` and ``local_lpn``.
    """

    def __init__(self, sim: Simulator, channel: int, depth: int, shards,
                 name: Optional[str] = None):
        if depth <= 0:
            raise ValueError("queue depth must be positive")
        self.sim = sim
        self.channel = channel
        self.depth = depth
        self.shards = shards
        name = name or f"qp{channel}"
        self.track = f"host/{name}"
        self._staged: list = []        # written, doorbell not rung
        self._sq: deque = deque()      # device-visible
        self._idle: deque[Trigger] = deque()     # parked workers, FIFO
        # DRAM slot pool: a slot is held from stage to completion, so a
        # buffer is never reused while its command is in flight.  (A
        # plain ``submitted % depth`` scheme is only collision-free
        # when completions are FIFO — mixed read/write latencies break
        # that.)
        self._slots: deque[int] = deque(range(depth))
        self.inflight = 0
        self.completions: list = []
        self.cq_pulse = Trigger(sim)
        self.doorbells = 0
        self.submitted = 0
        for i in range(depth):
            sim.spawn(self._worker(), name=f"{name}-w{i}")

    # -- host side -----------------------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self._staged) + len(self._sq) + self.inflight

    @property
    def free_slots(self) -> int:
        # A slot is held from stage to completion: one per outstanding.
        return len(self._slots)

    def stage(self, command) -> None:
        """Write one SQ entry host-side (doorbell not yet rung)."""
        if not self._slots:
            raise QueueSaturatedError(
                f"{self.track} queue full (depth {self.depth})"
            )
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
        idle = self._idle
        unclaimed = len(self._sq)
        while idle and unclaimed:
            idle.popleft().fire()
            unclaimed -= 1
        return batch

    # -- device side ---------------------------------------------------

    def _worker(self) -> Generator:
        shards = self.shards
        while True:
            while not self._sq:
                gate = Trigger(self.sim)
                self._idle.append(gate)
                yield from gate.wait()
            command = self._sq.popleft()
            self.inflight += 1
            command.started_at = self.sim.now
            yield from ftl_dispatch(shards, command)
            command.finished_at = self.sim.now
            self.inflight -= 1
            self._slots.append(command.slot)
            self.completions.append(command)
            tracer = self.sim._tracer
            if tracer is not None:
                name, args = command.span
                tracer.complete(
                    "host", self.track, name, command.submitted_at,
                    command.finished_at - command.submitted_at, args,
                )
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
            self._router = ftl.router
            self._shards = ftl.shards
        else:
            self._router = None
            self._shards = [ftl]
        self.pairs = [
            ChannelQueuePair(sim, channel, queue_depth, self._shards)
            for channel in range(len(self._shards))
        ]
        for pair in self.pairs:
            pair.cq_pulse.subscribe(self._completed)
        self.completion_pulse = Trigger(sim)
        self._drained = Trigger(sim)  # the last outstanding command completed
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
        return self.submitted - self.completed

    @property
    def doorbells_rung(self) -> int:
        return sum(pair.doorbells for pair in self.pairs)

    def pair_for(self, lpn: int) -> ChannelQueuePair:
        if self._router is None:
            return self.pairs[0]
        return self.pairs[self._router.route(lpn)[0]]

    def submit(self, command: ScaleCommand) -> int:
        """Stage one command on its channel's queue pair.

        Raises :class:`QueueSaturatedError` when that pair has no free
        slot — callers implement backpressure by waiting on
        ``completion_pulse``.  The doorbell rings automatically once a
        pair accumulates ``doorbell_batch`` staged entries; partial
        batches are flushed by :meth:`ring_doorbells`.
        """
        if self._router is None:
            channel, local = 0, command.lpn
        else:
            channel, local = self._router.route(command.lpn)
        command.channel = channel
        command.local_lpn = local
        command.cid = self._next_cid
        pair = self.pairs[channel]
        pair.stage(command)         # raises before any state is shared
        command.submitted_at = self.sim.now
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
            yield from self._drained.wait()

    def _completed(self, command: ScaleCommand) -> None:
        self.completed += 1
        if self.record_acks and command.opcode is not HostOpcode.READ:
            self.acks.append(command)
        self.completion_pulse.fire(command)
        if self.completed == self.submitted:
            self._drained.fire()


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


def lpn_stream(ftl, job) -> list[int]:
    """The LPNs a :class:`ScaleJob` or :class:`~repro.host.fio.FioJob`
    addresses, in submission order: its working set (every mapped page
    unless ``working_set_pages`` says otherwise) walked in order, or
    drawn uniformly with ``job.seed``."""
    working_set = job.working_set_pages or (
        ftl.mapped_count if hasattr(ftl, "mapped_count")
        else ftl.map.mapped_count
    )
    if working_set == 0 and job.opcode is HostOpcode.READ:
        raise ValueError("read job against an empty FTL — prefill first")
    span = max(working_set, 1)
    if job.pattern == "sequential":
        return [i % span for i in range(job.io_count)]
    import numpy as np

    rng = np.random.default_rng(job.seed)
    return rng.integers(0, span, size=job.io_count).tolist()


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
        return per_second(self.payload_bytes, self.elapsed_ns) / 1e6

    @property
    def iops(self) -> float:
        return per_second(self.commands, self.elapsed_ns)

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
    lpns = lpn_stream(engine.ftl, job)
    start = sim.now

    # DRAM buffers come from the pair's slot pool (a slot is held from
    # stage to completion), never from a ``submitted % depth`` sequence:
    # even single-opcode jobs complete out of order when some commands
    # stall on GC or checkpoint work, and a modulo slot could be reused
    # while the earlier command holding it is still in flight.  Engines
    # configured with ``auto_dram`` keep their own addressing.
    def submitter() -> Generator:
        queue = deque(lpns)
        while queue:
            # Fill: push as long as the head command's channel has room.
            while queue:
                pair = engine.pair_for(queue[0])
                if pair.free_slots <= 0:
                    break
                command = ScaleCommand(opcode=job.opcode, lpn=queue.popleft())
                engine.submit(command)
                if not engine.auto_dram:    # no worker has run it yet
                    command.dram_address = (
                        job.dram_base + command.slot * job.dram_stride)
            if not queue:
                break
            # Head channel is saturated: publish partial batches so the
            # device sees everything, then sleep until a completion frees
            # a slot.  (A full pair implies outstanding > 0 once rung.)
            engine.ring_doorbells()
            yield from engine.completion_pulse.wait()
        yield from engine.drain()

    sim.run_process(submitter(), name="scale-submitter")

    completions = [c for pair in engine.pairs for c in pair.completions]
    stats = summarize_latencies([c.latency_ns for c in completions])
    return ScaleRunResult(
        channels=engine.channel_count,
        queue_depth=engine.queue_depth,
        commands=len(completions),
        payload_bytes=len(completions) * engine.shard(0).page_size,
        elapsed_ns=sim.now - start,
        mean_latency_ns=stats.mean_ns,
        p50_latency_ns=stats.p50_ns,
        p95_latency_ns=stats.p95_ns,
        p99_latency_ns=stats.p99_ns,
        max_latency_ns=stats.max_ns,
        doorbells=engine.doorbells_rung,
        per_channel_commands=[len(pair.completions) for pair in engine.pairs],
    )
