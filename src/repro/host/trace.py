"""Trace-driven workloads: record, synthesize, replay.

Beyond fio-style patterns, SSD evaluations replay block traces.  This
module provides:

* :class:`TraceRecord` / :class:`Trace` — a page-granular I/O trace
  with arrival times, serializable to a simple text format;
* :func:`synthesize_trace` — a generator producing mixed read/write
  traces with Zipf-like hot/cold skew and Poisson-ish arrivals (the
  common synthetic stand-in for production traces, which the paper's
  setting does not ship); and
* :func:`replay_trace` — an open-loop replayer that submits commands at
  their arrival times through a :class:`~repro.host.hic.HostInterface`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.metrics import per_second, summarize_latencies
from repro.host.engine import ScaleCommand
from repro.host.hic import HostInterface, HostOpcode
from repro.sim import Simulator, Timeout


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    arrival_ns: int
    opcode: HostOpcode
    lpn: int

    def to_line(self) -> str:
        return f"{self.arrival_ns} {self.opcode.value} {self.lpn}"

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        time_str, op_str, lpn_str = line.split()
        return cls(
            arrival_ns=int(time_str),
            opcode=HostOpcode(op_str),
            lpn=int(lpn_str),
        )


@dataclass
class Trace:
    """An ordered sequence of trace records."""

    records: list[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def validate(self) -> None:
        last = -1
        for record in self.records:
            if record.arrival_ns < last:
                raise ValueError("trace arrivals must be non-decreasing")
            last = record.arrival_ns

    @property
    def read_fraction(self) -> float:
        if not self.records:
            return 0.0
        reads = sum(1 for r in self.records if r.opcode is HostOpcode.READ)
        return reads / len(self.records)

    def footprint_pages(self) -> int:
        return len({r.lpn for r in self.records})

    # -- serialization -----------------------------------------------------

    def dumps(self) -> str:
        out = io.StringIO()
        out.write("# babol-repro trace v1\n")
        for record in self.records:
            out.write(record.to_line() + "\n")
        return out.getvalue()

    @classmethod
    def loads(cls, text: str) -> "Trace":
        records = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            records.append(TraceRecord.from_line(line))
        trace = cls(records=records)
        trace.validate()
        return trace


def synthesize_trace(
    io_count: int,
    working_set_pages: int,
    read_fraction: float = 0.7,
    hot_fraction: float = 0.2,
    hot_access_fraction: float = 0.8,
    mean_interarrival_ns: int = 50_000,
    seed: int = 0,
) -> Trace:
    """Generate a skewed mixed trace.

    ``hot_fraction`` of the pages receive ``hot_access_fraction`` of the
    accesses (the classic 80/20 shape production traces exhibit).
    """
    if not 0 < working_set_pages:
        raise ValueError("working set must be positive")
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    hot_pages = max(int(working_set_pages * hot_fraction), 1)
    records = []
    t = 0
    for _ in range(io_count):
        t += int(rng.exponential(mean_interarrival_ns)) + 1
        if rng.random() < hot_access_fraction:
            lpn = int(rng.integers(0, hot_pages))
        else:
            lpn = int(rng.integers(hot_pages, max(working_set_pages, hot_pages + 1)))
        opcode = HostOpcode.READ if rng.random() < read_fraction else HostOpcode.WRITE
        records.append(TraceRecord(arrival_ns=t, opcode=opcode, lpn=lpn))
    trace = Trace(records=records)
    trace.validate()
    return trace


@dataclass
class ReplayResult:
    """Outcome of a trace replay."""

    ios: int
    elapsed_ns: int
    mean_latency_ns: float
    p99_latency_ns: float
    reads: int
    writes: int

    @property
    def iops(self) -> float:
        return per_second(self.ios, self.elapsed_ns)


def replay_trace(
    sim: Simulator,
    hic: HostInterface,
    trace: Trace,
    dram_stride: int = 32 * 1024,
    dram_base: int = 0,
    slots: int = 64,
) -> ReplayResult:
    """Open-loop replay: commands arrive at their trace times."""
    trace.validate()
    before = len(hic.completed)
    start = sim.now

    def injector():
        t0 = sim.now
        for index, record in enumerate(trace.records):
            target = t0 + record.arrival_ns
            if target > sim.now:
                yield Timeout(target - sim.now)
            hic.submit(ScaleCommand(
                opcode=record.opcode, lpn=record.lpn,
                dram_address=dram_base + (index % slots) * dram_stride,
            ))

    process = sim.spawn(injector(), name="trace-injector")
    sim.run()
    if not process.finished:
        raise RuntimeError("trace injection stalled")
    sim.run_process(hic.drain())

    window = hic.completed[before:]
    stats = summarize_latencies([c.latency_ns for c in window])
    return ReplayResult(
        ios=len(window),
        elapsed_ns=sim.now - start,
        mean_latency_ns=stats.mean_ns,
        p99_latency_ns=stats.p99_ns,
        reads=sum(1 for c in window if c.opcode is HostOpcode.READ),
        writes=sum(1 for c in window if c.opcode is HostOpcode.WRITE),
    )
