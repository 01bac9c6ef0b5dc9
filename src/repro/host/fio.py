"""fio-like workload driver for the end-to-end experiment (Fig. 12).

Generates page-granular sequential or random READ (or WRITE) streams
against a :class:`~repro.host.hic.HostInterface`, mirroring the paper's
``fio`` runs against the modified Cosmos+: fixed iodepth, a bounded
number of I/Os, bandwidth = payload over elapsed simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.metrics import per_second, summarize_latencies
from repro.host.engine import ScaleCommand, lpn_stream
from repro.host.hic import HostInterface, HostOpcode
from repro.sim import Simulator


@dataclass(frozen=True)
class FioJob:
    """One fio-style job description."""

    pattern: str = "sequential"   # "sequential" | "random"
    opcode: HostOpcode = HostOpcode.READ
    io_count: int = 64
    iodepth: int = 8
    working_set_pages: int = 0    # 0 = whole mapped range
    seed: int = 42

    def validate(self) -> None:
        if self.pattern not in ("sequential", "random"):
            raise ValueError("pattern must be 'sequential' or 'random'")
        if self.io_count <= 0 or self.iodepth <= 0:
            raise ValueError("io_count and iodepth must be positive")


@dataclass
class FioResult:
    """Bandwidth/latency summary of one job."""

    ios: int
    payload_bytes: int
    elapsed_ns: int
    mean_latency_ns: float
    p99_latency_ns: float

    @property
    def bandwidth_mb_s(self) -> float:
        return per_second(self.payload_bytes, self.elapsed_ns) / 1e6

    @property
    def iops(self) -> float:
        return per_second(self.ios, self.elapsed_ns)


def run_fio(
    sim: Simulator,
    hic: HostInterface,
    job: FioJob,
    dram_stride: int = 32 * 1024,
    dram_base: int = 0,
    prefill: Optional[int] = None,
) -> FioResult:
    """Run one job to completion and summarize it."""
    job.validate()
    ftl = hic.ftl
    if prefill is not None and ftl.map.mapped_count < prefill:
        ftl.prefill(prefill - ftl.map.mapped_count)
    lpns = lpn_stream(ftl, job)

    start = sim.now
    before = len(hic.completed)
    for index, lpn in enumerate(lpns):
        hic.submit(ScaleCommand(
            opcode=job.opcode, lpn=lpn,
            dram_address=dram_base + (index % (4 * job.iodepth)) * dram_stride,
        ))
    sim.run_process(hic.drain(), name="fio-drain")

    window = hic.completed[before:]
    stats = summarize_latencies([c.latency_ns for c in window])
    return FioResult(
        ios=len(window),
        payload_bytes=len(window) * ftl.page_size,
        elapsed_ns=sim.now - start,
        mean_latency_ns=stats.mean_ns,
        p99_latency_ns=stats.p99_ns,
    )
