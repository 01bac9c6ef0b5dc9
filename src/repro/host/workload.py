"""Controller-level op injection: the Fig. 10 READ microbenchmark
driver and the read/program mix ``repro trace`` / ``repro sanitize`` run.

"We use a workload generator that injects requests directly into the
storage controllers as if they were coming from the FTL" (Section VI).
One closed-loop driver per LUN keeps that LUN maximally busy with READ
operations; throughput is completed payload bytes over elapsed
simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.metrics import per_second
from repro.config.specs import require_dram
from repro.sim import Simulator


@dataclass
class ReadWorkloadResult:
    """Outcome of one injection run."""

    pages_read: int
    payload_bytes: int
    elapsed_ns: int
    channel_utilization: float

    @property
    def throughput_mb_s(self) -> float:
        return per_second(self.payload_bytes, self.elapsed_ns) / 1e6

    @property
    def mean_page_latency_us(self) -> float:
        if self.pages_read == 0:
            return 0.0
        return self.elapsed_ns / self.pages_read / 1000.0


def measure_read_throughput(
    sim: Simulator,
    controller,
    lun_count: int,
    reads_per_lun: int = 12,
    warmup_per_lun: int = 2,
    dram_stride: int = 32 * 1024,
) -> ReadWorkloadResult:
    """Closed-loop sequential READs against ``lun_count`` LUNs.

    Drives any controller with the shared request surface.  The first
    ``warmup_per_lun`` reads per LUN are excluded from the measured
    window (pipeline fill).
    """
    geometry = controller.codec.geometry
    page_size = geometry.page_size
    reads = lun_count * (warmup_per_lun + reads_per_lun)
    require_dram(controller.dram.size,
                 (reads - 1) * dram_stride + geometry.full_page_size,
                 f"the read-throughput harness ({reads} read buffers)")
    state = {"started_at": None, "completed": 0}
    total_measured = reads_per_lun * lun_count

    def driver(lun: int):
        for i in range(warmup_per_lun + reads_per_lun):
            block = 1 + (i // geometry.pages_per_block)
            page = i % geometry.pages_per_block
            dram_address = (lun * (warmup_per_lun + reads_per_lun) + i) * dram_stride
            task = controller.read_page(lun, block, page, dram_address)
            yield from controller.wait(task)
            if i == warmup_per_lun - 1 and state["started_at"] is None:
                state["started_at"] = sim.now
            if i >= warmup_per_lun:
                state["completed"] += 1

    drivers = [sim.spawn(driver(lun), name=f"inject-lun{lun}") for lun in range(lun_count)]
    busy_before = controller.channel.stats.busy_ns
    sim.run()
    for process in drivers:
        if not process.finished:
            raise RuntimeError("injection driver stalled")

    started = state["started_at"] if state["started_at"] is not None else 0
    elapsed = sim.now - started
    busy_delta = controller.channel.stats.busy_ns - busy_before
    utilization = min(busy_delta / elapsed, 1.0) if elapsed else 0.0
    return ReadWorkloadResult(
        pages_read=state["completed"],
        payload_bytes=state["completed"] * page_size,
        elapsed_ns=elapsed,
        channel_utilization=utilization,
    )


def submit_mixed_ops(controller, ops: int) -> list:
    """Submit ``ops`` operations — two reads, then a program — fanned
    across every LUN of ``controller``; returns the submitted tasks.
    Enough concurrency to make channel occupancy, queue depth and the
    sanitizers' hazard windows interesting."""
    page = controller.codec.geometry.full_page_size
    luns = len(controller.luns)
    require_dram(controller.dram.size, page * (1 + luns),
                 f"the mixed-op workload (a program page + one read "
                 f"page per LUN, {luns} LUNs)")
    controller.dram.write(0, (np.arange(page) % 251).astype(np.uint8))
    tasks = []
    for i in range(ops):
        lun = i % luns
        if i % 3 == 2:
            tasks.append(controller.program_page(lun, 1, i // luns, 0))
        else:
            tasks.append(controller.read_page(lun, 1, i // luns,
                                              page * (1 + lun)))
    return tasks
