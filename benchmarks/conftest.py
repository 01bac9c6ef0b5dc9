"""Shared builders for the benchmark harness.

Every bench regenerates one table or figure of the paper's evaluation
(Section VI).  Wall-clock time of the simulation is irrelevant — the
measurements are *simulated* nanoseconds — so benches run one round and
report the paper-comparable metrics through ``extra_info`` and stdout.
Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.config import StackSpec, build_baseline, build_controllers
from repro.core.softenv import GHZ, MHZ
from repro.flash.vendors import VendorProfile
from repro.host import measure_read_throughput
from repro.onfi.datamodes import DataInterface
from repro.sim import Simulator

CPU_POINTS = {
    "150MHz*": 150 * MHZ,   # '*' = soft-core in the paper's Fig. 10
    "200MHz": 200 * MHZ,
    "400MHz": 400 * MHZ,
    "1GHz": GHZ,
}


def build_babol(
    vendor: VendorProfile,
    lun_count: int,
    interface: DataInterface,
    runtime: str,
    cpu_freq_hz: int = GHZ,
    seed: int = 0,
):
    """``(sim, controller)`` from the one stack factory; ``vendor`` is a
    profile object, which a data spec cannot name (``profile=``)."""
    sim = Simulator()
    stack = StackSpec(luns_per_channel=lun_count,
                      interface_mt=interface.mega_transfers,
                      runtime=runtime, cpu_freq_hz=cpu_freq_hz, seed=seed)
    return sim, build_controllers(sim, stack, profile=vendor)[0]


def build_hw(
    vendor: VendorProfile,
    lun_count: int,
    interface: DataInterface,
    kind: str = "sync",
    seed: int = 0,
):
    sim = Simulator()
    stack = StackSpec(luns_per_channel=lun_count,
                      interface_mt=interface.mega_transfers, seed=seed)
    return sim, build_baseline(sim, stack, kind, profile=vendor)


def read_throughput_mb_s(sim, controller, lun_count, reads_per_lun=14,
                         warmup_per_lun=3) -> float:
    result = measure_read_throughput(
        sim, controller, lun_count,
        reads_per_lun=reads_per_lun, warmup_per_lun=warmup_per_lun,
    )
    return result.throughput_mb_s


def print_table(title: str, headers: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
