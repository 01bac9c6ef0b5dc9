"""A complete SSD: host queue -> FTL -> BABOL -> simulated flash.

Assembles the full Fig. 1 stack — a queue-depth-limited host interface,
a page-mapped FTL with greedy GC, and a BABOL channel controller — then
runs a write-heavy phase (to provoke garbage collection) followed by
fio-style sequential and random read phases, reporting bandwidth,
latency percentiles, write amplification, and wear.

Run: ``python examples/end_to_end_ssd.py``
"""

from repro import BabolController, ControllerConfig, Simulator
from repro.core.softenv import GHZ
from repro.flash import HYNIX_V7
from repro.ftl import FtlConfig, PageMappedFtl
from repro.host import FioJob, HostInterface, ScaleCommand, run_fio
from repro.host.hic import HostOpcode


def main() -> None:
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=HYNIX_V7, lun_count=8, runtime="rtos",
                         cpu_freq_hz=GHZ, track_data=False),
    )
    ftl = PageMappedFtl(
        sim, controller,
        FtlConfig(blocks_per_lun=8, overprovision_blocks=2,
                  gc_staging_base=48 * 1024 * 1024),
    )
    hic = HostInterface(sim, ftl, iodepth=16)
    print(f"SSD: {controller.describe()}")
    print(f"     {ftl.logical_pages} logical pages "
          f"({ftl.logical_pages * ftl.page_size >> 20} MiB exported)\n")

    # Phase 1: fill, then overwrite a hot range to trigger GC.
    ftl.prefill(ftl.logical_pages * 3 // 4)
    hot_span = ftl.logical_pages // 8
    for i in range(hot_span * 3):
        hic.submit(ScaleCommand(opcode=HostOpcode.WRITE, lpn=i % hot_span,
                                dram_address=0))
    sim.run_process(hic.drain())
    print("phase 1: hot-range overwrite")
    print(f"  host writes            : {ftl.host_writes}")
    print(f"  GC runs / page moves   : {ftl.gc_runs} / {ftl.gc_page_moves}")
    print(f"  write amplification    : {ftl.write_amplification:.2f}")
    print(f"  wear imbalance (max/mean): {ftl.wear.imbalance():.2f}\n")

    # Phase 2: fio-style read workloads (the Fig. 12 shape).
    for pattern in ("sequential", "random"):
        result = run_fio(sim, hic, FioJob(pattern=pattern, io_count=160,
                                          iodepth=16, seed=3))
        print(f"phase 2: fio {pattern} read")
        print(f"  bandwidth : {result.bandwidth_mb_s:7.1f} MB/s "
              f"({result.iops:,.0f} IOPS)")
        print(f"  latency   : mean {result.mean_latency_ns / 1000:6.1f} us, "
              f"p99 {result.p99_latency_ns / 1000:6.1f} us\n")

    print(f"controller after the run: {controller.env.describe()}")
    print(f"channel utilization     : {controller.channel.utilization():.1%}")


if __name__ == "__main__":
    main()
