"""Paper figure/table subcommands: demo, table1-3, fig10-12.

Every stack-building command here resolves an
:class:`~repro.config.specs.ExperimentSpec` first (``--spec``/``--set``
over its stock spec — see :func:`repro.cli.common.resolve_spec`) and
builds every cell and baseline through :mod:`repro.config.build`, so
the same spec document reproduces the same cells anywhere.  Each
``*_FIXED`` tuple lists what its command sweeps or never reads.
"""

from __future__ import annotations

import dataclasses

from repro.cli.common import (
    RAW_CHANNEL,
    make_tracer,
    print_rows,
    resolve_spec,
    spec_opts,
    trace_opt,
    write_trace_file,
)
from repro.config.specs import (
    FINDINGS_ONLY,
    SpecError,
    StackSpec,
    WorkloadSpec,
    require_dram,
)
from repro.flash.vendors import VENDOR_PROFILES, profile_by_name
from repro.onfi.datamodes import NVDDR2_100, NVDDR2_200
from repro.sim import Simulator

DEMO_BASE = {
    "name": "demo",
    "stack": {"luns_per_channel": 8, "track_data": True},
}
DEMO_FIXED = (*RAW_CHANNEL, "stack.timing_overrides", "workload", "campaign")

FIG10_BASE = {
    "name": "fig10",
    "stack": {"luns_per_channel": 8},
}
# The grid's axes are the runtime and the CPU clock (--freq-mhz).
FIG10_FIXED = (*RAW_CHANNEL, "stack.runtime", "stack.cpu_freq_hz",
               *FINDINGS_ONLY, "workload", "campaign")

FIG11_BASE = {
    "name": "fig11",
    "stack": {"luns_per_channel": 1},
    "workload": {"io_count": 8},
}
# The logic analyzer samples bus segments only the waveform tier drives.
FIG11_FIXED = (*RAW_CHANNEL, "stack.runtime", "stack.fidelity",
               *FINDINGS_ONLY, *WorkloadSpec.all_but("io_count"), "campaign")

FIG12_BASE = {
    "name": "fig12",
    "stack": {"luns_per_channel": 1, "ftl": {}},
    "workload": {"queue_depth": 16},
}
# The axes are the controller (hardware, RTOS, coroutine) and --ways;
# each cell prefills and sizes its job by the way count.
FIG12_FIXED = ("stack.channels", "stack.runtime", "stack.luns_per_channel",
               "stack.ftl.prefill_pages", *FINDINGS_ONLY,
               *WorkloadSpec.all_but("pattern", "queue_depth"), "campaign")


def cmd_demo(args) -> int:
    import numpy as np

    from repro.config.build import build_controllers

    spec = resolve_spec(args, DEMO_BASE, DEMO_FIXED)
    sim = Simulator()
    tracer = make_tracer(args)
    sim.set_tracer(tracer)
    controller = build_controllers(sim, spec.stack)[0]
    page = controller.codec.geometry.full_page_size
    require_dram(spec.stack.dram_size, 2 * page,
                 "the demo (a program page and a read page)")
    payload = (np.arange(page) % 251).astype(np.uint8)
    controller.dram.write(0, payload)
    controller.run_to_completion(controller.program_page(0, 1, 0, 0))
    controller.run_to_completion(controller.read_page(0, 1, 0, page))
    errors = int((controller.dram.read(page, page) != payload).sum())
    print(controller.describe())
    print(f"program+read roundtrip in {sim.now / 1000:.1f} us of device time; "
          f"{errors} raw byte error(s) before ECC")
    if tracer is not None:
        from repro.obs import MetricsRegistry, register_controller_metrics

        write_trace_file(args, tracer,
                         register_controller_metrics(MetricsRegistry(),
                                                     controller),
                         spec=spec)
    if controller.diagnostics is not None and not controller.diagnostics.clean:
        print(controller.diagnostics.render_text(title="sanitize"))
        return controller.diagnostics.exit_code()
    return 0


def cmd_table1(args) -> int:
    rows = []
    for name, vendor in VENDOR_PROFILES.items():
        rows.append([name, f"{vendor.timing.t_read_ns / 1000:.0f} us",
                     f"{vendor.geometry.page_size} B",
                     str(vendor.luns_per_channel)])
    print("Table I: flash memory parameters")
    print_rows(["vendor", "tR", "page", "LUNs/channel"], rows)
    full = profile_by_name("hynix").geometry.full_page_size
    print(f"page transfer: {NVDDR2_100.transfer_ns(full) / 1000:.0f} us @100MT/s, "
          f"{NVDDR2_200.transfer_ns(full) / 1000:.0f} us @200MT/s")
    return 0


def cmd_fig10(args) -> int:
    from repro.config.build import build_baseline, build_controllers
    from repro.core.softenv import MHZ
    from repro.host import measure_read_throughput

    spec = resolve_spec(args, FIG10_BASE, FIG10_FIXED)
    luns = spec.stack.luns_per_channel
    rows = []

    # One tracer spans the whole sweep; each cell's tracks are kept
    # apart by a scope prefix (its own Perfetto thread group).
    tracer = make_tracer(args)

    sim = Simulator()
    if tracer is not None:
        tracer.scope = "sync-hw"
        sim.set_tracer(tracer)
    hw = build_baseline(sim, spec.stack, "sync")
    result = measure_read_throughput(sim, hw, luns)
    rows.append(["HW baseline", "-", f"{result.throughput_mb_s:.1f}"])
    for runtime in ("rtos", "coroutine"):
        for mhz in args.freq_mhz:
            sim = Simulator()
            if tracer is not None:
                tracer.scope = f"{runtime}@{mhz}MHz"
                sim.set_tracer(tracer)
            cell = dataclasses.replace(spec.stack, runtime=runtime,
                                       cpu_freq_hz=mhz * MHZ)
            controller = build_controllers(sim, cell)[0]
            result = measure_read_throughput(sim, controller, luns)
            rows.append([runtime, f"{mhz} MHz", f"{result.throughput_mb_s:.1f}"])
    print(f"Fig. 10 cell: {spec.stack.vendor}, {spec.stack.interface_mt} MT/s, "
          f"{luns} LUNs (MB/s)")
    print_rows(["controller", "CPU", "throughput"], rows)
    write_trace_file(args, tracer, spec=spec)
    return 0


def cmd_fig11(args) -> int:
    from repro.analysis import LogicAnalyzer
    from repro.config.build import build_controllers

    spec = resolve_spec(args, FIG11_BASE, FIG11_FIXED)
    reads = spec.workload.io_count
    rows = []
    tracer = make_tracer(args)
    for runtime in ("rtos", "coroutine"):
        sim = Simulator()
        if tracer is not None:
            tracer.scope = runtime
            sim.set_tracer(tracer)
        cell = dataclasses.replace(spec.stack, runtime=runtime)
        controller = build_controllers(sim, cell)[0]
        analyzer = LogicAnalyzer(controller.channel)
        for i in range(reads):
            controller.run_to_completion(controller.read_page(0, 1, i, 0))
        summary = analyzer.polling_summary()
        rows.append([runtime, str(summary.count),
                     f"{summary.mean_ns / 1000:.1f} us",
                     f"{sim.now / reads / 1000:.1f} us"])
    print("Fig. 11: polling period (1 LUN, 1 GHz)")
    print_rows(["runtime", "polls", "period", "READ latency"], rows)
    write_trace_file(args, tracer, spec=spec)
    return 0


def cmd_fig12(args) -> int:
    from repro.config.build import build_baseline, build_controllers
    from repro.ftl import PageMappedFtl
    from repro.host import FioJob, HostInterface, run_fio

    spec = resolve_spec(args, FIG12_BASE, FIG12_FIXED)
    if spec.stack.ftl is None:
        raise SpecError("fig12 runs fio over an FTL: stack.ftl is null")
    iodepth = spec.workload.queue_depth
    rows = []
    tracer = make_tracer(args)
    for ways in args.ways:
        bandwidths = []
        for kind in ("cosmos", "rtos", "coroutine"):
            sim = Simulator()
            if tracer is not None:
                tracer.scope = f"{kind}@{ways}way"
                sim.set_tracer(tracer)
            cell = dataclasses.replace(spec.stack, luns_per_channel=ways)
            if kind == "cosmos":
                controller = build_baseline(sim, cell, "async")
            else:
                controller = build_controllers(
                    sim, dataclasses.replace(cell, runtime=kind))[0]
            ftl = PageMappedFtl(sim, controller,
                                spec.stack.ftl.to_ftl_config())
            ftl.prefill(min(ftl.logical_pages, 64 * ways))
            hic = HostInterface(sim, ftl, iodepth=iodepth)
            result = run_fio(sim, hic,
                             FioJob(pattern=spec.workload.pattern,
                                    io_count=24 * ways + 16,
                                    iodepth=iodepth))
            bandwidths.append(result.bandwidth_mb_s)
        rows.append([str(ways)] + [f"{bw:.1f}" for bw in bandwidths])
    print(f"Fig. 12: fio {spec.workload.pattern} read bandwidth (MB/s)")
    print_rows(["ways", "Cosmos+ (HW)", "BABOL-RTOS", "BABOL-Coro"], rows)
    write_trace_file(args, tracer, spec=spec)
    return 0


def cmd_table2(args) -> int:
    from repro.analysis import operation_loc_table

    table = operation_loc_table()
    rows = [[op, str(v["sync_hw"]), str(v["async_hw"]), str(v["babol"])]
            for op, v in table.items()]
    print("Table II: lines of code per operation (measured in this repo)")
    print_rows(["operation", "sync HW", "async HW", "BABOL"], rows)
    return 0


def cmd_table3(args) -> int:
    from repro.analysis import estimate_area
    from repro.analysis.area import babol_inventory
    from repro.config.build import build_baseline

    stack = StackSpec(luns_per_channel=8)
    estimates = {
        "sync HW": estimate_area(
            build_baseline(Simulator(), stack, "sync").inventory()),
        "async HW": estimate_area(
            build_baseline(Simulator(), stack, "async").inventory()),
        "BABOL": estimate_area(babol_inventory(stack.luns_per_channel)),
    }
    rows = [[name, str(e.lut), str(e.ff), f"{e.bram:g}"]
            for name, e in estimates.items()]
    print("Table III: modeled FPGA resources")
    print_rows(["controller", "LUT", "FF", "BRAM"], rows)
    return 0


def add_parsers(sub) -> None:
    p = sub.add_parser("demo", help="program+read roundtrip demo")
    trace_opt(p)
    spec_opts(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("table1", help="flash parameters")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("fig10", help="throughput cell")
    trace_opt(p)
    p.add_argument("--freq-mhz", type=int, nargs="+",
                   default=[150, 200, 400, 1000])
    spec_opts(p)
    p.set_defaults(func=cmd_fig10)

    p = sub.add_parser("fig11", help="polling breakdown")
    trace_opt(p)
    spec_opts(p)
    p.set_defaults(func=cmd_fig11)

    p = sub.add_parser("fig12", help="end-to-end fio bandwidth")
    trace_opt(p)
    p.add_argument("--ways", type=int, nargs="+", default=[1, 2, 4, 8])
    spec_opts(p)
    p.set_defaults(func=cmd_fig12)

    p = sub.add_parser("table2", help="lines of code")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("table3", help="FPGA area")
    p.set_defaults(func=cmd_table3)
