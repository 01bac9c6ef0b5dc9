"""``repro bench-smoke`` / ``repro perf`` — benchmark artifacts."""

from __future__ import annotations

import json

from repro.cli.common import RAW_CHANNEL, print_rows, resolve_spec, spec_opts
from repro.config.specs import FINDINGS_ONLY, WorkloadSpec
from repro.sim import Simulator

BENCH_SMOKE_BASE = {
    "name": "bench-smoke",
    "stack": {"luns_per_channel": 1},
    "workload": {"io_count": 4},
}
# The Fig. 11 cells sweep the runtime; the dispatch cell is coroutine.
BENCH_SMOKE_FIXED = (*RAW_CHANNEL, "stack.runtime", *FINDINGS_ONLY,
                     *WorkloadSpec.all_but("io_count"), "campaign")


def cmd_bench_smoke(args) -> int:
    """CI benchmark smoke: tiny, fast cells of Table I and Fig. 11 with
    wall-clock timings, serialized to JSON so the perf trajectory of the
    repository accumulates run over run."""
    import dataclasses
    import time

    from repro.analysis import LogicAnalyzer
    from repro.config.build import build_controllers, stack_profile
    from repro.onfi.datamodes import NVDDR2_200

    spec = resolve_spec(args, BENCH_SMOKE_BASE, BENCH_SMOKE_FIXED)
    fidelity = spec.stack.fidelity
    reads = spec.workload.io_count
    results: dict = {"schema": 2, "bench": "smoke",
                     "fidelity": fidelity,
                     "spec": spec.resolved(),
                     "spec_hash": spec.spec_hash()}
    if fidelity != "waveform":
        # The Fig. 11 cells measure the polling waveform itself through
        # the logic analyzer, which only exists at waveform fidelity —
        # they always run under that tier, whatever stack.fidelity says.
        print(f"bench-smoke: fig11 cells stay at fidelity=waveform "
              f"(the logic analyzer samples bus segments the "
              f"'{fidelity}' tier does not drive); dispatch cells "
              f"run at fidelity={fidelity}")

    started = time.perf_counter()
    vendor = stack_profile(spec.stack)
    results["table1"] = {
        "vendor": spec.stack.vendor,
        "t_read_us": vendor.timing.t_read_ns / 1000,
        "page_bytes": vendor.geometry.page_size,
        "transfer_us_200mt": NVDDR2_200.transfer_ns(
            vendor.geometry.full_page_size) / 1000,
    }

    fig11 = {}
    for runtime in ("rtos", "coroutine"):
        run_started = time.perf_counter()
        sim = Simulator()
        cell = dataclasses.replace(spec.stack, runtime=runtime,
                                   fidelity="waveform")
        controller = build_controllers(sim, cell)[0]
        analyzer = LogicAnalyzer(controller.channel)
        for i in range(reads):
            controller.run_to_completion(controller.read_page(0, 1, i, 0))
        summary = analyzer.polling_summary()
        fig11[runtime] = {
            "reads": reads,
            "polls": summary.count,
            "poll_period_us": summary.mean_ns / 1000,
            "read_latency_us": sim.now / reads / 1000,
            "sim_ns": sim.now,
            "wall_s": round(time.perf_counter() - run_started, 4),
        }
    results["fig11"] = fig11

    # Per-op dispatch overhead: fixed op counts on one coroutine LUN.
    # Wall time per op tracks the cost of the software dispatch path
    # itself (program build + interpretation + runtime scheduling), so
    # IR/runtime changes show up here run over run.
    from repro.core.ops import read_status_op

    dispatch_started = time.perf_counter()
    sim = Simulator()
    controller = build_controllers(
        sim, dataclasses.replace(spec.stack, runtime="coroutine"))[0]
    dispatch_reads = 150
    for i in range(dispatch_reads):
        controller.run_to_completion(controller.read_page(0, 1, i, 0))
    read_wall = time.perf_counter() - dispatch_started
    poll_started = time.perf_counter()
    polls = 400
    for _ in range(polls):
        controller.run_to_completion(controller.submit(read_status_op, 0))
    poll_wall = time.perf_counter() - poll_started
    results["dispatch"] = {
        "reads": dispatch_reads,
        "read_us_per_op": round(read_wall / dispatch_reads * 1e6, 1),
        "status_polls": polls,
        "status_us_per_op": round(poll_wall / polls * 1e6, 1),
    }
    # Power-loss recovery cell: one deterministic mid-workload crash and
    # remount of the stock crashfuzz stack (this run's vendor and tier),
    # with the SPOR counters scraped through the obs registry — the same
    # pull collectors a monitoring stack would read.
    import numpy as np

    from repro.analysis.crashfuzz import (
        build_ops,
        crashfuzz_spec,
        drive,
        remount,
        stand_up,
    )
    from repro.faults.power import PowerCut, PowerLossError, apply_power_cut
    from repro.obs import MetricsRegistry, register_spor_metrics

    spor_started = time.perf_counter()
    fuzz = crashfuzz_spec(vendor=spec.stack.vendor, fidelity=fidelity)
    crashed, span = stand_up(fuzz)
    spor_ops = build_ops(np.random.default_rng(1234), 120, span,
                         fuzz.stack.channels, fuzz.workload.queue_depth)
    cut_ns = crashed.sim.now + 10_000_000
    PowerCut(crashed.sim, cut_ns).arm(crashed.controllers)
    try:
        drive(crashed, spor_ops)
    except PowerLossError:
        pass
    apply_power_cut(crashed.controllers, cut_ns)
    _, _, mount_report = remount(crashed)
    registry = MetricsRegistry()
    register_spor_metrics(registry, mount_report)
    spor_cell = dict(registry.snapshot()["collected"]["spor"])
    spor_cell["wall_s"] = round(time.perf_counter() - spor_started, 4)
    results["spor"] = spor_cell

    results["wall_s"] = round(time.perf_counter() - started, 4)

    rendered = json.dumps(results, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
        print(f"bench-smoke -> {args.out}")
    print(rendered)
    return 0


def cmd_perf(args) -> int:
    """Scale-out perf sweep (channels × queue depth) with the
    perf-regression gate.  Writes ``BENCH_scale.json``; with
    ``--check BASELINE`` exits 1 when the fresh run regresses past the
    baseline's tolerances."""
    from repro.analysis.perfbench import (
        PERF_FIXED,
        compare_reports,
        perf_spec,
        run_perf_sweep,
    )

    spec = resolve_spec(args, perf_spec().to_dict(), PERF_FIXED)
    report = run_perf_sweep(spec, channel_counts=args.channels,
                            queue_depths=args.qd, quick=args.quick)
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
        print(f"perf -> {args.out}")
    else:
        print(rendered)

    rows = []
    for key in sorted(report["cells"]):
        cell = report["cells"][key]
        rows.append([
            key, f"{cell['throughput_mb_s']:.1f}", f"{cell['iops']:.0f}",
            f"{cell['latency_us']['p99']:.1f}",
            f"{cell['host']['dispatch_us_per_op']:.1f}",
        ])
    print_rows(
        ["cell", "MB/s (sim)", "IOPS (sim)", "p99 µs (sim)", "host µs/op"],
        rows,
    )
    for label, ratio in sorted(report["scaling"].items()):
        print(f"scaling {label}: {ratio}x")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        problems = compare_reports(report, baseline)
        if problems:
            for problem in problems:
                print(f"PERF REGRESSION: {problem}")
            return 1
        print(f"perf: within tolerance of baseline {args.check}")
    return 0


def add_parsers(sub) -> None:
    p = sub.add_parser("bench-smoke",
                       help="fast benchmark cells as JSON (CI artifact)")
    p.add_argument("--out", default=None, help="JSON output path")
    spec_opts(p)
    p.set_defaults(func=cmd_bench_smoke)

    p = sub.add_parser("perf",
                       help="multi-channel scale sweep + perf-regression "
                            "gate (exit 1 on regression vs --check baseline)")
    p.add_argument("--channels", type=int, nargs="+", default=None,
                   help="channel counts to sweep, each at most "
                        "stack.channels (which always runs)")
    p.add_argument("--qd", type=int, nargs="+", default=None,
                   help="queue depths to sweep, each at most "
                        "workload.queue_depth (which always runs)")
    p.add_argument("--quick", action="store_true",
                   help="corner cells only (CI mode; keys stay "
                        "comparable with a full-sweep baseline)")
    p.add_argument("--out", default=None,
                   help="write the JSON report here (e.g. BENCH_scale.json)")
    p.add_argument("--check", metavar="BASELINE.json", default=None,
                   help="compare against a baseline report; exit 1 on "
                        "regression")
    spec_opts(p)
    p.set_defaults(func=cmd_perf)
