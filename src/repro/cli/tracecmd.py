"""``repro trace`` — dedicated observability capture."""

from __future__ import annotations

from repro.cli.common import RAW_CHANNEL, resolve_spec, spec_opts
from repro.config.specs import WorkloadSpec
from repro.sim import Simulator

TRACE_BASE = {
    "name": "trace",
    "stack": {"luns_per_channel": 4},
    "workload": {"io_count": 24},
}
# The logic analyzer samples bus segments only the waveform tier drives;
# the workload is the fixed read/program mix: only its op count is read.
TRACE_FIXED = (*RAW_CHANNEL, "stack.fidelity", "stack.timing_overrides",
               *WorkloadSpec.all_but("io_count"), "campaign")


def cmd_trace(args) -> int:
    """Run a mixed workload with the tracer and metrics registry on,
    write the Chrome trace, and print the per-track + metrics
    summaries."""
    from repro.analysis import LogicAnalyzer
    from repro.config.build import build_controllers
    from repro.host import submit_mixed_ops
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        register_controller_metrics,
        render_text_summary,
        write_chrome_trace,
    )

    spec = resolve_spec(args, TRACE_BASE, TRACE_FIXED)
    sim = Simulator()
    tracer = Tracer(categories=None if not args.kernel else
                    {"kernel", "channel", "txn", "cpu", "sched", "task", "op",
                     "host", "analyzer", "user"})
    sim.set_tracer(tracer)
    controller = build_controllers(sim, spec.stack)[0]
    analyzer = LogicAnalyzer(controller.channel)
    registry = register_controller_metrics(MetricsRegistry(), controller)
    op_latency = registry.histogram("op_latency_ns")

    for task in submit_mixed_ops(controller, spec.workload.io_count):
        controller.run_to_completion(task)
        op_latency.observe(task.finished_at - task.submitted_at)

    registry.counter("analyzer_events").inc(len(analyzer.events))
    print(controller.describe())
    print(render_text_summary(tracer))
    print(registry.render_text("metrics:"))
    count = write_chrome_trace(args.out, tracer, metrics=registry, spec=spec)
    print(f"trace: {count} events -> {args.out}")
    if controller.diagnostics is not None and not controller.diagnostics.clean:
        print(controller.diagnostics.render_text(title="sanitize"))
        return controller.diagnostics.exit_code()
    return 0


def add_parsers(sub) -> None:
    p = sub.add_parser("trace",
                       help="observability capture of a mixed workload")
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace_event output path")
    p.add_argument("--kernel", action="store_true",
                   help="also record the kernel event firehose")
    spec_opts(p)
    p.set_defaults(func=cmd_trace)
