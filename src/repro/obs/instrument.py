"""Instrumentation helpers: the op-span decorator and metric wiring.

``traced_op`` is how the operation library becomes observable: each
decorated ONFI op renders as one named span on its LUN's track, with
composed ops (READ invoking READ STATUS) nesting naturally.  When no
tracer is attached the decorator returns the *original* generator —
the only overhead is one attribute check at op-construction time, so
the Table II LoC measurements and the disabled-path performance are
untouched.

``register_controller_metrics`` scrapes a built controller stack into
a :class:`~repro.obs.metrics.MetricsRegistry` via pull collectors:
nothing is added to any hot path, the registry reads the counters the
stack already keeps (channel stats, executor busy time, environment
task/txn counts, CPU cycles) at snapshot time.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


def traced_op(fn: Optional[Callable] = None, *, name: Optional[str] = None):
    """Decorate an ONFI operation so it records a span per invocation.

    Works on any ``(ctx, ...) -> Generator`` operation::

        @traced_op
        def my_op(ctx, ...): ...

        @traced_op(name="fancy")
        def other_op(ctx, ...): ...

    The span covers first resume to completion (simulated time), lands
    on track ``op/lun<N>``, and is emitted even if the op raises.
    """

    def decorate(func: Callable) -> Callable:
        label = name or getattr(func, "__name__", "op")

        @functools.wraps(func)
        def wrapper(ctx, *args, **kwargs):
            tracer = ctx.sim._tracer
            if tracer is None or not tracer.wants("op"):
                return func(ctx, *args, **kwargs)
            return traced_body(tracer, label, ctx, func, args, kwargs)

        return wrapper

    return decorate(fn) if fn is not None else decorate


def traced_body(tracer: Tracer, label: str, ctx, func, args, kwargs):
    """``func(ctx, *args, **kwargs)`` under an op span named ``label``
    (what a :func:`traced_op` wrapper runs when ``op`` tracing is on)."""
    sim = ctx.sim
    start = sim.now  # first resume: the environment just scheduled us
    try:
        result = yield from func(ctx, *args, **kwargs)
    except BaseException:
        tracer.complete("op", f"op/lun{ctx.lun_position}", label, start,
                        sim.now - start, {"error": True})
        raise
    tracer.complete("op", f"op/lun{ctx.lun_position}", label, start,
                    sim.now - start)
    return result


def register_controller_metrics(registry: MetricsRegistry, controller,
                                prefix: str = "") -> MetricsRegistry:
    """Wire a :class:`~repro.core.controller.BabolController` (or any
    object with ``channel``/``executor``/``env``/``cpu``) into a
    registry as pull collectors.  Returns the registry for chaining."""
    p = f"{prefix}." if prefix else ""
    channel = controller.channel
    executor = controller.executor
    env = controller.env
    cpu = controller.cpu

    def channel_stats() -> dict:
        stats = channel.stats
        return {
            "segments": stats.segments,
            "busy_ns": stats.busy_ns,
            "data_bytes_out": stats.data_bytes_out,
            "data_bytes_in": stats.data_bytes_in,
            "utilization": round(channel.utilization(), 6),
        }

    def executor_stats() -> dict:
        return {
            "executed": executor.executed,
            "busy_ns": executor.busy_ns,
            "queue_depth": executor.queue_depth,
        }

    def env_stats() -> dict:
        return {
            "runtime": env.runtime_name,
            "tasks_submitted": env.tasks_submitted,
            "tasks_completed": env.tasks_completed,
            "txns_enqueued": env.txns_enqueued,
            "txns_dispatched": env.txns_dispatched,
        }

    def cpu_stats() -> dict:
        return {
            "freq_hz": cpu.freq_hz,
            "cycles_charged": cpu.cycles_charged,
            "busy_ns": cpu.busy_ns,
            "contention_waits": cpu.contention_waits,
        }

    registry.register_collector(f"{p}channel.{channel.name}", channel_stats)
    registry.register_collector(f"{p}executor.{channel.name}", executor_stats)
    registry.register_collector(f"{p}env.{env.runtime_name}", env_stats)
    registry.register_collector(f"{p}cpu.{cpu.name}", cpu_stats)
    return registry


def register_reliability_metrics(registry: MetricsRegistry, reader,
                                 prefix: str = "") -> MetricsRegistry:
    """Expose a :class:`~repro.core.reliability.ReliableReader`'s
    counters (reads, retries, replica fallbacks, uncorrectables) as a
    pull collector.  Returns the registry for chaining."""
    p = f"{prefix}." if prefix else ""
    stats = reader.stats

    def reliability_stats() -> dict:
        return {
            "reads": stats.reads,
            "clean": stats.clean,
            "retried": stats.retried,
            "replica": stats.replica,
            "uncorrectable": stats.uncorrectable,
            "bits_corrected": stats.bits_corrected,
        }

    registry.register_collector(f"{p}reliability", reliability_stats)
    return registry


def register_recovery_metrics(registry: MetricsRegistry, manager,
                              prefix: str = "") -> MetricsRegistry:
    """Expose a :class:`~repro.core.recovery.RecoveryManager`'s
    escalation counters (timeouts, retries, RESETs, degraded dies) as a
    pull collector.  Returns the registry for chaining."""
    p = f"{prefix}." if prefix else ""

    def recovery_stats() -> dict:
        snapshot = dict(manager.stats.as_dict())
        snapshot["degraded_luns"] = sorted(manager.degraded_luns)
        return snapshot

    registry.register_collector(f"{p}recovery", recovery_stats)
    return registry


def register_ftl_health_metrics(registry: MetricsRegistry, ftl,
                                prefix: str = "") -> MetricsRegistry:
    """Expose a :class:`~repro.ftl.PageMappedFtl`'s failure-handling
    and placement state: the grown-bad-block table, the rewrite
    counter, the host writes that waited on a LUN's GC reserve block,
    the journal's pages and records written (records per page without
    a probe; 0 with persistence off), the host writes landed per LUN,
    how many were placed off the rotor's LUN, and the multi-plane
    PROGRAMs its controller's admission ran for two queued programs
    (one tPROG saved each; 0 on a controller that never pairs)."""
    p = f"{prefix}." if prefix else ""

    def ftl_health() -> dict:
        persist = ftl.persist
        return {
            "bad_blocks": len(ftl.bad_blocks),
            "bad_blocks_by_reason": ftl.bad_blocks.counts_by_reason(),
            "gc_write_stalls": ftl.gc_write_stalls,
            "host_writes_by_lun": list(ftl.host_writes_by_lun),
            "journal_pages_written":
                persist.journal_pages_written if persist else 0,
            "journal_records_written":
                persist.journal_records_written if persist else 0,
            "program_fail_rewrites": ftl.program_fail_rewrites,
            "programs_paired": getattr(ftl.controller, "programs_paired", 0),
            "writes_off_rotor": ftl.writes_off_rotor,
        }

    registry.register_collector(f"{p}ftl_health", ftl_health)
    return registry


def register_scale_metrics(registry: MetricsRegistry, engine,
                           prefix: str = "") -> MetricsRegistry:
    """Expose a :class:`~repro.host.engine.ScaleEngine` and its sharded
    FTL: queue-pair traffic per channel plus the array-wide health view.
    Pull collectors only — the submit/complete hot path is untouched."""
    p = f"{prefix}." if prefix else ""

    def engine_stats() -> dict:
        return {
            "channels": engine.channel_count,
            "queue_depth": engine.queue_depth,
            "submitted": engine.submitted,
            "completed": engine.completed,
            "outstanding": engine.outstanding,
            "doorbells": engine.doorbells_rung,
        }

    def queue_pairs() -> dict:
        return {
            f"ch{pair.channel}": {
                "submitted": pair.submitted,
                "completed": len(pair.completions),
                "outstanding": pair.outstanding,
                "doorbells": pair.doorbells,
            }
            for pair in engine.pairs
        }

    registry.register_collector(f"{p}scale_engine", engine_stats)
    registry.register_collector(f"{p}scale_queue_pairs", queue_pairs)
    ftl = engine.ftl
    if hasattr(ftl, "health_summary"):
        registry.register_collector(f"{p}scale_array_health",
                                    ftl.health_summary)
    return registry


def register_spor_metrics(registry: MetricsRegistry, report,
                          prefix: str = "") -> MetricsRegistry:
    """Expose a :class:`~repro.ftl.spor.MountReport`'s power-loss
    counters — SMART-style unsafe-shutdown accounting plus what the
    recovery cost and discarded.  Pull collector like the rest: the
    report object may keep accumulating across remounts."""
    p = f"{prefix}." if prefix else ""

    def spor_stats() -> dict:
        return {
            "unsafe_shutdowns": report.unsafe_shutdowns,
            "torn_pages_discarded": report.torn_pages_discarded,
            "journal_replay_entries": report.journal_replay_entries,
            "mount_ns": report.mount_ns,
        }

    registry.register_collector(f"{p}spor", spor_stats)
    return registry
