"""Scale-out performance sweep and the perf-regression gate.

``repro perf`` sweeps channel count × queue depth over the
:class:`~repro.host.engine.ScaleEngine` stack and serializes two kinds
of numbers into one report (``BENCH_scale.json``):

* **simulated** throughput/latency — a pure function of the topology
  and job, identical on every machine, so the CI gate can hold them to
  a tight tolerance;
* **host wall-clock** dispatch cost (µs of host CPU per simulated
  command, ``time.process_time`` so co-tenant noise is excluded) plus
  kernel primitive microbenchmarks — machine-dependent, gated only by a
  generous ceiling.

:func:`compare_reports` is the gate itself: it diffs a fresh report
against the checked-in baseline and returns human-readable regression
lines (empty means pass).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.config.specs import (
    FINDINGS_ONLY,
    ExperimentSpec,
    FtlSpec,
    SpecError,
    StackSpec,
    WorkloadSpec,
)
from repro.sim import Simulator
from repro.sim.kernel import Timeout

DEFAULT_THROUGHPUT_TOLERANCE = 0.10
# Host-CPU ceiling headroom over the machine that generated a baseline.
# Wide on purpose: the gate should catch a hot path going off a cliff
# (an accidental O(n) scan per event), not CI-runner generation gaps.
DISPATCH_CEILING_FACTOR = 8.0
DISPATCH_CEILING_FLOOR_US = 400.0


def kernel_microbench(events: int = 20_000, rounds: int = 3) -> dict:
    """Isolated cost of the two hottest kernel primitives, in ns of host
    CPU per simulated event (min over ``rounds`` to shed scheduler noise).
    """
    from repro.sim.sync import Trigger

    def timed_chain() -> float:
        sim = Simulator()

        def chain():
            for _ in range(events):
                yield Timeout(10)

        started = time.process_time()
        sim.run_process(chain(), name="kbench-timeout")
        return (time.process_time() - started) / events * 1e9

    def trigger_fanout() -> float:
        sim = Simulator()
        trigger = Trigger(sim)
        fires = max(events // 2, 1)

        def waiter():
            for _ in range(fires):
                yield from trigger.wait()

        def firer():
            for _ in range(fires):
                trigger.fire()
                yield Timeout(1)

        sim.spawn(waiter(), name="kbench-waiter")
        started = time.process_time()
        sim.run_process(firer(), name="kbench-firer")
        return (time.process_time() - started) / fires * 1e9

    return {
        "events": events,
        "timeout_ns_per_event": round(min(timed_chain() for _ in range(rounds)), 1),
        "trigger_ns_per_fire": round(min(trigger_fanout() for _ in range(rounds)), 1),
    }


def cell_key(channels: int, queue_depth: int) -> str:
    return f"c{channels}_qd{queue_depth}"


#: The stock sweep axes.
SWEEP_CHANNELS = (1, 2, 4)
SWEEP_QUEUE_DEPTHS = (8, 32)

#: What a perf spec may not change: the sweep reads no campaign.
PERF_FIXED = (*FINDINGS_ONLY, "campaign")


def perf_spec(
    channel_counts=SWEEP_CHANNELS,
    queue_depths=SWEEP_QUEUE_DEPTHS,
    luns_per_channel: int = 4,
    io_count: int = 192,
    vendor: str = "hynix",
    pattern: str = "sequential",
    fidelity: str = "waveform",
):
    """The stock sweep's :class:`~repro.config.specs.ExperimentSpec`
    template: where its defaults live, and what ``repro perf`` resolves
    ``--set`` / ``--spec`` against.

    Channels and queue depth are pinned at the sweep *maxima* — per-cell
    values are sweep axes, not spec identity — so a ``--quick`` run and
    the full sweep over the same axes hash identically and a baseline
    check can insist on matching ``spec_hash``.
    """
    spec = ExperimentSpec(
        name="perf",
        stack=StackSpec(
            vendor=vendor,
            channels=max(channel_counts),
            luns_per_channel=luns_per_channel,
            fidelity=fidelity,
            ftl=FtlSpec(),
        ),
        workload=WorkloadSpec(
            mix="read",
            pattern=pattern,
            io_count=io_count,
            queue_depth=max(queue_depths),
        ),
    )
    spec.validate()
    return spec


def run_scale_cell(spec: ExperimentSpec, channels: int,
                   queue_depth: int) -> dict:
    """One sweep cell: the factory's build of ``spec`` (the sweep
    template) at this cell's axis coordinates — ``stack.channels`` and
    ``workload.queue_depth``, the doorbell batch capped to fit — run to
    completion; reports both the simulated outcome and the host CPU
    cost of driving it."""
    import dataclasses

    from repro.config.build import build_experiment

    built = build_experiment(dataclasses.replace(
        spec,
        stack=dataclasses.replace(spec.stack, channels=channels),
        workload=dataclasses.replace(
            spec.workload, queue_depth=queue_depth,
            doorbell_batch=min(spec.workload.doorbell_batch, queue_depth)),
    ))
    controllers = built.controllers
    started = time.process_time()
    result = built.run_workload()
    wall_s = time.process_time() - started
    cell = result.to_json_obj()
    cell["fidelity"] = spec.stack.fidelity
    # Ungated diagnostics of the op dispatch path.  ``shapes_lowered``
    # counts the op programs lowered by this cell's controllers (one per
    # shape and controller on either tier, never one per command);
    # ``fastops`` (TLM cells) is how the template runner's submissions
    # went.
    cell["host"] = {
        "dispatch_us_per_op": round(wall_s / max(result.commands, 1) * 1e6, 1),
        "shapes_lowered": sum(c.ufsm.shapes_lowered for c in controllers),
        "wall_s": round(wall_s, 4),
    }
    fast = [c.fast_ops for c in controllers if c.fast_ops is not None]
    if fast:
        cell["fastops"] = {
            name: sum(getattr(f, name) for f in fast)
            for name in ("ops_declined", "ops_planned", "shapes_compiled")
        }
    return cell


def _axis(values, stock, top: int, field: str) -> list:
    """One sweep axis: the explicit ``values`` — each within the spec's
    maximum ``top``, refused otherwise — or the stock axis clipped to
    it; the maximum itself always runs."""
    if values is None:
        values = [value for value in stock if value <= top]
    elif max(values) > top:
        raise SpecError(
            f"sweep axis value {max(values)} exceeds {field}={top}, the "
            f"sweep maximum — raise it with --set {field}={max(values)}"
        )
    return sorted({*values, top})


def run_perf_sweep(
    spec: ExperimentSpec,
    channel_counts=None,
    queue_depths=None,
    quick: bool = False,
    microbench_events: Optional[int] = None,
) -> dict:
    """The full ``repro perf`` report for ``spec`` (a :func:`perf_spec`
    template).

    ``spec.stack.channels`` / ``spec.workload.queue_depth`` are the
    sweep maxima: ``channel_counts`` / ``queue_depths`` pick the cells
    at or below them (default: the stock axes, clipped) and the maxima
    always run, so quick and full runs of the same axes embed the same
    ``spec_hash``.  ``quick`` narrows the sweep to its corner cells
    (1 and max channels at max QD) with the same per-cell parameters,
    so every quick cell is key-compatible with a full-sweep baseline.

    ``spec.stack.fidelity`` is recorded per cell;
    :func:`compare_reports` only compares cells run under the same tier
    (the tiers' simulated timelines legitimately differ in aggregate
    throughput).
    """
    spec.validate()
    spec.refuse_fixed(perf_spec(), PERF_FIXED, "perf")
    channel_counts = _axis(channel_counts, SWEEP_CHANNELS,
                           spec.stack.channels, "stack.channels")
    queue_depths = _axis(queue_depths, SWEEP_QUEUE_DEPTHS,
                         spec.workload.queue_depth, "workload.queue_depth")
    if quick:
        channel_counts = sorted({channel_counts[0], channel_counts[-1]})
        queue_depths = [queue_depths[-1]]
    if microbench_events is None:
        microbench_events = 4_000 if quick else 20_000

    cells = {}
    for ch in channel_counts:
        for qd in queue_depths:
            cells[cell_key(ch, qd)] = run_scale_cell(spec, ch, qd)

    scaling = {}
    top_qd = queue_depths[-1]
    base_cell = cells.get(cell_key(channel_counts[0], top_qd))
    for ch in channel_counts[1:]:
        cell = cells.get(cell_key(ch, top_qd))
        if base_cell and cell and base_cell["throughput_mb_s"]:
            scaling[f"qd{top_qd}_{channel_counts[0]}to{ch}"] = round(
                cell["throughput_mb_s"] / base_cell["throughput_mb_s"], 2
            )

    worst_dispatch = max(
        cell["host"]["dispatch_us_per_op"] for cell in cells.values()
    )
    kernel = kernel_microbench(events=microbench_events)
    return {
        "bench": "scale",
        "cells": cells,
        "gates": {
            "dispatch_us_per_op_ceiling": round(
                max(worst_dispatch * DISPATCH_CEILING_FACTOR,
                    DISPATCH_CEILING_FLOOR_US), 1
            ),
            "kernel_timeout_ns_ceiling": round(
                kernel["timeout_ns_per_event"] * DISPATCH_CEILING_FACTOR, 1
            ),
            "throughput_tolerance": DEFAULT_THROUGHPUT_TOLERANCE,
        },
        "kernel": kernel,
        "params": {
            "io_count": spec.workload.io_count,
            "luns_per_channel": spec.stack.luns_per_channel,
            "pattern": spec.workload.pattern,
            "vendor": spec.stack.vendor,
        },
        "quick": quick,
        "scaling": scaling,
        "schema": 3,
        "spec": spec.resolved(),
        "spec_hash": spec.spec_hash(),
    }


def compare_reports(current: dict, baseline: dict) -> list[str]:
    """The perf-regression gate.  Returns one line per violation.

    * Simulated throughput of every shared cell must stay within the
      baseline's ``throughput_tolerance`` (simulated numbers are
      deterministic — drift means the simulated machine changed).
    * Host dispatch µs/op must stay under the baseline's recorded
      ceiling (wall-clock, so only a hard ceiling — not a tolerance).
    * The kernel microbench's ns per timeout event must stay under the
      baseline's ``kernel_timeout_ns_ceiling`` (same headroom factor);
      a baseline recorded before that gate has no key and is not checked.
    * Cell parameters must match, else the comparison is meaningless.
    * Cells are compared like-with-like on fidelity: a cell run under a
      different execution tier than the baseline's is excluded (the
      tiers' aggregate timelines legitimately differ).  Schema-1
      baselines predate the field and count as waveform.
    * ``spec_hash`` must match when both reports carry one.  Schema ≤ 2
      baselines predate experiment specs and count as "unknown spec":
      the cell-level comparisons still run, nothing fails on the
      missing hash.
    """
    problems: list[str] = []
    if current.get("params") != baseline.get("params"):
        problems.append(
            f"params mismatch: current {current.get('params')} "
            f"vs baseline {baseline.get('params')} — regenerate the baseline"
        )
        return problems
    cur_hash = current.get("spec_hash")
    base_hash = baseline.get("spec_hash")
    if cur_hash and base_hash and cur_hash != base_hash:
        problems.append(
            f"spec_hash mismatch: current {cur_hash} vs baseline "
            f"{base_hash} — different experiment, regenerate the baseline"
        )
        return problems

    gates = baseline.get("gates", {})
    tolerance = gates.get("throughput_tolerance", DEFAULT_THROUGHPUT_TOLERANCE)
    ceiling = gates.get("dispatch_us_per_op_ceiling")
    base_cells = baseline.get("cells", {})
    cur_cells = current.get("cells", {})

    shared = sorted(
        key for key in set(base_cells) & set(cur_cells)
        if (cur_cells[key].get("fidelity", "waveform")
            == base_cells[key].get("fidelity", "waveform"))
    )
    if not shared:
        problems.append(
            "no comparable cells between current run and baseline "
            "(same cell key AND same fidelity tier)"
        )
    for key in shared:
        base = base_cells[key]["throughput_mb_s"]
        cur = cur_cells[key]["throughput_mb_s"]
        if base and abs(cur - base) / base > tolerance:
            problems.append(
                f"{key}: simulated throughput {cur:.2f} MB/s drifted "
                f"{abs(cur - base) / base:+.1%} from baseline {base:.2f} MB/s "
                f"(tolerance {tolerance:.0%})"
            )
        if ceiling is not None:
            dispatch = cur_cells[key]["host"]["dispatch_us_per_op"]
            if dispatch > ceiling:
                problems.append(
                    f"{key}: host dispatch {dispatch:.1f} µs/op exceeds "
                    f"ceiling {ceiling:.1f} µs/op"
                )
    kernel_ceiling = gates.get("kernel_timeout_ns_ceiling")
    if kernel_ceiling is not None:
        timeout_ns = current["kernel"]["timeout_ns_per_event"]
        if timeout_ns > kernel_ceiling:
            problems.append(
                f"kernel: {timeout_ns:.1f} ns per timeout event exceeds "
                f"ceiling {kernel_ceiling:.1f} ns"
            )
    return problems
