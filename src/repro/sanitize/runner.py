"""Sanitized workload runner behind ``repro sanitize``.

Runs a representative mixed workload on the BABOL controller and on
both hardware baselines with every sanitizer attached, plus a
logic-analyzer capture fed through the ONFI timing checker — one
command-line gate over all four runtime rule families (SAN1xx–SAN4xx) and
the capture-time rules (TCK).  All findings land in a single
:class:`~repro.analysis.diagnostics.DiagnosticReport`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.logic_analyzer import LogicAnalyzer
from repro.analysis.timing_check import TimingChecker
from repro.config.specs import (
    CampaignSpec,
    ExperimentSpec,
    StackSpec,
    WorkloadSpec,
    require_dram,
)

#: What a sanitize spec may not change: every run attaches *all*
#: sanitizers to one raw (FTL-less) channel with data tracking off, and
#: the workload is the fixed mix — only its op count is read.
SANITIZE_FIXED = (
    "stack.channels", "stack.sanitizers", "stack.track_data", "stack.ftl",
    *WorkloadSpec.all_but("io_count"),
)

#: Each hardware baseline runs this many reads, then a program and an
#: erase, on at most two LUNs.
_BASELINE_READS = 4
_BASELINE_LUNS = 2


def sanitize_spec(vendor: str = "hynix", luns: int = 4, ops: int = 18,
                  runtime: str = "coroutine",
                  baselines: bool = True) -> ExperimentSpec:
    """The stock sanitize run: where its defaults live, and what
    ``repro sanitize`` resolves ``--set`` / ``--spec`` against."""
    spec = ExperimentSpec(
        name="sanitize",
        stack=StackSpec(vendor=vendor, luns_per_channel=luns,
                        runtime=runtime),
        workload=WorkloadSpec(io_count=ops),
        campaign=CampaignSpec(baselines=baselines),
    )
    spec.validate()
    return spec


def _sanitized_stack(spec: ExperimentSpec, **phase) -> StackSpec:
    """``spec.stack`` as every sanitize phase runs it — all sanitizers,
    data tracking off — after refusing a spec that says otherwise."""
    spec.refuse_fixed(sanitize_spec(), SANITIZE_FIXED, "sanitize")
    return dataclasses.replace(spec.stack, sanitizers=("all",),
                               track_data=False, **phase)


def _timing_check(analyzer: LogicAnalyzer, vendor, lun_count: int,
                  report: DiagnosticReport, component: str) -> None:
    checker = TimingChecker(
        vendor.timing_set(analyzer.channel.interface.name),
        lun_count=lun_count,
    )
    checker.check_analyzer(analyzer)
    for violation in checker.violations:
        report.add(violation.to_finding(component=component))


def run_babol_sanitized(
    spec: ExperimentSpec,
    profile=None,
    report: Optional[DiagnosticReport] = None,
) -> DiagnosticReport:
    """Mixed read/program/erase workload under all sanitizers.

    ``profile`` substitutes an unregistered
    :class:`~repro.flash.vendors.VendorProfile` for ``stack.vendor``.
    """
    from repro.config.build import build_controllers
    from repro.host.workload import submit_mixed_ops
    from repro.sim import Simulator

    report = report if report is not None else DiagnosticReport()
    controller = build_controllers(Simulator(), _sanitized_stack(spec),
                                   profile=profile, diagnostics=report)[0]
    analyzer = LogicAnalyzer(controller.channel, capture_rb=True)

    tasks = submit_mixed_ops(controller, spec.workload.io_count)
    tasks.append(controller.erase_block(0, 2))
    for task in tasks:
        controller.run_to_completion(task)

    _timing_check(analyzer, controller.config.vendor, len(controller.luns),
                  report, component=f"babol/{spec.stack.runtime}")
    return report


def run_baseline_sanitized(
    kind: str,
    spec: ExperimentSpec,
    profile=None,
    report: Optional[DiagnosticReport] = None,
) -> DiagnosticReport:
    """Read/program/erase sweep on one hardware baseline (``"sync"`` or
    ``"async"``, at most two of the spec's LUNs), sanitized."""
    from repro.config.build import build_baseline
    from repro.sim import Simulator

    report = report if report is not None else DiagnosticReport()
    lun_count = min(spec.stack.luns_per_channel, _BASELINE_LUNS)
    controller = build_baseline(
        Simulator(), _sanitized_stack(spec, luns_per_channel=lun_count),
        kind, profile=profile, diagnostics=report)
    analyzer = LogicAnalyzer(controller.channel, capture_rb=True)

    page = controller.codec.geometry.full_page_size
    require_dram(controller.dram.size, page * (1 + lun_count),
                 f"the {kind}-hw sanitize sweep (a program page + one "
                 f"read page per LUN, {lun_count} LUNs)")
    payload = (np.arange(page) % 249).astype(np.uint8)
    controller.dram.write(0, payload)

    for i in range(_BASELINE_READS):
        controller.run_to_completion(
            controller.read_page(i % lun_count, 1, i, page * (1 + i % lun_count))
        )
    controller.run_to_completion(controller.program_page(0, 2, 0, 0))
    controller.run_to_completion(controller.erase_block(0, 3))

    _timing_check(analyzer, controller.vendor, lun_count, report,
                  component=f"{kind}-hw")
    return report


def run_all_sanitized(
    spec: ExperimentSpec,
    profile=None,
    report: Optional[DiagnosticReport] = None,
) -> DiagnosticReport:
    """The full `repro sanitize` sweep: BABOL plus (per
    ``spec.campaign.baselines``) both hardware baselines."""
    report = report if report is not None else DiagnosticReport()
    run_babol_sanitized(spec, profile=profile, report=report)
    if spec.campaign is None or spec.campaign.baselines:
        run_baseline_sanitized("sync", spec, profile=profile, report=report)
        run_baseline_sanitized("async", spec, profile=profile, report=report)
    return report
