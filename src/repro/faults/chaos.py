"""The chaos campaign runner: faults in, recovery evidence out.

:func:`run_chaos` runs one seeded :class:`FaultCampaign` against the
BABOL stack (and, optionally, both hardware baselines) and produces a
deterministic JSON-ready report.  Two phases per run, each on a fresh
simulator so fault state never leaks between them:

* **ftl** — a page-mapped FTL pushing an overwrite-heavy workload
  while ``program_fail`` / ``erase_fail`` / ``grown_bad_block`` faults
  fire underneath it.  Recovery evidence is the grown-bad-block
  journal plus the rewrite counter.  Runs against every target: the
  failure/recovery contract is the LUN model's, not BABOL's.
* **ops** — BABOL only.  Four LUNs run concurrent program/read
  workers behind a :class:`RecoveryManager` (watchdog + escalation)
  and a :class:`ReliableReader` (ECC + retry) while ``stuck_busy`` /
  ``die_hang`` / ``transfer_corrupt`` / ``feature_drop`` faults fire.
  Recovery evidence is the recovery and reliability counters, and the
  hung die degrading while its neighbours finish their work.

Each phase also runs fault-free (injector never attached) so the
report can state the *added* tail latency of recovery.  Every number
in the report derives from simulated time and seeded RNGs — two runs
with the same seed produce byte-identical JSON.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Generator, Optional

import numpy as np

from repro.analysis.metrics import summarize_latencies
from repro.config.build import build_baseline, build_controllers, build_stack
from repro.config.specs import (
    FINDINGS_ONLY,
    CampaignSpec,
    ExperimentSpec,
    FtlSpec,
    GeometrySpec,
    StackSpec,
    WorkloadSpec,
)
from repro.core import DieDegraded, OpFailed, RecoveryManager
from repro.core.reliability import ReliableReader
from repro.ecc import BchConfig, BchEngine
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    RECOVERABLE_KINDS,
    FaultCampaign,
    FaultKind,
    FaultSpec,
)
from repro.faults.power import (
    PowerLossError,
    apply_power_cut,
    restore_media,
    snapshot_media,
    versioned_payload,
)
from repro.ftl import FtlConfig, PageMappedFtl
from repro.ftl.badblocks import REASON_ERASE_FAIL, REASON_FACTORY, REASON_PROGRAM_FAIL
from repro.ftl.spor import mount_sharded
from repro.sim import Simulator, WaitProcess

# Kinds exercised through the FTL (media failures the translation layer
# must absorb) vs. through raw controller ops (protocol/bus failures the
# recovery manager and reliable reader must absorb) vs. the power cut,
# which gets its own crash/remount phase (it ends the whole run, so it
# cannot share a phase with anything else).
FTL_KINDS = frozenset({
    FaultKind.PROGRAM_FAIL,
    FaultKind.ERASE_FAIL,
    FaultKind.GROWN_BAD_BLOCK,
})
SPOR_KINDS = frozenset({FaultKind.POWER_CUT})
OPS_KINDS = frozenset(FaultKind) - FTL_KINDS - SPOR_KINDS

# Chaos runs use a shrunken geometry (full code paths, small state) so
# a three-target campaign finishes in seconds.
_FTL_LUNS = 2
_OPS_LUNS = 4
_OPS_PAGES = 3
_FEATURE_LUN = 3
_FEATURE_ADDR = 0x89
_FEATURE_PARAMS = (2, 0, 0, 0)

EXIT_OK = 0
EXIT_UNRECOVERED = 1
EXIT_INTERNAL = 2

# Default nanosecond for the stock campaign's power cut: a few dozen
# writes into the spor phase's workload, well before it finishes.
_SPOR_CUT_NS = 20_000_000


def default_campaign(seed: int = 4) -> FaultCampaign:
    """The stock campaign: every fault kind, one per layer it tests."""
    return FaultCampaign(
        name="chaos-default",
        seed=seed,
        description=(
            "One of every fault kind against a two-phase workload: "
            "media failures through the FTL, protocol failures through "
            "the recovery manager and reliable reader."
        ),
        faults=[
            # -- ftl phase (lun numbering: 0..1) --
            FaultSpec(kind=FaultKind.PROGRAM_FAIL, lun=0, count=1, after_op=6),
            FaultSpec(kind=FaultKind.ERASE_FAIL, lun=0, count=1),
            FaultSpec(kind=FaultKind.GROWN_BAD_BLOCK, lun=1, block=2,
                      pe_threshold=1, count=1),
            # -- ops phase (lun numbering: 0..3) --
            FaultSpec(kind=FaultKind.TRANSFER_CORRUPT, lun=0, count=1,
                      direction="out"),
            FaultSpec(kind=FaultKind.STUCK_BUSY, lun=1, count=1),
            FaultSpec(kind=FaultKind.DIE_HANG, lun=2, count=None),
            FaultSpec(kind=FaultKind.FEATURE_DROP, lun=_FEATURE_LUN, count=1),
            # -- spor phase (crash + remount; timed cut mid-workload) --
            FaultSpec(kind=FaultKind.POWER_CUT, count=1,
                      after_ns=_SPOR_CUT_NS),
        ],
    )


#: The shrunken chaos array as spec data — what :func:`chaos_spec`
#: puts in ``stack.geometry`` (full code paths, tiny state).
CHAOS_GEOMETRY = {
    "page_size": 2048,
    "spare_size": 64,
    "pages_per_block": 16,
    "blocks_per_plane": 16,
    "planes": 2,
}


#: What a chaos spec may not change: every phase fixes its own LUN
#: count, data tracking, die seed (the campaign's), watchdog, error
#: model and FTL, and drives one channel with its own workload.
CHAOS_FIXED = (
    "stack.channels", "stack.luns_per_channel", "stack.track_data",
    "stack.seed", "stack.watchdog", "stack.noiseless", "stack.ftl",
    *FINDINGS_ONLY, "workload",
)


def chaos_spec(vendor: str = "hynix", seed: int = 4,
               baselines: bool = True, fidelity: str = "waveform",
               plan: str = "chaos-default") -> ExperimentSpec:
    """The stock chaos run: where its defaults live, and what
    ``repro chaos`` resolves ``--set`` / ``--spec`` against."""
    spec = ExperimentSpec(
        name="chaos",
        stack=StackSpec(
            vendor=vendor,
            luns_per_channel=_OPS_LUNS,
            fidelity=fidelity,
            factory_bad_rate=0.0,
            geometry=GeometrySpec(**CHAOS_GEOMETRY),
        ),
        workload=WorkloadSpec(),
        campaign=CampaignSpec(plan=plan, seed=seed, baselines=baselines),
    )
    spec.validate()
    return spec


def _percentiles(latencies: list[int]) -> dict:
    """The report's latency block: p50/p99 interpolate like every other
    host latency summary (:func:`~repro.analysis.metrics.summarize_latencies`)."""
    stats = summarize_latencies(latencies)
    return {
        "count": stats.count,
        "p50_ns": stats.p50_ns,
        "p99_ns": stats.p99_ns,
        "max_ns": stats.max_ns,
    }


# ----------------------------------------------------------------------
# Phase 1: media faults through the FTL
# ----------------------------------------------------------------------

def _run_ftl_phase(target: str, stack: StackSpec, profile,
                   campaign: FaultCampaign, inject: bool) -> dict:
    sim = Simulator()
    stack = dataclasses.replace(stack, luns_per_channel=_FTL_LUNS,
                                track_data=False, seed=campaign.seed)
    if target == "babol":
        controller = build_controllers(sim, stack, profile=profile)[0]
    else:
        controller = build_baseline(sim, stack, target.removesuffix("-hw"),
                                    profile=profile)
    ftl = PageMappedFtl(sim, controller, FtlConfig(
        blocks_per_lun=8, overprovision_blocks=4,
    ))
    injector: Optional[FaultInjector] = None
    if inject:
        injector = FaultInjector(campaign, kinds=FTL_KINDS).attach(controller)

    # Enough overwrite passes that GC recycles every block at least
    # once — a grown_bad_block fault needs its block back in rotation
    # past the P/E threshold before it can strike.
    span = max(1, ftl.logical_pages // 2)
    writes = 8 * span
    latencies: list[int] = []
    error = ""

    def workload() -> Generator:
        for i in range(writes):
            start = sim.now
            yield from ftl.write(i % span, 0)
            latencies.append(sim.now - start)

    try:
        sim.run_process(workload())
    except Exception as exc:  # the report carries the failure
        error = f"{type(exc).__name__}: {exc}"
    if injector is not None:
        injector.detach()

    phase = {
        "writes_completed": len(latencies),
        "writes_attempted": writes,
        "latency": _percentiles(latencies),
        "bad_blocks": ftl.bad_blocks.as_dict(),
        "counters": {
            "program_fail_rewrites": ftl.program_fail_rewrites,
            "gc_page_moves": ftl.gc_page_moves,
            "host_writes": ftl.host_writes,
        },
    }
    if error:
        phase["error"] = error
    if injector is not None:
        phase["injected"] = [r.as_dict() for r in injector.records]
        phase["fires_by_kind"] = injector.fires_by_kind()
        phase.update(_ftl_recovery_accounting(ftl, campaign, injector, error))
    return phase


def _ftl_recovery_accounting(ftl: PageMappedFtl, campaign: FaultCampaign,
                             injector: FaultInjector, error: str) -> dict:
    fires = injector.fires_by_kind()
    grown_keys = {
        (spec.lun, spec.block)
        for spec in campaign.faults
        if spec.kind is FaultKind.GROWN_BAD_BLOCK
    }
    recovered = {kind.value: 0 for kind in FTL_KINDS}
    for record in ftl.bad_blocks.journal:
        if record.reason == REASON_FACTORY:
            continue
        if (record.lun, record.block) in grown_keys:
            recovered[FaultKind.GROWN_BAD_BLOCK.value] += 1
        elif record.reason == REASON_PROGRAM_FAIL:
            recovered[FaultKind.PROGRAM_FAIL.value] += 1
        elif record.reason == REASON_ERASE_FAIL:
            recovered[FaultKind.ERASE_FAIL.value] += 1
    recovered = {
        kind: min(count, fires.get(kind, 0))
        for kind, count in sorted(recovered.items())
    }
    # A workload that died mid-flight recovered nothing, whatever the
    # journal says (a retirement that crashed the FTL is not recovery).
    if error:
        recovered = {kind: 0 for kind in recovered}
    unrecovered = {
        kind: fires.get(kind, 0) - recovered[kind] for kind in recovered
    }
    return {"recovered_by_kind": recovered, "unrecovered_by_kind": unrecovered}


# ----------------------------------------------------------------------
# Phase 2: protocol faults through the recovery stack (BABOL only)
# ----------------------------------------------------------------------

def _run_ops_phase(stack: StackSpec, profile, campaign: FaultCampaign,
                   inject: bool) -> dict:
    sim = Simulator()
    # Noiseless: the reliable reader's job here is recovering *injected*
    # bus corruption; background RBER noise would blur the accounting.
    controller = build_controllers(sim, dataclasses.replace(
        stack, luns_per_channel=_OPS_LUNS, track_data=True,
        seed=campaign.seed, watchdog=True, noiseless=True,
    ), profile=profile)[0]
    reader = ReliableReader(
        controller, BchEngine(BchConfig(codeword_bytes=256, t=4)))
    recovery = RecoveryManager(controller)
    injector: Optional[FaultInjector] = None
    if inject:
        injector = FaultInjector(campaign, kinds=OPS_KINDS).attach(controller)

    page_bytes = controller.codec.geometry.full_page_size
    outs = [
        {"programs": 0, "reads": 0, "op_failed": 0, "degraded": False,
         "latencies": []}
        for _ in range(_OPS_LUNS)
    ]
    feature_state = {"readback": None}

    def worker(lun: int, out: dict) -> Generator:
        base = lun * page_bytes
        read_base = (_OPS_LUNS + lun) * page_bytes
        pattern = ((np.arange(page_bytes) * (lun + 3)) % 251).astype(np.uint8)
        if lun == _FEATURE_LUN:
            task = controller.set_features(lun, _FEATURE_ADDR, _FEATURE_PARAMS)
            yield from controller.wait(task)
            task = controller.get_features(lun, _FEATURE_ADDR)
            readback = yield from controller.wait(task)
            if readback is not None:
                feature_state["readback"] = [int(b) for b in readback]
        for page in range(_OPS_PAGES):
            controller.dram.write(base, pattern)
            start = sim.now
            try:
                yield from recovery.program_page(lun, 1, page, base)
            except DieDegraded:
                out["degraded"] = True
                return
            except OpFailed:
                out["op_failed"] += 1
                continue
            out["latencies"].append(sim.now - start)
            out["programs"] += 1
        for page in range(_OPS_PAGES):
            start = sim.now
            try:
                yield from reader.read(lun, 1, page, read_base)
            except DieDegraded:
                out["degraded"] = True
                return
            out["latencies"].append(sim.now - start)
            out["reads"] += 1

    procs = [
        sim.spawn(worker(lun, outs[lun]), name=f"chaos-lun{lun}")
        for lun in range(_OPS_LUNS)
    ]

    def join() -> Generator:
        for proc in procs:
            yield WaitProcess(proc)

    sim.run_process(join())
    if injector is not None:
        injector.detach()

    latencies = [ns for out in outs for ns in out["latencies"]]
    phase = {
        "per_lun": [
            {"lun": i, "programs": out["programs"], "reads": out["reads"],
             "op_failed": out["op_failed"], "degraded": out["degraded"]}
            for i, out in enumerate(outs)
        ],
        "degraded_luns": sorted(recovery.degraded_luns),
        "feature_readback": feature_state["readback"],
        "latency": _percentiles(latencies),
        "counters": {
            "recovery": recovery.stats.as_dict(),
            "reliability": {
                "reads": reader.stats.reads,
                "clean": reader.stats.clean,
                "retried": reader.stats.retried,
                "replica": reader.stats.replica,
                "uncorrectable": reader.stats.uncorrectable,
            },
        },
    }
    if injector is not None:
        phase["injected"] = [r.as_dict() for r in injector.records]
        phase["fires_by_kind"] = injector.fires_by_kind()
        phase.update(_ops_recovery_accounting(recovery, reader, injector,
                                              feature_state["readback"]))
    return phase


def _ops_recovery_accounting(recovery: RecoveryManager,
                             reader: ReliableReader,
                             injector: FaultInjector,
                             feature_readback) -> dict:
    fires = injector.fires_by_kind()
    rstats = recovery.stats
    recovered = {}
    stuck = fires.get(FaultKind.STUCK_BUSY.value, 0)
    recovered[FaultKind.STUCK_BUSY.value] = min(
        stuck, rstats.recovered_by_retry + rstats.recovered_by_reset)
    corrupt = fires.get(FaultKind.TRANSFER_CORRUPT.value, 0)
    recovered[FaultKind.TRANSFER_CORRUPT.value] = min(
        corrupt, reader.stats.retried + reader.stats.replica)
    # A dropped SET FEATURES counts as recovered when it was *observed*
    # (the read-back disagrees with what was written) and no read went
    # uncorrectable because of the stale register.
    drops = fires.get(FaultKind.FEATURE_DROP.value, 0)
    observed = drops > 0 and feature_readback != list(_FEATURE_PARAMS)
    recovered[FaultKind.FEATURE_DROP.value] = (
        drops if observed and reader.stats.uncorrectable == 0 else 0)
    # die_hang is deliberately unrecoverable: the pass criterion is
    # graceful degradation, tallied separately via degraded_luns.
    recovered[FaultKind.DIE_HANG.value] = 0
    unrecovered = {
        kind: fires.get(kind, 0) - count
        for kind, count in sorted(recovered.items())
        if FaultKind(kind) in RECOVERABLE_KINDS
    }
    return {"recovered_by_kind": recovered, "unrecovered_by_kind": unrecovered}


# ----------------------------------------------------------------------
# Phase 3: power cut + SPOR remount (BABOL only)
# ----------------------------------------------------------------------

_SPOR_FTL = FtlSpec(
    blocks_per_lun=10, overprovision_blocks=4,
    checkpoint_interval=24, journal_flush_records=8, meta_blocks=2,
    prefill_pages=0,
)


def _run_spor_phase(stack: StackSpec, profile, campaign: FaultCampaign,
                    inject: bool) -> dict:
    sim = Simulator()
    # Noiseless: content verification must see the stored bytes.
    stack = dataclasses.replace(
        stack, luns_per_channel=_FTL_LUNS, track_data=True,
        seed=campaign.seed, noiseless=True, ftl=_SPOR_FTL,
    )
    (controller,), ftl = build_stack(sim, stack, profile=profile)
    injector: Optional[FaultInjector] = None
    if inject:
        injector = FaultInjector(campaign, kinds=SPOR_KINDS).attach(controller)

    page_bytes = controller.codec.geometry.page_size
    span = max(1, ftl.logical_pages // 2)
    writes = 4 * span
    acked: dict[int, int] = {}
    versions: dict[int, int] = {}
    latencies: list[int] = []
    cut_ns: Optional[int] = None
    error = ""

    def workload() -> Generator:
        for i in range(writes):
            lpn = i % span
            version = versions.get(lpn, 0) + 1
            versions[lpn] = version
            controller.dram.write(0, versioned_payload(lpn, version,
                                                       page_bytes))
            start = sim.now
            yield from ftl.write(lpn, 0)
            latencies.append(sim.now - start)
            acked[lpn] = version

    try:
        sim.run_process(workload())
    except PowerLossError as exc:
        cut_ns = exc.time_ns
    except Exception as exc:  # the report carries the failure
        error = f"{type(exc).__name__}: {exc}"
    if injector is not None:
        injector.detach()

    phase: dict = {
        "writes_acked": len(latencies),
        "writes_attempted": writes,
        "latency": _percentiles(latencies),
    }
    if error:
        phase["error"] = error
    if injector is not None:
        phase["injected"] = [r.as_dict() for r in injector.records]
        phase["fires_by_kind"] = injector.fires_by_kind()
        fired = phase["fires_by_kind"].get(FaultKind.POWER_CUT.value, 0)
        recovered = 0
        violations: list[str] = []
        if fired and cut_ns is not None and not error:
            violations = _spor_crash_and_verify(
                controller, stack, profile, cut_ns, acked, versions, phase)
            recovered = 1 if not violations else 0
        phase["violations"] = violations
        phase["recovered_by_kind"] = {
            FaultKind.POWER_CUT.value: min(recovered, fired)}
        phase["unrecovered_by_kind"] = {
            FaultKind.POWER_CUT.value: fired - min(recovered, fired)}
    return phase


def _spor_crash_and_verify(controller, stack: StackSpec, profile,
                           cut_ns: int, acked: dict, versions: dict,
                           phase: dict) -> list[str]:
    """Finalize the crash, remount on a fresh stack, verify durability."""
    apply_power_cut([controller], cut_ns)
    images = snapshot_media([controller])

    sim2 = Simulator()
    (controller2,) = build_controllers(sim2, stack, profile=profile)
    restore_media([controller2], images)
    ftl2, mount_report = mount_sharded(sim2, [controller2],
                                       stack.ftl.to_ftl_config())
    phase["mount"] = mount_report.as_dict()

    page_bytes = controller2.codec.geometry.page_size
    violations: list[str] = []
    # 1. no mapped LPN may point at a torn page.
    for shard in ftl2.shards:
        for lpn, entry in sorted(shard.map._forward.items()):
            block = shard.controller.luns[entry.lun].array.block(entry.block)
            if entry.page in block.torn:
                violations.append(f"LPN {lpn} mapped to torn page {entry}")
    # 2. every acked write must read back as its acked version (or a
    # newer one the host had already submitted).
    for lpn in sorted(acked):
        if not ftl2.is_mapped(lpn):
            violations.append(f"acked LPN {lpn} unmapped after remount")
            continue

        def check(lpn=lpn) -> Generator:
            yield from ftl2.read(lpn, 0)

        sim2.run_process(check())
        got = controller2.dram.read(0, page_bytes)
        ok = any(
            np.array_equal(got, versioned_payload(lpn, v, page_bytes))
            for v in range(acked[lpn], versions.get(lpn, acked[lpn]) + 1)
        )
        if not ok:
            violations.append(
                f"acked LPN {lpn} content mismatch after remount")
    return violations


# ----------------------------------------------------------------------
# The campaign runner
# ----------------------------------------------------------------------

def run_chaos(spec: ExperimentSpec, profile=None,
              campaign: Optional[FaultCampaign] = None) -> dict:
    """Run the campaign ``spec`` describes; returns the JSON-ready
    report dict.

    Everything comes from the spec: the stack every phase derives its
    own from (``stack.fidelity`` turns every target's template runner
    on or off — fault injection, recovery and retirement accounting are
    tier-independent, so a TLM campaign must reach the same verdicts),
    and the plan, seed and baseline switch in ``spec.campaign``.  The
    two arguments beside it are what data cannot name: ``profile``, an
    unregistered :class:`~repro.flash.vendors.VendorProfile` used as
    is, and ``campaign``, a ready :class:`FaultCampaign` object.
    """
    spec.validate()
    spec.refuse_fixed(chaos_spec(), CHAOS_FIXED, "chaos")
    plan = spec.campaign or CampaignSpec()
    if campaign is None:
        campaign = plan.resolve_campaign()
    campaign.validate()
    stack = spec.stack
    # Sized before any phase runs: the SPOR phase's FTL staging is the
    # campaign's largest DRAM footprint (the FTL phase stages at the
    # same base, the ops phase in the first 2 * _OPS_LUNS pages).
    dataclasses.replace(stack, track_data=True, ftl=_SPOR_FTL).validate()

    targets = ["babol"] + (["sync-hw", "async-hw"] if plan.baselines else [])
    report: dict = {
        "schema": 2,
        "campaign": campaign.to_dict(),
        "vendor": stack.vendor,
        "fidelity": stack.fidelity,
        "spec": spec.resolved(),
        "spec_hash": spec.spec_hash(),
        "targets": {},
    }
    injected_total = 0
    recovered_total = 0
    unrecovered: dict[str, int] = {}
    # Phases whose workload raised with no fault to blame: a faulted run
    # that died before any fault fired, or a fault-free reference run.
    crashed: dict[str, str] = {}
    degraded_luns: list[int] = []

    for target in targets:
        phases = {"ftl": functools.partial(_run_ftl_phase, target)}
        if target == "babol":
            phases.update(ops=_run_ops_phase, spor=_run_spor_phase)
        entry: dict = {}
        for name, run in phases.items():
            faulted, clean = (run(stack, profile, campaign, inject)
                              for inject in (True, False))
            faulted["latency_clean"] = clean["latency"]
            faulted["added_p99_ns"] = (
                faulted["latency"]["p99_ns"] - clean["latency"]["p99_ns"])
            entry[name] = faulted
            injected_total += len(faulted.get("injected", ()))
            recovered_total += sum(
                faulted.get("recovered_by_kind", {}).values())
            for kind, count in faulted.get("unrecovered_by_kind", {}).items():
                if count:
                    unrecovered[f"{target}/{name}/{kind}"] = count
            if "error" in faulted and not faulted.get("injected"):
                crashed[f"{target}/{name}"] = faulted["error"]
            if "error" in clean:
                crashed[f"{target}/{name}/clean"] = clean["error"]
        if target == "babol":
            degraded_luns = entry["ops"]["degraded_luns"]
        report["targets"][target] = entry

    report["summary"] = {
        "injected_total": injected_total,
        "recovered_total": recovered_total,
        "unrecovered_total": sum(unrecovered.values()),
        "unrecovered": unrecovered,
        "crashed": crashed,
        "degraded_luns": degraded_luns,
    }
    report["exit_code"] = (
        EXIT_INTERNAL if crashed else
        EXIT_UNRECOVERED if unrecovered else EXIT_OK)
    return report
