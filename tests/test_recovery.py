"""Tests for the controller recovery stack: watchdog timeouts, the
retry -> RESET -> degrade escalation, FTL bad-block retirement, the
metrics exports, and the chaos campaign runner."""

import json

import numpy as np
import pytest

from repro.core import (
    BabolController,
    ControllerConfig,
    DieDegraded,
    OpFailed,
    RecoveryManager,
    RecoveryPolicy,
    Watchdog,
)
from repro.faults import FaultCampaign, FaultInjector, FaultKind, FaultSpec
from repro.faults.chaos import _percentiles, chaos_spec, run_chaos
from repro.flash.errors import ErrorModelConfig
from repro.ftl import FtlConfig, PageMappedFtl
from repro.ftl.badblocks import (
    REASON_ERASE_FAIL,
    REASON_PROGRAM_FAIL,
    GrownBadBlockTable,
)
from repro.obs import (
    MetricsRegistry,
    register_ftl_health_metrics,
    register_recovery_metrics,
    register_reliability_metrics,
)
from repro.onfi.geometry import PhysicalAddress
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE

PAGE_BYTES = TEST_PROFILE.geometry.full_page_size


def make_guarded(lun_count=2, seed=7, faults=(), policy=None):
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                         runtime="rtos", track_data=False, seed=seed,
                         watchdog=Watchdog.for_vendor(TEST_PROFILE)),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    injector = None
    if faults:
        injector = FaultInjector(
            FaultCampaign(name="t", seed=seed, faults=list(faults)))
        injector.attach(controller)
    recovery = RecoveryManager(controller, policy=policy)
    return sim, controller, recovery, injector


def fill_page(controller, dram_address=0):
    data = (np.arange(PAGE_BYTES) % 239).astype(np.uint8)
    controller.dram.write(dram_address, data)
    return data


# --- watchdog ---------------------------------------------------------------


def test_watchdog_budget_must_be_positive():
    with pytest.raises(ValueError):
        Watchdog(budget_ns=0)


def test_watchdog_for_vendor_covers_slowest_array_time():
    wd = Watchdog.for_vendor(TEST_PROFILE, multiplier=4.0)
    assert wd.budget_ns == 4 * TEST_PROFILE.timing.t_bers_ns


def test_hung_op_sets_task_error_and_env_survives():
    sim, controller, recovery, injector = make_guarded(faults=[
        FaultSpec(kind=FaultKind.DIE_HANG, lun=0, count=None)])
    fill_page(controller)
    task = controller.program_page(0, 1, 0, 0)
    result = controller.run_to_completion(task)
    assert result is None
    assert task.error is not None
    assert "watchdog" in str(task.error)
    assert controller.env.tasks_failed == 1
    # The scheduler survived: LUN 1 still serves ops on the same env.
    ok = controller.run_to_completion(controller.erase_block(1, 2))
    assert ok is True


def test_recovery_manager_requires_a_watchdog():
    sim = Simulator()
    controller = BabolController(
        sim, ControllerConfig(vendor=TEST_PROFILE, lun_count=1,
                              runtime="rtos", track_data=False))
    with pytest.raises(ValueError):
        RecoveryManager(controller)


# --- escalation -------------------------------------------------------------


def test_stuck_busy_recovers_via_reset():
    sim, controller, recovery, injector = make_guarded(faults=[
        FaultSpec(kind=FaultKind.STUCK_BUSY, lun=0, count=1)])
    fill_page(controller)
    ok = sim.run_process(recovery.program_page(0, 1, 0, 0))
    assert ok is True
    stats = recovery.stats
    assert stats.timeouts == 1
    assert stats.resets == 1
    assert stats.recovered_by_reset == 1
    assert stats.degraded == 0
    assert recovery.degraded_luns == set()


def test_slow_die_recovers_via_status_retry():
    # A stretched-but-finite busy, slow enough to blow the watchdog
    # budget (4 x tBERS = 20 x tPROG here): stage 1's backoff re-poll
    # finds the die ready again and re-issues without ever resetting.
    policy = RecoveryPolicy(max_status_retries=8,
                            backoff_ns=TEST_PROFILE.timing.t_prog_ns)
    sim, controller, recovery, injector = make_guarded(policy=policy, faults=[
        FaultSpec(kind=FaultKind.STUCK_BUSY, lun=0, count=1, stretch=30.0)])
    fill_page(controller)
    ok = sim.run_process(recovery.program_page(0, 1, 0, 0))
    assert ok is True
    assert recovery.stats.recovered_by_retry == 1
    assert recovery.stats.resets == 0


# A fault's ``after_op`` counts the busies the die opens: per pair of
# the eight writes (a program chain, two planes) its queue cycle (tDBSY)
# and its tPROG.
@pytest.mark.parametrize("fidelity", ["waveform", "tlm"])
@pytest.mark.parametrize("kind,after_op", [
    (FaultKind.STUCK_BUSY, 0), (FaultKind.STUCK_BUSY, 5),
    (FaultKind.STUCK_BUSY, 6), (FaultKind.DIE_HANG, 0),
    (FaultKind.DIE_HANG, 1), (FaultKind.DIE_HANG, 6),
])
def test_a_timed_out_op_holds_its_die_for_the_writes_behind(
        fidelity, kind, after_op):
    """Eight concurrent writes on one die, each through a recovery
    manager: a timeout leaves the die busy (a 30x stretched busy, or a
    hang a RESET ends), and no queued write is latched on it before it
    is ready or reset — every write is acked and reads back."""
    sim = Simulator()
    controller = BabolController(sim, ControllerConfig(
        vendor=TEST_PROFILE, lun_count=1, runtime="rtos", track_data=True,
        seed=7, fidelity=fidelity, watchdog=Watchdog.for_vendor(TEST_PROFILE)))
    array = controller.luns[0].array
    array.error_model.config = ErrorModelConfig.noiseless()
    stretch = {"stretch": 30.0} if kind is FaultKind.STUCK_BUSY else {}
    FaultInjector(FaultCampaign(name="held", seed=7, faults=[FaultSpec(
        kind=kind, lun=0, count=1, after_op=after_op, **stretch)])
    ).attach(controller)
    recovery = RecoveryManager(controller, policy=RecoveryPolicy(
        max_status_retries=8, backoff_ns=TEST_PROFILE.timing.t_prog_ns))
    targets = [(block, page) for page in range(4) for block in (4, 5)]
    acks, data = {}, {}

    def writer(index, block, page):
        data[block, page] = (np.arange(PAGE_BYTES) * (index + 3) % 251
                             ).astype(np.uint8)
        controller.dram.write(PAGE_BYTES * index, data[block, page])
        acks[block, page] = yield from recovery.program_page(
            0, block, page, PAGE_BYTES * index)

    for index, (block, page) in enumerate(targets):
        sim.spawn(writer(index, block, page), name=f"writer{index}")
    sim.run()
    assert acks == {target: True for target in targets}
    for (block, page), payload in data.items():
        got = array.pristine_page(PhysicalAddress(block, page))
        assert got.tobytes() == payload.tobytes(), (block, page)
    assert recovery.stats.timeouts >= 1 and recovery.stats.degraded == 0


def test_die_hang_degrades_and_isolates():
    sim, controller, recovery, injector = make_guarded(faults=[
        FaultSpec(kind=FaultKind.DIE_HANG, lun=0, count=None)])
    fill_page(controller)
    with pytest.raises(DieDegraded):
        sim.run_process(recovery.program_page(0, 1, 0, 0))
    assert recovery.degraded_luns == {0}
    assert recovery.stats.degraded == 1
    assert recovery.stats.resets == 1          # the RESET was tried and hung
    # Subsequent ops against the dead die fail fast, no simulation time.
    with pytest.raises(DieDegraded):
        sim.run_process(recovery.program_page(0, 1, 1, 0))
    assert recovery.stats.rejected_on_degraded == 1
    # The neighbour die is untouched.
    ok = sim.run_process(recovery.program_page(1, 1, 0, 0))
    assert ok is True


def test_program_fail_surfaces_as_op_failed():
    sim, controller, recovery, injector = make_guarded(faults=[
        FaultSpec(kind=FaultKind.PROGRAM_FAIL, lun=0, count=1)])
    fill_page(controller)
    with pytest.raises(OpFailed):
        sim.run_process(recovery.program_page(0, 1, 0, 0))
    assert recovery.stats.op_failures == 1
    ok = sim.run_process(recovery.program_page(0, 1, 1, 0))
    assert ok is True


# --- FTL retirement journal -------------------------------------------------


def test_grown_bad_block_table_journal():
    table = GrownBadBlockTable()
    record = table.retire(100, 0, 7, REASON_PROGRAM_FAIL, pe_cycles=12)
    again = table.retire(200, 0, 7, REASON_ERASE_FAIL)   # no-op: first wins
    assert again is record
    assert (0, 7) in table
    assert len(table) == 1
    assert table.record_for(0, 7).pe_cycles == 12
    assert table.counts_by_reason() == {REASON_PROGRAM_FAIL: 1}
    assert table.as_dict()[0]["reason"] == REASON_PROGRAM_FAIL


def test_ftl_journals_program_fail_retirement():
    sim = Simulator()
    controller = BabolController(
        sim, ControllerConfig(vendor=TEST_PROFILE, lun_count=1,
                              runtime="rtos", track_data=False, seed=4))
    controller.luns[0].array.error_model.config = ErrorModelConfig.noiseless()
    ftl = PageMappedFtl(sim, controller, FtlConfig(
        blocks_per_lun=8, overprovision_blocks=3,
        gc_staging_base=8 * 1024 * 1024))
    injector = FaultInjector(FaultCampaign(name="t", seed=4, faults=[
        FaultSpec(kind=FaultKind.PROGRAM_FAIL, lun=0, count=1, after_op=2)]))
    injector.attach(controller)

    def workload():
        for lpn in range(8):
            yield from ftl.write(lpn, 0)

    sim.run_process(workload())
    assert injector.fires_by_kind() == {"program_fail": 1}
    assert ftl.program_fail_rewrites == 1
    journal = ftl.bad_blocks.journal
    assert len(journal) == 1
    assert journal[0].reason == REASON_PROGRAM_FAIL
    # The historical view and the table agree.
    assert set(ftl.retired_blocks) == set(ftl.bad_blocks.blocks())
    # Every written page is still readable (the rewrite worked).
    def readback():
        for lpn in range(8):
            yield from ftl.read(lpn, 0)
    sim.run_process(readback())


# --- metrics exports --------------------------------------------------------


def test_recovery_and_reliability_metrics_registered():
    from repro.core.reliability import ReliableReader
    from repro.ecc import BchConfig, BchEngine

    sim, controller, recovery, injector = make_guarded()
    reader = ReliableReader(
        controller, BchEngine(BchConfig(codeword_bytes=256, t=4)))
    ftl = PageMappedFtl(sim, controller, FtlConfig(
        blocks_per_lun=8, overprovision_blocks=3,
        gc_staging_base=8 * 1024 * 1024))
    registry = MetricsRegistry()
    register_recovery_metrics(registry, recovery, prefix="chaos")
    register_reliability_metrics(registry, reader, prefix="chaos")
    register_ftl_health_metrics(registry, ftl, prefix="chaos")
    collected = registry.snapshot()["collected"]
    assert collected["chaos.recovery"]["timeouts"] == 0
    assert collected["chaos.recovery"]["degraded_luns"] == []
    assert collected["chaos.reliability"]["uncorrectable"] == 0
    assert collected["chaos.ftl_health"]["bad_blocks"] == 0
    assert collected["chaos.ftl_health"]["gc_write_stalls"] == 0
    ftl.gc_write_stalls = 2
    assert registry.snapshot()["collected"]["chaos.ftl_health"][
        "gc_write_stalls"] == 2
    recovery.stats.timeouts = 3
    recovery.degraded_luns.add(1)
    collected = registry.snapshot()["collected"]
    assert collected["chaos.recovery"]["timeouts"] == 3
    assert collected["chaos.recovery"]["degraded_luns"] == [1]


# --- the chaos runner -------------------------------------------------------


def test_chaos_latency_percentiles_interpolate_like_numpy():
    samples = [100, 200, 300, 400]
    block = _percentiles(samples)
    assert block == {"count": 4, "p50_ns": 250.0, "p99_ns": 397.0,
                     "max_ns": 400}
    assert [block["p50_ns"], block["p99_ns"]] == list(
        np.percentile(samples, [50, 99]))


@pytest.mark.slow_waveform
def test_chaos_campaign_recovers_and_is_deterministic():
    report = run_chaos(chaos_spec(seed=4, baselines=False))
    summary = report["summary"]
    babol = report["targets"]["babol"]

    # At least five distinct kinds actually fired...
    fired = set(babol["ftl"]["fires_by_kind"]) | set(
        babol["ops"]["fires_by_kind"])
    assert len(fired) >= 5
    # ...every recoverable fault recovered...
    assert summary["unrecovered_total"] == 0
    assert report["exit_code"] == 0
    # ...the grown bad block is in the table...
    grown = [r for r in babol["ftl"]["bad_blocks"]
             if (r["lun"], r["block"]) == (1, 2)]
    assert grown and grown[0]["pe_cycles"] >= 1
    # ...and the hung die degraded while its neighbours finished.
    assert summary["degraded_luns"] == [2]
    for row in babol["ops"]["per_lun"]:
        if row["lun"] == 2:
            assert row["degraded"]
        else:
            assert row["programs"] == 3 and row["reads"] == 3

    # Same seed, same campaign: byte-identical report.
    again = run_chaos(chaos_spec(seed=4, baselines=False))
    assert json.dumps(report, sort_keys=True) == json.dumps(
        again, sort_keys=True)


def test_a_target_that_crashes_before_any_fault_fails_the_campaign(
        monkeypatch, capsys):
    # A baseline whose every program raises dies before the campaign's
    # first fault can fire: no fault to blame, so the harness broke.
    from repro.baselines.sync_hw import SyncHwController
    from repro.cli import main

    def broken(self, *args, **kwargs):
        raise RuntimeError("program path broke")

    monkeypatch.setattr(SyncHwController, "program_page", broken)
    assert main(["chaos", "--set", "stack.fidelity=tlm"]) == 2
    out = capsys.readouterr().out
    assert "CRASHED sync-hw/ftl: RuntimeError: program path broke" in out
    assert "CRASHED sync-hw/ftl/clean: RuntimeError" in out
    assert "async-hw" not in out and "babol" not in out
