"""Tests for sudden-power-off recovery: the SPOR mount path rebuilding
a ShardedFtl from crashed media, including torn-page resolution,
checkpoint fallback, and double crashes."""

import numpy as np
import pytest

from repro.core import BabolController, ControllerConfig
from repro.flash.errors import ErrorModelConfig
from repro.faults.power import (
    PowerCut,
    PowerLossError,
    apply_power_cut,
    restore_media,
    snapshot_media,
)
from repro.ftl import FtlConfig, ShardedFtl
from repro.ftl.ftl import FtlError
from repro.ftl.spor import mount_sharded
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE

PAGE = TEST_PROFILE.geometry.page_size
T_PROG = TEST_PROFILE.timing.t_prog_ns

CONFIG = FtlConfig(blocks_per_lun=10, overprovision_blocks=4,
                   checkpoint_interval=16, journal_flush_records=4,
                   meta_blocks=2, gc_staging_base=48 * 1024 * 1024)


def payload(lpn, version):
    data = np.full(PAGE, (lpn * 37 + version * 101) % 251, dtype=np.uint8)
    data[0] = lpn & 0xFF
    data[1] = version & 0xFF
    return data


def make_stack(seed=3):
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=2, runtime="rtos",
                         track_data=True, seed=seed),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    ftl = ShardedFtl(sim, [controller], CONFIG)
    return sim, controller, ftl


def write_plan(count, span=40):
    versions = {}
    plan = []
    for i in range(count):
        lpn = (i * 7) % span
        versions[lpn] = versions.get(lpn, 0) + 1
        plan.append((lpn, versions[lpn]))
    return plan


def run_workload(sim, controller, ftl, plan, acked):
    def workload():
        for lpn, version in plan:
            controller.dram.write(0, payload(lpn, version))
            yield from ftl.write(lpn, 0)
            acked.append((lpn, version))

    sim.run_process(workload())


def remount(controller, seed=77):
    images = snapshot_media([controller])
    sim2 = Simulator()
    controller2 = BabolController(
        sim2,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=2, runtime="rtos",
                         track_data=True, seed=seed),
    )
    for lun in controller2.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    restore_media([controller2], images)
    ftl2, report = mount_sharded(sim2, [controller2], CONFIG)
    return sim2, controller2, ftl2, report


def verify_acked(sim2, controller2, ftl2, acked):
    """Every acked write must read back as its version or a newer one."""
    latest = {}
    newest = {}
    for lpn, version in acked:
        latest[lpn] = max(latest.get(lpn, 0), version)
    for lpn, version in acked:
        newest[lpn] = version  # plan order == submission order
    for lpn in sorted(latest):
        assert ftl2.is_mapped(lpn), f"acked LPN {lpn} unmapped"

        def read(lpn=lpn):
            yield from ftl2.read(lpn, 0)

        sim2.run_process(read())
        got = controller2.dram.read(0, PAGE)
        ok = any(np.array_equal(got, payload(lpn, v))
                 for v in range(latest[lpn], newest[lpn] + 1))
        assert ok, f"LPN {lpn} rolled back past its acked version"


def assert_no_torn_served(ftl2):
    for shard in ftl2.shards:
        for lpn, entry in shard.map._forward.items():
            block = shard.controller.luns[entry.lun].array.block(entry.block)
            assert entry.page not in block.torn, \
                f"LPN {lpn} mapped to a torn page"


def test_clean_mount_recovers_all_writes():
    sim, controller, ftl = make_stack()
    acked = []
    run_workload(sim, controller, ftl, write_plan(60), acked)
    durable_wear = [shard.persist.durable_wear() for shard in ftl.shards]
    sim2, controller2, ftl2, report = remount(controller)
    verify_acked(sim2, controller2, ftl2, acked)
    assert_no_torn_served(ftl2)
    assert report.torn_pages_discarded == 0
    for shard, wear in zip(ftl2.shards, durable_wear):
        assert shard.wear.counts == wear


def test_crash_mid_workload_keeps_every_acked_write():
    plan = write_plan(80)
    sim, controller, ftl = make_stack()
    acked = []
    cut_ns = sim.now + 40 * T_PROG
    PowerCut(sim, cut_ns).arm([controller])
    with pytest.raises(PowerLossError):
        run_workload(sim, controller, ftl, plan, acked)
    assert 0 < len(acked) < len(plan)  # the cut landed mid-run
    apply_power_cut([controller], cut_ns)
    sim2, controller2, ftl2, report = remount(controller)
    assert report.unsafe_shutdowns == len(ftl2.shards)
    verify_acked(sim2, controller2, ftl2, acked)
    assert_no_torn_served(ftl2)


def test_crash_during_checkpoint_falls_back_to_previous():
    sim, controller, ftl = make_stack()
    acked = []
    run_workload(sim, controller, ftl, write_plan(40), acked)
    shard = ftl.shards[0]
    prev_id = shard.persist.checkpoint_id
    assert prev_id > 0  # checkpoint_interval=16 guarantees one landed

    # Kill power in the middle of the next checkpoint's first chunk
    # program: the torn chunk must not count, and the mount must fall
    # back to the complete checkpoint already on media.
    cut_ns = sim.now + T_PROG // 2
    PowerCut(sim, cut_ns).arm([controller])
    with pytest.raises(PowerLossError):
        sim.run_process(shard.persist.checkpoint())
    assert shard.persist.checkpoint_id == prev_id  # never committed
    apply_power_cut([controller], cut_ns)
    sim2, controller2, ftl2, report = remount(controller)
    assert report.checkpoints_used == [prev_id]
    assert report.torn_pages_discarded >= 1  # the torn checkpoint chunk
    verify_acked(sim2, controller2, ftl2, acked)


def test_double_crash_recovers_from_remounted_state():
    # Crash #1 mid-workload, remount, then crash #2 during the *next*
    # workload on the recovered FTL.  The second mount must still serve
    # everything acked before either crash.
    plan = write_plan(80)
    sim, controller, ftl = make_stack()
    acked = []
    cut_ns = sim.now + 40 * T_PROG
    PowerCut(sim, cut_ns).arm([controller])
    with pytest.raises(PowerLossError):
        run_workload(sim, controller, ftl, plan, acked)
    apply_power_cut([controller], cut_ns)

    sim2, controller2, ftl2, report2 = remount(controller)
    verify_acked(sim2, controller2, ftl2, acked)

    plan2 = [(lpn, ver + 100) for lpn, ver in write_plan(40)]
    acked2 = []
    cut2_ns = sim2.now + 20 * T_PROG
    PowerCut(sim2, cut2_ns).arm([controller2])
    with pytest.raises(PowerLossError):
        run_workload(sim2, controller2, ftl2, plan2, acked2)
    assert acked2  # the second crash also landed mid-run
    apply_power_cut([controller2], cut2_ns)

    sim3, controller3, ftl3, report3 = remount(controller2, seed=78)
    # Versions 100+ supersede everything from the first epoch.
    survivors = {lpn for lpn, _ in acked2}
    verify_acked(sim3, controller3, ftl3,
                 [(lpn, ver) for lpn, ver in acked if lpn not in survivors]
                 + acked2)
    assert_no_torn_served(ftl3)


def test_trim_checkpoint_crash_does_not_resurrect():
    # trim -> checkpoint -> crash -> mount: the checkpoint absorbs (and
    # clears) the REC_TRIM journal record, so the tombstone serialized
    # *in* the checkpoint is the only durable floor.  Without it the
    # mount's OOB scan would resurrect the pre-trim version from the
    # still-uncollected page.
    sim, controller, ftl = make_stack()
    acked = []
    run_workload(sim, controller, ftl, write_plan(40), acked)
    victim = acked[0][0]
    assert ftl.is_mapped(victim)
    ftl.trim(victim)
    shard = ftl.shards[0]
    sim.run_process(shard.persist.checkpoint())
    assert shard.persist.durable_journal == []  # the trim was absorbed
    assert any(lpn == victim
               for lpn, _ in shard.persist.checkpoint_state["trim"])

    cut_ns = sim.now + 1
    apply_power_cut([controller], cut_ns)
    sim2, controller2, ftl2, report = remount(controller)
    assert not ftl2.is_mapped(victim), \
        "trimmed LPN resurrected from uncollected pages after remount"
    verify_acked(sim2, controller2, ftl2,
                 [(lpn, ver) for lpn, ver in acked if lpn != victim])
    assert_no_torn_served(ftl2)


def test_interrupted_erase_is_reissued_before_reuse():
    sim, controller, ftl = make_stack()
    acked = []
    run_workload(sim, controller, ftl, write_plan(20), acked)
    # Interrupt an erase on a block the FTL holds free: the media reads
    # erased but the cycle never completed.
    shard = ftl.shards[0]
    free_block = shard._luns[1].free[0]
    controller.luns[1].array.interrupt_erase(free_block)
    sim2, controller2, ftl2, report = remount(controller)
    assert report.erases_reissued == 1
    assert not controller2.luns[1].array.block(free_block).erase_interrupted
    verify_acked(sim2, controller2, ftl2, acked)


def test_mount_keeps_the_capacity_when_blocks_wore_out():
    # Three blocks of each LUN wear out during the run, leaving each one
    # spare block short of the two-block floor.  The mount's bad-block
    # scan sees them, but the shard must keep the capacity and shares it
    # was formatted with (factory defects only), or the acked LPNs at
    # the top of the range would fall outside the rebuilt map.
    sim, controller, ftl = make_stack()
    shard = ftl.shards[0]
    top = ftl.logical_pages - 1
    acked = []
    run_workload(sim, controller, ftl,
                 write_plan(60) + [(top, 1), (top - 1, 1)], acked)
    for lun, blocks in enumerate(shard._luns):
        for block in list(blocks.free)[-3:]:
            controller.luns[lun].array.block(block).worn_out = True

    sim2, controller2, ftl2, _ = remount(controller)
    mounted = ftl2.shards[0]
    assert ftl2.logical_pages == ftl.logical_pages
    assert mounted._share == shard._share
    assert len(mounted.retired_blocks) == 6
    verify_acked(sim2, controller2, ftl2, acked)


def test_mount_requires_persistence():
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=1, runtime="rtos",
                         track_data=True, seed=1),
    )
    volatile = FtlConfig(blocks_per_lun=8, overprovision_blocks=2,
                         checkpoint_interval=0,
                         gc_staging_base=48 * 1024 * 1024)
    with pytest.raises(FtlError):
        mount_sharded(sim, [controller], volatile)


def test_mount_rebuilds_the_placement_counters():
    # Crash with writes in flight on a full FTL, mount, and the mounted
    # shard must count exactly what its rebuilt blocks hold, with no
    # die work outstanding — else the valid-share cap works from zero
    # and random overwrites at full prefill run a LUN out of blocks.
    sim, controller, ftl = make_stack()
    ftl.prefill(ftl.logical_pages)
    rng = np.random.default_rng(5)

    def writer(lpns):
        for lpn in lpns:
            yield from ftl.write(lpn, 0)

    streams = [rng.integers(0, ftl.logical_pages, 60).tolist()
               for _ in range(4)]
    for k, lpns in enumerate(streams):
        sim.spawn(writer(lpns), name=f"writer{k}")
    cut_ns = sim.now + 30 * T_PROG
    PowerCut(sim, cut_ns).arm([controller])
    with pytest.raises(PowerLossError):
        sim.run()
    assert any(ftl.shards[0]._pending)  # the cut caught die work
    apply_power_cut([controller], cut_ns)

    sim2, controller2, ftl2, _ = remount(controller)
    shard = ftl2.shards[0]
    assert shard._pending == [0, 0]
    shard.check_invariants()
    assert sum(shard._lun_valid) == shard.map.mapped_count

    streams = [rng.integers(0, ftl2.logical_pages, 150).tolist()
               for _ in range(4)]
    done = []

    def writer2(lpns):
        for lpn in lpns:
            yield from ftl2.write(lpn, 0)
            done.append(lpn)

    for k, lpns in enumerate(streams):
        sim2.spawn(writer2(lpns), name=f"writer{k}")
    sim2.run()
    assert len(done) == 4 * 150
    shard.check_invariants()
    shard.map.check_invariants()
