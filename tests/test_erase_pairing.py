"""Two victims, one tBERS: GC reclaims blocks in plane pairs with one
multi-plane ERASE, on both fidelity tiers.

``paired_erase`` is the multi-plane ERASE sequence (each block but the
last queued with 0xD1, the last confirmed with 0xD0: one tBERS), then
READ STATUS ENHANCED per block, so each block gets its own pass/fail.
The controller offers it as ``erase_pair`` (``pairs_erases``) on a
multi-plane die whose vendor keeps the stock ERASE.  When a LUN's collector claims a victim it
also claims a partner: the policy's pick among the LUN's closed blocks
on another plane, taken only if moving its valid pages costs less die
time than the erase it saves (``valid x (tR + tPROG) < tBERS``).
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.baselines.async_hw import AsyncHwController
from repro.core import BabolController, ControllerConfig
from repro.core.opir.programs import erase_block_program
from repro.faults.power import (
    PowerCut,
    PowerLossError,
    apply_power_cut,
    restore_media,
    snapshot_media,
)
from repro.flash.errors import ErrorModelConfig
from repro.flash.lun import Lun
from repro.ftl import FtlConfig, PageMappedFtl, ShardedFtl
from repro.ftl.badblocks import REASON_ERASE_FAIL
from repro.ftl.ftl import BlockInfo
from repro.ftl.mapping import MapEntry
from repro.ftl.spor import mount_sharded
from repro.sim import Simulator, Timeout

from tests.helpers import TEST_GEOMETRY, TEST_PROFILE

PAGE = TEST_PROFILE.geometry.page_size
TIERS = ["waveform", "tlm"]


def _plane(block):
    return block % TEST_GEOMETRY.planes


def _controller(sim, fidelity, vendor=TEST_PROFILE, lun_count=1,
                track_data=True, seed=3):
    controller = BabolController(sim, ControllerConfig(
        vendor=vendor, lun_count=lun_count, runtime="rtos",
        track_data=track_data, seed=seed, fidelity=fidelity))
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    return controller


def _payload(lpn, version):
    data = np.full(PAGE, (lpn * 37 + version * 101) % 251, dtype=np.uint8)
    data[0] = lpn & 0xFF
    data[1] = version & 0xFF
    return data


@pytest.fixture
def array_erases(monkeypatch):
    """Every erase the dies start, as ``(LUN, blocks, begun, tBERS)``."""
    started = []
    stock = Lun._ARRAY_OPS["erase"]

    def recording(lun, spec, targets, duration, mode):
        started.append((lun.position, tuple(t.block for t in targets),
                        lun._now(), duration))
        return stock(lun, spec, targets, duration, mode)

    monkeypatch.setitem(Lun._ARRAY_OPS, "erase", recording)
    return started


# ---------------------------------------------------------------------------
# The op: one tBERS, one bool per block
# ---------------------------------------------------------------------------


def _programmed(controller, blocks):
    for block in blocks:
        controller.dram.write(0, _payload(block, 1))
        assert controller.run_to_completion(
            controller.program_page(0, block, 0, 0))


@pytest.mark.parametrize("fidelity", TIERS)
def test_one_bool_per_block(fidelity):
    """A worn-out block fails its own status only; the other erases."""
    sim = Simulator()
    controller = _controller(sim, fidelity)
    _programmed(controller, (12, 13))
    array = controller.luns[0].array
    array.block(13).worn_out = True
    task = controller.erase_pair(0, (12, 13))
    assert controller.run_to_completion(task) == (True, False)
    assert array.block(12).erase_count == 1
    assert not array.block(12).is_programmed(0)
    assert array.block(13).is_programmed(0)
    assert controller.luns[0].op_counts["READ_STATUS_ENHANCED"] == 2
    if fidelity == "tlm":
        assert controller.fast_ops.ops_templated == \
            controller.fast_ops.ops_planned == 3


def _suspended_pair(fidelity):
    """A class-0 read arrives a third into a paired erase."""
    sim = Simulator()
    controller = _controller(sim, fidelity)
    _programmed(controller, (1, 12, 13))
    t_bers = TEST_PROFILE.timing.t_bers_ns

    def drive():
        erase = controller.erase_pair(0, (12, 13), priority=2)
        yield Timeout(t_bers // 3)
        read = controller.read_page(0, 1, 0, PAGE, priority=0)
        passed = yield from controller.wait(erase)
        yield from controller.wait(read)
        return erase, read, passed

    erase, read, passed = sim.run_process(drive())
    lun = controller.luns[0]
    return {
        "passed": passed,
        "read_first": read.finished_at < erase.finished_at,
        "data": controller.dram.read(PAGE, PAGE).tobytes(),
        "erases": [lun.array.block(b).erase_count for b in (12, 13)],
        "programmed": [lun.array.block(b).is_programmed(0)
                       for b in (12, 13)],
        "status": lun.status.value(),
        # a template polls once per wait
        "op_counts": {name: count for name, count in lun.op_counts.items()
                      if name != "READ_STATUS"},
    }


def test_a_read_suspends_a_paired_erase_alike_on_both_tiers():
    wave = _suspended_pair("waveform")
    tlm = _suspended_pair("tlm")
    assert wave["passed"] == (True, True)
    assert wave["read_first"]
    assert wave["data"] == _payload(1, 1).tobytes()
    assert wave["erases"] == [1, 1] and wave["programmed"] == [False, False]
    assert wave["op_counts"]["VENDOR_SUSPEND"] == 1
    assert tlm == wave


def test_erase_pair_is_offered_only_on_multi_plane_stock_erase_dies():
    sim = Simulator()
    assert _controller(sim, "tlm").pairs_erases
    one_plane = dataclasses.replace(TEST_PROFILE, geometry=dataclasses.replace(
        TEST_GEOMETRY, planes=1, blocks_per_plane=64))
    assert not _controller(sim, "tlm", vendor=one_plane).pairs_erases
    custom = TEST_PROFILE.with_op_override("erase_block", erase_block_program)
    assert not _controller(sim, "tlm", vendor=custom).pairs_erases


# ---------------------------------------------------------------------------
# The collector: who may be a partner
# ---------------------------------------------------------------------------


def _ftl(sim, fidelity="tlm", config=None, **kwargs):
    controller = _controller(sim, fidelity, **kwargs)
    ftl = PageMappedFtl(sim, controller, config or FtlConfig(
        blocks_per_lun=12, overprovision_blocks=4))
    return controller, ftl


def _closed(ftl, block, valid):
    info = BlockInfo(lun=0, block=block, capacity=ftl.pages_per_block,
                     write_ptr=ftl.pages_per_block, valid=set(range(valid)))
    ftl._luns[0].closed.append(info)
    return info


def test_a_partner_comes_from_another_plane_under_the_cost_rule():
    sim = Simulator()
    _, ftl = _ftl(sim)
    timing = TEST_PROFILE.timing
    # tBERS / (tR + tPROG) = 4: a partner may hold at most 3 valid pages.
    most = -(-timing.t_bers_ns // (timing.t_read_ns + timing.t_prog_ns)) - 1
    assert most == 3
    victim = _closed(ftl, 6, 1)
    ftl._luns[0].closed.remove(victim)
    _closed(ftl, 4, 0)            # the greedy pick, but on the same plane
    wanted = _closed(ftl, 3, most)
    _closed(ftl, 5, most + 1)
    assert _plane(victim.block) == _plane(4) != _plane(3) == _plane(5)
    assert ftl._claim_partner(victim) is wanted
    assert wanted not in ftl._luns[0].closed
    # The next pick on the other plane costs more than the erase saves.
    assert ftl._claim_partner(victim) is None
    assert [info.block for info in ftl._luns[0].closed] == [4, 5]


def test_no_partner_without_erase_pair_or_room():
    sim = Simulator()
    _, ftl = _ftl(sim)
    victim = _closed(ftl, 6, 10)
    ftl._luns[0].closed.remove(victim)
    partner = _closed(ftl, 3, 3)
    ftl._luns[0].free.clear()  # GC's open block alone must take both
    ftl._luns[0].gc = BlockInfo(lun=0, block=8, capacity=16, write_ptr=4)
    assert ftl._claim_partner(victim) is None  # 13 pages, room for 12
    ftl._luns[0].gc.write_ptr = 3
    assert ftl._claim_partner(victim) is partner
    sim = Simulator()
    _, ftl = _ftl(sim)
    ftl._erase_pair = None  # a controller without the wrapper
    victim = _closed(ftl, 6, 1)
    ftl._luns[0].closed.remove(victim)
    _closed(ftl, 3, 0)
    assert ftl._claim_partner(victim) is None


# ---------------------------------------------------------------------------
# The collector at work
# ---------------------------------------------------------------------------


def _churn(controller, ftl, writers=4, writes=100, lpns=16):
    """Overwrites from ``writers`` processes, each on its own LPNs;
    returns the last version written per LPN."""
    last = {}

    def writer(k):
        for i in range(writes):
            lpn = (i * 7) % lpns * writers + k
            last[lpn] = version = last.get(lpn, 0) + 1
            controller.dram.write(PAGE * (2 + k), _payload(lpn, version))
            yield from ftl.write(lpn, PAGE * (2 + k))

    for k in range(writers):
        ftl.sim.spawn(writer(k), name=f"writer{k}")
    ftl.sim.run()
    return last


def _reads_back(controller, ftl, last):
    for lpn, version in sorted(last.items()):
        ftl.sim.run_process(ftl.read(lpn, 0))
        assert np.array_equal(controller.dram.read(0, PAGE),
                              _payload(lpn, version)), lpn


@pytest.mark.parametrize("fidelity", TIERS)
def test_the_collector_erases_plane_pairs_in_one_tbers(fidelity, array_erases):
    sim = Simulator()
    controller, ftl = _ftl(sim, fidelity)
    last = _churn(controller, ftl)
    pairs = [blocks for _, blocks, _, _ in array_erases if len(blocks) == 2]
    singles = [blocks for _, blocks, _, _ in array_erases if len(blocks) == 1]
    assert pairs, "the run paired no erases"
    for a, b in pairs:
        assert _plane(a) != _plane(b)
    # gc_runs counts victims, not erases.
    assert ftl.gc_runs == 2 * len(pairs) + len(singles)
    assert sum(controller.luns[0].array.block(b).erase_count
               for b in range(12)) == ftl.gc_runs
    assert ftl.retired_blocks == []
    _reads_back(controller, ftl, last)
    ftl.check_invariants()


def test_a_single_plane_or_hardware_controller_erases_one_block_per_op(
        array_erases):
    sim = Simulator()
    geometry = dataclasses.replace(TEST_GEOMETRY, planes=1,
                                   blocks_per_plane=64)
    vendor = dataclasses.replace(TEST_PROFILE, geometry=geometry)
    controller, ftl = _ftl(sim, vendor=vendor)
    _churn(controller, ftl)
    sim = Simulator()
    hw = AsyncHwController(sim, vendor=TEST_PROFILE, lun_count=1)
    for lun in hw.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    hw_ftl = PageMappedFtl(sim, hw, FtlConfig(blocks_per_lun=12,
                                              overprovision_blocks=4))
    _churn(hw, hw_ftl)
    assert ftl.gc_runs and hw_ftl.gc_runs
    assert all(len(blocks) == 1 for _, blocks, _, _ in array_erases)


@pytest.mark.parametrize("fidelity", TIERS)
def test_an_erase_fault_on_one_plane_retires_only_that_block(fidelity):
    sim = Simulator()
    controller, ftl = _ftl(sim, fidelity)
    pair = []
    stock = ftl._erase_pair

    def wearing_out(lun, blocks, priority):
        if not pair:  # the first pair's second block wears out
            pair.extend(blocks)
            controller.luns[lun].array.block(blocks[1]).worn_out = True
        return stock(lun, blocks, priority=priority)

    ftl._erase_pair = wearing_out
    last = _churn(controller, ftl)
    assert pair, "the run paired no erases"
    good, bad = pair
    assert ftl.retired_blocks == [(0, bad)]
    assert [r.reason for r in ftl.bad_blocks.journal] == [REASON_ERASE_FAIL]
    assert controller.luns[0].array.block(good).erase_count >= 1
    _reads_back(controller, ftl, last)
    ftl.check_invariants()


@pytest.mark.parametrize("empty", ["victim", "partner"])
def test_end_of_life_in_either_relocation_returns_both_victims(empty):
    """With no block left to move a page to, the collect stops before
    its erase and both victims go back to the closed list, their pages
    still mapped where they were."""
    sim = Simulator()
    controller, ftl = _ftl(sim)
    last = {}
    for lpn in range(40):  # a block per plane closes, no GC yet
        last[lpn] = 1
        controller.dram.write(0, _payload(lpn, 1))
        sim.run_process(ftl.write(lpn, 0))
    closed = ftl._luns[0].closed
    victim = next(info for info in closed if info.valid)
    partner = next(info for info in closed
                   if _plane(info.block) != _plane(victim.block))
    # The relocation that finds no room is the other block's.
    relocated = victim if empty == "victim" else partner
    for page in sorted(relocated.valid):
        lpn = ftl.map.owner_of(MapEntry(0, relocated.block, page))
        ftl.trim(lpn)
        del last[lpn]
    stuck = partner if empty == "victim" else victim
    assert stuck.valid and not relocated.valid
    closed.remove(victim)
    closed.remove(partner)
    ftl._luns[0].free.clear()
    ftl._luns[0].gc = None
    runs = ftl.gc_runs
    sim.run_process(ftl._collect(victim, partner))
    assert ftl.gc_runs == runs + 2
    assert victim in closed and partner in closed
    array = controller.luns[0].array
    assert array.block(victim.block).erase_count == 0
    assert array.block(partner.block).erase_count == 0
    assert ftl.gc_page_moves == 0
    _reads_back(controller, ftl, last)
    ftl.check_invariants()


# ---------------------------------------------------------------------------
# A power cut inside a paired erase
# ---------------------------------------------------------------------------

CONFIG = FtlConfig(blocks_per_lun=10, overprovision_blocks=4,
                   checkpoint_interval=16, journal_flush_records=4,
                   meta_blocks=2, gc_staging_base=48 * 1024 * 1024)


def _persistent_run(fidelity, cut_ns=None):
    """Four writers, each on its own LPNs, on a persistent two-LUN shard,
    optionally cut at ``cut_ns``.  Returns ``(controller, issued,
    acked)``: the last version issued and the last acked per LPN."""
    sim = Simulator()
    controller = _controller(sim, fidelity, lun_count=2)
    ftl = ShardedFtl(sim, [controller], CONFIG)
    issued = {}
    acked = {}

    def writer(k):
        rng = random.Random(k)
        for _ in range(80):
            lpn = rng.randrange(12) * 4 + k
            issued[lpn] = version = issued.get(lpn, 0) + 1
            controller.dram.write(PAGE * (2 + k), _payload(lpn, version))
            yield from ftl.write(lpn, PAGE * (2 + k))
            acked[lpn] = version

    for k in range(4):
        sim.spawn(writer(k), name=f"writer{k}")
    if cut_ns is None:
        sim.run()
        return controller, issued, acked
    PowerCut(sim, cut_ns).arm([controller])
    with pytest.raises(PowerLossError):
        sim.run()
    apply_power_cut([controller], cut_ns)
    return controller, issued, acked


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_power_cut_inside_a_paired_erase(fidelity, array_erases):
    _persistent_run(fidelity)
    pairs = [erase for erase in array_erases if len(erase[1]) == 2]
    assert len(pairs) >= 4, "the run paired too few erases"
    position, blocks, begun, duration = pairs[len(pairs) // 2]
    cut_ns = begun + duration // 2
    array_erases.clear()
    controller, issued, acked = _persistent_run(fidelity, cut_ns)
    array = controller.luns[position].array
    for block in blocks:
        assert array.block(block).erase_interrupted

    images = snapshot_media([controller])
    sim2 = Simulator()
    controller2 = _controller(sim2, fidelity, lun_count=2, seed=77)
    restore_media([controller2], images)
    ftl2, _ = mount_sharded(sim2, [controller2], CONFIG)
    # Every acked LPN reads back its last acked version, or the one
    # still in flight at the cut; nothing older comes back, and no LPN
    # that was never written appears.
    assert set(ftl2.shards[0].map._forward) <= set(issued)
    for lpn, version in sorted(acked.items()):
        assert ftl2.is_mapped(lpn), f"acked LPN {lpn} lost"
        sim2.run_process(ftl2.read(lpn, 0))
        got = controller2.dram.read(0, PAGE)
        assert any(np.array_equal(got, _payload(lpn, v))
                   for v in {version, issued[lpn]}), \
            f"LPN {lpn} is older than v{version}"
