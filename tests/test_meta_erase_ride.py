"""The meta ring's erase rides GC's multi-plane ERASE, on both tiers.

Once the live meta block holds a committed checkpoint, the next block
of the persistence ring is stale.  The meta LUN's collector takes it as
a victim's partner on another plane (``PageMappedFtl._claim_partner``)
and erases it in the victim's ``paired_erase``
(``PersistenceLayer.start_ride`` / ``end_ride``), so the rotation that
reaches it later erases nothing.  A rotation that reaches it while that
erase runs waits for it, and erases itself only what is still not
erased (a failed ride).
"""

import random
from typing import NamedTuple

import numpy as np
import pytest

from repro.core import BabolController, ControllerConfig
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
from repro.ftl.spor import mount_sharded
from repro.sim import Simulator

from tests.helpers import TEST_GEOMETRY, TEST_PROFILE

PAGE = TEST_PROFILE.geometry.page_size
TIERS = ["waveform", "tlm"]
CONFIG = FtlConfig(blocks_per_lun=10, overprovision_blocks=4,
                   checkpoint_interval=16, journal_flush_records=4,
                   meta_blocks=2, gc_staging_base=48 * 1024 * 1024)


def _plane(block):
    return block % TEST_GEOMETRY.planes


def _controller(sim, fidelity, seed=3):
    controller = BabolController(sim, ControllerConfig(
        vendor=TEST_PROFILE, lun_count=1, runtime="rtos", track_data=True,
        seed=seed, fidelity=fidelity))
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    return controller


def _payload(lpn, version):
    data = np.full(PAGE, (lpn * 37 + version * 101) % 251, dtype=np.uint8)
    data[0] = lpn & 0xFF
    data[1] = version & 0xFF
    return data


class Erase(NamedTuple):
    """One erase the die starts, with the meta ring's state then."""

    blocks: tuple
    meta: tuple      # the meta blocks among ``blocks``
    needed: bool     # every meta block among them was not erased yet
    live: int        # the ring's live block
    owed: bool       # the live block owed its checkpoint
    begun: int
    duration: int


class _Erases(list):
    persist = None   # the ring the recorder reads, set by ``_run``


@pytest.fixture
def erases(monkeypatch):
    """Every erase LUN 0 starts, as :class:`Erase`."""
    started = _Erases()
    stock = Lun._ARRAY_OPS["erase"]

    def recording(lun, spec, targets, duration, mode):
        persist = started.persist
        blocks = tuple(target.block for target in targets)
        meta = tuple(b for b in blocks if b in persist.meta_blocks)
        started.append(Erase(
            blocks, meta, all(persist._needs_erase(b) for b in meta),
            persist.meta_blocks[persist._ring_pos], persist._ckpt_owed,
            lun._now(), duration))
        return stock(lun, spec, targets, duration, mode)

    monkeypatch.setitem(Lun._ARRAY_OPS, "erase", recording)
    return started


def _run(fidelity, erases, cut_ns=None, setup=None):
    """Four writers, each on its own LPNs and each trimming its last
    LPN and FLUSHing after every eighth write (the tombstone is what
    fills the journal: binds never reach it), on a persistent one-LUN
    shard (the meta LUN collects too), optionally cut at ``cut_ns``.
    Returns ``(controller, ftl, issued, acked)``: the last version
    issued and the last acked per LPN (a trimmed LPN has none until
    it is written again).  ``setup(controller)`` runs before the FTL
    is built."""
    sim = Simulator()
    controller = _controller(sim, fidelity)
    if setup is not None:
        setup(controller)
    ftl = ShardedFtl(sim, [controller], CONFIG)
    erases.persist = ftl.shards[0].persist
    issued = {}
    acked = {}

    def writer(k):
        rng = random.Random(k)
        for i in range(80):
            lpn = rng.randrange(12) * 4 + k
            issued[lpn] = version = issued.get(lpn, 0) + 1
            controller.dram.write(PAGE * (2 + k), _payload(lpn, version))
            yield from ftl.write(lpn, PAGE * (2 + k))
            acked[lpn] = version
            if i % 8 == 7:
                ftl.trim(lpn)
                del acked[lpn]
                yield from ftl.flush()

    for k in range(4):
        sim.spawn(writer(k), name=f"writer{k}")
    if cut_ns is None:
        sim.run()
    else:
        PowerCut(sim, cut_ns).arm([controller])
        with pytest.raises(PowerLossError):
            sim.run()
        apply_power_cut([controller], cut_ns)
    return controller, ftl, issued, acked


def _rides(erases):
    return [erase for erase in erases if erase.meta and len(erase.blocks) == 2]


def _reads_back(ftl, controller, acked):
    for lpn, version in sorted(acked.items()):
        ftl.sim.run_process(ftl.read(lpn, 0))
        assert np.array_equal(controller.dram.read(0, PAGE),
                              _payload(lpn, version)), lpn


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_ride_never_targets_the_live_block_nor_an_owed_ring(
        fidelity, erases):
    controller, ftl, _, acked = _run(fidelity, erases)
    persist = ftl.shards[0].persist
    rides = _rides(erases)
    assert len(rides) >= 2, "the run rode too few meta erases"
    for erase in rides:
        (block,) = erase.meta
        victim = next(b for b in erase.blocks if b != block)
        assert block != erase.live and not erase.owed
        assert erase.needed and _plane(victim) != _plane(block)
    assert persist.meta_erases_ridden == len(rides)
    # A ring that owes a checkpoint offers no block, and takes no claim.
    stale = persist.meta_blocks[(persist._ring_pos + 1) % 2]
    if not persist._needs_erase(stale):
        controller.dram.write(0, _payload(0, 0))
        controller.run_to_completion(controller.program_page(0, stale, 0, 0))
    assert persist.stale_block() == stale
    persist._ckpt_owed = True
    assert persist.stale_block() is None
    assert not persist.start_ride(stale)
    persist._ckpt_owed = False
    _reads_back(ftl, controller, acked)


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_rotation_after_a_ride_issues_no_erase(fidelity, erases):
    """Over a whole run, every meta erase starts on a block that needs
    one, and the rotation's own erases are the single ones."""
    _, ftl, _, _ = _run(fidelity, erases)
    persist = ftl.shards[0].persist
    meta = [erase for erase in erases if erase.meta]
    assert all(erase.needed for erase in meta)
    inline = [erase for erase in meta if len(erase.blocks) == 1]
    assert persist.meta_erases_inline == len(inline)
    assert persist.meta_erases_ridden == len(meta) - len(inline) > 0


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_rotation_waits_for_the_ride_in_flight(fidelity, erases):
    """A checkpoint rotates onto the block a ride is erasing: it waits
    for that erase, erases nothing itself and commits there."""
    sim = Simulator()
    controller = _controller(sim, fidelity)
    ftl = PageMappedFtl(sim, controller, CONFIG)
    persist = erases.persist = ftl.persist
    for lpn in range(200):
        controller.dram.write(0, _payload(lpn % 40, lpn))
        sim.run_process(ftl.write(lpn % 40, 0))
        ftl.trim((lpn + 20) % 40)  # a tombstone for the FLUSH to journal
        sim.run_process(ftl.flush())
        sim.run()
        if persist.stale_block() is not None:
            break
    stale = persist.stale_block()
    assert stale is not None, "the ring never went stale"
    blocks = ftl._luns[0]
    victim_block = next(b for b in blocks.free if _plane(b) != _plane(stale))
    blocks.free.remove(victim_block)
    victim = ftl._block_info(0, victim_block)  # closed, nothing valid
    victim.write_ptr = victim.capacity
    partner = ftl._claim_partner(victim)
    assert partner.block == stale and not partner.valid
    inline, ridden = persist.meta_erases_inline, persist.meta_erases_ridden
    erases.clear()
    persist._next_page = ftl.pages_per_block  # the next checkpoint rotates
    sim.spawn(ftl._collect(victim, partner), name="gc")
    sim.spawn(persist.checkpoint(), name="checkpoint")
    sim.run()
    (erase,) = erases
    assert set(erase.blocks) == {victim_block, stale}
    assert erase.live != stale and not erase.owed
    assert persist.meta_erases_inline == inline
    assert persist.meta_erases_ridden == ridden + 1
    assert persist.meta_blocks[persist._ring_pos] == stale
    assert not persist._ckpt_owed and persist.riding is None
    written = controller.luns[0].array.block(stale).programmed_at_ns
    assert min(written.values()) >= erase.begun + erase.duration
    assert victim_block in blocks.free


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_power_cut_inside_a_riding_erase(fidelity, erases):
    _run(fidelity, erases)
    rides = _rides(erases)
    assert len(rides) >= 2, "the run rode too few meta erases"
    ride = rides[len(rides) // 2]
    cut_ns = ride.begun + ride.duration // 2
    erases.clear()
    controller, ftl, issued, acked = _run(fidelity, erases, cut_ns)
    persist = ftl.shards[0].persist
    (block,) = ride.meta
    array = controller.luns[0].array
    assert persist.riding == block
    for erased in ride.blocks:
        assert array.block(erased).erase_interrupted

    images = snapshot_media([controller])
    sim2 = Simulator()
    controller2 = _controller(sim2, fidelity, seed=77)
    restore_media([controller2], images)
    ftl2, report = mount_sharded(sim2, [controller2], CONFIG)
    assert report.checkpoints_used == [persist.checkpoint_id]
    # Every acked LPN reads back its last acked version, or the one
    # still in flight at the cut (each writer has one write in flight);
    # no LPN that was never written appears.
    assert set(ftl2.shards[0].map._forward) <= set(issued)
    for lpn, version in sorted(acked.items()):
        assert ftl2.is_mapped(lpn), f"acked LPN {lpn} lost"
        sim2.run_process(ftl2.read(lpn, 0))
        got = controller2.dram.read(0, PAGE)
        assert any(np.array_equal(got, _payload(lpn, v))
                   for v in {version, issued[lpn]}), \
            f"LPN {lpn} is older than v{version}"


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_failed_ride_leaves_the_rotation_its_own_erase(
        fidelity, erases, monkeypatch):
    """The first ride's meta block fails its erase: nothing is recorded
    or retired for it, and the rotation onto it erases it itself."""
    failed = []

    def failing_first_ride(controller):
        array = controller.luns[0].array
        stock = array.erase

        def erase(block, *args, **kwargs):
            if not failed and erases.persist.riding == block:
                failed.append(block)
                return False  # a FAIL status; the block keeps its pages
            return stock(block, *args, **kwargs)

        monkeypatch.setattr(array, "erase", erase)

    controller, ftl, _, acked = _run(fidelity, erases,
                                     setup=failing_first_ride)
    persist = ftl.shards[0].persist
    assert failed, "no ride ran"
    (block,) = failed
    meta = [erase for erase in erases if block in erase.meta]
    at = next(i for i, erase in enumerate(meta) if len(erase.blocks) == 2)
    assert meta[at + 1].blocks == (block,) and meta[at + 1].needed
    assert persist.meta_erases_ridden == len(_rides(erases)) - 1
    assert persist.meta_erases_inline == sum(
        1 for erase in erases if erase.meta and len(erase.blocks) == 1)
    assert (0, block) not in ftl.retired_blocks
    _reads_back(ftl, controller, acked)
