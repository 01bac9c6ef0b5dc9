"""Host reads go first on every die: admission classes and erase
suspension, on both fidelity tiers.

The FTL gives host reads class 0, host writes and the meta writer class
1, and garbage collection class 2.  A LUN admits its waiting ops lowest
class first, FIFO within a class, and a class-0 read that finds an
erase in its die's busy window suspends it (SUSPEND -> read -> RESUME).
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BabolController, ControllerConfig
from repro.core.ops import multiplane_erase_op
from repro.faults.power import (
    PowerCut,
    PowerLossError,
    apply_power_cut,
    restore_media,
    snapshot_media,
)
from repro.flash.errors import ErrorModelConfig
from repro.flash.lun import Lun, LunState
from repro.flash.vendors import HYNIX_V7
from repro.ftl import FtlConfig, ShardedFtl
from repro.ftl.spor import mount_sharded
from repro.sim import Simulator, Timeout

from tests.helpers import TEST_PROFILE

PAGE = TEST_PROFILE.geometry.page_size
TIERS = ["waveform", "tlm"]

CONFIG = FtlConfig(blocks_per_lun=10, overprovision_blocks=4,
                   checkpoint_interval=16, journal_flush_records=4,
                   meta_blocks=2, gc_staging_base=48 * 1024 * 1024)


def _controller(sim, fidelity, seed=3, track_data=True):
    controller = BabolController(sim, ControllerConfig(
        vendor=TEST_PROFILE, lun_count=2, runtime="rtos",
        track_data=track_data, seed=seed, fidelity=fidelity))
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    return controller


def _payload(lpn, version):
    data = np.full(PAGE, (lpn * 37 + version * 101) % 251, dtype=np.uint8)
    data[0] = lpn & 0xFF
    data[1] = version & 0xFF
    return data


# ---------------------------------------------------------------------------
# A power cut while an erase is suspended
# ---------------------------------------------------------------------------


def _mixed_run(fidelity, cut_ns=None):
    """Writes that trigger GC beside a reader of acked LPNs, optionally
    cut at ``cut_ns``.  Returns ``(controller, acked, suspensions,
    suspended)``: ``(ns, LUN)`` of each time a die entered its suspended
    state, and ``(LUN, block)`` of every block the erases suspended
    1 ns before the cut target (both blocks of a suspended pair)."""
    sim = Simulator()
    controller = _controller(sim, fidelity)
    ftl = ShardedFtl(sim, [controller], CONFIG)
    acked = []
    suspensions = []
    suspended = []
    erasing = {}  # LUN -> the blocks of the last erase its die started

    for lun in controller.luns:
        def recording(lun, spec, targets, duration, mode,
                      stock=Lun._ARRAY_OPS["erase"]):
            erasing[lun.position] = [t.block for t in targets]
            return stock(lun, spec, targets, duration, mode)

        lun._ARRAY_OPS = {**Lun._ARRAY_OPS, "erase": recording}

    def tap(lun, busy):
        if not busy and lun.state is LunState.SUSPENDED:
            suspensions.append((sim.now, lun.position))

    for lun in controller.luns:
        lun.rb_taps.append(tap)

    def writer():
        versions = {}
        for i in range(240):
            lpn = (i * 7) % 40
            versions[lpn] = versions.get(lpn, 0) + 1
            controller.dram.write(0, _payload(lpn, versions[lpn]))
            yield from ftl.write(lpn, 0)
            acked.append((lpn, versions[lpn]))

    def reader():
        rng = random.Random(5)
        while len(acked) < 240:
            if acked:
                yield from ftl.read(rng.choice(acked)[0], PAGE * 4)
            yield Timeout(40_000)

    def watch():
        yield Timeout(cut_ns - 1)
        suspended.extend(
            (lun.position, block) for lun in controller.luns
            if suspensions and lun.op_counts["VENDOR_SUSPEND"]
            > lun.op_counts["VENDOR_RESUME"]
            for block in erasing[lun.position])

    sim.spawn(reader(), name="reader")
    if cut_ns is None:
        sim.run_process(writer(), name="writer")
        return controller, acked, suspensions, suspended
    PowerCut(sim, cut_ns).arm([controller])
    sim.spawn(watch(), name="watch")
    with pytest.raises(PowerLossError):
        sim.run_process(writer(), name="writer")
    apply_power_cut([controller], cut_ns)
    return controller, acked, suspensions, suspended


@pytest.mark.parametrize("fidelity", TIERS)
def test_power_cut_while_an_erase_is_suspended(fidelity):
    """SPOR re-issues the erase the cut caught suspended, and every
    acked LPN reads back at its last acked version."""
    _, _, suspensions, _ = _mixed_run(fidelity)
    # LUN 1 holds no meta block: its erases are GC's.
    gc_suspensions = [ns for ns, position in suspensions if position == 1]
    assert gc_suspensions, "the run never suspended a GC erase"
    cut_ns = gc_suspensions[len(gc_suspensions) // 2] + 10_000
    controller, acked, _, suspended = _mixed_run(fidelity, cut_ns)
    assert suspended, "the cut missed the suspension window"
    interrupted = [
        (lun.position, block)
        for lun in controller.luns for block in range(CONFIG.blocks_per_lun)
        if lun.array.block(block).erase_interrupted]
    # Exactly the suspended erases' blocks: one for a single erase, both
    # for a pair.
    assert interrupted == sorted(suspended)

    images = snapshot_media([controller])
    sim2 = Simulator()
    controller2 = _controller(sim2, fidelity, seed=77)
    restore_media([controller2], images)
    ftl2, report = mount_sharded(sim2, [controller2], CONFIG)
    assert report.erases_reissued == len(interrupted)
    for position, block in interrupted:
        assert not controller2.luns[position].array.block(
            block).erase_interrupted
    latest = dict(acked)
    for lpn, version in sorted(latest.items()):
        assert ftl2.is_mapped(lpn), f"acked LPN {lpn} lost"
        sim2.run_process(ftl2.read(lpn, 0))
        got = controller2.dram.read(0, PAGE)
        assert np.array_equal(got, _payload(lpn, version)), \
            f"LPN {lpn} does not read back v{version}"


# ---------------------------------------------------------------------------
# Admission order, as a property
# ---------------------------------------------------------------------------

# One LUN; class 0 reads, class 1 programs of block 6 and class 2
# programs of block 7 (each block's pages in submission order), and
# class 2 erases of blocks 8..; arrival gaps in microseconds.
_OPS = st.lists(
    st.tuples(st.sampled_from(["read", "write", "gc", "erase"]),
              st.integers(min_value=0, max_value=300)),
    min_size=1, max_size=14)


def _admission_run(fidelity, ops):
    """Submit ``ops`` to LUN 0; returns the tasks and the die-level
    program order as ``(block, page)``."""
    sim = Simulator()
    controller = _controller(sim, fidelity, track_data=False)
    tasks = []
    next_page = {6: 0, 7: 0}
    erase_block = [8]
    array = controller.luns[0].array
    programs = []
    program = array.program

    def recording_program(addr, *args, **kwargs):
        programs.append((addr.block, addr.page))
        return program(addr, *args, **kwargs)

    array.program = recording_program

    def issue(kind):
        if kind == "read":
            return controller.read_page(0, 1, 0, 0, priority=0)
        if kind == "erase":
            erase_block[0] += 1
            return controller.erase_block(0, erase_block[0], priority=2)
        block, cls = (6, 1) if kind == "write" else (7, 2)
        page = next_page[block]
        next_page[block] += 1
        return controller.program_page(0, block, page, 0, priority=cls)

    def driver():
        for kind, gap_us in ops:
            if gap_us:
                yield Timeout(gap_us * 1000)
            tasks.append(issue(kind))

    sim.spawn(driver(), name="driver")
    sim.run()
    return tasks, programs


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS, fidelity=st.sampled_from(TIERS))
def test_a_read_never_waits_behind_a_lower_class_op_not_yet_started(
        ops, fidelity):
    tasks, programs = _admission_run(fidelity, ops)
    assert all(task.finished_at is not None and task.error is None
               for task in tasks)
    for read in tasks:
        if read.priority != 0:
            continue
        for other in tasks:
            if other.priority > 0 and other.admitted_at > read.submitted_at:
                # not started when the read arrived: the read goes first
                assert read.finished_at <= other.admitted_at, (
                    read.describe(), other.describe())
    for block in (6, 7):
        pages = [page for b, page in programs if b == block]
        assert pages == list(range(len(pages)))


# ---------------------------------------------------------------------------
# Where a read may cut into a template erase
# ---------------------------------------------------------------------------

# The benchmark's GC geometry on the Hynix die: a multi-plane erase's
# first latch lands about 66 us after submission, its second one plane
# queue cycle (tDBSY) later.
_HYNIX_SMALL = dataclasses.replace(HYNIX_V7, geometry=dataclasses.replace(
    HYNIX_V7.geometry, page_size=2048, spare_size=64, pages_per_block=16,
    blocks_per_plane=16))


def _multiplane_erase_beside_a_read(fidelity, read_after_ns):
    """Erase blocks 2 and 3 in one multi-plane ERASE (class 2) while a
    class-0 read of block 6 arrives ``read_after_ns`` later; returns the
    erase's result, both blocks' erase counts, and when the read ended
    (ns after the erase's submission)."""
    sim = Simulator()
    controller = BabolController(sim, ControllerConfig(
        vendor=_HYNIX_SMALL, lun_count=1, track_data=True,
        fidelity=fidelity))
    controller.luns[0].array.error_model.config = \
        ErrorModelConfig.noiseless()
    for block in (2, 3, 6):
        controller.run_to_completion(controller.program_page(0, block, 0, 0))

    def drive():
        start = sim.now
        erase = controller.submit(multiplane_erase_op, 0, priority=2,
                                  codec=controller.codec, blocks=(2, 3),
                                  _plan=True)
        yield Timeout(read_after_ns)
        read = controller.read_page(0, 6, 0, 4096, priority=0)
        passed = yield from controller.wait(erase)
        yield from controller.wait(read)
        return passed, read.finished_at - start

    passed, read_end = sim.run_process(drive())
    array = controller.luns[0].array
    return (passed, array.block(2).erase_count, array.block(3).erase_count,
            read_end)


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_read_never_slips_between_the_plane_latches_of_an_erase(fidelity):
    """A read arriving while the first plane's erase is queued on the die
    would take its row with the read's confirm; the erase would be lost
    and still report success.  It waits, or suspends the erase.  Nor may
    a read in the die's plane queue cycle (tDBSY, between the latches)
    pay for a SUSPEND the die cannot take yet: a later arrival would end
    sooner."""
    ends = []
    for read_after_ns in range(65_500, 68_500, 25):
        *erased, read_end = _multiplane_erase_beside_a_read(
            fidelity, read_after_ns)
        assert erased == [True, 1, 1], read_after_ns
        ends.append((read_after_ns, read_end))
    for (early, early_end), (late, late_end) in zip(ends, ends[1:]):
        assert early_end <= late_end, (early, early_end, late, late_end)


def _erase_beside_a_read_without_suspend(fidelity):
    vendor = dataclasses.replace(HYNIX_V7, supports_suspend=False)
    sim = Simulator()
    controller = BabolController(sim, ControllerConfig(
        vendor=vendor, lun_count=1, track_data=True, fidelity=fidelity))
    controller.luns[0].array.error_model.config = \
        ErrorModelConfig.noiseless()

    def drive():
        erase = controller.erase_block(0, 4, priority=2)
        yield Timeout(500_000)
        read = controller.read_page(0, 1, 0, 0, priority=0)
        yield from controller.wait(read)
        yield from controller.wait(erase)
        return erase, read

    erase, read = sim.run_process(drive())
    return erase, read, controller.luns[0].op_counts


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_read_waits_out_an_erase_the_vendor_cannot_suspend(fidelity):
    """Without SUSPEND the read runs after the erase on both tiers (a
    template used to send VENDOR_SUSPEND anyway, which the die refuses)."""
    erase, read, op_counts = _erase_beside_a_read_without_suspend(fidelity)
    assert erase.result is True and erase.error is None
    assert read.error is None
    assert read.admitted_at >= erase.finished_at
    assert op_counts["VENDOR_SUSPEND"] == 0
