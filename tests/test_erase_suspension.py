"""Host ops go first on every die: admission classes and erase
suspension, on both fidelity tiers.

The FTL gives host reads class 0, host writes and the meta writer class
1, and garbage collection class 2.  A LUN admits its waiting ops lowest
class first, FIFO within a class, and a read or a full-page PROGRAM of a
class below an erase in its die's busy window suspends it (SUSPEND ->
the op -> RESUME) when the erase has more than the op's own array time
(tR, tPROG) plus t_resume left.
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
from repro.flash.lun import Lun
from repro.flash.vendors import HYNIX_V7
from repro.ftl import FtlConfig, ShardedFtl
from repro.ftl.spor import mount_sharded
from repro.sim import Simulator, Timeout, Trigger

from tests.helpers import TEST_PROFILE

PAGE = TEST_PROFILE.geometry.page_size
TIERS = ["waveform", "tlm"]

CONFIG = FtlConfig(blocks_per_lun=10, overprovision_blocks=4,
                   checkpoint_interval=16, journal_flush_records=4,
                   meta_blocks=2, gc_staging_base=48 * 1024 * 1024)


TIMING = TEST_PROFILE.timing
#: What an erase must have left for a PROGRAM to suspend it.
PROGRAM_FLOOR = TIMING.t_prog_ns + TIMING.t_resume_ns


def _controller(sim, fidelity, seed=3, track_data=True, lun_count=2):
    controller = BabolController(sim, ControllerConfig(
        vendor=TEST_PROFILE, lun_count=lun_count, runtime="rtos",
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


#: Enough writes that reads land inside suspended GC erases on LUN 1
#: (which holds no meta block) as well as on LUN 0.
MIXED_WRITES = 320


def _mixed_run(fidelity, cut_ns=None):
    """``MIXED_WRITES`` writes that trigger GC beside a reader of acked
    LPNs, optionally cut at ``cut_ns``.  Returns ``(controller, acked, inside, at_cut)``:
    ``(ns, LUN, kind)`` of each array op a die started while an erase was
    suspended (``kind`` "read" or "program"), and ``(LUN, kind, blocks,
    suspended)`` of each array op in flight 1 ns before the cut target
    (``suspended``: its die was suspended)."""
    sim = Simulator()
    controller = _controller(sim, fidelity)
    ftl = ShardedFtl(sim, [controller], CONFIG)
    acked = []
    inside = []
    at_cut = []

    def recording(lun, spec, targets, duration, mode):
        if lun.status.suspended:
            inside.append((sim.now, lun.position, spec.kind))
        return Lun._ARRAY_OPS[spec.kind](lun, spec, targets, duration, mode)

    for lun in controller.luns:
        lun._ARRAY_OPS = dict.fromkeys(Lun._ARRAY_OPS, recording)

    def writer():
        versions = {}
        for i in range(MIXED_WRITES):
            lpn = (i * 7) % 40
            versions[lpn] = versions.get(lpn, 0) + 1
            controller.dram.write(0, _payload(lpn, versions[lpn]))
            yield from ftl.write(lpn, 0)
            acked.append((lpn, versions[lpn]))

    def reader():
        rng = random.Random(5)
        while len(acked) < MIXED_WRITES:
            if acked:
                yield from ftl.read(rng.choice(acked)[0], PAGE * 4)
            yield Timeout(40_000)

    def watch():
        yield Timeout(cut_ns - 1)
        at_cut.extend(
            (lun.position, op["kind"], [t.block for t in op["targets"]],
             lun.status.suspended)
            for lun in controller.luns for op in lun.inflight_ops)

    sim.spawn(reader(), name="reader")
    if cut_ns is None:
        sim.run_process(writer(), name="writer")
        return controller, acked, inside, at_cut
    PowerCut(sim, cut_ns).arm([controller])
    sim.spawn(watch(), name="watch")
    with pytest.raises(PowerLossError):
        sim.run_process(writer(), name="writer")
    apply_power_cut([controller], cut_ns)
    return controller, acked, inside, at_cut


def _remount_and_check(fidelity, cut_ns, kind):
    """Cut ``_mixed_run`` at ``cut_ns``, where a die is suspended with a
    ``kind`` op in flight ("erase": the suspended one; "program": one
    running inside it): SPOR re-issues exactly the erases the cut caught
    (a pair's two blocks), and every acked LPN reads back at its last
    acked version."""
    controller, acked, _, at_cut = _mixed_run(fidelity, cut_ns)
    assert any(suspended and op == kind for _, op, _, suspended in at_cut), \
        f"the cut missed a suspended die with a {kind} in flight: {at_cut}"
    erasing = sorted((position, block)
                     for position, op, blocks, _ in at_cut if op == "erase"
                     for block in blocks)
    interrupted = [
        (lun.position, block)
        for lun in controller.luns for block in range(CONFIG.blocks_per_lun)
        if lun.array.block(block).erase_interrupted]
    assert interrupted == erasing

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


@pytest.mark.parametrize("fidelity", TIERS)
def test_power_cut_while_an_erase_is_suspended(fidelity):
    """A cut while a read runs inside a suspended GC erase."""
    _, _, inside, _ = _mixed_run(fidelity)
    # LUN 1 holds no meta block: its erases are GC's.
    reads = [ns for ns, position, kind in inside
             if position == 1 and kind == "read"]
    assert reads, "no read ran inside a suspended GC erase"
    _remount_and_check(fidelity, reads[len(reads) // 2] + 10_000, "erase")


@pytest.mark.parametrize("fidelity", TIERS)
def test_power_cut_while_a_program_runs_inside_a_suspended_erase(fidelity):
    """A cut halfway through the tPROG of a write that cut into a GC
    erase: the page is torn, never acked, and the erase is re-issued."""
    _, _, inside, _ = _mixed_run(fidelity)
    programs = [ns for ns, _, kind in inside if kind == "program"]
    assert programs, "no program ran inside a suspended erase"
    _remount_and_check(fidelity, programs[len(programs) // 2]
                       + TIMING.t_prog_ns // 2, "program")


# ---------------------------------------------------------------------------
# Writes cut into GC erases
# ---------------------------------------------------------------------------


def _erase_beside_programs(fidelity, arrivals, erase_class=2):
    """A class-``erase_class`` erase of block 8 on LUN 0 and, ``arrivals``
    ns after it, class-1 full-page PROGRAMs: the i-th one of page i // 2
    of block 4 + i % 2 (planes alternate).  Returns ``(controller,
    erase, programs, latch)``: ``latch`` is when the die went busy with
    the erase."""
    sim = Simulator()
    controller = _controller(sim, fidelity)
    busy = []
    controller.luns[0].rb_taps.append(
        lambda lun, is_busy: is_busy and busy.append(sim.now))

    def drive():
        start = sim.now
        erase = controller.erase_block(0, 8, priority=erase_class)
        programs = []
        for index, at in enumerate(arrivals):
            if start + at > sim.now:
                yield Timeout(start + at - sim.now)
            programs.append(controller.program_page(
                0, 4 + index % 2, index // 2, 0, priority=1))
        for task in (erase, *programs):
            yield from controller.wait(task)
        return erase, programs

    erase, programs = sim.run_process(drive())
    assert erase.result is True and erase.error is None
    assert all(task.result is True for task in programs)
    return controller, erase, programs, busy[0]


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_write_runs_inside_a_suspended_gc_erase(fidelity):
    controller, erase, (program,), latch = _erase_beside_programs(
        fidelity, [300_000])
    assert program.finished_at < erase.finished_at
    assert controller.luns[0].op_counts["VENDOR_SUSPEND"] == 1
    assert controller.env.inside_suspension == {"read": 0, "program": 1}
    # The erase pays the program's tPROG and the resume penalty.
    assert erase.finished_at - latch > \
        TIMING.t_bers_ns + TIMING.t_prog_ns + TIMING.t_resume_ns


@pytest.mark.parametrize("fidelity", TIERS)
def test_two_writes_on_two_planes_cut_in_as_one_paired_program(fidelity):
    controller, erase, programs, _ = _erase_beside_programs(
        fidelity, [300_000, 300_000])
    counts = controller.luns[0].op_counts
    assert counts["VENDOR_SUSPEND"] == 1
    assert controller.programs_paired == 1
    assert counts["MP_PROGRAM_2ND"] == 1 and counts["PROGRAM_2ND"] == 1
    assert controller.env.inside_suspension == {"read": 0, "program": 2}
    assert all(task.finished_at < erase.finished_at for task in programs)


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_write_waits_out_an_erase_with_too_little_left(fidelity):
    """An erase with at most tPROG + t_resume left is not suspended for a
    PROGRAM (it would cost the erase more than the write saves); one with
    more left is."""
    *_, latch = _erase_beside_programs(fidelity, [])
    for left, suspends in ((PROGRAM_FLOOR, False),
                           (PROGRAM_FLOOR - 50_000, False),
                           (PROGRAM_FLOOR + 50_000, True)):
        arrival = latch + TIMING.t_bers_ns - left
        controller, erase, (program,), _ = _erase_beside_programs(
            fidelity, [arrival])
        suspensions = controller.luns[0].op_counts["VENDOR_SUSPEND"]
        assert suspensions == suspends, left
        assert (program.admitted_at >= erase.finished_at) is not suspends


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_class_1_erase_is_not_suspended_by_a_class_1_write(fidelity):
    """The meta writer's erase is in the write's own class."""
    controller, erase, (program,), _ = _erase_beside_programs(
        fidelity, [300_000], erase_class=1)
    assert controller.luns[0].op_counts["VENDOR_SUSPEND"] == 0
    assert program.admitted_at >= erase.finished_at


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_gc_erase_under_a_saturating_write_stream_still_completes(
        fidelity):
    """Sixteen writers keep a one-LUN persistent shard's queue full of
    class-1 PROGRAMs (host pages and the meta writer's journal pages:
    each writer trims every page it wrote, so the journal takes one
    tombstone a write) while GC erases on it, and they cut into its
    erases.  The rule has
    no budget of its own (a stream that never needs a free block would
    hold an erase for as long as it lasts); what bounds an erase's
    delay here is the FTL's spare rule: while GC runs the LUN has no
    spare block, so the host fills at most the two blocks it holds open
    — pages_per_block paired PROGRAMs — plus the journal pages those
    writes need.  The test allows as many again: every GC erase ends
    within tBERS + 2 x pages_per_block x (tPROG + t_resume) of its
    admission (7.6 ms; about 2.6 ms is measured on both tiers)."""
    sim = Simulator()
    controller = _controller(sim, fidelity, lun_count=1)
    ftl = ShardedFtl(sim, [controller], CONFIG)
    erases = []
    submit = controller.env.submit

    def recording(*args, **kwargs):
        task = submit(*args, **kwargs)
        if "erase" in task.label and task.priority == 2:
            erases.append(task)
        return task

    controller.env.submit = recording

    def writer(k):
        for i in range(60):
            lpn = (i * 16 + k) % 40
            controller.dram.write(PAGE * k, _payload(lpn, i))
            yield from ftl.write(lpn, PAGE * k)
            ftl.trim(lpn)

    for k in range(16):
        sim.spawn(writer(k), name=f"writer{k}")
    sim.run()
    assert controller.env.inside_suspension["program"] > 0
    assert erases and all(task.finished_at is not None for task in erases)
    bound = TIMING.t_bers_ns + 2 * TEST_PROFILE.geometry.pages_per_block \
        * (TIMING.t_prog_ns + TIMING.t_resume_ns)
    assert max(task.finished_at - task.admitted_at for task in erases) \
        <= bound


def _gc_scenario(fidelity, seed):
    """One LUN: GC (class 2) relocates three pages of each of blocks 2
    and 3 into blocks 10 and 11 and erases the two in one multi-plane
    ERASE; once that erase is submitted, the host writes eight pages of
    blocks 4 and 5 (class 1) and reads one back now and then (class 0),
    at seeded gaps of up to 300 us.  Returns the die's op counts less
    its status polls (a template polls once where the runtime polls
    each round), the pairs, the ops run inside a suspension, and every
    written page's bytes."""
    sim = Simulator()
    controller = _controller(sim, fidelity, lun_count=1)
    rng = random.Random(seed)
    slot = 4096  # DRAM stride: a full page with its spare area fits
    erasing = Trigger(sim)
    for block in (2, 3):
        for page in range(3):
            controller.dram.write(0, _payload(block * 16 + page, 0))
            controller.run_to_completion(
                controller.program_page(0, block, page, 0))

    def collector():
        moved = 0
        for block in (2, 3):
            for page in range(3):
                yield from controller.wait(controller.read_page(
                    0, block, page, slot, priority=2))
                yield from controller.wait(controller.program_page(
                    0, 10 + moved % 2, moved // 2, slot, priority=2))
                moved += 1
        erase = controller.erase_pair(0, (2, 3), priority=2)
        erasing.fire()
        assert (yield from controller.wait(erase)) == (True, True)

    def host():
        tasks = []
        yield from erasing.wait()
        for index in range(8):
            yield Timeout(rng.randrange(0, 300_000))
            controller.dram.write(slot * (2 + index), _payload(100 + index, 1))
            tasks.append(controller.program_page(
                0, 4 + index % 2, index // 2, slot * (2 + index), priority=1))
            if rng.random() < 0.4:
                tasks.append(controller.read_page(0, 4, 0, slot * 12,
                                                  priority=0))
        for task in tasks:
            yield from controller.wait(task)

    sim.spawn(collector(), name="collector")
    sim.run_process(host(), name="host")
    sim.run()
    data = []
    for block, pages in ((4, 4), (5, 4), (10, 3), (11, 3)):
        for page in range(pages):
            controller.run_to_completion(controller.read_page(0, block, page,
                                                              0))
            data.append(bytes(controller.dram.read(0, PAGE)))
    counts = dict(controller.luns[0].op_counts)
    del counts["READ_STATUS"]
    return (counts, controller.programs_paired,
            controller.env.inside_suspension, data)


def test_a_seeded_gc_scenario_is_one_run_on_both_tiers():
    """The die sees the same ops (SUSPENDs, paired PROGRAMs and all) and
    keeps the same bytes on both tiers.  The tiers see an arrival up to
    one poll period apart (the runtime at its next poll round, a template
    at once), so an op arriving within that of a RESUME can split one
    suspension in two on one tier; this seed has none."""
    wave = _gc_scenario("waveform", seed=4)
    tlm = _gc_scenario("tlm", seed=4)
    assert wave[0] == tlm[0]
    assert wave[0]["VENDOR_SUSPEND"] >= 1
    assert wave[1] == tlm[1] > 0
    assert wave[2] == tlm[2] and wave[2]["program"] == 8
    assert wave[3] == tlm[3]


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
    """Submit ``ops`` to LUN 0; returns the tasks, the die-level program
    order as ``(block, page)``, and when the die went busy."""
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
    busy = []
    controller.luns[0].rb_taps.append(
        lambda lun, is_busy: is_busy and busy.append(sim.now))

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
    return tasks, programs, busy


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS, fidelity=st.sampled_from(TIERS))
def test_a_read_never_waits_behind_a_lower_class_op_not_yet_started(
        ops, fidelity):
    tasks, programs, _ = _admission_run(fidelity, ops)
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


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS, fidelity=st.sampled_from(TIERS))
def test_a_write_never_waits_out_an_erase_it_may_cut_into(ops, fidelity):
    """A class-1 PROGRAM that arrives while a class-2 erase has more than
    tPROG + t_resume left runs before that erase ends.  The erase's
    remaining array time when the write arrives is at least tBERS less
    what has passed since it latched (its first busy edge after its
    admission) — more, if it was suspended; the generic runtime looks
    for the write at its next poll round, a few microseconds on."""
    tasks, _, busy = _admission_run(fidelity, ops)
    poll_slack = 20_000
    erases = [task for kind, task in zip((kind for kind, _ in ops), tasks)
              if kind == "erase"]
    for write in tasks:
        if write.priority != 1:
            continue
        for erase in erases:
            latch = min(at for at in busy if at >= erase.admitted_at)
            left = latch + TIMING.t_bers_ns - write.submitted_at
            if erase.admitted_at <= write.submitted_at \
                    and left > PROGRAM_FLOOR + poll_slack:
                assert write.admitted_at < erase.finished_at, (
                    write.describe(), erase.describe(), left)


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
