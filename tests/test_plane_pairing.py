"""Two writes, one tPROG: queued programs on opposite planes of a die run
as one multi-plane PROGRAM, on both fidelity tiers.

Each LUN's one admission (``SoftwareEnvironment._pair_up``, for
generic ops and templates alike; a templated pair runs the template
``PlanExecutor.pair_plan`` returns) pairs an admitted full-page PROGRAM
with the first waiting one on another plane of the same die (lowest
class first, FIFO within a class) and runs the two as one
``paired_program``: the multi-plane load/confirm sequence, one tPROG,
then READ STATUS ENHANCED per page, so each caller gets its own page's
pass/fail.  The FTL alternates host pages between an open
block per plane so consecutive programs on a die can pair.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import FtlSpec, StackSpec, build_stack
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
from repro.ftl.badblocks import REASON_PROGRAM_FAIL
from repro.ftl.spor import mount_sharded
from repro.host import ScaleEngine, ScaleJob, run_scale_workload
from repro.host.hic import HostOpcode
from repro.onfi.geometry import AddressCodec, PhysicalAddress
from repro.sim import Simulator, Timeout

from tests.helpers import TEST_GEOMETRY, TEST_PROFILE

PAGE = TEST_PROFILE.geometry.page_size
TIERS = ["waveform", "tlm"]
CODEC = AddressCodec(TEST_GEOMETRY)


def _plane(block):
    return CODEC.plane_of(PhysicalAddress(block, 0))


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
def array_programs(monkeypatch):
    """Every program the dies start, as ``(LUN, targets, begun, tPROG)``."""
    started = []
    stock = Lun._ARRAY_OPS["program"]

    def recording(lun, spec, targets, duration, mode):
        started.append((lun.position, tuple(targets), lun._now(), duration))
        return stock(lun, spec, targets, duration, mode)

    monkeypatch.setitem(Lun._ARRAY_OPS, "program", recording)
    return started


# ---------------------------------------------------------------------------
# The admission rule, as a property
# ---------------------------------------------------------------------------

# One LUN; class 0 reads, class 1 programs of blocks 6 (plane 0) and 9
# (plane 1), class 2 programs of block 7 (plane 1), each block's pages
# in submission order, and class 2 erases of blocks 12..; arrival gaps
# in microseconds.
_OPS = st.lists(
    st.tuples(st.sampled_from(["read", "write", "write2", "gc", "erase"]),
              st.integers(min_value=0, max_value=300)),
    min_size=1, max_size=16)
_BLOCKS = {"write": (6, 1), "write2": (9, 1), "gc": (7, 2)}


def _admission_run(fidelity, ops):
    sim = Simulator()
    controller = _controller(sim, fidelity, track_data=False)
    tasks = []
    next_page = {6: 0, 7: 0, 9: 0}
    erase_block = [11]

    def issue(kind):
        if kind == "read":
            return controller.read_page(0, 1, 0, 0, priority=0)
        if kind == "erase":
            erase_block[0] += 1
            return controller.erase_block(0, erase_block[0], priority=2)
        block, cls = _BLOCKS[kind]
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
    return controller, tasks


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(ops=_OPS, fidelity=st.sampled_from(TIERS))
def test_pairs_keep_page_order_planes_and_read_priority(
        array_programs, ops, fidelity):
    array_programs.clear()
    controller, tasks = _admission_run(fidelity, ops)
    assert all(task.finished_at is not None and task.error is None
               for task in tasks)
    assert all(task.result is True for task in tasks if task.priority)
    # No pair shares a plane, and a pair is one die op of two pages.
    pairs = [targets for _, targets, _, _ in array_programs
             if len(targets) > 1]
    for targets in pairs:
        assert len(targets) == 2
        assert _plane(targets[0].block) != _plane(targets[1].block)
    assert controller.programs_paired == len(pairs)
    # Every block's pages program in order.
    for block in (6, 7, 9):
        pages = [t.page for _, targets, _, _ in array_programs
                 for t in targets if t.block == block]
        assert pages == list(range(len(pages)))
    # A class-0 read never waits behind a lower-class op that had not
    # started when it arrived (the partner of a pair starts with it).
    for read in tasks:
        if read.priority != 0:
            continue
        for other in tasks:
            if other.priority > 0 and other.admitted_at > read.submitted_at:
                assert read.finished_at <= other.admitted_at, (
                    read.describe(), other.describe())


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_queued_program_on_the_other_plane_pairs(fidelity, array_programs):
    """The rule on its own: the program admitted after the holder takes
    the first waiting one on another plane, lowest class first (the
    class-2 program on plane 0 waits behind the class-1 one)."""
    sim = Simulator()
    controller = _controller(sim, fidelity)
    first = controller.program_page(0, 4, 0, 0)       # admitted at once
    same = controller.program_page(0, 4, 1, PAGE)    # plane 0, class 1
    other = controller.program_page(0, 5, 0, 0, priority=2)
    other2 = controller.program_page(0, 7, 0, 0)     # plane 1, class 1
    sim.run()
    assert controller.programs_paired == 1
    assert [targets for _, targets, _, _ in array_programs] == [
        (PhysicalAddress(4, 0),),
        (PhysicalAddress(4, 1), PhysicalAddress(7, 0)),
        (PhysicalAddress(5, 0),)]
    assert same.finished_at == other2.finished_at < other.finished_at
    assert first.finished_at == same.admitted_at == other2.admitted_at
    assert all(t.result is True for t in (first, same, other, other2))
    # One tPROG for the pair: its two programs together take less than
    # two single programs' time.
    single = first.finished_at - first.admitted_at
    assert same.finished_at - same.admitted_at < 2 * single


def test_a_one_plane_die_never_pairs():
    geometry = dataclasses.replace(TEST_GEOMETRY, planes=1,
                                   blocks_per_plane=64)
    vendor = dataclasses.replace(TEST_PROFILE, geometry=geometry)
    for fidelity in TIERS:
        sim = Simulator()
        controller = _controller(sim, fidelity, vendor=vendor)
        ftl = PageMappedFtl(sim, controller, FtlConfig(
            blocks_per_lun=8, overprovision_blocks=2))
        for k in range(4):
            sim.spawn(_writes(ftl, k, 12), name=f"w{k}")
        sim.run()
        assert ftl.host_writes == 48
        assert controller.programs_paired == 0
        assert ftl._luns[0].twin is None


def _writes(ftl, k, count):
    for i in range(count):
        yield from ftl.write((k * 13 + i * 5) % ftl.logical_pages, 0)


# ---------------------------------------------------------------------------
# Both tiers decide alike where their completions keep one order
# ---------------------------------------------------------------------------


def _scale_state(fidelity, channels, luns_per_channel):
    """QD8 random writes then reads."""
    sim = Simulator()
    controllers, ftl = build_stack(
        sim, StackSpec(channels=channels, luns_per_channel=luns_per_channel,
                       ftl=FtlSpec(), track_data=True, fidelity=fidelity),
        profile=TEST_PROFILE)
    engine = ScaleEngine(sim, ftl, queue_depth=8)
    run_scale_workload(sim, engine, ScaleJob(
        pattern="random", opcode=HostOpcode.WRITE, io_count=48, seed=11))
    run_scale_workload(sim, engine, ScaleJob(
        pattern="random", opcode=HostOpcode.READ, io_count=48, seed=12))
    mapping = [sorted((lpn, e.lun, e.block, e.page)
                      for lpn, e in shard.map._forward.items())
               for shard in ftl.shards]
    arrays = [(lun.array.reads, lun.array.programs, lun.array.erases)
              for c in controllers for lun in c.luns]
    dram = b"".join(c.dram.read(0, 4 * PAGE).tobytes() for c in controllers)
    return ([c.programs_paired for c in controllers],
            [c.programs_chained for c in controllers], ftl.health_summary(),
            arrays, mapping, dram)


@pytest.mark.parametrize("channels,luns_per_channel", [(2, 1), (1, 2)])
def test_both_tiers_pair_the_same_programs(channels, luns_per_channel):
    """Two one-LUN channels, and two dies sharing one channel and one
    runtime (the tiers time each op differently there: the template's
    poll fast-forward), pair and chain the same programs and build the
    same map.  (The chains agree since a template polls at once on a
    status bit already set: before, its ready-wait slept through a
    chained pair's load to the end of the tPROG ahead.)"""
    wave = _scale_state("waveform", channels, luns_per_channel)
    tlm = _scale_state("tlm", channels, luns_per_channel)
    assert all(wave[0]) and tlm[0] == wave[0]
    assert tlm[1] == wave[1]
    assert tlm[2:] == wave[2:]


# ---------------------------------------------------------------------------
# A bad page fails its own write only
# ---------------------------------------------------------------------------


class _FailsPairedBlock:
    """LUN-side fault hook: the second block of the first paired program
    goes bad — every program of a page there fails from then on."""

    def __init__(self):
        self.block = None
        self.pair = None

    def on_program(self, lun, targets):
        if self.block is None and len(targets) == 2:
            self.pair = tuple(t.block for t in targets)
            self.block = self.pair[1]
        return frozenset((self.block,)) if any(
            t.block == self.block for t in targets) else frozenset()

    def on_erase(self, lun, targets):
        return False

    def on_busy(self, lun, kind, duration):
        return duration


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_program_fault_on_one_plane_retires_only_that_block(fidelity):
    sim = Simulator()
    controller = _controller(sim, fidelity)
    hook = _FailsPairedBlock()
    controller.luns[0]._fault_hook = hook  # keeps the TLM templates
    ftl = PageMappedFtl(sim, controller, FtlConfig(
        blocks_per_lun=12, overprovision_blocks=4))
    last = {}

    def writer(k):  # each writer its own LPNs: no two race on one
        for i in range(30):
            lpn = (i * 7) % 16 * 4 + k
            version = last.get(lpn, (0,))[0] + 1
            last[lpn] = (version,)
            controller.dram.write(PAGE * (2 + k), _payload(lpn, version))
            yield from ftl.write(lpn, PAGE * (2 + k))

    for k in range(4):
        sim.spawn(writer(k), name=f"writer{k}")
    sim.run()
    assert hook.pair is not None and controller.programs_paired > 1
    good, bad = hook.pair
    assert ftl.retired_blocks == [(0, bad)]
    assert [r.reason for r in ftl.bad_blocks.journal] == [REASON_PROGRAM_FAIL]
    assert (0, good) not in ftl.retired_blocks
    assert ftl.program_fail_rewrites >= 1
    for lpn, (version,) in sorted(last.items()):
        sim.run_process(ftl.read(lpn, 0))
        assert np.array_equal(controller.dram.read(0, PAGE),
                              _payload(lpn, version)), lpn
    ftl.check_invariants()


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_failed_program_on_a_retirements_destination_retires_it_too(
        fidelity):
    """Retiring a block moves its pages as GC does: when GC's
    destination fails too, it is retired and the move goes on into the
    next free block."""
    sim = Simulator()
    controller = _controller(sim, fidelity)
    ftl = PageMappedFtl(sim, controller, FtlConfig(
        blocks_per_lun=12, overprovision_blocks=4))

    def write(lpn):
        controller.dram.write(0, _payload(lpn, 1))
        sim.run_process(ftl.write(lpn, 0))

    for lpn in range(4):
        write(lpn)
    blocks = ftl._luns[0]
    assert (blocks.active.block, blocks.twin.block) == (0, 1)
    assert blocks.active.write_ptr == blocks.twin.write_ptr == 2
    assert blocks.free[0] == 2  # GC's next destination
    for block in (0, 1, 2):
        controller.luns[0].array.block(block).worn_out = True
    for lpn in range(4, 8):
        write(lpn)
    assert ftl.retired_blocks == [(0, 2), (0, 0), (0, 1)]
    for lpn in range(8):
        sim.run_process(ftl.read(lpn, 0))
        assert np.array_equal(controller.dram.read(0, PAGE),
                              _payload(lpn, 1)), lpn
    ftl.check_invariants()


def test_the_injector_fails_the_faulted_block_of_a_pair():
    """A ``program_fail`` fault on one block of a multi-plane program
    fails that page only; the die keeps FAIL per plane."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultCampaign, FaultSpec

    sim = Simulator()
    controller = _controller(sim, "waveform")
    FaultInjector(FaultCampaign("one-plane", 1, [FaultSpec(
        kind="program_fail", block=9)])).attach(controller)
    first = controller.program_page(0, 4, 0, 0)
    good = controller.program_page(0, 4, 1, 0)
    bad = controller.program_page(0, 9, 0, 0)
    sim.run()
    assert controller.programs_paired == 1
    assert (first.result, good.result, bad.result) == (True, True, False)
    array = controller.luns[0].array
    assert array.block(4).is_programmed(1)
    assert not array.block(9).is_programmed(0)


# ---------------------------------------------------------------------------
# A power cut inside a paired program
# ---------------------------------------------------------------------------

CONFIG = FtlConfig(blocks_per_lun=10, overprovision_blocks=4,
                   checkpoint_interval=16, journal_flush_records=4,
                   meta_blocks=2, gc_staging_base=48 * 1024 * 1024)


def _persistent_run(fidelity, cut_ns=None, on_ack=None):
    """Four writers, each on its own LPNs, on a persistent two-LUN shard,
    optionally cut at ``cut_ns``; ``on_ack(sim, shard)`` is called after
    each acked write.  Returns ``(controller, ftl, issued, acked,
    staged)``: the last version issued and the last acked per LPN, and
    the host LPN staged into each data page's spare area."""
    sim = Simulator()
    controller = _controller(sim, fidelity, lun_count=2)
    ftl = ShardedFtl(sim, [controller], CONFIG)
    shard = ftl.shards[0]
    issued = {}
    acked = {}
    staged = {}
    stage = shard.persist.stage_data_oob

    def recording_stage(lun, block, page, kind, lpn, seq):
        staged[(lun, block, page)] = (kind, lpn)
        return stage(lun, block, page, kind, lpn, seq)

    shard.persist.stage_data_oob = recording_stage

    def writer(k):
        rng = random.Random(k)
        for _ in range(60):
            lpn = rng.randrange(12) * 4 + k
            issued[lpn] = version = issued.get(lpn, 0) + 1
            controller.dram.write(PAGE * (2 + k), _payload(lpn, version))
            yield from ftl.write(lpn, PAGE * (2 + k))
            acked[lpn] = version
            if on_ack is not None:
                on_ack(sim, shard)

    for k in range(4):
        sim.spawn(writer(k), name=f"writer{k}")
    if cut_ns is None:
        sim.run()
        return controller, ftl, issued, acked, staged
    PowerCut(sim, cut_ns).arm([controller])
    with pytest.raises(PowerLossError):
        sim.run()
    apply_power_cut([controller], cut_ns)
    return controller, ftl, issued, acked, staged


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_power_cut_inside_a_paired_program(fidelity, array_programs):
    from repro.flash.oob import KIND_HOST

    *_, staged = _persistent_run(fidelity)
    pairs = [(position, targets, begun, duration)
             for position, targets, begun, duration in array_programs
             if len(targets) == 2 and all(
                 staged.get((position, t.block, t.page), (None,))[0]
                 == KIND_HOST for t in targets)]
    assert len(pairs) >= 4, "the run paired too few host writes"
    position, targets, begun, duration = pairs[len(pairs) // 2]
    cut_ns = begun + duration // 2
    array_programs.clear()
    controller, _, issued, acked, staged = _persistent_run(fidelity, cut_ns)
    # Both pages are torn, and neither write was acked.
    array = controller.luns[position].array
    for target in targets:
        assert target.page in array.block(target.block).torn
    cut_lpns = {staged[(position, t.block, t.page)][1] for t in targets}
    assert len(cut_lpns) == 2
    for lpn in cut_lpns:
        assert issued[lpn] == acked.get(lpn, 0) + 1

    images = snapshot_media([controller])
    sim2 = Simulator()
    controller2 = _controller(sim2, fidelity, lun_count=2, seed=77)
    restore_media([controller2], images)
    ftl2, report = mount_sharded(sim2, [controller2], CONFIG)
    assert report.torn_pages_discarded >= 2
    # Every acked LPN reads back its last acked version; a write still
    # in flight elsewhere may have landed whole, never a cut one.
    for lpn, version in sorted(acked.items()):
        assert ftl2.is_mapped(lpn), f"acked LPN {lpn} lost"
        sim2.run_process(ftl2.read(lpn, 0))
        got = controller2.dram.read(0, PAGE)
        landed = [v for v in {version, issued[lpn]}
                  if np.array_equal(got, _payload(lpn, v))]
        if lpn in cut_lpns:
            assert landed == [version], f"LPN {lpn} is not v{version}"
        else:
            assert landed, f"LPN {lpn} is older than v{version}"


def _twin_open(shard):
    """Whether a LUN of ``shard`` has an open host block and its twin,
    neither full."""
    return any(blocks.active is not None and blocks.twin is not None
               and not blocks.active.is_full and not blocks.twin.is_full
               for blocks in shard._luns)


def test_the_mount_reopens_one_partial_block_per_plane():
    """SPOR reopens the emptiest partial host block and, on another
    plane, its twin; host pages alternate between them again.  The
    media is the run's, cut just after the last ack that left a twin
    block open."""
    opened = []

    def note(sim, shard):
        if _twin_open(shard):
            opened.append(sim.now)

    _persistent_run("tlm", on_ack=note)
    assert opened, "the run never opened a twin block"
    controller, ftl, *_ = _persistent_run("tlm", opened[-1] + 1)
    shard = ftl.shards[0]
    images = snapshot_media([controller])
    sim2 = Simulator()
    controller2 = _controller(sim2, "tlm", lun_count=2, seed=77)
    restore_media([controller2], images)
    ftl2, _ = mount_sharded(sim2, [controller2], CONFIG)
    mounted = ftl2.shards[0]
    twins = [(lun, blocks.active.block, blocks.twin.block)
             for lun, blocks in enumerate(mounted._luns)
             if blocks.active is not None and blocks.twin is not None]
    assert twins, shard._luns
    for lun, active, twin in twins:
        assert _plane(active) != _plane(twin)
        assert not mounted._info[(lun, active)].is_full
        assert not mounted._info[(lun, twin)].is_full
