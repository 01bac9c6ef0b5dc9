"""No idle die between tPROGs: a die's queued plane pairs chain through
multi-plane CACHE PROGRAM, on both fidelity tiers.

Where a die pairs programs (``pairs_programs``) and has CACHE PROGRAM
(``supports_cache``), a pair admitted with another pair waiting starts a
chain, and the chain rule (``SoftwareEnvironment.chain_next``) is asked
with each pair loaded, just before its confirm: if admission would next
run another pair of full-page PROGRAMs on the die, on the same path,
and no host read waits, the chain takes it.  The loaded pair is then
confirmed with 0x15 (``program_chain_step``) and the taken pair loads
while the array programs; otherwise it is confirmed with 0x10
(``program_chain_end``).  Each pair's tasks finish when its status is
read.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.baselines.async_hw import AsyncHwController
from repro.core import (
    BabolController,
    ControllerConfig,
    RecoveryManager,
    RecoveryPolicy,
    Watchdog,
)
from repro.core import fastops
from repro.core.opir.interp import run_program
from repro.core.opir.nodes import (
    DataXfer,
    DeclareHandle,
    E,
    HandleRef,
    LatchSeq,
    OpProgram,
    PollStatus,
    Reg,
    Return,
    SoftSleep,
    Txn,
)
from repro.core.ops import erase_block_op, program_page_op
from repro.core.recovery import OpTimeout
from repro.core.transaction import TxnKind
from repro.core.ufsm.ca_writer import addr, cmd
from repro.faults import FaultCampaign, FaultInjector, FaultKind, FaultSpec
from repro.faults.power import (
    PowerCut,
    PowerLossError,
    apply_power_cut,
    restore_media,
    snapshot_media,
)
from repro.flash.errors import ErrorModelConfig
from repro.flash.lun import Lun
from repro.flash.vendors import VENDOR_PROFILES
from repro.ftl import FtlConfig, PageMappedFtl, ShardedFtl
from repro.ftl.badblocks import REASON_PROGRAM_FAIL
from repro.ftl.spor import mount_sharded
from repro.onfi.commands import CMD
from repro.onfi.geometry import PhysicalAddress
from repro.onfi.status import StatusBits
from repro.sim import Simulator, Timeout

from tests.helpers import TEST_GEOMETRY, TEST_PROFILE
from tests.test_plane_pairing import CONFIG, _payload

PAGE = TEST_PROFILE.geometry.page_size
FULL_PAGE = TEST_PROFILE.geometry.full_page_size
TIERS = ["waveform", "tlm"]
T_PROG = TEST_PROFILE.timing.t_prog_ns


def _controller(sim, fidelity, vendor=TEST_PROFILE, lun_count=1, seed=3):
    controller = BabolController(sim, ControllerConfig(
        vendor=vendor, lun_count=lun_count, runtime="rtos",
        track_data=True, seed=seed, fidelity=fidelity))
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    return controller


@pytest.fixture
def array_programs(monkeypatch):
    """Every program the dies start, as ``(LUN, targets, begun, tPROG,
    cached)``: ``cached`` when a CACHE PROGRAM (0x15) started it."""
    started = []
    stock = Lun._ARRAY_OPS["program"]

    def recording(lun, spec, targets, duration, mode):
        started.append((lun.position, tuple(targets), lun._now(), duration,
                        not spec.holds_rb))
        return stock(lun, spec, targets, duration, mode)

    monkeypatch.setitem(Lun._ARRAY_OPS, "program", recording)
    return started


def _program(controller, block, page, dram, planned):
    """One full-page PROGRAM that admission may pair (and chain):
    through the wrapper (a template on TLM) or, ``planned=False``, on
    the generic runtime of either tier."""
    if planned:
        return controller.program_page(0, block, page, dram)
    address = PhysicalAddress(block, page)
    codec = controller.codec
    return controller.submit(
        program_page_op, 0, codec=codec, address=address, dram_address=dram,
        _pair=(codec.plane_of(address), address, dram, codec))


def _queued_pairs(fidelity, pairs, planned):
    """``pairs`` pairs of programs (blocks 4 and 5, one page each)
    queued behind an erase, so the first pair's admission finds the
    rest waiting."""
    sim = Simulator()
    controller = _controller(sim, fidelity)
    for block in (4, 5):
        controller.dram.write(PAGE * block, _payload(block, 1))
    erase = controller.submit(erase_block_op, 0, codec=controller.codec,
                              block=9, _plan=planned)
    tasks = [_program(controller, block, page, PAGE * block, planned)
             for page in range(pairs) for block in (4, 5)]
    sim.run()
    lun = controller.luns[0]
    return {
        "erase": erase.result,
        "results": [task.result for task in tasks],
        "finished_at": [task.finished_at for task in tasks],
        "arrays": (lun.array.programs, lun.array.erases),
        "pages": [lun.array.pristine_page(PhysicalAddress(block, page))
                  .tobytes()[:PAGE]
                  for page in range(pairs) for block in (4, 5)],
        "op_counts": {name: count for name, count in lun.op_counts.items()
                      if name != "READ_STATUS"},
        "chained": controller.programs_chained,
        "paired": controller.programs_paired,
    }, controller


@pytest.mark.parametrize("pairs", [1, 2, 3, 4])
def test_queued_pairs_chain_alike_on_both_tiers(pairs, array_programs):
    generic = {fidelity: _queued_pairs(fidelity, pairs, False)[0]
               for fidelity in TIERS}
    # The generic runtime is one run on both tiers, to the nanosecond.
    assert generic["tlm"] == generic["waveform"]
    templated, controller = _queued_pairs("tlm", pairs, True)
    assert controller.fast_ops.ops_templated == \
        controller.fast_ops.ops_planned == 2 * pairs + 1
    wave = generic["waveform"]
    for key in ("erase", "results", "arrays", "pages", "op_counts",
                "chained", "paired"):
        assert templated[key] == wave[key], key
    assert wave["results"] == [True] * 2 * pairs
    assert wave["pages"] == [_payload(block, 1).tobytes()
                             for _ in range(pairs) for block in (4, 5)]
    assert (wave["paired"], wave["chained"]) == (pairs, pairs - 1)
    counts = wave["op_counts"]
    assert counts.get("CACHE_PROGRAM_2ND", 0) == pairs - 1
    assert counts["PROGRAM_2ND"] == 1
    assert counts["READ_STATUS_ENHANCED"] == 2 * pairs
    # Each pair's tasks finish together, when its status is read, and
    # before the next pair's.
    for run in (wave, templated):
        done = run["finished_at"]
        assert done[0::2] == done[1::2]
        assert done[0::2] == sorted(set(done[0::2]))
    # One tPROG after another: each chained pair's array time starts
    # within a few microseconds of the one before ending.
    runs = [start for _, targets, start, duration, _ in array_programs
            if len(targets) == 2]
    assert len(runs) == 3 * pairs
    for begun in (runs[:pairs], runs[pairs:2 * pairs], runs[2 * pairs:]):
        for before, after in zip(begun, begun[1:]):
            assert T_PROG <= after - before < T_PROG + 20_000


def test_a_chain_confirms_with_cache_program_until_its_end(array_programs):
    _queued_pairs("waveform", 3, False)
    assert [cached for _, targets, _, _, cached in array_programs
            if len(targets) == 2] == [True, True, False]


# ---------------------------------------------------------------------------
# The pair behind loads under the tPROG ahead
# ---------------------------------------------------------------------------


@pytest.fixture
def die_latches(monkeypatch):
    """Every command latch the dies take, as ``(opcode name, ns)``:
    each effect handler wrapped where both entries dispatch to it."""
    latched = []

    def recording(handler):
        def latch(lun, row):
            latched.append((row.name, lun._now()))
            return handler(lun, row)
        return latch

    for effect, handler in list(Lun._EFFECTS.items()):
        monkeypatch.setitem(Lun._EFFECTS, effect, recording(handler))
    return latched


@pytest.mark.parametrize("fidelity", TIERS)
@pytest.mark.parametrize("runtime", ["rtos", "coroutine"])
@pytest.mark.parametrize("vendor", [TEST_PROFILE, VENDOR_PROFILES["hynix"]],
                         ids=["test", "hynix"])
def test_the_pair_behind_loads_under_the_tprog_ahead(
        vendor, runtime, fidelity, die_latches, array_programs):
    """Two pairs queued behind an erase chain: the second pair's pages
    both load while the first pair's CACHE PROGRAM is in the array.  A
    template polls the queue cycle (tDBSY) between them as soon as RDY
    is up; its ready-wait once slept to the tPROG's end instead, and the
    second page loaded after it.  A page's load is timed from the pair's
    first page: its 80h latch to its 0x11 latch."""
    sim = Simulator()
    controller = BabolController(sim, ControllerConfig(
        vendor=vendor, lun_count=1, runtime=runtime, track_data=True,
        seed=3, fidelity=fidelity))
    controller.luns[0].array.error_model.config = ErrorModelConfig.noiseless()
    page = vendor.geometry.page_size
    controller.erase_block(0, 9)
    tasks = [controller.program_page(0, block, index, page * block)
             for index in range(2) for block in (4, 5)]
    sim.run()
    assert [task.result for task in tasks] == [True] * 4
    assert controller.programs_chained == 1
    if fidelity == "tlm":
        assert controller.fast_ops.ops_templated == 5
    ((begun, tprog),) = [(begun, duration) for _, _, begun, duration, cached
                         in array_programs if cached]
    confirm = [at for name, at in die_latches
               if name == "CACHE_PROGRAM_2ND"]
    assert confirm == [begun]
    after = [(name, at) for name, at in die_latches if at >= begun]
    loads = [at for name, at in after if name == "PROGRAM_1ST"]
    queued = [at for name, at in after if name == "MP_PROGRAM_2ND"]
    assert len(loads) == 2 and len(queued) == 1
    load = queued[0] - loads[0]
    assert loads[1] + load <= begun + tprog


# ---------------------------------------------------------------------------
# The die: a queue cycle behind a cache program
# ---------------------------------------------------------------------------


def _load(codec, index, block, page, confirm):
    address = codec.encode(PhysicalAddress(block, page))
    return (
        DeclareHandle(f"h{index}", "to_flash", nbytes=FULL_PAGE,
                      dram_address=0),
        Txn(TxnKind.DATA_IN, (
            LatchSeq((cmd(CMD.PROGRAM_1ST), addr(address))),
            DataXfer("in", FULL_PAGE, HandleRef(f"h{index}"),
                     after_address=True),
            LatchSeq((cmd(confirm),)))),
    )


def _status_of(codec, name, block):
    row = codec.encode_row(codec.row_address(PhysicalAddress(block, 0)))
    return (
        DeclareHandle(name, "capture", nbytes=1),
        Txn(TxnKind.POLL, (
            LatchSeq((cmd(CMD.READ_STATUS_ENHANCED), addr(row))),
            DataXfer("out", 1, HandleRef(name)))),
    )


class _FailsBlock:
    """Fault hook: every program of a page in ``block`` fails."""

    def __init__(self, block):
        self.block = block

    def on_program(self, lun, targets):
        return frozenset((self.block,))

    def on_erase(self, lun, targets):
        return False

    def on_busy(self, lun, kind, duration):
        return duration


def _run(fidelity, nodes, hook=None):
    sim = Simulator()
    controller = _controller(sim, fidelity)
    if hook is not None:
        controller.luns[0]._fault_hook = hook
    program = OpProgram("probe", tuple(nodes), "")

    def op(ctx):
        return (yield from run_program(ctx, program))

    result = controller.run_to_completion(controller.submit(op, 0))
    sim.run()
    return result, controller.luns[0]


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_queue_cycle_behind_a_cache_program_keeps_ardy_low(fidelity):
    """80h-11h, tDBSY, 80h-15h, then the next pair's 80h-11h: its tDBSY
    ends with the array still programming, so the ARDY poll waits for
    the array and the next 80h-15h confirms legally (it raised
    ``LunProtocolError`` when the queue cycle raised ARDY)."""
    codec = _controller(Simulator(), fidelity).codec
    nodes = [
        *_load(codec, 0, 4, 0, CMD.MP_PROGRAM_2ND),
        PollStatus(until="ready"),
        *_load(codec, 1, 5, 0, CMD.CACHE_PROGRAM_2ND),
        *_load(codec, 2, 4, 1, CMD.MP_PROGRAM_2ND),
        PollStatus(until="ready", dest="queued"),
        PollStatus(until="array_ready"),
        *_load(codec, 3, 5, 1, CMD.CACHE_PROGRAM_2ND),
        PollStatus(until="array_ready"),
        Return(Reg("queued")),
    ]
    queued, lun = _run(fidelity, nodes)
    assert queued & StatusBits.RDY and not queued & StatusBits.ARDY
    assert lun.array.programs == 4
    assert lun.op_counts["CACHE_PROGRAM_2ND"] == 2


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_queue_cycle_keeps_the_finished_pairs_fail_bits(fidelity):
    """The pair before fails on plane 1; a queue cycle that starts after
    it finished must not clear that plane's FAIL (it did: tDBSY was
    priced as an array operation)."""
    codec = _controller(Simulator(), fidelity).codec
    nodes = [
        *_load(codec, 0, 4, 0, CMD.MP_PROGRAM_2ND),
        PollStatus(until="ready"),
        *_load(codec, 1, 5, 0, CMD.CACHE_PROGRAM_2ND),
        SoftSleep(2 * T_PROG),
        *_load(codec, 2, 4, 1, CMD.MP_PROGRAM_2ND),
        PollStatus(until="ready"),
        PollStatus(until="array_ready"),
        *_status_of(codec, "s4", 4),
        *_status_of(codec, "s5", 5),
        Return((E("delivered_byte", (HandleRef("s4"),)),
                E("delivered_byte", (HandleRef("s5"),)))),
    ]
    (plane0, plane1), _ = _run(fidelity, nodes, _FailsBlock(5))
    assert not plane0 & StatusBits.FAIL
    assert plane1 & StatusBits.FAIL


# ---------------------------------------------------------------------------
# A failed page fails its own write only
# ---------------------------------------------------------------------------


class _FailsChainedBlock:
    """Fault hook: the second block of the first pair a CACHE PROGRAM
    confirmed goes bad — every program of a page there fails from then
    on."""

    def __init__(self):
        self.block = None
        self.pair = None

    def on_program(self, lun, targets):
        if self.block is None and len(targets) == 2 \
                and lun.op_counts["CACHE_PROGRAM_2ND"]:
            self.pair = tuple(t.block for t in targets)
            self.block = self.pair[1]
        return frozenset((self.block,)) if any(
            t.block == self.block for t in targets) else frozenset()

    def on_erase(self, lun, targets):
        return False

    def on_busy(self, lun, kind, duration):
        return duration


@pytest.mark.parametrize("planned", [False, True])
def test_a_fail_in_a_chained_pair_fails_that_page_only(planned):
    sim = Simulator()
    controller = _controller(sim, "tlm")
    hook = _FailsChainedBlock()
    controller.luns[0]._fault_hook = hook  # keeps the TLM templates
    controller.submit(erase_block_op, 0, codec=controller.codec, block=9,
                      _plan=planned)
    tasks = [_program(controller, block, page, 0, planned)
             for page in range(3) for block in (4, 5)]
    sim.run()
    assert controller.programs_chained == 2
    # The chain's first pair is the first a CACHE PROGRAM confirmed.
    assert hook.pair == (4, 5)
    assert [task.result for task in tasks] == [True, False] * 3


@pytest.mark.parametrize("fidelity", TIERS)
def test_the_ftl_retires_only_the_chained_pairs_bad_block(fidelity):
    sim = Simulator()
    controller = _controller(sim, fidelity)
    hook = _FailsChainedBlock()
    controller.luns[0]._fault_hook = hook
    ftl = PageMappedFtl(sim, controller, FtlConfig(
        blocks_per_lun=12, overprovision_blocks=4))
    last = {}

    def writer(k):  # each writer its own LPNs: no two race on one
        for i in range(16):
            lpn = (i * 7) % 8 * 8 + k
            version = last.get(lpn, (0,))[0] + 1
            last[lpn] = (version,)
            controller.dram.write(PAGE * (2 + k), _payload(lpn, version))
            yield from ftl.write(lpn, PAGE * (2 + k))

    for k in range(8):
        sim.spawn(writer(k), name=f"writer{k}")
    sim.run()
    assert hook.pair is not None and controller.programs_chained
    good, bad = hook.pair
    assert ftl.retired_blocks == [(0, bad)]
    assert [r.reason for r in ftl.bad_blocks.journal] == [REASON_PROGRAM_FAIL]
    for lpn, (version,) in sorted(last.items()):
        sim.run_process(ftl.read(lpn, 0))
        assert np.array_equal(controller.dram.read(0, PAGE),
                              _payload(lpn, version)), lpn
    ftl.check_invariants()


# ---------------------------------------------------------------------------
# A host read ends the chain
# ---------------------------------------------------------------------------


def _read_mid_chain(fidelity, arrive_ns):
    """Four pairs queued behind an erase; a class-0 read of block 1
    arrives ``arrive_ns`` after the erase ends."""
    sim = Simulator()
    controller = _controller(sim, fidelity)
    assert controller.run_to_completion(controller.program_page(0, 1, 0, 0))
    erase = controller.erase_block(0, 9)
    programs = [controller.program_page(0, block, page, 0)
                for page in range(4) for block in (4, 5)]

    def host():
        yield from controller.wait(erase)
        yield Timeout(arrive_ns)
        read = controller.read_page(0, 1, 0, PAGE, priority=0)
        yield from controller.wait(read)
        return read

    read = sim.run_process(host())
    sim.run()
    return controller, erase, programs, read


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_host_read_ends_the_chain(fidelity, array_programs):
    """The read arrives while the second pair loads behind the first:
    the chain confirms the loaded pair with 0x10 and stops; the read
    waits no more than the tPROG it arrived in, one more tPROG and one
    pair's status, and the rest start a new chain after it."""
    controller, erase, programs, read = _read_mid_chain(fidelity, 40_000)
    assert all(task.result is True for task in programs)
    starts = [(begun, duration, cached)
              for _, targets, begun, duration, cached in array_programs
              if len(targets) == 2]
    assert [cached for *_, cached in starts] == [True, False, True, False]
    arrived = read.submitted_at
    in_array = [begun + duration for begun, duration, _ in starts
                if begun <= arrived < begun + duration]
    assert len(in_array) == 1
    assert read.admitted_at - in_array[0] <= T_PROG + 20_000
    # Pairs the chain had not taken when the read arrived run after it.
    later = [task for task in programs if task.admitted_at > arrived]
    assert len(later) == 4
    assert all(task.admitted_at >= read.finished_at for task in later)
    assert controller.programs_chained == 2


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_read_before_the_first_confirm_waits_one_pair(fidelity):
    """A read queued while the chain's first pair loads ends the chain
    at once: it waits at most one pair load and one tPROG."""
    controller, erase, programs, read = _read_mid_chain(fidelity, 0)
    assert programs[0].admitted_at <= read.submitted_at
    assert read.admitted_at - read.submitted_at <= T_PROG + 60_000
    assert all(task.admitted_at >= read.finished_at
               for task in programs[2:])


# ---------------------------------------------------------------------------
# A power cut inside a chain
# ---------------------------------------------------------------------------


def _persistent_run(fidelity, cut_ns=None):
    """Sixteen writers, each on its own LPNs, on a persistent two-LUN
    shard, optionally cut at ``cut_ns``: ``(controller, issued, acked,
    staged)`` — the last version issued and the last acked per LPN, and
    the host LPN staged into each data page's spare area."""
    sim = Simulator()
    controller = _controller(sim, fidelity, lun_count=2)
    ftl = ShardedFtl(sim, [controller], CONFIG)
    issued, acked, staged = {}, {}, {}
    persist = ftl.shards[0].persist
    stage = persist.stage_data_oob

    def recording_stage(lun, block, page, kind, lpn, seq):
        staged[(lun, block, page)] = lpn
        return stage(lun, block, page, kind, lpn, seq)

    persist.stage_data_oob = recording_stage

    def writer(k):
        rng = random.Random(k)
        for _ in range(30):
            lpn = rng.randrange(4) * 16 + k
            issued[lpn] = version = issued.get(lpn, 0) + 1
            controller.dram.write(PAGE * (2 + k), _payload(lpn, version))
            yield from ftl.write(lpn, PAGE * (2 + k))
            acked[lpn] = version

    for k in range(16):
        sim.spawn(writer(k), name=f"writer{k}")
    if cut_ns is None:
        sim.run()
        return controller, issued, acked, staged
    PowerCut(sim, cut_ns).arm([controller])
    with pytest.raises(PowerLossError):
        sim.run()
    apply_power_cut([controller], cut_ns)
    return controller, issued, acked, staged


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_power_cut_inside_a_chain(fidelity, array_programs):
    _persistent_run(fidelity)
    chained = [(position, targets, begun, duration)
               for position, targets, begun, duration, cached
               in array_programs if cached]
    assert len(chained) >= 2, "the run chained too few pairs"
    position, targets, begun, duration = chained[len(chained) // 2]
    cut_ns = begun + duration // 2
    array_programs.clear()
    controller, issued, acked, staged = _persistent_run(fidelity, cut_ns)
    # Both pages are torn, and neither write was acked.
    array = controller.luns[position].array
    for target in targets:
        assert target.page in array.block(target.block).torn
    for lpn in {staged[(position, t.block, t.page)] for t in targets}:
        assert issued[lpn] == acked.get(lpn, 0) + 1

    images = snapshot_media([controller])
    sim2 = Simulator()
    controller2 = _controller(sim2, fidelity, lun_count=2, seed=77)
    restore_media([controller2], images)
    ftl2, _ = mount_sharded(sim2, [controller2], CONFIG)
    for lpn, version in sorted(acked.items()):
        assert ftl2.is_mapped(lpn), f"acked LPN {lpn} lost"
        sim2.run_process(ftl2.read(lpn, 0))
        got = controller2.dram.read(0, PAGE)
        assert any(np.array_equal(got, _payload(lpn, v))
                   for v in {version, issued[lpn]}), lpn


# ---------------------------------------------------------------------------
# A fault inside a chain
# ---------------------------------------------------------------------------


def _guarded_writes(fidelity, fault):
    """Four pairs of writes on one die behind an erase, each through a
    ``RecoveryManager`` (with a watchdog, both tiers run the generic
    runtime), under ``fault``: ``(controller, recovery, acks, data)``."""
    sim = Simulator()
    controller = BabolController(sim, ControllerConfig(
        vendor=TEST_PROFILE, lun_count=1, runtime="rtos", track_data=True,
        seed=7, fidelity=fidelity, watchdog=Watchdog.for_vendor(TEST_PROFILE)))
    lun = controller.luns[0]
    lun.array.error_model.config = ErrorModelConfig.noiseless()
    FaultInjector(FaultCampaign(name="chain", seed=7,
                                faults=[fault])).attach(controller)
    recovery = RecoveryManager(controller, policy=RecoveryPolicy(
        max_status_retries=8, backoff_ns=T_PROG))
    targets = [(block, page) for page in range(4) for block in (4, 5)]
    acks, data = {}, {}

    def writer(index, block, page):
        data[block, page] = _payload(block * 8 + page, 1)
        controller.dram.write(PAGE * index, data[block, page])
        acks[block, page] = yield from recovery.program_page(
            0, block, page, PAGE * index)

    erase = controller.erase_block(0, 9)
    for index, (block, page) in enumerate(targets):
        sim.spawn(writer(index, block, page), name=f"writer{index}")
    sim.run()
    assert erase.result is True
    return controller, recovery, acks, data


@pytest.mark.parametrize("fidelity", TIERS)
# A fault's ``after_op`` counts the busies the die opens: the erase,
# then per pair its queue cycle (tDBSY, a "dummy" busy) and its tPROG —
# a CACHE PROGRAM's for the first three pairs, the end's PROGRAM for the
# fourth.
@pytest.mark.parametrize("fault,busy,retried,reissued,resets,chained", [
    # The die hangs in the queue cycle (tDBSY) that loads the pair
    # behind: the sixth busy, in the step that confirmed pair 2 and
    # loads pair 3.  Pair 2's tPROG ends under the hang: the recovery
    # stage-1 status read finds the die ready and takes its verdict.
    (FaultSpec(kind=FaultKind.DIE_HANG, lun=0, count=1, after_op=5),
     "dummy", 2, 0, 1, 2),
    # The chain end's tPROG, the ninth busy, stretched past the
    # watchdog: no pair is behind it, so nothing is reset.
    (FaultSpec(kind=FaultKind.STUCK_BUSY, lun=0, count=1, after_op=7,
               stretch=30.0), "program", 2, 0, 0, 3),
    # The first CACHE PROGRAM's tPROG, stretched within the watchdog:
    # the step's ARDY poll waits it out.
    (FaultSpec(kind=FaultKind.STUCK_BUSY, lun=0, count=1, after_op=1,
               stretch=3.0), "program", 0, 0, 0, 3),
    # The same tPROG stretched past the watchdog, or hung: the chain's
    # RESET aborts it, so its pair fails with OpAborted and the
    # recovery re-issues it after a RESET of its own, per write.
    (FaultSpec(kind=FaultKind.STUCK_BUSY, lun=0, count=1, after_op=1,
               stretch=30.0), "program", 0, 2, 3, 2),
    (FaultSpec(kind=FaultKind.DIE_HANG, lun=0, count=1, after_op=2),
     "program", 0, 2, 3, 2),
], ids=["hang-behind", "stretched-end", "stretched-cache",
        "aborted-cache", "hung-cache"])
def test_a_fault_in_a_chain_loses_no_acked_write(
        fidelity, fault, busy, retried, reissued, resets, chained,
        array_programs):
    """Every acknowledged page reads back, and no row is programmed but
    the eight written: a pair loaded behind a step that timed out is
    dropped by a RESET and runs again, so its unconfirmed pages are
    never taken for committed, nor programmed with another confirm; a
    pair whose CACHE PROGRAM that RESET aborts is written again."""
    controller, recovery, acks, data = _guarded_writes(fidelity, fault)
    lun = controller.luns[0]
    assert acks == {target: True for target in data}
    for (block, page), payload in data.items():
        got = lun.array.pristine_page(PhysicalAddress(block, page))
        assert got.tobytes()[:PAGE] == payload.tobytes(), (block, page)
    assert lun.array.programs == len(data)
    (record,) = lun._fault_hook.records
    assert record.detail.startswith(f"{busy} busy"), record.detail
    assert recovery.stats.timeouts == retried + reissued
    assert recovery.stats.recovered_by_retry == retried
    assert recovery.stats.recovered_by_reset == reissued
    assert recovery.stats.resets == reissued
    assert lun.op_counts.get("RESET", 0) == resets
    assert controller.programs_chained == chained
    if fault.stretch == 3.0:
        # The chain waited the stretched tPROG out before its next one.
        cached = [(begun, duration) for _, targets, begun, duration, cached
                  in array_programs if cached and len(targets) == 2]
        (first, tprog), (second, _) = cached[:2]
        assert second - first >= 3 * tprog


@pytest.mark.parametrize("busy,error,programs", [
    # The sixth busy: the queue cycle loading pair 3, in the step that
    # confirmed pair 2, whose tPROG ends under the hang.
    (6, "OpTimeout", 8),
    # The fifth: pair 2's CACHE PROGRAM, which the RESET aborts.
    (5, "OpAborted", 6),
], ids=["hang-behind", "hung-cache"])
def test_a_failed_template_step_hands_the_pair_behind_back(
        monkeypatch, busy, error, programs):
    """The template runner's side of the same rule.  A watchdog stands
    the runner down, so a template's poll that gives up raises a
    timeout here, as the generic poll would under a watchdog."""
    monkeypatch.setattr(fastops, "poll_budget_exhausted",
                        lambda what: OpTimeout(what, 0, 1))

    class HangsOneBusy:
        def __init__(self):
            self.busies = 0

        def on_program(self, lun, targets):
            return frozenset()

        def on_erase(self, lun, targets):
            return False

        def on_busy(self, lun, kind, duration):
            self.busies += 1
            return None if self.busies == busy else duration

    sim = Simulator()
    controller = _controller(sim, "tlm")
    lun = controller.luns[0]
    lun._fault_hook = HangsOneBusy()  # keeps the TLM templates
    for block in (4, 5):
        controller.dram.write(PAGE * block, _payload(block, 1))
    controller.erase_block(0, 9)
    tasks = [controller.program_page(0, block, page, PAGE * block)
             for page in range(4) for block in (4, 5)]
    sim.run()
    assert controller.fast_ops.ops_templated == 9
    # The pair in the array when the die hung fails; the pair loaded
    # behind it runs again after the RESET, and so do the rest.
    results = [True, True, None, None] + [True] * 4
    assert [task.result for task in tasks] == results
    assert all(type(task.error).__name__ == error for task in tasks[2:4])
    assert lun.op_counts["RESET"] == 1
    assert lun.array.programs == programs
    for index, (block, page) in enumerate(
            [(b, p) for p in range(4) for b in (4, 5)]):
        got = lun.array.pristine_page(PhysicalAddress(block, page))
        if results[index] or programs == 8:  # or committed under the hang
            assert got.tobytes()[:PAGE] == _payload(block, 1).tobytes()
        else:  # aborted by the RESET: still erased
            assert (got == 0xFF).all()


# ---------------------------------------------------------------------------
# Where chains do not run
# ---------------------------------------------------------------------------


def _no_chain_run(vendor, fidelity):
    sim = Simulator()
    controller = _controller(sim, fidelity, vendor=vendor)
    controller.submit(erase_block_op, 0, codec=controller.codec, block=9)
    tasks = [controller.program_page(0, block, page, 0)
             for page in range(3) for block in (4, 5)]
    sim.run()
    assert all(task.result is True for task in tasks)
    return controller


@pytest.mark.parametrize("fidelity", TIERS)
def test_no_chain_without_cache_program_or_a_second_plane(fidelity):
    no_cache = _no_chain_run(
        dataclasses.replace(TEST_PROFILE, supports_cache=False), fidelity)
    assert (no_cache.programs_paired, no_cache.programs_chained) == (3, 0)
    one_plane = _no_chain_run(dataclasses.replace(
        TEST_PROFILE, geometry=dataclasses.replace(
            TEST_GEOMETRY, planes=1, blocks_per_plane=64)), fidelity)
    assert (one_plane.programs_paired, one_plane.programs_chained) == (0, 0)
    for controller in (no_cache, one_plane):
        assert "CACHE_PROGRAM_2ND" not in controller.luns[0].op_counts


def test_the_async_hardware_baseline_never_chains():
    sim = Simulator()
    controller = AsyncHwController(sim, vendor=TEST_PROFILE, lun_count=1,
                                   track_data=True, seed=3)
    requests = [controller.program_page(0, block, page, 0)
                for page in range(3) for block in (4, 5)]
    for request in requests:
        assert controller.run_to_completion(request)
    counts = controller.luns[0].op_counts
    assert "CACHE_PROGRAM_2ND" not in counts
    assert counts["PROGRAM_2ND"] == 6
