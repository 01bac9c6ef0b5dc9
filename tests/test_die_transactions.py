"""Die transactions are a composition of the LUN's handlers, not a third copy.

The TLM template runner reaches a die through its transaction-level
entry (``Lun.apply_transaction`` / ``Lun.status_round_trip`` over the
fold of a lowered shape); the waveform tier and the generic TLM path
reach it through the pin-level entry (``deliver_segment_inline`` over
real ``WaveformSegment`` objects).  This file drives *twin* dies — same
profile, same seed — one through each entry, over the same lowering,
and requires the whole die state to be equal after every transaction:
protocol state, both register banks, status, op counts, the pending
completions' ``(time, order)``, busy accounting, in-flight ops, the RNG
stream, the payload bytes that moved, and every fault/sanitizer hook
call with its arguments and logical nanosecond.

Mutation check (run by hand, see CHANGES.md): taking the catch-up epoch
once per transaction instead of once per segment fails
``test_tie_with_a_completion_from_an_earlier_segment``; swapping the
``op_counts`` bump and the effect call fails
``test_a_raising_handler_still_counts_the_latch``.
"""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import BabolController, ControllerConfig
from repro.core.fastops import PlanExecutor
from repro.core.opir.compile import (
    ADDR,
    DATA_IN,
    DATA_OUT,
    HANDLE,
    POLL,
    SLEEP,
    TXN,
)
from repro.core.opir.registry import _BUILDERS, lowered_shape
from repro.core.ops.base import POLLS
from repro.core.packetizer import Packetizer
from repro.dram import DramBuffer
from repro.flash.lun import Lun, LunProtocolError, LunState
from repro.onfi.commands import CMD
from repro.onfi.features import FeatureAddress
from repro.onfi.geometry import PhysicalAddress
from repro.onfi.protocol import OPCODES
from repro.onfi.signals import (
    AddressLatch,
    CommandLatch,
    DataInAction,
    DataOutAction,
    SegmentKind,
    WaveformSegment,
)
from repro.onfi.status import StatusBits
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE
from tests.test_plan_shapes import DECLARED, PROFILES, _draws

#: The eight single-target declared shapes (the wrappers' data plane);
#: the multi-plane ones run in the straight-line sweep below.
WRAPPERS = [name for name in DECLARED
            if not name.startswith(("multiplane", "paired", "program_chain"))]

REPO = Path(__file__).resolve().parents[1]
DRAM_BYTES = 1 << 21


# ---------------------------------------------------------------------------
# The rig: twin dies, one per entry
# ---------------------------------------------------------------------------


class Hooks:
    """Stands in for the FaultInjector and the FlashSanitizer on one die:
    records every call with its arguments at the die's logical time."""

    def __init__(self, busy=None, fail=False, drop=False):
        self.busy = busy or (lambda kind, duration: duration)
        self.fail = fail
        self.drop = drop
        self.log = []

    def on_busy(self, lun, kind, duration):
        self.log.append(("busy", lun._now(), kind, duration))
        return self.busy(kind, duration)

    def on_program(self, lun, targets):
        self.log.append(("program", lun._now(), tuple(targets)))
        return frozenset(t.block for t in targets) if self.fail \
            else frozenset()

    def on_erase(self, lun, targets):
        self.log.append(("erase", lun._now(), tuple(targets)))
        return self.fail

    def on_set_features(self, lun, address, params):
        self.log.append(("features", lun._now(), address, params))
        return self.drop

    def on_busy_violation(self, lun, opcode):
        self.log.append(("busy-violation", lun._now(), opcode))

    def on_unarmed_read(self, lun, what):
        self.log.append(("unarmed-read", lun._now(), what))


class Twin:
    """One die with its own clock, DRAM and Packetizer.  ``inline``
    picks the entry: real segments through ``deliver_segment_inline``,
    or the fold through ``apply_transaction`` / ``status_round_trip``."""

    def __init__(self, profile, seed, inline, hooks=None):
        self.inline = inline
        self.sim = Simulator()
        self.lun = Lun(self.sim, profile, seed=seed)
        self.dram = DramBuffer(DRAM_BYTES)
        self.dram.write(0, np.random.default_rng(seed).integers(
            0, 256, size=DRAM_BYTES, dtype=np.uint8))
        self.packetizer = Packetizer(self.dram)
        self.handles = {}
        self.hooks = hooks
        if hooks is not None:
            self.lun._fault_hook = hooks
            self.lun._san_flash = hooks

    def segments(self, recipes, operands):
        """Fresh WaveformSegments from lowered recipes, the way the
        waveform executor builds them."""
        for _, kind, duration, actions, _, _, label, _ in recipes:
            built = []
            for action in actions:
                if len(action) == 2:
                    built.append(action)
                    continue
                offset, what, a, name, column = action
                if what == ADDR:
                    built.append((offset, AddressLatch(operands[a])))
                elif what == DATA_OUT:
                    built.append((offset, DataOutAction(a, self.handles[name])))
                else:
                    built.append((offset, DataInAction(
                        a, column, self.handles[name])))
            yield WaveformSegment(kind, duration, tuple(built), 1, label)

    def transaction(self, recipes, operands=()):
        """One transaction at the current instant, then its channel
        hold.  Returns the error it raised as ``(type, text)``."""
        base = self.sim.now
        hold = sum(recipe[2] for recipe in recipes)
        error = None
        try:
            if self.inline:
                at = base
                for segment in self.segments(recipes, operands):
                    self.lun.deliver_segment_inline(segment, at)
                    at += segment.duration_ns
            else:
                self.lun.apply_transaction(
                    PlanExecutor._fold_txn(recipes)[3], base, operands,
                    self.handles)
        except LunProtocolError as exc:
            error = (type(exc), str(exc))
        self.sim.run(until=base + hold)
        return error

    def status(self, recipes):
        """One READ STATUS round trip at the current instant."""
        base = self.sim.now
        if self.inline:
            self.handles["s"] = self.packetizer.capture(1)
            assert self.transaction(recipes) is None
            return int(self.handles["s"].delivered[0])
        (_, _, hold, ((cmd_off, _),), *_), (_, _, burst, ((off, *_),), *_) = \
            recipes
        byte = self.lun.status_round_trip(base + cmd_off, base + hold + off)
        self.sim.run(until=base + hold + burst)
        return byte

    def snapshot(self):
        lun = self.lun
        banks = [[None if reg is None else reg.tobytes() for reg in bank]
                 for bank in (lun._page_register, lun._cache_register)]
        return {
            "now": self.sim.now,
            "state": lun.state,
            "data_source": lun._data_source,
            "column": lun._column,
            "row": lun._row_addr,
            "plane": lun._active_plane,
            "registers": banks,
            "status": lun.status.value(),
            "op_counts": dict(lun.op_counts),
            "pending": [(rec.time, rec.order)
                        for rec in lun._pending_completions],
            "busy_until": lun._busy_until,
            "busy_ns_total": lun.busy_ns_total,
            "inflight": lun.inflight_ops,
            "action_time_cleared": lun._action_time is None,
            "rng": lun._rng.bit_generator.state,
            "pslc": (lun._pslc_override, lun.features.pslc_enabled),
            "array": (lun.array.reads, lun.array.programs, lun.array.erases),
            "completed": (lun.reads_completed, lun.programs_completed,
                          lun.erases_completed),
            "dram": self.dram.read(0, DRAM_BYTES).tobytes(),
            "hooks": None if self.hooks is None else list(self.hooks.log),
        }


_BANKS = {}


def bank_of(profile):
    """A µFSM bank to lower against (one controller per profile)."""
    if profile.name not in _BANKS:
        _BANKS[profile.name] = BabolController(
            Simulator(), ControllerConfig(vendor=profile, lun_count=1,
                                          fidelity="tlm"))
    return _BANKS[profile.name].ufsm


def status_recipes(profile):
    lowered, _ = lowered_shape(bank_of(profile), None,
                               _BUILDERS["read_status"], {})
    return lowered.steps[1][3]


class Twins:
    def __init__(self, profile, seed=11, hooks=None):
        self.profile = profile
        self.pair = [Twin(profile, seed, inline, hooks and hooks())
                     for inline in (True, False)]
        self.status_recipes = status_recipes(profile)

    @property
    def lun(self):
        return self.pair[0].lun

    @property
    def now(self):
        return self.pair[0].sim.now

    def both(self, act):
        """Run ``act(twin)`` on each die; outcome and whole state agree."""
        inline, folded = (act(twin) for twin in self.pair)
        assert folded == inline
        ours, theirs = (twin.snapshot() for twin in self.pair)
        for key in theirs:
            assert ours[key] == theirs[key], key
        return inline

    def transaction(self, recipes, operands=()):
        return self.both(lambda twin: twin.transaction(recipes, operands))

    def status(self):
        return self.both(lambda twin: twin.status(self.status_recipes))

    def run_until(self, time_ns):
        self.both(lambda twin: twin.sim.run(until=time_ns))

    def run_op(self, name, kwargs, max_polls=3):
        """Drive one straight-line op over its lowering, the way the
        template runner walks its fold.  Stops at the first raise
        (returned) or when a poll's budget runs out on a hung die."""
        lowered, operands = lowered_shape(
            bank_of(self.profile), self.profile, _BUILDERS[name], kwargs)
        if lowered.alias is not None:
            lowered = lowered.alias[1]
        for step in lowered.steps:
            tag = step[0]
            if tag == TXN:
                error = self.transaction(step[3], operands)
                if error is not None:
                    return error
            elif tag == HANDLE:
                for twin in self.pair:
                    twin.handles[step[1]] = step[2](
                        twin.packetizer, operands[step[4]], step[3])
            elif tag == POLL:
                for _ in range(max_polls):
                    end = self.lun.ready_at(POLLS[step[2]][1])
                    self.run_until(max(end or 0, self.now + 1))
                    if self.status() & POLLS[step[2]][1]:
                        break
                else:
                    return "hung"
            elif tag == SLEEP:
                self.run_until(self.now + step[1])
        return None


def recipe(kind, duration, *actions):
    """A hand-built segment recipe: ``(offset, action)`` pairs."""
    return (None, kind, duration, tuple(actions), (), None, "", False)


def latch(offset, opcode):
    return (offset, CommandLatch(opcode))


def address(offset, slot):
    return (offset, ADDR, slot, None, None)


CA = SegmentKind.CMD_ADDR


# ---------------------------------------------------------------------------
# Every stock shape, every profile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_declared_shapes_agree_on_twin_dies(profile):
    """All eight declared shapes, interleaved on one pair of dies over
    seeded addresses (programs and erases land before the reads of the
    same draws), under each in-tree profile."""
    vendor = PROFILES[profile]
    twins = Twins(vendor)
    draws = {name: list(_draws(name, vendor, seed=3 + index))[:5]
             for index, name in enumerate(WRAPPERS)}
    order = sorted(WRAPPERS, key=lambda name: ("read" in name, name))
    for round_ in range(5):
        for name in order:
            kwargs = dict(draws[name][round_])
            if "dram_address" in kwargs:
                kwargs["dram_address"] %= DRAM_BYTES // 2
            assert twins.run_op(name, kwargs) is None, name
    counts = twins.lun.op_counts
    assert counts["VENDOR_PSLC_ENTER"] == 15 and counts["READ_STATUS"] >= 40
    assert twins.lun.array.programs and twins.lun.array.erases


def test_other_straight_line_programs_agree_on_twin_dies():
    """The fold is not special to the declared eight: every other
    program a template could run (feature and ID sources, enhanced
    status, the parameter page, reset, multi-plane queues, a program
    chain)."""
    twins = Twins(TEST_PROFILE)
    codec = twins.lun.codec
    row = codec.encode_row(codec.row_address(PhysicalAddress(2, 0)))
    for name, kwargs in [
        ("multiplane_program", {"codec": codec, "pages": [
            (PhysicalAddress(10, 0), 0), (PhysicalAddress(11, 0), 4096)]}),
        ("paired_program", {"codec": codec, "pages": [
            (PhysicalAddress(13, 0), 4096), (PhysicalAddress(12, 0), 0)]}),
        # A program chain of two pairs: first step, step, end.
        ("program_chain_step", {"codec": codec, "pages": [
            (PhysicalAddress(14, 0), 0), (PhysicalAddress(15, 0), 4096)]}),
        ("program_chain_step", {"codec": codec, "pages": [
            (PhysicalAddress(14, 1), 4096), (PhysicalAddress(15, 1), 0)],
            "finished": [(PhysicalAddress(14, 0), 0),
                         (PhysicalAddress(15, 0), 4096)]}),
        ("program_chain_end", {"codec": codec, "pages": [
            (PhysicalAddress(14, 1), 4096), (PhysicalAddress(15, 1), 0)]}),
        ("partial_program", {"codec": codec, "address": PhysicalAddress(4, 1),
                             "chunks": [(0, 0, 128), (512, 0, 128)]}),
        ("read_page_timed_wait", {
            "codec": codec, "address": PhysicalAddress(10, 0),
            "dram_address": 8192,
            "wait_ns": int(TEST_PROFILE.timing.t_read_ns * 1.3)}),
        ("multiplane_erase", {"codec": codec, "blocks": [10, 11]}),
        ("set_features", {"feature_address": int(
            FeatureAddress.VENDOR_READ_RETRY), "params": (2, 0, 0, 0)}),
        ("get_features", {"feature_address": int(
            FeatureAddress.VENDOR_READ_RETRY)}),
        ("read_status_enhanced", {"row_address_bytes": row}),
        ("read_id", {}),
        ("read_parameter_page", {
            "param_busy_ns": TEST_PROFILE.timing.t_param_read_ns}),
        ("reset", {}),
    ]:
        assert twins.run_op(name, kwargs) is None, name
    assert twins.lun.features.read_retry_level == 2
    assert twins.lun.op_counts["MP_PROGRAM_2ND"] == 4
    assert twins.lun.op_counts["CACHE_PROGRAM_2ND"] == 1
    assert twins.lun.op_counts["READ_STATUS_ENHANCED"] == 7


def test_read_status_is_statically_legal():
    """What ``status_round_trip`` relies on instead of checking."""
    row = OPCODES[CMD.READ_STATUS]
    assert row.legal_while_busy and row.requires is None


# ---------------------------------------------------------------------------
# (a) completions against action times: before, exactly on, after
# ---------------------------------------------------------------------------


def _erasing(hooks=None):
    """Twins with an erase in flight; returns them and its end time."""
    twins = Twins(PROFILES["hynix"], hooks=hooks)
    codec = twins.lun.codec
    row = codec.encode_row(codec.row_address(PhysicalAddress(5, 0)))
    assert twins.transaction([recipe(
        CA, 300, latch(0, CMD.ERASE_1ST), address(25, 0),
        latch(200, CMD.ERASE_2ND))], (row,)) is None
    assert twins.lun.state is LunState.ARRAY_BUSY
    return twins, twins.lun.ready_at(StatusBits.RDY)


@pytest.mark.parametrize("delta,ready", [(-1, False), (0, None), (7, True)])
def test_completion_before_on_and_after_a_status_latch(delta, ready):
    """The kernel has not reached the erase's end; the latch's logical
    time is one ns short of it, exactly on it, or past it.  On the tie
    the entries must agree with each other, whatever they say (the most
    recent completion carries ``order == epoch``, so catch-up leaves it
    for the kernel — see CHANGES.md, PR 18)."""
    twins, end = _erasing()
    twins.run_until(end - 1000)
    for twin in twins.pair:
        twin.handles["s"] = twin.packetizer.capture(1)
    at = 1000 + delta
    assert twins.transaction([recipe(
        CA, at + 1, latch(at, CMD.READ_STATUS), (at, DATA_OUT, 1, "s", None),
    )]) is None
    sampled = [int(twin.handles["s"].delivered[0]) for twin in twins.pair]
    assert sampled[0] == sampled[1]
    if ready is not None:
        assert bool(sampled[0] & StatusBits.RDY) is ready


def test_tie_with_a_completion_scheduled_during_the_segment():
    """RESET at offset 0 schedules tRST's end; a latch in the *same*
    segment exactly on that nanosecond loses the tie (order >= epoch):
    the die is still busy and the latch raises — on both entries."""
    twins, _ = _erasing(Hooks)
    t_reset = twins.profile.timing.t_reset_ns
    error = twins.transaction([recipe(
        CA, t_reset + 100, latch(0, CMD.RESET), latch(t_reset, CMD.READ_1ST))])
    assert error == (LunProtocolError,
                     "opcode READ_1ST latched while LUN 0 is busy")
    assert twins.pair[1].hooks.log[-1][0] == "busy-violation"


def test_tie_with_a_completion_from_an_earlier_segment():
    """One transaction, three segments: a cache program's confirm
    schedules its array completion C; GET FEATURES schedules a second,
    short one; then a PROGRAM confirm lands exactly on C's nanosecond.
    The third segment's epoch was taken after both were scheduled, so C
    (order < epoch) fires first and the confirm finds the array free.
    An epoch — or the catch-up decision — taken once per transaction
    leaves C pending and the confirm raises."""
    twins = Twins(TEST_PROFILE)    # jitter 0.0: tPROG is exact
    codec = twins.lun.codec
    t_prog = TEST_PROFILE.timing.t_prog_ns
    first, second = (codec.encode(PhysicalAddress(9, page)) for page in (0, 1))
    feature = (int(FeatureAddress.IO_DRIVE_STRENGTH),)
    assert twins.transaction([
        recipe(CA, 400, latch(0, CMD.PROGRAM_1ST), address(25, 0),
               latch(300, CMD.CACHE_PROGRAM_2ND)),
        recipe(CA, t_prog - 200, latch(0, CMD.GET_FEATURES), address(25, 2)),
        recipe(CA, 200, latch(0, CMD.PROGRAM_1ST), address(25, 1),
               latch(100, CMD.PROGRAM_2ND)),   # at 300 + tPROG exactly
    ], (first, second, feature)) is None
    assert twins.lun.state is LunState.ARRAY_BUSY
    assert twins.lun.programs_completed == 1
    assert twins.lun.op_counts["PROGRAM_2ND"] == 1


# ---------------------------------------------------------------------------
# (b) a completion between the status latch and the sample
# ---------------------------------------------------------------------------


def test_completion_between_status_latch_and_sample():
    """tR ends after READ STATUS is latched and before its byte is
    sampled: the read's completion re-arms the data source, so the
    sampled byte is register data — through the real produce path on
    both entries (``_column`` moves)."""
    twins = Twins(PROFILES["micron"])
    codec = twins.lun.codec
    target = PhysicalAddress(3, 2)
    assert twins.run_op("program_page", {
        "codec": codec, "address": target, "dram_address": 0}) is None
    assert twins.transaction([recipe(
        CA, 400, latch(0, CMD.READ_1ST), address(25, 0),
        latch(300, CMD.READ_2ND))], (codec.encode(target),)) is None
    end = twins.lun.ready_at(StatusBits.RDY)
    (_, _, _, ((cmd_off, _),), *_), _ = twins.status_recipes
    twins.run_until(end - cmd_off - 1)
    column = twins.lun._column
    twins.status()
    assert twins.lun._column == column + 1


# ---------------------------------------------------------------------------
# (c) (d) the raises are the pin-level entry's own
# ---------------------------------------------------------------------------


def test_latch_into_a_busy_die_raises_through_on_command():
    twins, _ = _erasing(Hooks)
    codec = twins.lun.codec
    error = twins.run_op("program_page", {
        "codec": codec, "address": PhysicalAddress(6, 0), "dram_address": 0})
    assert error == (LunProtocolError,
                     "opcode PROGRAM_1ST latched while LUN 0 is busy")
    assert [(entry[0], entry[2]) for entry in twins.pair[1].hooks.log
            if entry[0] == "busy-violation"] == [
        ("busy-violation", CMD.PROGRAM_1ST)]
    assert twins.lun.op_counts["PROGRAM_1ST"] == 1


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_pslc_enter_on_a_part_without_pslc(profile):
    vendor = dataclasses.replace(PROFILES[profile], supports_pslc=False,
                                 name=f"{PROFILES[profile].name}-nopslc")
    twins = Twins(vendor)
    error = twins.run_op("pslc_read", {
        "codec": twins.lun.codec, "address": PhysicalAddress(2, 0),
        "dram_address": 0})
    assert error == (LunProtocolError,
                     f"{vendor.name} has no VENDOR_PSLC_ENTER opcode")
    assert twins.lun.op_counts == {"VENDOR_PSLC_ENTER": 1}


def test_a_raising_handler_still_counts_the_latch():
    """A confirm with no address latched: the handler raises after the
    latch was counted, as ``_on_command`` orders it."""
    twins = Twins(TEST_PROFILE)
    error = twins.transaction([recipe(CA, 100, latch(0, CMD.PROGRAM_2ND))])
    assert error == (LunProtocolError,
                     "confirm latched without a full address")
    assert twins.lun.op_counts == {"PROGRAM_2ND": 1}


def test_an_unknown_opcode_raises_through_on_command():
    twins = Twins(TEST_PROFILE)
    error = twins.transaction([recipe(CA, 100, latch(0, 0xB7))])
    assert error == (LunProtocolError, "unsupported opcode 0xB7")


# ---------------------------------------------------------------------------
# (e) LUN-side fault hooks: same site, same arguments
# ---------------------------------------------------------------------------


def _hooked_ops(twins):
    codec = twins.lun.codec
    outcomes = [
        twins.run_op("program_page", {
            "codec": codec, "address": PhysicalAddress(4, 0),
            "dram_address": 0}),
        twins.run_op("set_features", {
            "feature_address": int(FeatureAddress.VENDOR_READ_RETRY),
            "params": (3, 0, 0, 0)}),
        twins.run_op("erase_block", {"codec": codec, "block": 7}),
        twins.run_op("read_page", {
            "codec": codec, "address": PhysicalAddress(4, 0),
            "dram_address": 4096}),
    ]
    return outcomes, twins.pair[1].hooks.log


def test_hooks_fire_at_the_same_site_with_the_same_arguments():
    outcomes, log = _hooked_ops(Twins(PROFILES["toshiba"], hooks=Hooks))
    assert outcomes == [None] * 4
    assert [entry[0] for entry in log] == [
        "busy", "program", "features", "busy", "busy", "erase", "busy"]
    assert [entry[2] for entry in log if entry[0] == "busy"] == [
        "program", "feature", "erase", "read"]


def test_stretched_busy_and_injected_failures():
    def hooks():
        # (set_features waits tFEAT out on a timer: not stretched)
        return Hooks(busy=lambda kind, duration:
                     duration + (12_345 if kind != "feature" else 0),
                     fail=True, drop=True)

    twins = Twins(PROFILES["toshiba"], hooks=hooks)
    outcomes, _ = _hooked_ops(twins)
    assert outcomes == [None] * 4
    assert twins.lun.array.programs == 0 and twins.lun.array.erases == 0
    assert twins.lun.features.read_retry_level == 0   # the write was dropped
    assert twins.lun.status.value() & StatusBits.FAILC


def test_hung_die_stays_opaque_to_both_entries():
    def hooks():
        return Hooks(busy=lambda kind, duration:
                     None if kind == "erase" else duration)

    twins = Twins(TEST_PROFILE, hooks=hooks)
    assert twins.run_op("erase_block", {
        "codec": twins.lun.codec, "block": 7}) == "hung"
    assert twins.lun.ready_at(StatusBits.RDY) is None
    assert twins.lun._busy_until == -1
    assert twins.lun.op_counts["READ_STATUS"] == 3
    # RESET is legal while busy and revives it.
    assert twins.run_op("reset", {}) is None
    assert twins.lun.state is LunState.IDLE


# ---------------------------------------------------------------------------
# (f) a CACHE PROGRAM in the array: ready_at, RESET, the fault hook
# ---------------------------------------------------------------------------


def _cache_programming(confirm=CMD.CACHE_PROGRAM_2ND, hooks=Hooks):
    """Twins on TEST_PROFILE (tPROG exact) with block 4 page 0 loaded
    and confirmed by ``confirm``; returns them and the confirm's
    nanosecond."""
    twins = Twins(TEST_PROFILE, hooks=hooks)
    full = TEST_PROFILE.geometry.full_page_size
    for twin in twins.pair:
        twin.handles["h"] = twin.packetizer.to_flash(0, full)
    base = twins.now
    assert twins.transaction([recipe(
        SegmentKind.DATA_IN, 400, latch(0, CMD.PROGRAM_1ST), address(25, 0),
        (200, DATA_IN, full, "h", 0), latch(300, confirm))],
        (twins.lun.codec.encode(PhysicalAddress(4, 0)),)) is None
    return twins, base + 300


def test_ready_at_sees_rdy_under_a_cache_program():
    """RDY is up while the array programs: the ready-wait polls at
    once.  ARDY waits for the array's end, the one pending completion."""
    twins, confirmed = _cache_programming()
    lun = twins.lun
    assert lun.ready_at(StatusBits.RDY) == twins.now
    assert lun.ready_at(StatusBits.ARDY) == \
        confirmed + TEST_PROFILE.timing.t_prog_ns
    status = twins.status()
    assert status & StatusBits.RDY and not status & StatusBits.ARDY


def test_ready_at_a_hung_cache_program_is_none():
    """A hang the fault hook puts on a CACHE PROGRAM's tPROG schedules
    no completion: ARDY never comes, and RDY is still up."""
    def hooks():
        return Hooks(busy=lambda kind, duration:
                     None if kind == "program" else duration)

    twins, _ = _cache_programming(hooks=hooks)
    assert twins.lun.ready_at(StatusBits.ARDY) is None
    assert twins.lun.ready_at(StatusBits.RDY) == twins.now
    twins.run_until(twins.now + 10 * TEST_PROFILE.timing.t_prog_ns)
    assert not twins.status() & StatusBits.ARDY
    assert twins.lun.programs_completed == 0


@pytest.mark.parametrize("confirm", [CMD.CACHE_PROGRAM_2ND,
                                     CMD.PROGRAM_2ND],
                         ids=["cache-program", "program"])
def test_reset_aborts_the_program_in_the_array(confirm):
    """RESET right after 80h...15h aborts the CACHE PROGRAM in the array,
    as one right after 80h...10h aborts the PROGRAM: block 4 page 0
    stays erased, on both entries.  The confirm's tPROG reached the
    fault hook either way."""
    twins, _ = _cache_programming(confirm)
    assert twins.transaction([recipe(CA, 100, latch(0, CMD.RESET))]) is None
    twins.run_until(twins.now + 2 * TEST_PROFILE.timing.t_prog_ns)
    lun = twins.lun
    assert lun.programs_completed == 0 and lun.array.programs == 0
    assert (lun.array.pristine_page(PhysicalAddress(4, 0)) == 0xFF).all()
    assert lun.status.value() & StatusBits.ARDY
    assert [entry[2] for entry in twins.pair[1].hooks.log
            if entry[0] == "busy"] == ["program", "reset"]


# ---------------------------------------------------------------------------
# The die's private state stays behind repro.flash
# ---------------------------------------------------------------------------


def test_template_runner_touches_no_private_die_state():
    source = (REPO / "src/repro/core/fastops.py").read_text()
    assert re.findall(r"\blun\._\w+", source) == []
    gone = re.compile(r"_apply_seg|_template_poll|_run_template")
    assert [str(path) for path in sorted((REPO / "src").rglob("*.py"))
            if gone.search(path.read_text())] == []
