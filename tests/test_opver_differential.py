"""Differential verifier <-> sanitizer tests.

Every test seeds one defective op program and pins the agreement the
static verifier promises: the OPV rule flags the defect *ahead of
time*, and the matching runtime check (SAN sanitizer rule, TCK
timing-checker rule, or the die model's raise) catches the same defect
when the program actually runs.  A negative control pins the other
side: a clean program is clean through both lenses.

The twelve hand-seeded defects sample the space; the last section
covers it: every die situation x every opcode, the die model raises
exactly when the verifier proves a protocol error.  Both read the one
opcode table in :mod:`repro.onfi.protocol`, so this is the test a table
edit has to keep green.

The TEST_PROFILE vendor has jitter 0, so array times are exact on both
sides and the interval analysis cannot hide behind slack.
"""

import dataclasses

import pytest

from repro.analysis import LogicAnalyzer, TimingChecker
from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.op_lint import sample_kwargs
from repro.analysis.opver import verify_program
from repro.core.controller import BabolController, ControllerConfig
from repro.core.opir.interp import run_program
from repro.core.opir.nodes import (
    DataXfer,
    DeclareHandle,
    HandleRef,
    LatchSeq,
    OpProgram,
    PollStatus,
    Return,
    SoftSleep,
    TimerWait,
    Txn,
)
from repro.core.opir.registry import resolve_builder
from repro.core.transaction import TxnKind
from repro.core.ufsm.ca_writer import addr, cmd
from repro.flash.errors import ErrorModelConfig
from repro.flash.lun import LunProtocolError
from repro.onfi.commands import CMD
from repro.onfi.features import FeatureAddress
from repro.onfi.geometry import PhysicalAddress
from repro.onfi.protocol import OPCODES
from repro.sanitize import LivenessSanitizer, attach_sanitizers
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE

MODE = "NV-DDR2-200"  # the test controller's interface mode
LUNS = 2


def make_controller(track_data=False, vendor=TEST_PROFILE):
    sim = Simulator()
    controller = BabolController(sim, ControllerConfig(
        vendor=vendor, lun_count=LUNS, runtime="rtos",
        track_data=track_data, seed=6))
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    return sim, controller


def static_errors(program, vendor=TEST_PROFILE, **kwargs):
    """Error-severity OPV rules the verifier proves for ``program``."""
    kwargs.setdefault("luns", LUNS)
    return sorted({f.rule
                   for f in verify_program(program, vendor, mode=MODE,
                                           **kwargs)
                   if f.severity == "error"})


def run_runtime(program, *, sanitize="flash", track_data=False,
                liveness_budget=None, vendor=TEST_PROFILE):
    """Run ``program`` on the waveform simulator with sanitizers
    attached; returns (report, analyzer, raised-exception-or-None)."""
    sim, controller = make_controller(track_data=track_data, vendor=vendor)
    report = DiagnosticReport()
    attach_sanitizers(controller, sanitize, report)
    if liveness_budget is not None:
        LivenessSanitizer(max_stalled_polls=liveness_budget).attach(
            controller, report)
    analyzer = LogicAnalyzer(controller.channel)

    def driver(ctx):
        result = yield from run_program(ctx, program)
        return result

    error = None
    try:
        controller.run_to_completion(controller.submit(driver, 0))
    except Exception as exc:  # noqa: BLE001 — the defect under test
        error = exc
    return report, analyzer, error


def runtime_rules(report):
    return sorted({f.rule for f in report.findings})


def tck_rules(analyzer, timing=None):
    if timing is None:
        timing = _channel_timing()
    checker = TimingChecker(timing, lun_count=LUNS)
    return sorted({v.rule for v in checker.check_analyzer(analyzer)})


def _channel_timing():
    _, controller = make_controller()
    return controller.channel.timing


def _codec():
    _, controller = make_controller()
    return controller.codec


CODEC = _codec()
ROW = CODEC.encode(PhysicalAddress(block=3, page=1))
ERASE_ROW = CODEC.encode_row(CODEC.row_address(PhysicalAddress(block=3,
                                                               page=0)))
COL0 = CODEC.encode_column(0)
T_READ = TEST_PROFILE.timing.t_read_ns


# 1 — command latched while the array is busy -----------------------------


def test_busy_program_latch_opv101_vs_san201():
    program = OpProgram("defect_busy_latch", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.ERASE_1ST), addr(ERASE_ROW),
                       cmd(CMD.ERASE_2ND))),)),
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.PROGRAM_1ST), addr(ROW))),)),
    ), "program latch lands inside tBERS")
    assert "OPV101" in static_errors(program)
    report, _analyzer, error = run_runtime(program)
    assert "SAN201" in runtime_rules(report)
    assert isinstance(error, LunProtocolError)


# 2 — data-out with no source armed ---------------------------------------


def test_unarmed_burst_opv102_vs_san202():
    program = OpProgram("defect_unarmed_burst", (
        DeclareHandle("h", "capture", nbytes=16),
        Txn(TxnKind.DATA_OUT, (DataXfer("out", 16, HandleRef("h")),)),
    ), "burst with nothing armed")
    assert "OPV102" in static_errors(program)
    report, _analyzer, error = run_runtime(program)
    assert "SAN202" in runtime_rules(report)
    assert isinstance(error, LunProtocolError)


# 3 — burst races the array: sleep covers only a third of tR --------------


def test_premature_burst_opv102_vs_san202():
    program = OpProgram("defect_premature_burst", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_1ST), addr(ROW),
                       cmd(CMD.READ_2ND))),)),
        SoftSleep(T_READ // 3),
        DeclareHandle("h", "from_flash", nbytes=512, dram_address=0),
        Txn(TxnKind.DATA_OUT, (DataXfer("out", 512, HandleRef("h")),)),
    ), "data out a third of the way into tR")
    assert "OPV102" in static_errors(program)
    report, _analyzer, error = run_runtime(program)
    assert "SAN202" in runtime_rules(report)
    assert isinstance(error, LunProtocolError)


def test_covering_sleep_is_clean_on_both_sides():
    """The same shape with a sleep past worst-case tR is clean — the
    verifier proves the wait, it does not just dislike sleeps."""
    builder = resolve_builder("read_page_timed_wait", TEST_PROFILE)
    program = builder(**sample_kwargs(TEST_PROFILE)["read_page_timed_wait"])
    assert static_errors(program) == []
    report, _analyzer, error = run_runtime(program)
    assert error is None
    assert runtime_rules(report) == []


# 4 — data burst selecting two dies ---------------------------------------


def test_two_die_burst_opv103_vs_san203():
    program = OpProgram("defect_two_die_burst", (
        DeclareHandle("h", "capture", nbytes=4),
        Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(CMD.READ_STATUS),)),)),
        Txn(TxnKind.DATA_OUT,
            (DataXfer("out", 4, HandleRef("h"), chip_mask=0b11),)),
    ), "both dies would drive DQ")
    assert "OPV103" in static_errors(program)
    report, _analyzer, _error = run_runtime(program)
    assert "SAN203" in runtime_rules(report)


# 5 — status poll addressed to a ghost die --------------------------------


def test_ghost_die_burst_opv103_vs_san203():
    program = OpProgram("defect_ghost_die", (
        DeclareHandle("h", "capture", nbytes=4),
        Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(CMD.READ_STATUS),)),)),
        Txn(TxnKind.DATA_OUT,
            (DataXfer("out", 4, HandleRef("h"), chip_mask=0b100),)),
    ), "chip_mask selects nothing on a 2-LUN channel")
    assert "OPV103" in static_errors(program)
    report, _analyzer, error = run_runtime(program)
    assert "SAN203" in runtime_rules(report)
    assert isinstance(error, ValueError)  # the channel refuses delivery


# 6 — orphan address latch ------------------------------------------------


def test_orphan_address_opv104_vs_tck003():
    program = OpProgram("defect_orphan_address", (
        Txn(TxnKind.CMD_ADDR, (LatchSeq((addr((1, 2, 3)),)),)),
    ), "address with no command pending")
    assert "OPV104" in static_errors(program)
    report, analyzer, error = run_runtime(program)
    assert isinstance(error, LunProtocolError)
    assert "orphan-address" in tck_rules(analyzer)


# 7 — tCCS violated after a column change ---------------------------------


def test_short_tccs_opv205_vs_tck005():
    program = OpProgram("defect_short_tccs", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_1ST), addr(ROW),
                       cmd(CMD.READ_2ND))),)),
        PollStatus(until="ready", dest="s"),
        DeclareHandle("h", "from_flash", nbytes=512, dram_address=0),
        Txn(TxnKind.DATA_OUT,
            (LatchSeq((cmd(CMD.CHANGE_READ_COL_1ST), addr(COL0),
                       cmd(CMD.CHANGE_READ_COL_2ND))),
             TimerWait(ns=10, reason="seeded defect: a tenth of tCCS"),
             DataXfer("out", 512, HandleRef("h")))),
    ), "burst 10 ns after E0")
    assert "OPV205" in static_errors(program)
    report, analyzer, error = run_runtime(program)
    assert error is None  # timing bugs do not stop the simulation...
    assert "tCCS" in tck_rules(analyzer)  # ...the analyzer flags them


# 8 — vendor-tightened tWHR on an otherwise stock program -----------------


def test_tightened_twhr_opv202_vs_tck006():
    tight = dataclasses.replace(TEST_PROFILE,
                                timing_overrides=(("tWHR", 400),))
    builder = resolve_builder("cache_read_sequential", tight)
    program = builder(**sample_kwargs(tight)["cache_read_sequential"])
    # Stock timing: clean through both lenses.
    assert static_errors(program) == []
    report, analyzer, error = run_runtime(program)
    assert error is None and runtime_rules(report) == []
    assert tck_rules(analyzer) == []
    # Tightened vendor: the cache flip-to-burst gap is now too short —
    # both the verifier and the (vendor-informed) checker agree.
    assert "OPV202" in static_errors(program, vendor=tight)
    tightened_timing = dataclasses.replace(_channel_timing(), tWHR=400)
    assert "tWHR" in tck_rules(analyzer, timing=tightened_timing)


# 9 — poll budget provably exhausts inside tBERS --------------------------


def test_starved_poll_opv301_vs_san402():
    program = OpProgram("defect_starved_poll", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.ERASE_1ST), addr(ERASE_ROW),
                       cmd(CMD.ERASE_2ND))),)),
        PollStatus(until="ready", dest="s", max_polls=3),
    ), "3 polls against a millisecond erase")
    assert "OPV301" in static_errors(program)
    report, _analyzer, error = run_runtime(program, liveness_budget=2)
    assert isinstance(error, RuntimeError)
    assert "poll budget exhausted" in str(error)
    assert "SAN402" in runtime_rules(report)


# 10 — data-in sourced from a window never staged for writes --------------


def test_wrong_direction_opv401_vs_san301():
    program = OpProgram("defect_wrong_direction", (
        DeclareHandle("h", "from_flash", nbytes=512, dram_address=0),
        Txn(TxnKind.DATA_IN,
            (LatchSeq((cmd(CMD.PROGRAM_1ST), addr(ROW))),
             DataXfer("in", 512, HandleRef("h"), after_address=True))),
        Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(CMD.PROGRAM_2ND),)),)),
        PollStatus(until="ready", dest="s"),
    ), "programs from a window minted for capture")
    assert "OPV401" in static_errors(program)
    report, _analyzer, error = run_runtime(program, sanitize="memory",
                                           track_data=True)
    assert error is None
    assert "SAN301" in runtime_rules(report)


# 11 — burst size disagrees with the minted DMA window --------------------


def test_short_window_opv402_vs_san303():
    program = OpProgram("defect_short_window", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_1ST), addr(ROW),
                       cmd(CMD.READ_2ND))),)),
        PollStatus(until="ready", dest="s"),
        DeclareHandle("h", "from_flash", nbytes=2048, dram_address=0),
        Txn(TxnKind.DATA_OUT,
            (LatchSeq((cmd(CMD.CHANGE_READ_COL_1ST), addr(COL0),
                       cmd(CMD.CHANGE_READ_COL_2ND))),
             TimerWait(param="tCCS"),
             DataXfer("out", 1024, HandleRef("h")))),
    ), "1024-B burst through a 2048-B window")
    assert "OPV402" in static_errors(program)
    report, _analyzer, error = run_runtime(program, sanitize="memory",
                                           track_data=True)
    assert error is None
    assert "SAN303" in runtime_rules(report)


# 12 — data-out after RESET: the reset disarmed the status source ---------


def test_burst_after_reset_opv102_vs_san202_vs_tck004():
    program = OpProgram("defect_burst_after_reset", (
        DeclareHandle("s", "capture", nbytes=1),
        Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(CMD.READ_STATUS),)),)),
        Txn(TxnKind.DATA_OUT, (DataXfer("out", 1, HandleRef("s")),)),
        Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(CMD.RESET),)),)),
        SoftSleep(2 * TEST_PROFILE.timing.t_reset_ns),
        DeclareHandle("h", "capture", nbytes=16),
        Txn(TxnKind.DATA_OUT, (DataXfer("out", 16, HandleRef("h")),)),
    ), "status armed before the reset is gone after it")
    assert "OPV102" in static_errors(program)
    report, analyzer, error = run_runtime(program)
    assert "SAN202" in runtime_rules(report)
    assert isinstance(error, LunProtocolError)
    # The capture checker disarms on RESET too (it used to arm once
    # and never disarm): exactly one burst is unarmed, the second.
    checker = TimingChecker(_channel_timing(), lun_count=LUNS)
    unarmed = [v for v in checker.check_analyzer(analyzer)
               if v.rule == "unarmed-data-out"]
    assert len(unarmed) == 1 and "16B" in unarmed[0].detail
    assert unarmed[0].to_finding().rule == "TCK004"


# an opcode with no protocol-table row is rejected on both sides ----------


def test_read_unique_id_has_no_row_opv104_vs_die_raise():
    """0xED used to be classed IDENT with nothing behind it: the die
    took it plus an address, parked in AWAIT_CONFIRM, and a following
    0x30 launched an array read of the stale row address."""
    assert CMD.READ_UNIQUE_ID not in OPCODES
    program = OpProgram("defect_read_unique_id", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_1ST), addr(ROW))),)),
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_UNIQUE_ID), addr((0,)),
                       cmd(CMD.READ_2ND))),)),
    ), "unimplemented opcode, then a confirm of the stale row")
    assert "OPV104" in static_errors(program)
    _report, analyzer, error = run_runtime(program)
    assert isinstance(error, LunProtocolError)
    assert "unsupported opcode 0xED" in str(error)
    # The constant stays so captures still render the name.
    assert "READ_UNIQUE_ID" in {e.detail for e in analyzer.events}


# negative control: a stock program is clean through both lenses ----------


@pytest.mark.parametrize("name", ["read_page", "erase_block",
                                  "cache_read_sequential"])
def test_stock_program_clean_through_both_lenses(name):
    builder = resolve_builder(name, TEST_PROFILE)
    program = builder(**sample_kwargs(TEST_PROFILE)[name])
    assert static_errors(program) == []
    report, analyzer, error = run_runtime(program, sanitize="flash")
    assert error is None
    assert runtime_rules(report) == []
    assert tck_rules(analyzer) == []


# exhaustive: die situation x opcode, model raise <=> verifier error ------
#
# Each situation is a legal prefix that leaves the die in one state of
# its automaton; the probed opcode rides in the same C/A segment as the
# prefix's last cycle (one latch cycle later), so "busy" is exact on
# both sides and no software gap blurs it.


def _latch(*latches):
    return LatchSeq(tuple(latches))


FEATURE = (int(FeatureAddress.IO_DRIVE_STRENGTH),)
READ_CONFIRMED = (cmd(CMD.READ_1ST), addr(ROW), cmd(CMD.READ_2ND))
ERASE_CONFIRMED = (cmd(CMD.ERASE_1ST), addr(ERASE_ROW), cmd(CMD.ERASE_2ND))
WRITE_HANDLE = DeclareHandle("w", "to_flash", nbytes=512, dram_address=0)
PAGE_LOADED = (_latch(cmd(CMD.PROGRAM_1ST), addr(ROW)),
               DataXfer("in", 512, HandleRef("w"), after_address=True))
POLL = PollStatus(until="ready", dest="s")

#: name -> (prefix step nodes, segments before the probe's latch
#: sequence, latches before the probed opcode in that sequence)
SITUATIONS = {
    "idle": ((), (), ()),
    "await_address": ((), (), (cmd(CMD.READ_1ST),)),
    "await_confirm": ((), (), (cmd(CMD.READ_1ST), addr(ROW))),
    "busy_read": ((), (), READ_CONFIRMED),
    "busy_program": ((WRITE_HANDLE,), PAGE_LOADED, (cmd(CMD.PROGRAM_2ND),)),
    "busy_erase": ((), (), ERASE_CONFIRMED),
    "busy_feature": ((), (), (cmd(CMD.GET_FEATURES), addr(FEATURE))),
    "busy_param": ((), (), (cmd(CMD.READ_PARAMETER_PAGE), addr((0,)))),
    "busy_reset": ((), (), (cmd(CMD.RESET),)),
    "busy_plane_queue": ((), (), (cmd(CMD.READ_1ST), addr(ROW),
                                  cmd(CMD.MP_READ_2ND))),
    "cache_busy": ((Txn(TxnKind.CMD_ADDR, (_latch(*READ_CONFIRMED),)), POLL),
                   (), (cmd(CMD.READ_CACHE_SEQ),)),
    "cache_program_active": ((WRITE_HANDLE,), PAGE_LOADED,
                             (cmd(CMD.CACHE_PROGRAM_2ND),)),
    "suspended": ((), (), ERASE_CONFIRMED + (cmd(CMD.VENDOR_SUSPEND),)),
    # Two compound states the hand-kept verifier mirror got wrong: a
    # plane queued behind a background cache program (legal), and the
    # idle die a finished address-phase busy leaves behind (it forgets
    # the earlier row address: a confirm must raise).
    "await_confirm_behind_cache_program": (
        (WRITE_HANDLE,), PAGE_LOADED,
        (cmd(CMD.CACHE_PROGRAM_2ND), cmd(CMD.PROGRAM_1ST), addr(ROW))),
    "idle_after_feature_busy": (
        (Txn(TxnKind.CMD_ADDR,
             (_latch(cmd(CMD.READ_1ST), addr(ROW),
                     cmd(CMD.GET_FEATURES), addr(FEATURE)),)), POLL),
        (), ()),
}

#: Every table opcode, the row-less READ UNIQUE ID, and a byte that was
#: never an opcode.
PROBES = sorted(OPCODES) + [CMD.READ_UNIQUE_ID, 0xB7]

#: The verifier's one deliberate blind spot.  A SUSPEND or RESUME that
#: is its program's *first* latch is assumed to act on a caller-owned
#: operation — the stock `suspend`/`resume` ops run alone that way, and
#: the sequence the TLM runner and the environment emit around them is
#: verified as one program below.  Run alone, the die raises.  Once the
#: program has latched anything, the die state is its own and an
#: unmatched SUSPEND/RESUME is a proven error.
CALLER_OWNED = {("idle", CMD.VENDOR_SUSPEND), ("idle", CMD.VENDOR_RESUME)}

NO_VENDOR_OPS = dataclasses.replace(TEST_PROFILE, supports_suspend=False,
                                    supports_pslc=False)


def _probe(situation, opcode, vendor=TEST_PROFILE):
    """(verifier proves a protocol error, die raised) for one cell."""
    prefix, segments, latches = SITUATIONS[situation]
    program = OpProgram(f"probe_{situation}_{opcode:02X}", tuple(prefix) + (
        Txn(TxnKind.CMD_ADDR,
            tuple(segments) + (_latch(*latches, cmd(opcode)),)),), "")
    # OPV102 counts: the die's cache-read raise on an empty page
    # register is its SAN202 arm, which the verifier files under 102.
    proven = {"OPV101", "OPV102", "OPV104"} & set(
        static_errors(program, vendor=vendor))
    _report, _analyzer, error = run_runtime(program, track_data=True,
                                            vendor=vendor)
    assert error is None or isinstance(error, LunProtocolError), error
    return bool(proven), error is not None


@pytest.mark.parametrize("situation", sorted(SITUATIONS))
def test_model_raises_iff_verifier_proves_error(situation):
    disagreements = []
    for opcode in PROBES:
        proven, raised = _probe(situation, opcode)
        if (situation, opcode) in CALLER_OWNED:
            # Pin the blind spot itself, so the list cannot rot.
            assert raised and not proven, (situation, hex(opcode))
        elif proven != raised:
            disagreements.append((hex(opcode), proven, raised))
    assert disagreements == [], (
        f"{situation}: (opcode, verifier error, die raised)")


def test_capability_columns_agree_for_a_vendor_without_them():
    """`requires` is one column read by both sides: a part without the
    vendor opcodes rejects them, blind spot or not."""
    for opcode, row in sorted(OPCODES.items()):
        proven, raised = _probe("idle", opcode, vendor=NO_VENDOR_OPS)
        assert proven == raised, hex(opcode)
        if row.requires is not None:
            assert raised, hex(opcode)


# the erase suspension a waiting host read triggers, as one program ------


def _stock(name, **kwargs):
    """A stock program's nodes, without its Return."""
    program = resolve_builder(name)(**kwargs)
    return tuple(node for node in program.nodes
                 if not isinstance(node, Return))


def _erase_then(*middle):
    """The erase's start transaction, ``middle``, then its ready poll."""
    erase = _stock("erase_block", codec=CODEC, block=3)
    return OpProgram("erase_suspension", erase[:1] + middle + erase[1:], "")


def test_the_suspension_sequence_verifies_clean_as_one_program():
    """Erase start, SUSPEND, a host read, RESUME, poll: what the plan
    runner and the environment's preemption point emit on one die."""
    program = _erase_then(
        *_stock("suspend"),
        *_stock("full_page_read", codec=CODEC,
                address=PhysicalAddress(block=1, page=0), dram_address=0),
        *_stock("resume"))
    assert static_errors(program) == []
    report, _analyzer, error = run_runtime(program)
    assert error is None
    assert runtime_rules(report) == []


def test_suspend_on_the_idle_die_an_erase_left_is_a_proven_error():
    """The race the guard closes: SUSPEND after the erase has ended."""
    program = OpProgram("late_suspend", _stock(
        "erase_block", codec=CODEC, block=3) + _stock("suspend"), "")
    assert "OPV104" in static_errors(program)
    _report, _analyzer, error = run_runtime(program)
    assert isinstance(error, LunProtocolError)


# what a suspended erase cannot take, through both lenses -----------------


@pytest.mark.parametrize("inside", [
    # another ERASE, of a block the suspended one does not erase
    lambda: _stock("erase_block", codec=CODEC, block=5),
    # a READ of the block the suspended erase targets
    lambda: _stock("full_page_read", codec=CODEC,
                   address=PhysicalAddress(block=3, page=0),
                   dram_address=0),
], ids=["erase", "read_of_the_erased_block"])
def test_a_suspended_erase_refuses_an_erase_and_its_own_block(inside):
    """The die raises (SAN201 first), and the verifier proves it."""
    program = _erase_then(*_stock("suspend"), *inside(), *_stock("resume"))
    assert "OPV104" in static_errors(program)
    report, _analyzer, error = run_runtime(program)
    assert isinstance(error, LunProtocolError)
    assert "suspended erase" in str(error) or "erase is suspended" in str(error)
    assert runtime_rules(report) == ["SAN201"]


def test_a_program_of_another_block_runs_inside_a_suspended_erase():
    """Erase, SUSPEND, a full-page PROGRAM elsewhere, RESUME, poll: the
    sequence a class-1 write cutting into a GC erase emits."""
    program = _erase_then(
        *_stock("suspend"),
        *_stock("program_page", codec=CODEC,
                address=PhysicalAddress(block=4, page=0), dram_address=0),
        *_stock("resume"))
    assert static_errors(program) == []
    report, _analyzer, error = run_runtime(program)
    assert error is None
    assert runtime_rules(report) == []
