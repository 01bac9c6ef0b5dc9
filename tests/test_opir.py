"""Op-program IR unit tests: JSON serialization, the registry and
vendor overrides, the static linter, the shape memo, and the
``op-lint`` CLI entry point."""

import json

import pytest

from repro.analysis import LintFinding, lint_all, lint_library, lint_program
from repro.analysis.op_lint import sample_kwargs
from repro.core import BabolController, ControllerConfig
from repro.core.opir import (
    DataXfer,
    DeclareHandle,
    HandleRef,
    LatchSeq,
    OpProgram,
    PollStatus,
    Return,
    TimerWait,
    Txn,
    build_program,
    from_json,
    list_ops,
    resolve_builder,
    run_program,
    to_json,
)
from repro.core.transaction import TxnKind
from repro.core.ufsm.ca_writer import addr, cmd
from repro.onfi.commands import CMD
from repro.onfi.datamodes import NVDDR2_100, NVDDR2_200
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE
from tests.test_ops_matrix import make_controller


# --- serialization ----------------------------------------------------------


def test_every_program_round_trips_through_json():
    samples = sample_kwargs(TEST_PROFILE)
    for name in list_ops():
        program = build_program(name, **samples[name])
        text = to_json(program)
        again = from_json(text)
        assert again == program, f"{name}: round trip changed the program"
        assert to_json(again) == text, f"{name}: serialization not stable"


def test_from_json_rejects_non_program_documents():
    with pytest.raises(ValueError):
        from_json(json.dumps({"not": "a program"}))


def test_every_node_type_round_trips():
    """One synthetic program exercising EVERY IR node type with
    non-default fields — including the bytes payload of an inline
    DeclareHandle, which the hex codec must carry exactly."""
    from repro.core.opir.nodes import (
        SEGMENT_NODES,
        STEP_NODES,
        Branch,
        BreakIf,
        CallOp,
        E,
        Loop,
        Reg,
        SelectFirstReady,
        SetReg,
        SoftSleep,
    )
    from repro.onfi.geometry import AddressCodec, PhysicalAddress

    codec = AddressCodec(TEST_PROFILE.geometry)
    program = OpProgram("kitchen_sink", (
        DeclareHandle("caps", "capture", nbytes=4),
        DeclareHandle("page", "from_flash", nbytes=2048,
                      dram_address=0x1000),
        DeclareHandle("params", "inline", nbytes=4,
                      data=b"\x01\x00\xfe\xff"),
        SetReg("flag", E("and", (Reg("seed"), 0x40))),
        Txn(TxnKind.CMD_ADDR, (
            LatchSeq((cmd(CMD.READ_1ST), addr((1, 2, 3, 4, 5)),
                      cmd(CMD.READ_2ND)),
                     chip_mask=0b01, label="seed-latches",
                     via_chip_control=True),
            TimerWait(ns=120, reason="documented hold"),
            TimerWait(param="tCCS", chip_mask=1, label="ccs"),
            DataXfer("out", 16, HandleRef("caps"), column=8,
                     after_address=True, chip_mask=0b10, label="burst"),
        ), label="everything-txn"),
        PollStatus(until="array_ready", dest="st", chip_mask=3,
                   max_polls=77, period_ns=1_000),
        SoftSleep(2_500),
        CallOp("read_page",
               kwargs=(("address", PhysicalAddress(block=1, page=2)),
                       ("codec", codec),
                       ("dram_address", 0)),
               dest="r"),
        Branch(E("ne", (Reg("st"), 0)),
               then=(SoftSleep(1),),
               orelse=(SetReg("x", 0),)),
        Loop("i", 3, body=(
            BreakIf(E("gt", (Reg("i"), 1)), sets=(("x", Reg("i")),)),
        )),
        SelectFirstReady(positions=(0, 1), dest_pos="w",
                         dest_mask="wm", max_rounds=9),
        Return(Reg("r")),
    ), doc="every node type with non-default fields")

    covered = {type(node).__name__ for node in program.walk()}
    expected = {cls.__name__ for cls in STEP_NODES + SEGMENT_NODES}
    assert covered >= expected, f"missing: {expected - covered}"

    text = to_json(program)
    again = from_json(text)
    assert again == program
    assert to_json(again) == text
    inline = again.nodes[2]
    assert inline.data == b"\x01\x00\xfe\xff"
    assert isinstance(inline.data, bytes)


def test_deserialized_program_replays_identically():
    """A program rebuilt from its JSON must drive the exact waveform."""

    def run(program):
        from repro.analysis import LogicAnalyzer

        sim, controller = make_controller("rtos")

        def driver(ctx):
            result = yield from run_program(ctx, program)
            return result

        analyzer = LogicAnalyzer(controller.channel)
        controller.run_to_completion(controller.submit(driver, 0))
        events = [(e.time_ns, e.kind, e.detail, e.opcode, e.chip_mask)
                  for e in analyzer.events]
        return sim.now, events

    codec = BabolController(
        Simulator(), ControllerConfig(vendor=TEST_PROFILE, lun_count=1)
    ).codec
    samples = sample_kwargs(TEST_PROFILE)
    original = build_program("read_page", **{**samples["read_page"],
                                             "codec": codec})
    replayed = from_json(to_json(original))
    assert run(replayed) == run(original)


# --- expressions ------------------------------------------------------------


def test_lowered_expressions_equal_eval_expr():
    """``lower_expr`` is a second evaluator of the value language (the
    template runner's flat one): every operator, nesting and literal,
    and every library program's ``Return``, against ``eval_expr``."""
    import numpy as np

    from repro.core.opir.nodes import E, EvalState, Reg, eval_expr, lower_expr
    from repro.dram import DmaHandle

    handle = DmaHandle(None, 0, 4)
    handle.deliver(np.array([0xE1, 2, 3, 4], dtype=np.uint8))
    state = EvalState(None)
    state.regs.update(status=0xE0, failed=0xE1, seq=(5, 6, 7), zero=0)
    state.handles.update(h=handle)
    h = HandleRef("h")
    exprs = [
        None, 7, "text", (), (1, (2, Reg("status"))), [Reg("zero"), h],
        Reg("status"), Reg("never_set"), h, (Reg("status"), h),
        E("item", (Reg("seq"), 1)), E("and", (Reg("zero"), Reg("status"))),
        E("and", (Reg("status"), Reg("seq"))), E("gt", (Reg("status"), 3)),
        E("ne", (Reg("status"), Reg("failed"))),
        E("not_failed", (Reg("status"),)), E("not_failed", (Reg("failed"),)),
        E("delivered_byte", (h,)), E("delivered_tuple", (h,)),
        E("and", (E("not_failed", (Reg("status"),)),
                  E("gt", (E("delivered_byte", (h,)), 0)))),
    ]
    for kwargs in sample_kwargs(TEST_PROFILE).items():
        program = resolve_builder(kwargs[0], TEST_PROFILE)(**kwargs[1])
        exprs += [node.expr for node in program.nodes
                  if isinstance(node, Return)]
    lowered = 0
    for expr in exprs:
        try:
            expected = eval_expr(expr, state)
        except KeyError:  # a Return over handles this state does not hold
            continue
        assert lower_expr(expr)(state.regs, state.handles) == expected, expr
        lowered += 1
    assert lowered >= 25
    assert lower_expr(E("delivered", (h,)))(state.regs, state.handles) \
        is handle.delivered
    with pytest.raises(KeyError):
        lower_expr(h)({}, {})  # undeclared handle, as eval_expr

    # Hooks are lowered too (the waveform executor evaluates them): same
    # value, same call order — ``and`` evaluates both sides, as eval_expr
    # does — and the same KeyError when the caller supplied none.
    for expr in (E("hook", ("validate", h)),
                 E("and", (Reg("zero"), E("hook", ("validate", Reg("seq"))))),
                 (E("hook", ("validate", 1)), E("hook", ("validate", 2)))):
        seen, calls = EvalState({"validate": lambda arg: (calls.append(arg), arg)[1]}), []
        seen.regs, seen.handles = state.regs, state.handles
        expected, walked = eval_expr(expr, seen), list(calls)
        del calls[:]
        assert lower_expr(expr)(state.regs, state.handles, seen.hooks) == expected
        assert calls == walked and calls
    with pytest.raises(KeyError, match="hook 'validate'"):
        lower_expr(E("hook", ("validate", h)))(state.regs, state.handles)
    with pytest.raises(KeyError, match="hook 'validate'"):
        lower_expr(E("hook", ("validate", h)))(state.regs, state.handles, {})


# --- registry / vendor overrides -------------------------------------------


def test_resolve_builder_unknown_name():
    with pytest.raises(KeyError, match="no operation program named"):
        resolve_builder("definitely_not_an_op")


def test_vendor_override_changes_the_emitted_waveform():
    """A profile-level op override reroutes the library op wholesale —
    the Section IV-C bring-up story, observed at the pins."""
    from repro.analysis import LogicAnalyzer
    from repro.core.ops import reset_op
    from repro.core.opir.programs import reset_program

    def sync_reset_program(synchronous: bool = False) -> OpProgram:
        return reset_program(synchronous=True)  # always 0xFC

    def capture(vendor):
        sim = Simulator()
        controller = BabolController(
            sim, ControllerConfig(vendor=vendor, lun_count=1, runtime="rtos",
                                  track_data=False, seed=6),
        )
        analyzer = LogicAnalyzer(controller.channel)
        controller.run_to_completion(controller.submit(reset_op, 0))
        return [e.opcode for e in analyzer.events if e.kind == "cmd"]

    assert CMD.RESET in capture(TEST_PROFILE)
    overridden = TEST_PROFILE.with_op_override("reset", sync_reset_program)
    opcodes = capture(overridden)
    assert CMD.SYNCHRONOUS_RESET in opcodes and CMD.RESET not in opcodes
    # The override is targeted: other ops still resolve to built-ins.
    assert overridden.op_override("reset") is sync_reset_program
    assert overridden.op_override("read_page") is None


def test_poll_loop_honours_a_vendor_read_status_override():
    """The poll loop resolves READ STATUS once per loop, through the same
    override table ``read_status_op`` resolves it through per call."""
    from repro.analysis import LogicAnalyzer
    from repro.core.opir.programs import read_status_enhanced_program

    def enhanced_status(chip_mask=None) -> OpProgram:
        return read_status_enhanced_program(
            row_address_bytes=(0, 0, 0), chip_mask=chip_mask)

    def capture(vendor):
        sim = Simulator()
        controller = BabolController(
            sim, ControllerConfig(vendor=vendor, lun_count=1, runtime="rtos",
                                  track_data=False, seed=6),
        )
        analyzer = LogicAnalyzer(controller.channel)
        status, _ = controller.run_to_completion(
            controller.read_page(0, 1, 0, 0))
        opcodes = [e.opcode for e in analyzer.events if e.kind == "cmd"]
        return status, opcodes, sim.now

    stock = capture(TEST_PROFILE)
    assert CMD.READ_STATUS in stock[1]
    assert CMD.READ_STATUS_ENHANCED not in stock[1]
    status, opcodes, _ = capture(
        TEST_PROFILE.with_op_override("read_status", enhanced_status))
    assert CMD.READ_STATUS_ENHANCED in opcodes
    assert CMD.READ_STATUS not in opcodes
    assert status & 0x40  # RDY: the loop ended on the override's byte


# --- the shape memo ---------------------------------------------------------


def test_shape_memo_hits_on_a_second_read_at_another_address():
    sim, controller = make_controller("rtos")
    bank = controller.ufsm
    controller.run_to_completion(controller.read_page(0, 1, 0, 0))
    lowered = bank.shapes_lowered
    # full_page_read is its callee's shape; the poll loop's read_status
    # is the other one.
    assert lowered == 2 and bank.lowered
    controller.run_to_completion(controller.read_page(1, 2, 3, 4096))
    # A read elsewhere lowers nothing: the shape is hot, operands bind.
    assert bank.shapes_lowered == lowered


def test_shape_memo_emptied_on_retarget():
    sim, controller = make_controller("rtos")
    bank = controller.ufsm
    controller.run_to_completion(controller.read_page(0, 1, 0, 0))
    assert bank.lowered
    bank.retarget(NVDDR2_200 if bank.interface is not NVDDR2_200
                  else NVDDR2_100)
    assert not bank.lowered


# --- the linter -------------------------------------------------------------


def test_lint_all_builtin_programs_clean():
    findings = lint_all()
    assert [f for f in findings if f.severity == "error"] == []


def _one(program_nodes) -> list:
    return lint_program(OpProgram("bad", tuple(program_nodes)))


def _rules(findings: list) -> set:
    return {finding.rule for finding in findings}


def test_lint_flags_missing_tccs():
    findings = _one([
        DeclareHandle("h", "capture", nbytes=16),
        Txn(TxnKind.DATA_OUT, (
            LatchSeq((cmd(CMD.CHANGE_READ_COL_1ST), addr((0, 0)),
                      cmd(CMD.CHANGE_READ_COL_2ND))),
            DataXfer("out", 16, HandleRef("h")),
        )),
        Return(),
    ])
    assert "OPL001" in _rules(findings)


def test_lint_flags_data_in_without_after_address():
    findings = _one([
        DeclareHandle("h", "to_flash", nbytes=16, dram_address=0),
        Txn(TxnKind.DATA_IN, (
            LatchSeq((cmd(CMD.PROGRAM_1ST), addr((0, 0, 0, 0, 0)))),
            DataXfer("in", 16, HandleRef("h")),
        )),
        PollStatus(until="ready"),
    ])
    assert "OPL002" in _rules(findings)


def test_lint_flags_unterminated_confirm():
    findings = _one([
        Txn(TxnKind.CMD_ADDR, (
            LatchSeq((cmd(CMD.ERASE_1ST), addr((0, 0, 0)),
                      cmd(CMD.ERASE_2ND))),
        )),
        Return(),
    ])
    assert "OPL003" in _rules(findings)


def test_lint_flags_unbounded_and_unknown_polls():
    assert "OPL003" in _rules(_one([PollStatus(until="ready", max_polls=0)]))
    assert "OPL003" in _rules(_one([PollStatus(until="sideways")]))


def test_lint_flags_unexplained_channel_hold():
    findings = _one([
        Txn(TxnKind.CONFIG, (
            LatchSeq((cmd(CMD.SET_FEATURES), addr((0x10,)))),
            TimerWait(ns=50_000),
        )),
    ])
    assert "OPL004" in _rules(findings)


def test_lint_accepts_short_or_explained_holds():
    clean = _one([
        Txn(TxnKind.CONFIG, (
            LatchSeq((cmd(CMD.SET_FEATURES), addr((0x10,)))),
            TimerWait(ns=500),
            TimerWait(ns=50_000, reason="tFEAT busy window"),
        )),
    ])
    assert "OPL004" not in _rules(clean)


def test_lint_flags_empty_transaction():
    assert "OPL005" in _rules(_one([Txn(TxnKind.CMD_ADDR, ())]))


def test_lint_flags_undeclared_handle():
    findings = _one([
        Txn(TxnKind.DATA_OUT, (DataXfer("out", 4, HandleRef("ghost")),)),
    ])
    assert "OPL006" in _rules(findings)


def test_lint_flags_bad_timer_parameterization():
    assert "OPL007" in _rules(_one([
        Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(CMD.READ_STATUS),)),
                               TimerWait(param="tBOGUS"))),
    ]))
    assert "OPL007" in _rules(_one([
        Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(CMD.READ_STATUS),)),
                               TimerWait())),
    ]))


def test_lint_finding_is_printable():
    finding = LintFinding("OPL001", "error", "p", "nodes[0]", "msg")
    assert "OPL001" in str(finding) and "nodes[0]" in str(finding)


# --- CLI --------------------------------------------------------------------


def test_cli_op_lint_exits_clean(capsys):
    from repro.cli import main

    assert main(["op-lint"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_op_lint_json_mode(capsys):
    from repro.cli import main

    assert main(["op-lint", "--vendor", "hynix", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 1
    assert report["counts"]["error"] == 0
    assert report["findings"] == []
    assert report["coverage"]["complete"] is True
    assert report["coverage"]["skipped"] == []


# --- poll pacing (PollStatus.period_ns) and OPL008 ---------------------------


def _poll_only_program(period_ns):
    return OpProgram("poll_demo", (PollStatus(until="ready",
                                              period_ns=period_ns),))


def test_opl008_flags_poll_period_below_the_vendor_minimum():
    findings = lint_program(_poll_only_program(100),
                            timing=TEST_PROFILE.timing)
    assert [f.rule for f in findings] == ["OPL008"]
    assert findings[0].severity == "warning"
    assert "below the vendor minimum" in findings[0].message


def test_opl008_explicit_zero_period_calls_out_channel_hammering():
    findings = lint_program(_poll_only_program(0),
                            timing=TEST_PROFILE.timing)
    assert [f.rule for f in findings] == ["OPL008"]
    assert "back-to-back" in findings[0].message


def test_opl008_silent_for_legal_default_and_unknown_timing():
    legal = TEST_PROFILE.timing.t_poll_min_ns
    assert lint_program(_poll_only_program(legal),
                        timing=TEST_PROFILE.timing) == []
    # None keeps the historical unpaced loop: nothing explicit to flag.
    assert lint_program(_poll_only_program(None),
                        timing=TEST_PROFILE.timing) == []
    # Without vendor timing the rule cannot run.
    assert lint_program(_poll_only_program(100)) == []


def test_opl008_findings_convert_to_diagnostics():
    (finding,) = lint_program(_poll_only_program(0),
                              timing=TEST_PROFILE.timing)
    converted = finding.to_finding()
    assert converted.rule == "OPL008"
    assert converted.severity == "warning"
    assert "poll_demo" in converted.component


def test_paced_poll_issues_far_fewer_status_reads():
    from dataclasses import replace as dc_replace

    from repro.analysis import LogicAnalyzer

    def erase_polls(period_ns):
        sim, controller = make_controller("rtos")
        samples = sample_kwargs(TEST_PROFILE)
        kwargs = {**samples["erase_block"], "codec": controller.codec}
        program = build_program("erase_block", **kwargs)
        if period_ns is not None:
            program = OpProgram(program.name, tuple(
                dc_replace(node, period_ns=period_ns)
                if isinstance(node, PollStatus) else node
                for node in program.nodes))

        def driver(ctx):
            result = yield from run_program(ctx, program)
            return result

        analyzer = LogicAnalyzer(controller.channel)
        controller.run_to_completion(controller.submit(driver, 0))
        return len(analyzer.command_times(CMD.READ_STATUS)), sim.now

    unpaced_polls, unpaced_ns = erase_polls(None)
    paced_polls, paced_ns = erase_polls(20_000)
    assert 0 < paced_polls < unpaced_polls / 5
    # Pacing trades poll traffic, not completion time: the erase still
    # finishes within one extra period of the unpaced run.
    assert paced_ns <= unpaced_ns + 20_000


def test_lint_library_reports_coverage_holes():
    findings, coverage = lint_library(vendors=[TEST_PROFILE],
                                      kwargs_for=lambda vendor: {})
    assert not coverage.complete
    assert coverage.linted == ()
    assert set(coverage.skipped) == set(coverage.registered)
    assert all(f.rule == "OPL000" for f in findings)
    assert "skipped" in coverage.describe()


def test_lint_library_full_sweep_is_clean_and_complete():
    findings, coverage = lint_library(vendors=[TEST_PROFILE])
    assert findings == []
    assert coverage.complete
    assert coverage.skipped == ()
