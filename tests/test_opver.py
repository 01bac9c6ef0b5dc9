"""Unit tests for the static op-program verifier and its CFG pass.

Organized by layer: the CFG builder (shared with OPL009), the lint /
verify library sweeps and their override-coverage accounting, the
clean-library pin, one detonation test per OPV rule family, and the
TLM-templatability explanations (OPV501 / the runner's step check).
"""

import dataclasses

import pytest

from repro.analysis.cfg import build_cfg
from repro.analysis.op_lint import lint_library, lint_program, sample_kwargs
from repro.analysis.opver import (
    Iv,
    verify_library,
    verify_op,
    verify_program,
)
from repro.core.opir.nodes import (
    Branch,
    BreakIf,
    DataXfer,
    DeclareHandle,
    HandleRef,
    LatchSeq,
    Loop,
    OpProgram,
    PollStatus,
    Reg,
    Return,
    SelectFirstReady,
    SetReg,
    SoftSleep,
    TimerWait,
    Txn,
)
from repro.core.opir.registry import resolve_builder
from repro.core.recovery import Watchdog
from repro.core.transaction import TxnKind
from repro.core.ufsm.ca_writer import addr, cmd
from repro.onfi.commands import CMD
from repro.onfi.geometry import AddressCodec, PhysicalAddress
from repro.flash.vendors import VENDOR_PROFILES

from tests.helpers import TEST_PROFILE

MODE = "NV-DDR2-200"
CODEC = AddressCodec(TEST_PROFILE.geometry)
ROW = CODEC.encode(PhysicalAddress(block=3, page=1))
ERASE_ROW = CODEC.encode_row(CODEC.row_address(PhysicalAddress(block=3,
                                                               page=0)))
COL0 = CODEC.encode_column(0)


def rules(findings, severity=None):
    if severity is not None:
        findings = [f for f in findings if f.severity == severity]
    return sorted({f.rule for f in findings})


def verify(program, vendor=TEST_PROFILE, **kwargs):
    kwargs.setdefault("luns", 2)
    return verify_program(program, vendor, mode=MODE, **kwargs)


# -- interval domain ------------------------------------------------------


def test_interval_arithmetic():
    a, b = Iv(10, 20), Iv(3, 5)
    assert (a + b) == Iv(13, 25)
    assert a.minus(b) == Iv(5, 17)       # independent bounds
    assert a.hull(Iv(0, 100)) == Iv(0, 100)
    assert Iv.exact(7) == Iv(7, 7)
    assert Iv.at_least(7).hi == float("inf")


# -- the CFG pass ---------------------------------------------------------


def _cfg_program(nodes):
    return OpProgram("cfg_probe", tuple(nodes))


def test_cfg_dead_code_after_return():
    sleep = SoftSleep(10)
    program = _cfg_program([Return(0), sleep])
    dead = build_cfg(program).unreachable()
    assert [v.step for v in dead] == [sleep]
    assert dead[0].path == "nodes[1]"


def test_cfg_zero_trip_loop_body_is_dead():
    body = SoftSleep(5)
    program = _cfg_program([Loop("i", 0, (body,)), Return(0)])
    dead = build_cfg(program).unreachable()
    assert body in [v.step for v in dead]


def test_cfg_constant_predicate_prunes_one_arm():
    live, pruned = SoftSleep(1), SoftSleep(2)
    program = _cfg_program([Branch(True, (live,), (pruned,)), Return(0)])
    cfg = build_cfg(program)
    dead_steps = [v.step for v in cfg.unreachable()]
    assert pruned in dead_steps and live not in dead_steps


def test_cfg_dynamic_predicate_keeps_both_arms():
    a, b = SoftSleep(1), SoftSleep(2)
    program = _cfg_program([
        SetReg("flag", 1),
        Branch(Reg("flag"), (a,), (b,)),
        Return(0),
    ])
    assert build_cfg(program).unreachable() == []


def test_cfg_breakif_edges_exit_the_loop():
    brk = BreakIf(Reg("done"))
    after = SoftSleep(3)
    program = _cfg_program([
        Loop("i", 4, (SetReg("done", Reg("i")), brk, SoftSleep(1))),
        after,
        Return(0),
    ])
    cfg = build_cfg(program)
    assert cfg.unreachable() == []
    brk_vertex = cfg.node_for(brk)
    after_vertex = cfg.node_for(after)
    assert after_vertex.index in brk_vertex.succs


def test_opl009_flags_dead_ir():
    program = _cfg_program([Return(0), SoftSleep(10)])
    findings = lint_program(program)
    opl9 = [f for f in findings if f.rule == "OPL009"]
    assert len(opl9) == 1 and opl9[0].severity == "warning"
    assert "unreachable" in opl9[0].message


# -- library sweeps and override coverage ---------------------------------


def test_stock_library_verifies_clean():
    findings, coverage = verify_library()
    assert coverage.complete, coverage.describe()
    assert rules(findings, "error") == []
    assert rules(findings, "warning") == []
    # The only residue is OPV501 templatability notes.
    assert rules(findings) in ([], ["OPV501"])


def _tiny_override(codec, address):
    return OpProgram("vendor_tiny_status", (
        DeclareHandle("s", "capture", nbytes=1),
        Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(CMD.READ_STATUS),)),)),
        Txn(TxnKind.DATA_OUT, (DataXfer("out", 1, HandleRef("s")),)),
        Return(None),
    ), "status one-shot used to probe override coverage")


def test_override_only_op_reaches_both_sweeps():
    vendor = TEST_PROFILE.with_op_override(
        "vendor_tiny_status", lambda codec, address: _tiny_override(
            codec, address))

    # Without sample kwargs the sweeps must say so — loudly.
    lf, lcov = lint_library(vendors=[vendor])
    vf, vcov = verify_library(vendors=[vendor], modes=(MODE,))
    assert "vendor_tiny_status" in lcov.registered
    assert "vendor_tiny_status" in vcov.registered
    assert "vendor_tiny_status" in lcov.skipped and not lcov.complete
    assert "vendor_tiny_status" in vcov.skipped and not vcov.complete
    assert "OPL000" in rules(lf)
    assert "OPV000" in rules(vf)

    # With kwargs supplied, the override is actually built and swept.
    def kwargs_for(v):
        samples = dict(sample_kwargs(v))
        samples["vendor_tiny_status"] = {
            "codec": CODEC, "address": PhysicalAddress(block=3, page=1)}
        return samples

    lf, lcov = lint_library(vendors=[vendor], kwargs_for=kwargs_for)
    vf, vcov = verify_library(vendors=[vendor], modes=(MODE,),
                              kwargs_for=kwargs_for)
    assert lcov.complete and "vendor_tiny_status" in lcov.linted
    assert vcov.complete and "vendor_tiny_status" in vcov.verified
    assert rules(vf, "error") == []


def test_verify_op_resolves_vendor_overrides():
    kwargs = sample_kwargs(TEST_PROFILE)["read_page"]
    findings = verify_op("read_page", TEST_PROFILE, mode=MODE, **kwargs)
    assert rules(findings, "error") == []


# -- OPV1xx: protocol automaton -------------------------------------------


def test_opv101_command_during_busy():
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.ERASE_1ST), addr(ERASE_ROW),
                       cmd(CMD.ERASE_2ND))),)),
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.PROGRAM_1ST), addr(ROW))),)),
    ))
    findings = [f for f in verify(program) if f.rule == "OPV101"]
    assert findings and findings[0].severity == "error"
    assert "SAN201" in findings[0].message


def test_opv101_survives_a_partial_sleep():
    """A sleep covering only part of the array window keeps the busy
    interval alive — 'may still be busy' instead of 'always busy'."""
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_1ST), addr(ROW),
                       cmd(CMD.READ_2ND))),)),
        SoftSleep(TEST_PROFILE.timing.t_read_ns // 3),
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_1ST), addr(ROW),
                       cmd(CMD.READ_2ND))),)),
    ))
    assert "OPV101" in rules(verify(program), "error")


def test_opv101_clean_after_covering_poll():
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.ERASE_1ST), addr(ERASE_ROW),
                       cmd(CMD.ERASE_2ND))),)),
        PollStatus(until="ready", dest="s"),
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_1ST), addr(ROW),
                       cmd(CMD.READ_2ND))),)),
        PollStatus(until="ready", dest="s2"),
    ))
    assert rules(verify(program), "error") == []


def test_opv102_unarmed_data_out():
    program = OpProgram("p", (
        DeclareHandle("h", "capture", nbytes=8),
        Txn(TxnKind.DATA_OUT, (DataXfer("out", 8, HandleRef("h")),)),
    ))
    assert "OPV102" in rules(verify(program), "error")


def test_opv102_cache_read_on_empty_register():
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_CACHE_SEQ),)),)),
    ))
    assert "OPV102" in rules(verify(program), "error")


def test_opv103_multi_die_burst_and_ghost_die():
    def burst(mask):
        return OpProgram("p", (
            DeclareHandle("h", "capture", nbytes=4),
            Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(CMD.READ_STATUS),)),)),
            Txn(TxnKind.DATA_OUT,
                (DataXfer("out", 4, HandleRef("h"), chip_mask=mask),)),
        ))
    assert "OPV103" in rules(verify(burst(0b11)), "error")
    assert "OPV103" in rules(verify(burst(0b100)), "error")
    assert "OPV103" not in rules(verify(burst(0b10)))


def test_opv103_select_position_outside_channel():
    program = OpProgram("p", (
        SelectFirstReady(positions=(0, 5)),
        Return(Reg("winner")),
    ))
    assert "OPV103" in rules(verify(program), "error")


def test_opv104_orphan_address():
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR, (LatchSeq((addr((1, 2, 3)),)),)),
    ))
    assert "OPV104" in rules(verify(program), "error")


def test_opv104_confirm_without_address():
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_1ST), cmd(CMD.READ_2ND))),)),
    ))
    assert "OPV104" in rules(verify(program), "error")


def test_opv104_unknown_opcode():
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(0x42),)),)),
    ))
    assert "OPV104" in rules(verify(program), "error")


def test_opv104_suspend_without_suspendable_work():
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_1ST), addr(ROW),
                       cmd(CMD.READ_2ND))),)),
        Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(CMD.VENDOR_SUSPEND),)),)),
    ))
    assert "OPV104" in rules(verify(program), "error")


# -- OPV2xx: interval timing ----------------------------------------------


def test_opv201_status_inside_twb():
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_1ST), addr(ROW), cmd(CMD.READ_2ND),
                       cmd(CMD.READ_STATUS))),)),
    ))
    assert "OPV201" in rules(verify(program), "error")


def test_opv202_fires_only_under_tightened_twhr():
    tight = dataclasses.replace(TEST_PROFILE,
                                timing_overrides=(("tWHR", 400),))
    kwargs = sample_kwargs(TEST_PROFILE)["cache_read_sequential"]
    builder = resolve_builder("cache_read_sequential", TEST_PROFILE)
    program = builder(**kwargs)
    assert "OPV202" not in rules(verify(program))
    assert "OPV202" in rules(verify(program, vendor=tight), "error")


def test_opv203_fires_only_under_tightened_trr():
    tight = dataclasses.replace(TEST_PROFILE,
                                timing_overrides=(("tRR", 500),))
    kwargs = sample_kwargs(TEST_PROFILE)["read_page"]
    builder = resolve_builder("read_page", TEST_PROFILE)
    program = builder(**kwargs)
    assert "OPV203" not in rules(verify(program))
    assert "OPV203" in rules(verify(program, vendor=tight), "error")


def test_opv204_fires_only_under_tightened_trhw():
    """The Data Reader always pads the mode's tRHW after a burst, so
    the turnaround can only break when a vendor tightens it."""
    program = OpProgram("p", (
        DeclareHandle("h", "capture", nbytes=1),
        Txn(TxnKind.DATA_OUT,
            (LatchSeq((cmd(CMD.READ_STATUS),)),
             DataXfer("out", 1, HandleRef("h")),
             LatchSeq((cmd(CMD.READ_1ST), addr(ROW),
                       cmd(CMD.READ_2ND))))),
        PollStatus(until="ready"),
    ))
    assert "OPV204" not in rules(verify(program))
    tight = dataclasses.replace(TEST_PROFILE,
                                timing_overrides=(("tRHW", 5000),))
    assert "OPV204" in rules(verify(program, vendor=tight), "error")


def test_opv205_burst_inside_tccs():
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_1ST), addr(ROW),
                       cmd(CMD.READ_2ND))),)),
        PollStatus(until="ready", dest="s"),
        DeclareHandle("h", "from_flash", nbytes=64, dram_address=0),
        Txn(TxnKind.DATA_OUT,
            (LatchSeq((cmd(CMD.CHANGE_READ_COL_1ST), addr(COL0),
                       cmd(CMD.CHANGE_READ_COL_2ND))),
             TimerWait(ns=10, reason="seeded: far below tCCS"),
             DataXfer("out", 64, HandleRef("h")))),
    ))
    assert "OPV205" in rules(verify(program), "error")
    # With the proper parameterized wait the same shape is clean.
    fixed = OpProgram("p", program.nodes[:-1] + (
        Txn(TxnKind.DATA_OUT,
            (LatchSeq((cmd(CMD.CHANGE_READ_COL_1ST), addr(COL0),
                       cmd(CMD.CHANGE_READ_COL_2ND))),
             TimerWait(param="tCCS"),
             DataXfer("out", 64, HandleRef("h")))),
    ))
    assert "OPV205" not in rules(verify(fixed))


def test_opv206_poll_interval_below_vendor_minimum():
    slow = dataclasses.replace(
        TEST_PROFILE,
        timing=dataclasses.replace(TEST_PROFILE.timing,
                                   t_poll_min_ns=1_000_000))
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_1ST), addr(ROW),
                       cmd(CMD.READ_2ND))),)),
        PollStatus(until="ready", dest="s", period_ns=0),
    ))
    assert "OPV206" in rules(verify(program, vendor=slow), "warning")
    assert "OPV206" not in rules(verify(program))


# -- OPV3xx: liveness -----------------------------------------------------


def test_opv301_poll_budget_provably_exhausts():
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.ERASE_1ST), addr(ERASE_ROW),
                       cmd(CMD.ERASE_2ND))),)),
        PollStatus(until="ready", dest="s", max_polls=3),
    ))
    findings = [f for f in verify(program) if f.rule == "OPV301"]
    assert findings and "SAN402" in findings[0].message


def test_opv302_poll_period_meets_watchdog():
    budget = Watchdog.for_vendor(TEST_PROFILE).budget_ns
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.ERASE_1ST), addr(ERASE_ROW),
                       cmd(CMD.ERASE_2ND))),)),
        PollStatus(until="ready", dest="s", period_ns=budget),
    ))
    assert "OPV302" in rules(verify(program), "error")


def test_opv301_respects_explicit_watchdog_budget():
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.ERASE_1ST), addr(ERASE_ROW),
                       cmd(CMD.ERASE_2ND))),)),
        PollStatus(until="ready", dest="s"),
    ))
    assert "OPV302" not in rules(verify(program))
    tiny = TEST_PROFILE.timing.t_bers_ns // 2
    assert "OPV302" in rules(verify(program, watchdog_ns=tiny), "error")


# -- OPV4xx: dataflow -----------------------------------------------------


def test_opv403_register_read_before_definition():
    program = OpProgram("p", (
        Branch(Reg("never_set"), (SoftSleep(1),), ()),
        Return(0),
    ))
    assert "OPV403" in rules(verify(program), "warning")


def test_opv403_defined_register_is_silent():
    program = OpProgram("p", (
        SetReg("flag", 1),
        Branch(Reg("flag"), (SoftSleep(1),), ()),
        Return(0),
    ))
    assert "OPV403" not in rules(verify(program))


def test_opv404_handle_never_declared():
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(CMD.READ_STATUS),)),)),
        Txn(TxnKind.DATA_OUT, (DataXfer("out", 1, HandleRef("ghost")),)),
    ))
    assert "OPV404" in rules(verify(program), "error")


def test_opv404_branch_local_declaration_is_a_warning():
    program = OpProgram("p", (
        SetReg("flag", 1),
        Branch(Reg("flag"),
               (DeclareHandle("h", "capture", nbytes=1),), ()),
        Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(CMD.READ_STATUS),)),)),
        Txn(TxnKind.DATA_OUT, (DataXfer("out", 1, HandleRef("h")),)),
    ))
    assert "OPV404" in rules(verify(program), "warning")
    assert "OPV404" not in rules(verify(program), "error")


def test_opv401_direction_against_source():
    program = OpProgram("p", (
        DeclareHandle("h", "from_flash", nbytes=64, dram_address=0),
        Txn(TxnKind.DATA_IN,
            (LatchSeq((cmd(CMD.PROGRAM_1ST), addr(ROW))),
             DataXfer("in", 64, HandleRef("h"), after_address=True))),
    ))
    assert "OPV401" in rules(verify(program), "error")


def test_opv402_burst_size_against_window():
    program = OpProgram("p", (
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
    ))
    assert "OPV402" in rules(verify(program), "error")


# -- OPV5xx: TLM templatability -------------------------------------------


def test_opv501_explains_gang_read_demotion():
    kwargs = sample_kwargs(TEST_PROFILE)["gang_read"]
    builder = resolve_builder("gang_read", TEST_PROFILE)
    findings = verify_program(builder(**kwargs), TEST_PROFILE, mode=MODE)
    notes = [f for f in findings if f.rule == "OPV501"]
    assert notes and all(f.severity == "info" for f in notes)


def test_opv501_explains_read_with_retry_demotion():
    kwargs = sample_kwargs(TEST_PROFILE)["read_with_retry"]
    builder = resolve_builder("read_with_retry", TEST_PROFILE)
    findings = verify_program(builder(**kwargs), TEST_PROFILE, mode=MODE)
    assert any(f.rule == "OPV501" for f in findings)


def test_plan_blockers_matches_plan_check_across_library():
    """One check, one answer: for every library program under every
    vendor, OPV501 fires <=> the TLM runner declines it, and the ops
    left on the generic path are exactly these five.  ``cache_read_
    sequential`` is straight-line but kept generic by rule: as a
    template it polls once per busy window, off the runtime's poll
    grid, and ends early."""
    from repro.core import BabolController, ControllerConfig
    from repro.sim import Simulator

    generic = set()
    for vendor in [*VENDOR_PROFILES.values(), TEST_PROFILE]:
        controller = BabolController(Simulator(), ControllerConfig(
            vendor=vendor, lun_count=2, fidelity="tlm"))
        for name, kwargs in sample_kwargs(vendor).items():
            program = resolve_builder(name, vendor)(**kwargs)
            notes = [f for f in verify_program(program, vendor, mode=MODE)
                     if f.rule == "OPV501"]
            plan = controller.fast_ops.plan(name, 0, kwargs)
            assert (plan is not None) == (not notes), name
            if plan is None:
                generic.add(name)
    assert generic == {"cache_program", "cache_read_sequential",
                       "erase_with_preemptive_read", "gang_read",
                       "read_with_retry"}


def test_plan_blockers_read_page_empty_gang_read_not():
    from repro.core.fastops import template_blockers
    from repro.core.opir.compile import lower
    from repro.core.ufsm.base import UfsmBank
    from repro.onfi.datamodes import interface_by_name

    bank = UfsmBank(interface_by_name(MODE))
    samples = sample_kwargs(TEST_PROFILE)

    def blockers(name):
        program = resolve_builder(name, TEST_PROFILE)(**samples[name])
        return template_blockers(bank, TEST_PROFILE, lower(bank, program)[0])

    assert blockers("read_page") == []
    gang = blockers("gang_read")
    assert gang and all(isinstance(p, str) and isinstance(r, str)
                        for p, r in gang)


# -- control flow through the verifier ------------------------------------


def test_verifier_joins_branch_arms():
    """A burst after a branch where only ONE arm polls must flag — the
    other path can still be busy."""
    polled = (PollStatus(until="ready", dest="s"),)
    program = OpProgram("p", (
        SetReg("flag", 1),
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_1ST), addr(ROW),
                       cmd(CMD.READ_2ND))),)),
        Branch(Reg("flag"), polled, ()),
        DeclareHandle("h", "from_flash", nbytes=64, dram_address=0),
        Txn(TxnKind.DATA_OUT, (DataXfer("out", 64, HandleRef("h")),)),
    ))
    errs = rules(verify(program), "error")
    assert "OPV102" in errs
    # With both arms polling, the join is safe (modulo the usual column
    # discipline, which the stock read ops handle via CHANGE READ COL).
    both = OpProgram("p", (
        SetReg("flag", 1),
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.READ_1ST), addr(ROW),
                       cmd(CMD.READ_2ND))),)),
        Branch(Reg("flag"), polled,
               (PollStatus(until="ready", dest="s2"),)),
        Return(0),
    ))
    assert rules(verify(both), "error") == []


def test_verifier_constant_branch_prunes_defective_arm():
    """Dead code may contain defects; the verifier (like the runtime)
    never reaches it, and OPL009 is the rule that reports it."""
    defect = Txn(TxnKind.DATA_OUT, (DataXfer("out", 4, HandleRef("g")),))
    program = OpProgram("p", (
        Branch(False, (defect,), (SoftSleep(1),)),
        Return(0),
    ))
    assert rules(verify(program), "error") == []
    assert any(f.rule == "OPL009" for f in lint_program(program))


def test_verifier_loop_iterates_cache_state():
    """Two cache-program confirms without an ARDY poll between them is
    only visible on the loop's SECOND iteration — the verifier must
    actually iterate the abstract die state."""
    body = (
        Txn(TxnKind.DATA_IN,
            (LatchSeq((cmd(CMD.PROGRAM_1ST), addr(ROW))),
             DataXfer("in", 64, HandleRef("h"), after_address=True))),
        Txn(TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.CACHE_PROGRAM_2ND),)),)),
    )
    program = OpProgram("p", (
        DeclareHandle("h", "to_flash", nbytes=64, dram_address=0),
        Loop("i", 2, body),
    ))
    assert "OPV101" in rules(verify(program), "error")
    paced = OpProgram("p", (
        DeclareHandle("h", "to_flash", nbytes=64, dram_address=0),
        Loop("i", 2, body + (PollStatus(until="array_ready", dest="s"),)),
        PollStatus(until="ready", dest="s2"),
    ))
    assert "OPV101" not in rules(verify(paced))


@pytest.mark.parametrize("vendor", list(VENDOR_PROFILES.values()),
                         ids=[v.name for v in VENDOR_PROFILES.values()])
def test_findings_convert_to_diagnostics(vendor):
    program = OpProgram("p", (
        Txn(TxnKind.CMD_ADDR, (LatchSeq((addr((1, 2)),)),)),
    ))
    findings = verify_program(program, vendor, mode=MODE)
    assert findings
    for vf in findings:
        finding = vf.to_finding()
        assert finding.rule == vf.rule
        assert finding.severity == vf.severity
        assert vf.program in finding.component
