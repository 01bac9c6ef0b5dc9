"""Tests for the ONFI timing linter and erase suspension for host reads."""

import pytest

from repro.analysis import LogicAnalyzer, TimingChecker
from repro.analysis.logic_analyzer import AnalyzerEvent
from repro.baselines import AsyncHwController, SyncHwController
from repro.core import BabolController, ControllerConfig
from repro.onfi.commands import CMD
from repro.onfi.timing import timing_for_mode
from repro.sim import Simulator, Timeout

from tests.helpers import TEST_PROFILE

PAGE = TEST_PROFILE.geometry.full_page_size
TIMING = timing_for_mode("NV-DDR2-200")


def make_babol(runtime="rtos", lun_count=2, fidelity="waveform"):
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                         runtime=runtime, track_data=False, seed=3,
                         fidelity=fidelity),
    )
    return sim, controller


# --- timing checker: clean captures -----------------------------------------


@pytest.mark.parametrize("runtime", ["rtos", "coroutine"])
def test_babol_emits_legal_onfi(runtime):
    sim, controller = make_babol(runtime)
    analyzer = LogicAnalyzer(controller.channel)
    controller.run_to_completion(controller.read_page(0, 1, 0, 0))
    controller.run_to_completion(controller.program_page(1, 1, 0, 0))
    controller.run_to_completion(controller.erase_block(0, 1))
    checker = TimingChecker(TIMING, lun_count=2)
    violations = checker.check_analyzer(analyzer)
    assert checker.clean, checker.report()
    assert violations == []


@pytest.mark.parametrize("cls", [SyncHwController, AsyncHwController])
def test_hw_baselines_emit_legal_onfi(cls):
    sim = Simulator()
    controller = cls(sim, vendor=TEST_PROFILE, lun_count=2, track_data=False)
    analyzer = LogicAnalyzer(controller.channel)
    controller.run_to_completion(controller.read_page(0, 1, 0, 0))
    controller.run_to_completion(controller.erase_block(1, 1))
    checker = TimingChecker(TIMING, lun_count=2)
    checker.check_analyzer(analyzer)
    assert checker.clean, checker.report()


def test_complex_operations_stay_legal():
    sim, controller = make_babol()
    analyzer = LogicAnalyzer(controller.channel)
    controller.run_to_completion(controller.pslc_erase(0, 3))
    controller.run_to_completion(controller.pslc_program(0, 3, 0, 0))
    controller.run_to_completion(controller.pslc_read(0, 3, 0, 0))
    controller.run_to_completion(controller.read_parameter_page(1))
    controller.run_to_completion(controller.read_id(1))
    checker = TimingChecker(TIMING, lun_count=2)
    checker.check_analyzer(analyzer)
    assert checker.clean, checker.report()
    assert "clean" in checker.report()


# --- timing checker: violation detection ----------------------------------------


def test_checker_flags_orphan_address():
    checker = TimingChecker(TIMING, lun_count=1)
    events = [AnalyzerEvent(100, "addr", "00,01", None, 0b1, 0)]
    violations = checker.check_events(events)
    assert len(violations) == 1
    assert violations[0].rule == "orphan-address"
    assert "orphan-address" in checker.report()


def test_checker_flags_fast_poll_after_confirm():
    checker = TimingChecker(TIMING, lun_count=1)
    events = [
        AnalyzerEvent(0, "cmd", "READ_2ND", CMD.READ_2ND, 0b1, 0),
        AnalyzerEvent(10, "cmd", "READ_STATUS", CMD.READ_STATUS, 0b1, 0),
    ]
    violations = checker.check_events(events)
    assert any(v.rule == "tWB" for v in violations)


def test_checker_flags_unarmed_data_out():
    checker = TimingChecker(TIMING, lun_count=1)
    events = [AnalyzerEvent(0, "data_out", "64B", None, 0b1, 0)]
    violations = checker.check_events(events)
    assert violations[0].rule == "unarmed-data-out"


def test_checker_flags_fast_ccs():
    checker = TimingChecker(TIMING, lun_count=1)
    events = [
        AnalyzerEvent(0, "cmd", "CHANGE_READ_COL_2ND",
                      CMD.CHANGE_READ_COL_2ND, 0b1, 0),
        AnalyzerEvent(10, "data_out", "4096B", None, 0b1, 0),
    ]
    violations = checker.check_events(events)
    assert any(v.rule == "tCCS" for v in violations)


def test_checker_flags_confirm_without_address():
    checker = TimingChecker(TIMING, lun_count=1)
    events = [
        AnalyzerEvent(0, "cmd", "ERASE_1ST", CMD.ERASE_1ST, 0b1, 0),
        AnalyzerEvent(50, "cmd", "ERASE_2ND", CMD.ERASE_2ND, 0b1, 0),
    ]
    violations = checker.check_events(events)
    assert any(v.rule == "confirm-without-address" for v in violations)


def test_status_enhanced_address_is_not_orphan():
    checker = TimingChecker(TIMING, lun_count=1)
    events = [
        AnalyzerEvent(0, "cmd", "READ_STATUS_ENHANCED",
                      CMD.READ_STATUS_ENHANCED, 0b1, 0),
        AnalyzerEvent(50, "addr", "00,01,00", None, 0b1, 0),
    ]
    assert checker.check_events(events) == []


# --- preemptive reads ---------------------------------------------------------
#
# An erase in the background class (``priority=2``) is suspended by a
# read in the host-read class (``priority=0``): the classes the FTL uses.


def _suspends(controller) -> int:
    return controller.luns[0].op_counts["VENDOR_SUSPEND"]


@pytest.mark.parametrize("fidelity", ["waveform", "tlm"])
def test_preemptive_read_cuts_latency_under_erase(fidelity):
    t_bers = TEST_PROFILE.timing.t_bers_ns

    def read_latency(preemptive: bool):
        sim, controller = make_babol(fidelity=fidelity)
        latency = {}

        def background():
            task = controller.erase_block(0, 5,
                                          priority=2 if preemptive else 1)
            yield from controller.wait(task)

        def reader():
            yield Timeout(50_000)  # arrive mid-erase
            start = sim.now
            task = controller.read_page(0, 1, 0, 0,
                                        priority=0 if preemptive else 1)
            yield from controller.wait(task)
            latency["ns"] = sim.now - start

        sim.spawn(background())
        sim.spawn(reader())
        sim.run()
        return latency["ns"]

    blocked = read_latency(preemptive=False)
    preempted = read_latency(preemptive=True)
    assert blocked > t_bers * 0.8          # queued behind the full erase
    assert preempted < blocked / 3         # suspension rescued the read


@pytest.mark.parametrize("fidelity", ["waveform", "tlm"])
def test_preemptive_erase_still_completes(fidelity):
    sim, controller = make_babol(fidelity=fidelity)
    outcome = {}

    def background():
        task = controller.erase_block(0, 5, priority=2)
        outcome["ok"] = yield from controller.wait(task)

    def reader():
        yield Timeout(80_000)
        yield from controller.wait(controller.read_page(0, 1, 0, 0,
                                                        priority=0))

    sim.spawn(background())
    sim.spawn(reader())
    sim.run()
    assert outcome["ok"] is True
    assert controller.luns[0].erases_completed == 1
    assert _suspends(controller) == 1
    assert controller.luns[0].op_counts["VENDOR_RESUME"] == 1


@pytest.mark.parametrize("fidelity", ["waveform", "tlm"])
def test_preemptive_erase_serves_multiple_queued_reads(fidelity):
    sim, controller = make_babol(fidelity=fidelity)
    served = []

    def background():
        yield from controller.wait(controller.erase_block(0, 5, priority=2))

    def reader(page, delay):
        yield Timeout(delay)
        yield from controller.wait(controller.read_page(0, 1, page, 0,
                                                        priority=0))
        served.append((page, sim.now))

    sim.spawn(background())
    sim.spawn(reader(0, 60_000))
    sim.spawn(reader(1, 70_000))
    sim.run()
    assert len(served) == 2
    assert controller.luns[0].reads_completed == 2
    assert controller.luns[0].erases_completed == 1


def test_plain_read_path_without_background():
    sim, controller = make_babol()
    status, handle = controller.run_to_completion(
        controller.read_page(0, 1, 0, 0, priority=0))
    assert handle is not None
    assert _suspends(controller) == 0


@pytest.mark.parametrize("fidelity", ["waveform", "tlm"])
def test_program_is_not_suspended_for_a_read(fidelity):
    """Program suspend is not a policy here: a host read waits for the
    program it finds in flight, then goes first."""
    sim, controller = make_babol(fidelity=fidelity)
    outcome = {}

    def background():
        task = controller.program_page(0, 6, 0, 0, priority=2)
        outcome["ok"] = yield from controller.wait(task)

    def reader():
        yield Timeout(30_000)
        yield from controller.wait(controller.read_page(0, 1, 0, 0,
                                                        priority=0))
        outcome["read_at"] = sim.now

    sim.spawn(background())
    sim.spawn(reader())
    sim.run()
    assert outcome["ok"] is True
    assert controller.luns[0].programs_completed == 1
    assert _suspends(controller) == 0
    assert outcome["read_at"] > TEST_PROFILE.timing.t_prog_ns


# --- turnaround rules: tWHR / tRR / tRHW --------------------------------------


def test_checker_flags_fast_status_turnaround_twhr():
    checker = TimingChecker(TIMING, lun_count=1)
    events = [
        AnalyzerEvent(0, "cmd", "READ_STATUS", CMD.READ_STATUS, 0b1, 0),
        AnalyzerEvent(10, "data_out", "1B", None, 0b1, 0),  # < tWHR
    ]
    violations = checker.check_events(events)
    assert [v.rule for v in violations] == ["tWHR"]


def test_twhr_scoped_to_direct_command_data_adjacency():
    # An address phase between the command and the burst (READ ID style)
    # means the burst is paced by other rules, not tWHR.
    checker = TimingChecker(TIMING, lun_count=1)
    events = [
        AnalyzerEvent(0, "cmd", "READ_ID", CMD.READ_ID, 0b1, 0),
        AnalyzerEvent(25, "addr", "00", None, 0b1, 0),
        AnalyzerEvent(35, "data_out", "5B", None, 0b1, 0),
    ]
    assert checker.check_events(events) == []


def test_checker_flags_fast_data_after_ready_trr():
    checker = TimingChecker(TIMING, lun_count=1)
    events = [
        AnalyzerEvent(0, "cmd", "READ_STATUS_ENHANCED",
                      CMD.READ_STATUS_ENHANCED, 0b1, 0),
        AnalyzerEvent(30, "addr", "00,00,00", None, 0b1, 0),
        AnalyzerEvent(55, "rb", "ready", None, 0b1, 0),
        AnalyzerEvent(60, "data_out", "2048B", None, 0b1, 0),  # 5ns < tRR
    ]
    violations = checker.check_events(events)
    assert [v.rule for v in violations] == ["tRR"]


def test_single_byte_status_burst_is_exempt_from_trr():
    checker = TimingChecker(TIMING, lun_count=1)
    events = [
        AnalyzerEvent(0, "cmd", "READ_STATUS", CMD.READ_STATUS, 0b1, 0),
        AnalyzerEvent(100, "rb", "ready", None, 0b1, 0),
        AnalyzerEvent(105, "data_out", "1B", None, 0b1, 0),
    ]
    assert checker.check_events(events) == []


def test_rb_events_recorded_out_of_order_are_resorted():
    # R/B# edges are timestamped at toggle time while segment events are
    # recorded at transmit time, so capture order is not timeline order.
    checker = TimingChecker(TIMING, lun_count=1)
    events = [
        AnalyzerEvent(0, "cmd", "READ_STATUS_ENHANCED",
                      CMD.READ_STATUS_ENHANCED, 0b1, 0),
        AnalyzerEvent(30, "addr", "00,00,00", None, 0b1, 0),
        AnalyzerEvent(60, "data_out", "2048B", None, 0b1, 0),
        AnalyzerEvent(55, "rb", "ready", None, 0b1, 0),  # logged late
    ]
    violations = checker.check_events(events)
    assert [v.rule for v in violations] == ["tRR"]


def test_checker_flags_fast_command_after_data_trhw():
    checker = TimingChecker(TIMING, lun_count=1)
    events = [
        AnalyzerEvent(0, "cmd", "READ_STATUS", CMD.READ_STATUS, 0b1, 0),
        AnalyzerEvent(100, "data_out", "1B", None, 0b1, 500),
        # The burst occupies [100, 600); 50ns after its end is < tRHW.
        AnalyzerEvent(650, "cmd", "READ_STATUS", CMD.READ_STATUS, 0b1, 0),
    ]
    violations = checker.check_events(events)
    assert [v.rule for v in violations] == ["tRHW"]
    assert "50ns after data out" in violations[0].detail


def test_trhw_measured_from_burst_end_not_start():
    checker = TimingChecker(TIMING, lun_count=1)
    events = [
        AnalyzerEvent(0, "cmd", "READ_STATUS", CMD.READ_STATUS, 0b1, 0),
        AnalyzerEvent(100, "data_out", "1B", None, 0b1, 500),
        AnalyzerEvent(700, "cmd", "READ_STATUS", CMD.READ_STATUS, 0b1, 0),
    ]
    assert checker.check_events(events) == []  # 100ns gap from the end


def test_violations_convert_to_tck_findings():
    checker = TimingChecker(TIMING, lun_count=1)
    checker.check_events([
        AnalyzerEvent(0, "cmd", "READ_STATUS", CMD.READ_STATUS, 0b1, 0),
        AnalyzerEvent(10, "data_out", "1B", None, 0b1, 0),
    ])
    finding = checker.violations[0].to_finding(component="babol/rtos")
    assert finding.rule == "TCK006"
    assert finding.severity == "error"
    assert finding.component == "babol/rtos"
    assert "[tWHR]" in finding.message


# --- R/B# capture and vendor-tightened timing sets ----------------------------


def test_analyzer_captures_rb_edges_and_data_durations():
    sim, controller = make_babol()
    analyzer = LogicAnalyzer(controller.channel, capture_rb=True)
    controller.run_to_completion(controller.read_page(0, 1, 0, 0))
    rb = [e for e in analyzer.events if e.kind == "rb"]
    assert {e.detail for e in rb} == {"busy", "ready"}
    data = [e for e in analyzer.events if e.kind in ("data_out", "data_in")]
    assert data and all(e.duration_ns > 0 for e in data)
    assert all(e.end_ns == e.time_ns + e.duration_ns for e in data)


def test_rb_capture_stays_timing_clean():
    sim, controller = make_babol()
    analyzer = LogicAnalyzer(controller.channel, capture_rb=True)
    controller.run_to_completion(controller.read_page(0, 1, 0, 0))
    controller.run_to_completion(controller.erase_block(1, 1))
    checker = TimingChecker(TIMING, lun_count=2)
    checker.check_analyzer(analyzer)
    assert checker.clean, checker.report()


def test_vendor_timing_overrides_only_tighten():
    from dataclasses import replace

    profile = replace(TEST_PROFILE,
                      timing_overrides=(("tWHR", 300), ("tRR", 1)))
    tightened = profile.timing_set("NV-DDR2-200")
    assert tightened.tWHR == 300          # above the mode value: applied
    assert tightened.tRR == TIMING.tRR    # below the mode value: ignored
    # Stock profiles keep the plain mode timing.
    assert TEST_PROFILE.timing_set("NV-DDR2-200") == TIMING


def test_tightened_timing_set_flags_what_the_mode_allows():
    from dataclasses import replace

    events = [
        AnalyzerEvent(0, "cmd", "READ_STATUS", CMD.READ_STATUS, 0b1, 0),
        AnalyzerEvent(150, "data_out", "1B", None, 0b1, 0),  # > mode tWHR
    ]
    assert TimingChecker(TIMING, lun_count=1).check_events(events) == []
    slow_die = replace(TEST_PROFILE, timing_overrides=(("tWHR", 300),))
    checker = TimingChecker(slow_die.timing_set("NV-DDR2-200"), lun_count=1)
    assert [v.rule for v in checker.check_events(events)] == ["tWHR"]
