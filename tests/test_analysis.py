"""Tests for the analysis layer: logic analyzer, renderer, LoC, area."""

import pytest

from repro.analysis import (
    LogicAnalyzer,
    count_source_lines,
    estimate_area,
    operation_loc_table,
    render_segment,
    render_timeline,
    summarize_latencies,
)
from repro.analysis.area import AreaEstimate, babol_inventory, estimate_module
from repro.core import BabolController, ControllerConfig
from repro.core.ufsm.base import HardwareInventory
from repro.onfi import NVDDR2_200, timing_for_mode
from repro.onfi.commands import CMD
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE, cmd_addr_segment


def make_controller(runtime="coroutine", lun_count=1):
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                         runtime=runtime, track_data=False, seed=4),
    )
    return sim, controller


# --- logic analyzer ---------------------------------------------------------


def test_analyzer_captures_read_sequence():
    sim, controller = make_controller()
    analyzer = LogicAnalyzer(controller.channel)
    controller.run_to_completion(controller.read_page(0, 1, 0, 0))
    opcodes = [e.opcode for e in analyzer.events if e.kind == "cmd"]
    assert CMD.READ_1ST in opcodes
    assert CMD.READ_2ND in opcodes
    assert CMD.READ_STATUS in opcodes
    assert CMD.CHANGE_READ_COL_1ST in opcodes
    kinds = {e.kind for e in analyzer.events}
    assert "data_out" in kinds and "addr" in kinds


def test_analyzer_polling_summary_coro_slower_than_rtos():
    def polling_mean(runtime):
        sim, controller = make_controller(runtime=runtime)
        analyzer = LogicAnalyzer(controller.channel)
        controller.run_to_completion(controller.read_page(0, 1, 0, 0))
        return analyzer.polling_summary().mean_ns

    coro = polling_mean("coroutine")
    rtos = polling_mean("rtos")
    assert coro > 5 * rtos
    assert 20_000 < coro < 45_000  # the ~30 us of Fig. 11


def test_analyzer_halt_and_clear():
    sim, controller = make_controller()
    analyzer = LogicAnalyzer(controller.channel)
    analyzer.halt()
    controller.run_to_completion(controller.read_page(0, 1, 0, 0))
    assert not analyzer.events
    analyzer.arm()
    controller.run_to_completion(controller.read_page(0, 1, 1, 0))
    assert analyzer.events
    analyzer.clear()
    assert not analyzer.events and not analyzer.segments


def test_analyzer_operation_phases_in_order():
    sim, controller = make_controller()
    analyzer = LogicAnalyzer(controller.channel)
    controller.run_to_completion(controller.read_page(0, 1, 0, 0))
    phases = [name for name, _ in analyzer.operation_phases()]
    assert phases[0] == "READ cmd+addr"
    assert "READ STATUS poll" in phases
    assert phases[-1] == "data transfer"


def test_analyzer_span_positive():
    sim, controller = make_controller()
    analyzer = LogicAnalyzer(controller.channel)
    assert analyzer.captured_span_ns == 0
    controller.run_to_completion(controller.read_page(0, 1, 0, 0))
    assert analyzer.captured_span_ns > 0


# --- renderers -----------------------------------------------------------


def test_render_segment_shows_pins_and_bytes():
    segment = cmd_addr_segment(CMD.READ_1ST, (0x12, 0x34))
    text = render_segment(segment, timing_for_mode("NV-DDR2-200"), NVDDR2_200)
    assert "CLE" in text
    assert "12" in text and "34" in text


def test_render_timeline_lists_events():
    sim, controller = make_controller()
    analyzer = LogicAnalyzer(controller.channel)
    controller.run_to_completion(controller.read_page(0, 1, 0, 0))
    text = render_timeline(analyzer.events)
    assert "READ_STATUS" in text
    assert "us" in text


def test_render_timeline_empty():
    assert render_timeline([]) == "(empty capture)"


# --- LoC -------------------------------------------------------------------


def test_count_source_lines_excludes_comments_and_docstrings():
    def sample():
        """Docstring line.

        More docstring.
        """
        x = 1  # comment
        # full comment line
        return x

    assert count_source_lines(sample) == 3  # def, assignment, return


def test_count_source_lines_sums_lists():
    def a():
        return 1

    def b():
        return 2

    assert count_source_lines([a, b]) == count_source_lines(a) + count_source_lines(b)


def test_operation_loc_table_shape():
    table = operation_loc_table()
    assert set(table) == {"READ", "PROGRAM", "ERASE"}
    for row in table.values():
        assert row["babol"] < row["async_hw"] < row["sync_hw"]
        assert row["babol"] > 0


def test_experiments_md_table2_is_the_measured_table():
    """EXPERIMENTS.md printed 58/53/38 for BABOL long after `repro
    table2` printed 62/64/54 (d304518): the document is parsed and held
    to the measurement, rows and the factors quoted under them."""
    import re
    from pathlib import Path

    text = (Path(__file__).parent.parent / "EXPERIMENTS.md").read_text()
    section = text[text.index("## Table II"):text.index("## Table III")]
    rows = re.findall(
        r"^\| (READ|PROGRAM|ERASE) \| (\d+) \(\d+\) \| (\d+) \(\d+\) "
        r"\| (\d+) \(\d+\) \|$", section, re.MULTILINE)
    documented = {op: {"sync_hw": int(sync), "async_hw": int(async_),
                       "babol": int(babol)}
                  for op, sync, async_, babol in rows}
    measured = operation_loc_table()
    assert documented == measured
    for baseline in ("sync_hw", "async_hw"):
        factors = " / ".join(
            f"{measured[op][baseline] / measured[op]['babol']:.2f}×"
            for op in ("READ", "PROGRAM", "ERASE"))
        assert factors in " ".join(section.split()), factors


def test_loc_babol_read_near_paper_count():
    # The paper reports 58 lines for BABOL's READ; ours should be the
    # same order (the listing is the same algorithm).
    table = operation_loc_table()
    assert 30 <= table["READ"]["babol"] <= 90


# --- area -------------------------------------------------------------------


def test_estimate_module_monotone_in_structure():
    small = estimate_module(HardwareInventory(fsm_states=4, registers_bits=32))
    big = estimate_module(HardwareInventory(fsm_states=40, registers_bits=640))
    assert big.lut > small.lut and big.ff > small.ff


def test_small_buffers_become_lutram_not_bram():
    module = estimate_module(
        HardwareInventory(fsm_states=2, registers_bits=8, buffer_bits=1024)
    )
    assert module.bram == 0.0
    big = estimate_module(
        HardwareInventory(fsm_states=2, registers_bits=8, buffer_bits=36_864)
    )
    assert big.bram >= 1.0


def test_area_addition():
    a = AreaEstimate(1, 2, 0.5)
    b = AreaEstimate(10, 20, 1.0)
    total = a + b
    assert (total.lut, total.ff, total.bram) == (11, 22, 1.5)


def test_table3_ordering_holds():
    from repro.baselines import AsyncHwController, SyncHwController

    sync = estimate_area(SyncHwController(Simulator(), lun_count=8,
                                          track_data=False).inventory())
    asyn = estimate_area(AsyncHwController(Simulator(), lun_count=8,
                                           track_data=False).inventory())
    babol = estimate_area(babol_inventory(8))
    assert sync.lut > asyn.lut > babol.lut
    assert sync.ff > asyn.ff > babol.ff
    assert sync.bram > asyn.bram > babol.bram


# --- metrics -----------------------------------------------------------------


def test_summarize_latencies_basic():
    stats = summarize_latencies([100, 200, 300, 400])
    assert stats.count == 4
    assert stats.mean_ns == 250
    assert stats.min_ns == 100 and stats.max_ns == 400
    # Linear interpolation: the even-count median is the midpoint.
    assert stats.p50_ns == 250.0


def test_summarize_latencies_empty():
    stats = summarize_latencies([])
    assert stats.count == 0 and stats.mean_ns == 0.0
    assert "n=0" in stats.describe()


def test_percentile_interpolates_between_ranks():
    from repro.analysis.metrics import _percentile

    assert _percentile([1, 2], 0.50) == 1.5
    assert _percentile([10, 20, 30], 0.50) == 20.0
    assert _percentile([10, 20, 30, 40], 0.25) == 17.5
    # p99 of 1..100 sits 0.99 * 99 = 98.01 ranks in: between 99 and 100.
    assert _percentile(list(range(1, 101)), 0.99) == pytest.approx(99.01)


def test_percentile_edges():
    from repro.analysis.metrics import _percentile

    assert _percentile([], 0.5) == 0.0
    assert _percentile([7], 0.0) == 7.0
    assert _percentile([7], 1.0) == 7.0
    assert _percentile([3, 9], 0.0) == 3.0
    assert _percentile([3, 9], 1.0) == 9.0
    # Out-of-range fractions clamp instead of indexing out of bounds.
    assert _percentile([3, 9], -0.5) == 3.0
    assert _percentile([3, 9], 1.5) == 9.0


def test_percentile_matches_numpy_linear_method():
    import numpy as np

    from repro.analysis.metrics import _percentile

    samples = sorted(int(x) for x in np.random.default_rng(3).integers(0, 10_000, 37))
    for fraction in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
        expected = float(np.percentile(samples, fraction * 100))
        assert _percentile(samples, fraction) == pytest.approx(expected)


# --- package namespace --------------------------------------------------------


def test_a_simulation_imports_no_static_checker():
    """``repro.analysis`` loads a submodule on first use of one of its
    names, so building and running a stack (which needs only
    :mod:`~repro.analysis.metrics`) never imports the verifier."""
    import subprocess
    import sys
    from pathlib import Path

    import repro

    probe = (
        "import sys, repro.host, repro.config\n"
        "assert 'repro.analysis.opver' not in sys.modules, 'eager'\n"
        "import repro.analysis as analysis\n"
        "from repro.analysis import *\n"
        "assert all(getattr(analysis, name) is globals()[name]\n"
        "           for name in analysis.__all__)\n"
        "assert 'repro.analysis.opver' in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        cwd=Path(repro.__file__).parents[1], timeout=60)
    assert done.returncode == 0, done.stderr
