"""Tests for trace synthesis, serialization, replay, and wear leveling."""

import numpy as np
import pytest

from repro.core import BabolController, ControllerConfig
from repro.flash.errors import ErrorModelConfig
from repro.ftl import FtlConfig, PageMappedFtl
from repro.host import (
    HostInterface,
    Trace,
    TraceRecord,
    replay_trace,
    synthesize_trace,
)
from repro.host.hic import HostOpcode
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE


def make_stack(lun_count=2, iodepth=4):
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                         runtime="rtos", track_data=False, seed=7),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    ftl = PageMappedFtl(
        sim, controller,
        FtlConfig(blocks_per_lun=8, overprovision_blocks=2,
                  gc_staging_base=8 * 1024 * 1024),
    )
    hic = HostInterface(sim, ftl, iodepth=iodepth)
    return sim, controller, ftl, hic


# --- synthesis -------------------------------------------------------------


def test_synthesize_respects_counts_and_footprint():
    trace = synthesize_trace(io_count=200, working_set_pages=50, seed=3)
    assert len(trace) == 200
    assert trace.footprint_pages() <= 50
    trace.validate()


def test_synthesize_read_fraction_approximate():
    trace = synthesize_trace(io_count=600, working_set_pages=100,
                             read_fraction=0.7, seed=1)
    assert 0.6 < trace.read_fraction < 0.8


def test_synthesize_hot_cold_skew():
    trace = synthesize_trace(io_count=1000, working_set_pages=100,
                             hot_fraction=0.2, hot_access_fraction=0.8, seed=2)
    hot_pages = 20
    hot_hits = sum(1 for r in trace.records if r.lpn < hot_pages)
    assert hot_hits > 700  # ~80% of accesses to the hot 20%


def test_synthesize_arrivals_monotone():
    trace = synthesize_trace(io_count=100, working_set_pages=10, seed=4)
    times = [r.arrival_ns for r in trace.records]
    assert times == sorted(times)


def test_synthesize_validates_params():
    with pytest.raises(ValueError):
        synthesize_trace(io_count=10, working_set_pages=0)
    with pytest.raises(ValueError):
        synthesize_trace(io_count=10, working_set_pages=10, read_fraction=1.5)


# --- serialization -----------------------------------------------------------


def test_trace_roundtrip_through_text():
    trace = synthesize_trace(io_count=30, working_set_pages=10, seed=5)
    text = trace.dumps()
    loaded = Trace.loads(text)
    assert loaded.records == trace.records


def test_trace_loads_skips_comments_and_blanks():
    text = "# comment\n\n100 read 5\n200 write 6\n"
    trace = Trace.loads(text)
    assert len(trace) == 2
    assert trace.records[0] == TraceRecord(100, HostOpcode.READ, 5)


def test_trace_validate_rejects_time_travel():
    trace = Trace(records=[TraceRecord(100, HostOpcode.READ, 0),
                           TraceRecord(50, HostOpcode.READ, 1)])
    with pytest.raises(ValueError):
        trace.validate()


# --- replay ----------------------------------------------------------------


def test_replay_completes_all_ios():
    sim, controller, ftl, hic = make_stack()
    ftl.prefill(32)
    trace = synthesize_trace(io_count=40, working_set_pages=32,
                             read_fraction=0.5, mean_interarrival_ns=200_000,
                             seed=6)
    result = replay_trace(sim, hic, trace)
    assert result.ios == 40
    assert result.reads + result.writes == 40
    assert result.mean_latency_ns > 0
    assert result.iops > 0


def test_replay_p99_interpolates_like_numpy():
    sim, controller, ftl, hic = make_stack()
    ftl.prefill(32)
    trace = synthesize_trace(io_count=24, working_set_pages=32,
                             mean_interarrival_ns=20_000, seed=4)
    result = replay_trace(sim, hic, trace)
    latencies = [c.latency_ns for c in hic.completed]
    assert result.p99_latency_ns == pytest.approx(np.percentile(latencies, 99))


def test_replay_open_loop_respects_arrivals():
    sim, controller, ftl, hic = make_stack()
    ftl.prefill(8)
    # Widely spaced arrivals: elapsed time tracks the trace span.
    records = [TraceRecord(i * 2_000_000, HostOpcode.READ, i % 8)
               for i in range(5)]
    result = replay_trace(sim, hic, Trace(records=records))
    assert result.elapsed_ns >= 8_000_000


# --- wear leveling -------------------------------------------------------------


def test_level_wear_noop_when_balanced():
    sim, controller, ftl, hic = make_stack()

    def scenario():
        moved = yield from ftl.level_wear()
        return moved

    assert sim.run_process(scenario()) == 0


@pytest.mark.slow_waveform
def test_level_wear_relocates_cold_block():
    sim, controller, ftl, hic = make_stack(lun_count=1)
    pages = ftl.pages_per_block

    def fill_and_churn():
        # Cold data in the first block; then hammer a hot range so GC
        # cycles the other blocks and wear grows lopsided.
        for lpn in range(pages):
            yield from ftl.write(lpn, 0)
        for i in range(12 * pages):
            yield from ftl.write(pages + (i % (pages // 2)), 0)

    sim.run_process(fill_and_churn())
    assert ftl.wear.max_erase > 0
    # Seed an artificial imbalance record for the cold block.
    cold_block = ftl.map.lookup(0).block
    if ftl.wear.erase_count(0, cold_block) == 0:
        ftl.wear.counts[(0, cold_block)] = 0  # explicitly tracked as coldest

    def level():
        moved = yield from ftl.level_wear(threshold=1.1)
        return moved

    moved = sim.run_process(level())
    ftl.map.check_invariants()
    if moved:
        # Cold data survived the relocation.
        assert ftl.map.lookup(0) is not None
        assert ftl.map.lookup(0).block != cold_block
