"""Tests for the host substrate: HIC, workload injector, fio driver."""

import numpy as np
import pytest

from repro.core import BabolController, ControllerConfig
from repro.flash.errors import ErrorModelConfig
from repro.ftl import FtlConfig, PageMappedFtl
from repro.host import FioJob, HostInterface, ScaleCommand, run_fio
from repro.host.hic import HostOpcode
from repro.host.workload import measure_read_throughput
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE


def make_stack(lun_count=2, iodepth=4, runtime="rtos", track_data=False):
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                         runtime=runtime, track_data=track_data, seed=7),
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


# --- HIC -----------------------------------------------------------------


def test_hic_completes_reads_and_records_latency():
    sim, controller, ftl, hic = make_stack()
    ftl.prefill(16)
    for lpn in range(8):
        hic.submit(ScaleCommand(opcode=HostOpcode.READ, lpn=lpn, dram_address=0))
    sim.run_process(hic.drain())
    assert len(hic.completed) == 8
    assert hic.mean_latency_ns() > 0
    assert hic.p99_latency_ns() >= hic.mean_latency_ns() * 0.5


def test_hic_iodepth_bounds_concurrency():
    sim, controller, ftl, hic = make_stack(iodepth=1)
    ftl.prefill(8)
    for lpn in range(4):
        hic.submit(ScaleCommand(opcode=HostOpcode.READ, lpn=lpn))
    sim.run_process(hic.drain())
    # With iodepth 1 completions are strictly serialized.
    ends = [c.finished_at for c in hic.completed]
    assert ends == sorted(ends)
    starts = [c.submitted_at for c in hic.completed]
    assert all(s <= e for s, e in zip(starts, ends))


def test_hic_write_then_read_path():
    sim, controller, ftl, hic = make_stack()
    hic.submit(ScaleCommand(opcode=HostOpcode.WRITE, lpn=3, dram_address=0))
    sim.run_process(hic.drain())
    hic.submit(ScaleCommand(opcode=HostOpcode.READ, lpn=3, dram_address=65536))
    sim.run_process(hic.drain())
    assert ftl.host_reads == 1 and ftl.host_writes == 1


def test_hic_trim_path():
    sim, controller, ftl, hic = make_stack()
    ftl.prefill(4)
    hic.submit(ScaleCommand(opcode=HostOpcode.TRIM, lpn=2))
    sim.run_process(hic.drain())
    assert ftl.map.lookup(2) is None


def test_hic_validates_iodepth():
    sim, controller, ftl, hic = make_stack()
    with pytest.raises(ValueError):
        HostInterface(sim, ftl, iodepth=0)


def test_hic_write_then_read_round_trips_the_data():
    sim, controller, ftl, hic = make_stack(track_data=True)
    page = ftl.page_size
    controller.dram.write(0, np.full(page, 0x6C, dtype=np.uint8))
    hic.submit(ScaleCommand(opcode=HostOpcode.WRITE, lpn=5, dram_address=0))
    sim.run_process(hic.drain())
    hic.submit(ScaleCommand(opcode=HostOpcode.READ, lpn=5,
                            dram_address=4 * page))
    sim.run_process(hic.drain())
    assert (controller.dram.read(4 * page, page) == 0x6C).all()


def test_hic_backlog_takes_freed_slots_in_submission_order():
    sim, controller, ftl, hic = make_stack(iodepth=2)
    ftl.prefill(8)
    commands = [ScaleCommand(opcode=HostOpcode.READ, lpn=lpn)
                for lpn in range(6)]
    for command in commands:
        hic.submit(command)
    sim.run_process(hic.drain())
    assert [c.cid for c in commands] == list(range(6))
    starts = [c.started_at for c in commands]
    assert starts == sorted(starts)
    assert len(hic.completed) == 6


def test_hic_latency_counts_the_backlog_wait():
    sim, controller, ftl, hic = make_stack(iodepth=1)
    ftl.prefill(4)
    first = ScaleCommand(opcode=HostOpcode.READ, lpn=0)
    second = ScaleCommand(opcode=HostOpcode.READ, lpn=1)
    hic.submit(first)
    hic.submit(second)
    sim.run_process(hic.drain())
    assert second.submitted_at == first.submitted_at == 0
    assert second.started_at == first.finished_at
    assert second.latency_ns == second.finished_at
    assert second.latency_ns > second.finished_at - second.started_at


def test_hic_drain_returns_at_once_when_idle():
    sim, controller, ftl, hic = make_stack()
    sim.run_process(hic.drain())
    assert sim.now == 0 and hic.completed == []


def test_hic_flush_without_a_journal_completes_at_once():
    sim, controller, ftl, hic = make_stack()
    flush = ScaleCommand(opcode=HostOpcode.FLUSH, lpn=0)
    hic.submit(flush)
    sim.run_process(hic.drain())
    assert hic.completed == [flush]
    assert flush.latency_ns == 0


# --- workload injector -------------------------------------------------------


def test_throughput_increases_with_luns():
    def bandwidth(lun_count):
        sim = Simulator()
        controller = BabolController(
            sim,
            ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                             runtime="rtos", track_data=False),
        )
        result = measure_read_throughput(sim, controller, lun_count,
                                         reads_per_lun=6, warmup_per_lun=1)
        return result.throughput_mb_s

    assert bandwidth(4) > bandwidth(1) * 1.5


def test_throughput_result_fields_consistent():
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=2,
                         runtime="rtos", track_data=False),
    )
    result = measure_read_throughput(sim, controller, 2, reads_per_lun=4,
                                     warmup_per_lun=1)
    assert result.pages_read == 8
    assert result.payload_bytes == 8 * TEST_PROFILE.geometry.page_size
    assert result.mean_page_latency_us > 0


def test_throughput_utilization_bounded_and_warmup_excluded():
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=2,
                         runtime="rtos", track_data=False),
    )
    result = measure_read_throughput(sim, controller, 2, reads_per_lun=5,
                                     warmup_per_lun=2)
    # Warmup reads ran (simulated time advanced past them) but are not
    # part of the measured page count.
    assert result.pages_read == 10
    assert 0.0 <= result.channel_utilization <= 1.0
    assert result.elapsed_ns < sim.now


def test_throughput_zero_elapsed_degenerate():
    from repro.host.workload import ReadWorkloadResult

    result = ReadWorkloadResult(pages_read=0, payload_bytes=0,
                                elapsed_ns=0, channel_utilization=0.0)
    assert result.throughput_mb_s == 0.0
    assert result.mean_page_latency_us == 0.0


def test_throughput_deterministic_across_runs():
    def run():
        sim = Simulator()
        controller = BabolController(
            sim,
            ControllerConfig(vendor=TEST_PROFILE, lun_count=2,
                             runtime="coroutine", track_data=False),
        )
        result = measure_read_throughput(sim, controller, 2, reads_per_lun=4,
                                         warmup_per_lun=1)
        return (result.elapsed_ns, result.pages_read,
                result.channel_utilization)

    assert run() == run()


# --- fio -----------------------------------------------------------------


def test_fio_sequential_and_random():
    sim, controller, ftl, hic = make_stack(lun_count=2, iodepth=4)
    ftl.prefill(64)
    seq = run_fio(sim, hic, FioJob(pattern="sequential", io_count=32, iodepth=4))
    rand = run_fio(sim, hic, FioJob(pattern="random", io_count=32, iodepth=4, seed=3))
    assert seq.ios == 32 and rand.ios == 32
    assert seq.bandwidth_mb_s > 0 and rand.bandwidth_mb_s > 0
    assert seq.iops > 0
    assert seq.p99_latency_ns >= seq.mean_latency_ns * 0.5


def test_fio_and_hic_p99_interpolate_like_numpy():
    sim, controller, ftl, hic = make_stack(lun_count=2, iodepth=4)
    ftl.prefill(32)
    result = run_fio(sim, hic, FioJob(pattern="random", io_count=24,
                                      iodepth=4, seed=5))
    latencies = [c.latency_ns for c in hic.completed]
    expected = np.percentile(latencies, 99)
    assert result.p99_latency_ns == pytest.approx(expected)
    assert hic.p99_latency_ns() == pytest.approx(expected)
    assert result.mean_latency_ns == pytest.approx(np.mean(latencies))


def test_fio_validates_job():
    with pytest.raises(ValueError):
        FioJob(pattern="zigzag").validate()
    with pytest.raises(ValueError):
        FioJob(io_count=0).validate()


def test_fio_read_on_empty_ftl_rejected():
    sim, controller, ftl, hic = make_stack()
    with pytest.raises(ValueError, match="prefill"):
        run_fio(sim, hic, FioJob(io_count=4))


def test_fio_prefill_parameter():
    sim, controller, ftl, hic = make_stack()
    result = run_fio(sim, hic, FioJob(io_count=8, iodepth=2), prefill=32)
    assert ftl.map.mapped_count == 32
    assert result.ios == 8
