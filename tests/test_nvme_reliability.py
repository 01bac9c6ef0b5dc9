"""Tests for the NVMe front end and the reliable-read pipeline."""

import numpy as np
import pytest

from repro.core import BabolController, ControllerConfig
from repro.core.reliability import ReadOutcome, ReliableReader
from repro.ecc import BchConfig, BchEngine
from repro.flash.errors import ErrorModelConfig
from repro.ftl import FtlConfig, PageMappedFtl
from repro.host.engine import QueueSaturatedError
from repro.host.nvme import (
    NvmeCommand,
    NvmeController,
    NvmeOpcode,
    NvmeStatus,
)
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE, crash_after, read_back

PAGE = TEST_PROFILE.geometry.page_size  # 2048 in the test geometry
BLOCK = 512                              # 4 logical blocks per page


def make_controller(sim, lun_count=2, track_data=True):
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                         runtime="rtos", track_data=track_data, seed=5),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    return controller


def make_nvme(lun_count=2, depth=8, track_data=True, **ftl_config):
    sim = Simulator()
    controller = make_controller(sim, lun_count, track_data)
    config = {"blocks_per_lun": 8, "overprovision_blocks": 2,
              "gc_staging_base": 8 * 1024 * 1024, **ftl_config}
    ftl = PageMappedFtl(sim, controller, FtlConfig(**config))
    nvme = NvmeController(sim, ftl, block_size=BLOCK)
    qp = nvme.create_queue_pair(depth=depth)
    return sim, controller, ftl, nvme, qp


def run_cmd(sim, qp, command):
    cid = qp.submit(command)

    def waiter():
        entry = yield from qp.wait_completion(cid)
        return entry

    return sim.run_process(waiter())


# --- NVMe basics ------------------------------------------------------------


def test_identify_reports_capacity():
    sim, controller, ftl, nvme, qp = make_nvme()
    info = nvme.identify()
    assert info["block_size"] == BLOCK
    assert info["capacity_blocks"] == ftl.logical_pages * (PAGE // BLOCK)


def test_block_size_must_divide_page():
    sim, controller, ftl, nvme, qp = make_nvme()
    with pytest.raises(ValueError):
        NvmeController(sim, ftl, block_size=600)


def test_full_page_write_then_read_roundtrip():
    sim, controller, ftl, nvme, qp = make_nvme()
    bpp = nvme.blocks_per_page
    payload = (np.arange(PAGE) % 241).astype(np.uint8)
    controller.dram.write(0, payload)
    entry = run_cmd(sim, qp, NvmeCommand(NvmeOpcode.WRITE, slba=0,
                                         block_count=bpp, prp=0))
    assert entry.ok
    entry = run_cmd(sim, qp, NvmeCommand(NvmeOpcode.READ, slba=0,
                                         block_count=bpp, prp=PAGE * 4))
    assert entry.ok
    np.testing.assert_array_equal(controller.dram.read(PAGE * 4, PAGE), payload)
    assert nvme.rmw_count == 0  # full-page write: no read-modify-write


def test_partial_write_triggers_rmw_and_merges():
    sim, controller, ftl, nvme, qp = make_nvme()
    bpp = nvme.blocks_per_page
    base = np.full(PAGE, 0x11, dtype=np.uint8)
    controller.dram.write(0, base)
    run_cmd(sim, qp, NvmeCommand(NvmeOpcode.WRITE, slba=0, block_count=bpp, prp=0))

    patch = np.full(BLOCK, 0x99, dtype=np.uint8)
    controller.dram.write(50_000, patch)
    entry = run_cmd(sim, qp, NvmeCommand(NvmeOpcode.WRITE, slba=1,
                                         block_count=1, prp=50_000))
    assert entry.ok
    assert nvme.rmw_count == 1

    run_cmd(sim, qp, NvmeCommand(NvmeOpcode.READ, slba=0, block_count=bpp,
                                 prp=PAGE * 4))
    merged = controller.dram.read(PAGE * 4, PAGE)
    assert (merged[:BLOCK] == 0x11).all()
    assert (merged[BLOCK:2 * BLOCK] == 0x99).all()
    assert (merged[2 * BLOCK:] == 0x11).all()


def test_read_spanning_pages():
    sim, controller, ftl, nvme, qp = make_nvme()
    bpp = nvme.blocks_per_page
    for page_index, fill in enumerate((0xAA, 0xBB)):
        controller.dram.write(0, np.full(PAGE, fill, dtype=np.uint8))
        run_cmd(sim, qp, NvmeCommand(NvmeOpcode.WRITE, slba=page_index * bpp,
                                     block_count=bpp, prp=0))
    # Read the last block of page 0 plus the first block of page 1.
    entry = run_cmd(sim, qp, NvmeCommand(NvmeOpcode.READ, slba=bpp - 1,
                                         block_count=2, prp=PAGE * 4))
    assert entry.ok
    out = controller.dram.read(PAGE * 4, 2 * BLOCK)
    assert (out[:BLOCK] == 0xAA).all()
    assert (out[BLOCK:] == 0xBB).all()


def test_unwritten_blocks_read_zero():
    sim, controller, ftl, nvme, qp = make_nvme()
    controller.dram.write(PAGE * 4, np.full(BLOCK, 0xFF, dtype=np.uint8))
    entry = run_cmd(sim, qp, NvmeCommand(NvmeOpcode.READ, slba=0,
                                         block_count=1, prp=PAGE * 4))
    assert entry.ok
    assert (controller.dram.read(PAGE * 4, BLOCK) == 0).all()


def test_lba_out_of_range_rejected():
    sim, controller, ftl, nvme, qp = make_nvme()
    entry = run_cmd(sim, qp, NvmeCommand(
        NvmeOpcode.READ, slba=nvme.capacity_blocks, block_count=1, prp=0))
    assert entry.status is NvmeStatus.LBA_OUT_OF_RANGE


def test_invalid_block_count_rejected():
    sim, controller, ftl, nvme, qp = make_nvme()
    entry = run_cmd(sim, qp, NvmeCommand(NvmeOpcode.READ, slba=0,
                                         block_count=0, prp=0))
    assert entry.status is NvmeStatus.INVALID_FIELD


def test_flush_completes_immediately():
    sim, controller, ftl, nvme, qp = make_nvme()
    entry = run_cmd(sim, qp, NvmeCommand(NvmeOpcode.FLUSH))
    assert entry.ok


def test_dsm_trims_fully_covered_pages():
    sim, controller, ftl, nvme, qp = make_nvme()
    bpp = nvme.blocks_per_page
    controller.dram.write(0, np.full(PAGE, 1, dtype=np.uint8))
    run_cmd(sim, qp, NvmeCommand(NvmeOpcode.WRITE, slba=0, block_count=bpp, prp=0))
    assert ftl.map.lookup(0) is not None
    entry = run_cmd(sim, qp, NvmeCommand(NvmeOpcode.DSM, slba=0, block_count=bpp))
    assert entry.ok
    assert ftl.map.lookup(0) is None


def test_queue_depth_enforced():
    sim, controller, ftl, nvme, qp = make_nvme(depth=2)
    qp.submit(NvmeCommand(NvmeOpcode.FLUSH))
    qp.submit(NvmeCommand(NvmeOpcode.FLUSH))
    with pytest.raises(QueueSaturatedError):
        qp.submit(NvmeCommand(NvmeOpcode.FLUSH))
    sim.run_process(qp.drain())
    assert qp.free_slots == 2


def test_drain_waits_for_all():
    sim, controller, ftl, nvme, qp = make_nvme()
    bpp = nvme.blocks_per_page
    controller.dram.write(0, np.full(PAGE, 3, dtype=np.uint8))
    for i in range(4):
        qp.submit(NvmeCommand(NvmeOpcode.WRITE, slba=i * bpp,
                              block_count=bpp, prp=0))
    sim.run_process(qp.drain())
    assert len(qp.completions) == 4
    assert all(c.ok for c in qp.completions)


def test_flush_completes_once_earlier_writes_are_durable():
    config = FtlConfig(blocks_per_lun=10, overprovision_blocks=4,
                       meta_blocks=2, checkpoint_interval=1000,
                       journal_flush_records=100,
                       gc_staging_base=8 * 1024 * 1024)

    def scenario(sim, controllers, ftl):
        nvme = NvmeController(sim, ftl, block_size=BLOCK)
        qp = nvme.create_queue_pair(depth=8)
        bpp = nvme.blocks_per_page
        for page in range(3):
            controllers[0].dram.write(0, np.full(PAGE, 5 + page,
                                                 dtype=np.uint8))
            cid = qp.submit(NvmeCommand(NvmeOpcode.WRITE, slba=page * bpp,
                                        block_count=bpp, prp=0))
            assert (yield from qp.wait_completion(cid)).ok
        persist = ftl.persist
        assert persist._noted == 3 and persist._committed == 0  # buffered
        cid = qp.submit(NvmeCommand(NvmeOpcode.FLUSH))
        entry = yield from qp.wait_completion(cid)
        return entry

    crashed, entry, mounted, controllers = crash_after(
        lambda sim: [make_controller(sim)],
        lambda sim, controllers: PageMappedFtl(sim, controllers[0], config),
        scenario)
    assert entry.ok
    # Each write's data page carried its bind: no journal page to wait on.
    assert entry.finished_at == entry.submitted_at
    assert crashed.persist._committed == 0
    # Cut 1 ns after the FLUSH: all three pages read back.
    for page in range(3):
        assert (read_back(mounted, controllers, page) == 5 + page).all()


def test_concurrent_sub_page_writes_to_one_page_both_land():
    sim, controller, ftl, nvme, qp = make_nvme()
    bpp = nvme.blocks_per_page
    controller.dram.write(0, np.full(PAGE, 0x11, dtype=np.uint8))
    run_cmd(sim, qp, NvmeCommand(NvmeOpcode.WRITE, slba=0, block_count=bpp, prp=0))
    controller.dram.write(50_000, np.full(BLOCK, 0xAA, dtype=np.uint8))
    controller.dram.write(60_000, np.full(BLOCK, 0xBB, dtype=np.uint8))
    qp.submit(NvmeCommand(NvmeOpcode.WRITE, slba=1, block_count=1, prp=50_000))
    qp.submit(NvmeCommand(NvmeOpcode.WRITE, slba=2, block_count=1, prp=60_000))
    sim.run_process(qp.drain())
    assert all(c.ok for c in qp.completions)

    run_cmd(sim, qp, NvmeCommand(NvmeOpcode.READ, slba=0, block_count=bpp,
                                 prp=PAGE * 4))
    merged = controller.dram.read(PAGE * 4, PAGE)
    assert (merged[:BLOCK] == 0x11).all()
    assert (merged[BLOCK:2 * BLOCK] == 0xAA).all()
    assert (merged[2 * BLOCK:3 * BLOCK] == 0xBB).all()
    assert (merged[3 * BLOCK:] == 0x11).all()


def test_each_in_flight_write_merges_in_its_own_bounce_page():
    sim, controller, ftl, nvme, qp = make_nvme(depth=16)
    bpp = nvme.blocks_per_page
    pages = 16
    for page in range(pages):
        controller.dram.write(0, np.full(PAGE, page + 1, dtype=np.uint8))
        run_cmd(sim, qp, NvmeCommand(NvmeOpcode.WRITE, slba=page * bpp,
                                     block_count=bpp, prp=0))
    for page in range(pages):
        patch = 100_000 + page * BLOCK
        controller.dram.write(patch, np.full(BLOCK, 0x80 + page,
                                             dtype=np.uint8))
        qp.submit(NvmeCommand(NvmeOpcode.WRITE, slba=page * bpp + 1,
                              block_count=1, prp=patch))
    sim.run_process(qp.drain())

    wrong = []
    for page in range(pages):
        run_cmd(sim, qp, NvmeCommand(NvmeOpcode.READ, slba=page * bpp,
                                     block_count=bpp, prp=200_000))
        expected = np.full(PAGE, page + 1, dtype=np.uint8)
        expected[BLOCK:2 * BLOCK] = 0x80 + page
        if not np.array_equal(controller.dram.read(200_000, PAGE), expected):
            wrong.append(page)
    assert wrong == []


def test_a_page_read_into_one_bounce_slot_spares_the_next():
    # A page read lands data and spare bytes in its bounce slot.  On one
    # LUN, the second command's read (slot 0) lands after the first
    # command's merge (slot 1) and before that merge is programmed.
    sim, controller, ftl, nvme, qp = make_nvme(lun_count=1, depth=2)
    bpp = nvme.blocks_per_page
    for page, fill in ((0, 0x11), (1, 0x22)):
        controller.dram.write(0, np.full(PAGE, fill, dtype=np.uint8))
        run_cmd(sim, qp, NvmeCommand(NvmeOpcode.WRITE, slba=page * bpp,
                                     block_count=bpp, prp=0))
    # Free slot 1 before slot 0: an unwritten page reads without flash.
    qp.submit(NvmeCommand(NvmeOpcode.WRITE, slba=2 * bpp, block_count=bpp,
                          prp=0))
    qp.submit(NvmeCommand(NvmeOpcode.READ, slba=3 * bpp, block_count=1,
                          prp=100_000))
    sim.run_process(qp.drain())

    controller.dram.write(50_000, np.full(BLOCK, 0xAA, dtype=np.uint8))
    controller.dram.write(60_000, np.full(BLOCK, 0xBB, dtype=np.uint8))
    first = NvmeCommand(NvmeOpcode.WRITE, slba=1, block_count=1, prp=50_000)
    second = NvmeCommand(NvmeOpcode.WRITE, slba=bpp + 1, block_count=1,
                         prp=60_000)
    qp.submit(first)
    qp.submit(second)
    assert (first.slot, second.slot) == (1, 0)
    sim.run_process(qp.drain())

    for page, fill, patch in ((0, 0x11, 0xAA), (1, 0x22, 0xBB)):
        run_cmd(sim, qp, NvmeCommand(NvmeOpcode.READ, slba=page * bpp,
                                     block_count=bpp, prp=200_000))
        expected = np.full(PAGE, fill, dtype=np.uint8)
        expected[BLOCK:2 * BLOCK] = patch
        assert np.array_equal(controller.dram.read(200_000, PAGE), expected)


def test_reads_of_one_page_do_not_wait_for_each_other():
    sim, controller, ftl, nvme, qp = make_nvme(depth=2)
    bpp = nvme.blocks_per_page
    controller.dram.write(0, np.full(3 * PAGE, 0x11, dtype=np.uint8))
    run_cmd(sim, qp, NvmeCommand(NvmeOpcode.WRITE, slba=0,
                                 block_count=3 * bpp, prp=0))
    alone = run_cmd(sim, qp, NvmeCommand(NvmeOpcode.READ, slba=bpp,
                                         block_count=2 * bpp, prp=100_000))
    # Pages 0-1 and 1-2: the second read shares page 1 with the first.
    a = NvmeCommand(NvmeOpcode.READ, slba=0, block_count=2 * bpp,
                    prp=100_000)
    b = NvmeCommand(NvmeOpcode.READ, slba=bpp, block_count=2 * bpp,
                    prp=110_000)
    qp.submit(a)
    qp.submit(b)
    sim.run_process(qp.drain())
    assert a.ok and b.ok
    # Held until the first read completed, b would end a whole
    # two-page read after it.
    assert b.finished_at - a.finished_at < alone.finished_at - alone.started_at


def test_bounce_pages_must_fit_in_dram():
    sim, controller, ftl, nvme, qp = make_nvme()
    with pytest.raises(ValueError, match="bounce pages"):
        nvme.create_queue_pair(depth=controller.dram.size // PAGE)


def test_each_nvme_queue_pair_traces_on_its_own_track():
    sim, controller, ftl, nvme, qp = make_nvme()
    assert (qp.track, nvme.create_queue_pair(depth=2).track) == (
        "host/nvme0", "host/nvme1")


# --- reliable reader -------------------------------------------------------


def make_reliable(retry_penalty=0.0, optimal_level=0):
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=2,
                         runtime="rtos", track_data=True, seed=9),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig(
            base_rber=0.0, wear_rber_per_kcycle=0.0,
            retention_rber_per_hour=0.0, retry_penalty_per_step=retry_penalty,
        )
        lun.array.block(2).optimal_retry_level = optimal_level
    ecc = BchEngine(BchConfig(codeword_bytes=256, t=4))
    reader = ReliableReader(controller, ecc, max_retry_levels=6)
    return sim, controller, reader


def program(controller, lun, block, page):
    data = (np.arange(TEST_PROFILE.geometry.full_page_size) % 239).astype(np.uint8)
    controller.dram.write(0, data)
    controller.run_to_completion(controller.program_page(lun, block, page, 0))
    return data


def test_clean_read_path():
    sim, controller, reader = make_reliable()
    data = program(controller, 0, 2, 0)
    result = sim.run_process(reader.read(0, 2, 0, 100_000))
    assert result.outcome is ReadOutcome.CLEAN
    np.testing.assert_array_equal(result.data, data)
    assert reader.stats.clean == 1


def test_retry_path_recovers():
    sim, controller, reader = make_reliable(retry_penalty=3e-3, optimal_level=3)
    program(controller, 0, 2, 0)
    result = sim.run_process(reader.read(0, 2, 0, 100_000))
    assert result.outcome is ReadOutcome.RETRIED
    assert result.retry_level == 3
    assert reader.stats.retried == 1


def test_replica_path_recovers():
    sim, controller, reader = make_reliable(retry_penalty=5e-2, optimal_level=20)
    program(controller, 0, 2, 0)          # primary: hopeless at any level
    # Replica on LUN 1 with a clean error model.
    controller.luns[1].array.error_model.config = ErrorModelConfig.noiseless()
    data = program(controller, 1, 2, 0)
    reader.register_replica((0, 2, 0), (1, 2, 0))
    result = sim.run_process(reader.read(0, 2, 0, 100_000))
    assert result.outcome is ReadOutcome.REPLICA
    np.testing.assert_array_equal(result.data, data)


def test_uncorrectable_when_everything_fails():
    sim, controller, reader = make_reliable(retry_penalty=5e-2, optimal_level=20)
    program(controller, 0, 2, 0)
    result = sim.run_process(reader.read(0, 2, 0, 100_000))
    assert result.outcome is ReadOutcome.UNCORRECTABLE
    assert result.data is None
    assert reader.stats.uncorrectable == 1
    assert "lost 1" in reader.describe()


def test_uncorrectable_counts_and_restores_retry_register():
    # No replica registered, every retry level hopeless: the full sweep
    # must run, every counter must land on the uncorrectable column,
    # and the vendor retry register must be back at the default level.
    sim, controller, reader = make_reliable(retry_penalty=5e-2, optimal_level=20)
    program(controller, 0, 2, 0)
    result = sim.run_process(reader.read(0, 2, 0, 100_000))
    assert result.outcome is ReadOutcome.UNCORRECTABLE
    assert reader.stats.reads == 1
    assert reader.stats.clean == 0
    assert reader.stats.retried == 0
    assert reader.stats.replica == 0
    assert reader.stats.uncorrectable == 1
    # The failed sweep swept levels 1..max on LUN 0; the op program
    # restores the SET FEATURES retry register before returning, so a
    # later read is not silently biased by the last-tried voltage.
    assert controller.luns[0].features.read_retry_level == 0


def test_stats_accumulate_latency_ordering():
    sim, controller, reader = make_reliable(retry_penalty=3e-3, optimal_level=2)
    program(controller, 0, 2, 0)
    program(controller, 0, 2, 1)
    first = sim.run_process(reader.read(0, 2, 0, 100_000))   # retried
    clean_reader_sim, c2, r2 = make_reliable()
    program(c2, 0, 2, 0)
    second = clean_reader_sim.run_process(r2.read(0, 2, 0, 100_000))  # clean
    assert first.latency_ns > second.latency_ns  # retries cost latency
