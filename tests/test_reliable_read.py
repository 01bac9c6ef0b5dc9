"""Tests for the reliable-read pipeline: clean read, read-retry sweep,
replica fallback, and the uncorrectable verdict."""

import numpy as np

from repro.core import BabolController, ControllerConfig
from repro.core.reliability import ReadOutcome, ReliableReader
from repro.ecc import BchConfig, BchEngine
from repro.flash.errors import ErrorModelConfig
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE


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
