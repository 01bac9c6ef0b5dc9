"""Tests for the multi-channel StorageController and shared-CPU model."""

import numpy as np
import pytest

from repro.core import StorageConfig, StorageController, build_storage
from repro.core.controller import ControllerConfig
from repro.core.softenv import Cpu, GHZ, MHZ
from repro.flash.errors import ErrorModelConfig
from repro.ftl import FtlConfig, PageMappedFtl
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE, page_pattern

PAGE = TEST_PROFILE.geometry.full_page_size


def make_storage(channels=2, luns=2, shared_cpu=True, runtime="rtos",
                 track_data=True, freq=GHZ):
    sim = Simulator()
    storage = StorageController(
        sim,
        StorageConfig(
            channel_count=channels,
            shared_cpu=shared_cpu,
            channel=ControllerConfig(
                vendor=TEST_PROFILE, lun_count=luns, runtime=runtime,
                cpu_freq_hz=freq, track_data=track_data, seed=2,
            ),
        ),
    )
    for lun in storage.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    return sim, storage


# --- routing ----------------------------------------------------------------


def test_flat_lun_space_and_routing():
    sim, storage = make_storage(channels=3, luns=2)
    assert len(storage.luns) == 6
    channel, local = storage.route(0)
    assert channel is storage.channels[0] and local == 0
    channel, local = storage.route(5)
    assert channel is storage.channels[2] and local == 1
    with pytest.raises(ValueError):
        storage.route(6)


def test_config_validation():
    with pytest.raises(ValueError):
        StorageConfig(channel_count=0).validate()


# --- I/O across channels -------------------------------------------------------


def test_program_read_roundtrip_on_any_channel():
    sim, storage = make_storage(channels=2, luns=2)
    data = page_pattern()
    for lun in (0, 3):  # one LUN per channel
        storage.dram.write(0, data)
        assert storage.run_to_completion(
            storage.program_page(lun, 1, 0, 0)
        ) is True
        storage.run_to_completion(storage.read_page(lun, 1, 0, PAGE))
        np.testing.assert_array_equal(storage.dram.read(PAGE, PAGE), data)


def test_channels_share_one_dram():
    sim, storage = make_storage(channels=2)
    assert storage.channels[0].dram is storage.channels[1].dram
    assert storage.channels[0].dram is storage.dram


def test_erase_routes_to_correct_channel():
    sim, storage = make_storage(channels=2, luns=2)
    storage.dram.write(0, page_pattern())
    storage.run_to_completion(storage.program_page(2, 1, 0, 0))
    assert storage.run_to_completion(storage.erase_block(2, 1)) is True
    # channel 1, local LUN 0 took the erase
    assert storage.channels[1].luns[0].erases_completed == 1
    assert storage.channels[0].luns[0].erases_completed == 0


def test_channels_operate_in_parallel():
    sim, storage = make_storage(channels=2, luns=1, track_data=False)
    t0 = sim.now
    storage.run_to_completion(storage.read_page(0, 1, 0, 0))
    single = sim.now - t0
    t0 = sim.now
    tasks = [storage.read_page(lun, 1, 1, lun * PAGE) for lun in (0, 1)]
    for task in tasks:
        storage.run_to_completion(task)
    dual = sim.now - t0
    assert dual < 2 * single * 0.75  # channels overlap


# --- shared CPU model ------------------------------------------------------------


def test_exclusive_cpu_serializes_users():
    sim = Simulator()
    cpu = Cpu(sim, 100 * MHZ, exclusive=True)
    spans = []

    def user(tag):
        start = sim.now
        yield from cpu.execute(1000)  # 10 us at 100 MHz
        spans.append((start, sim.now))

    sim.spawn(user("a"))
    sim.spawn(user("b"))
    sim.run()
    (a0, a1), (b0, b1) = sorted(spans)
    assert b1 - max(a1, b0) >= 0  # no overlap of charged windows
    assert sim.now >= 20_000
    assert cpu.contention_waits >= 1


def test_nonexclusive_cpu_allows_overlap():
    sim = Simulator()
    cpu = Cpu(sim, 100 * MHZ, exclusive=False)

    def user():
        yield from cpu.execute(1000)

    sim.spawn(user())
    sim.spawn(user())
    sim.run()
    assert sim.now == 10_000  # both windows overlapped fully


def test_shared_cpu_is_single_object():
    sim, storage = make_storage(channels=3, shared_cpu=True)
    cpus = {channel.env.cpu for channel in storage.channels}
    assert len(cpus) == 1
    assert storage.cpu.exclusive


def test_per_channel_cpus_are_distinct():
    sim, storage = make_storage(channels=3, shared_cpu=False)
    cpus = {channel.env.cpu for channel in storage.channels}
    assert len(cpus) == 3


def test_shared_cpu_contention_costs_throughput_at_low_freq():
    """With many channels on one slow shared core, scheduling work
    contends; per-channel cores avoid that."""
    def total_time(shared):
        sim, storage = make_storage(channels=4, luns=2, shared_cpu=shared,
                                    runtime="coroutine", track_data=False,
                                    freq=100 * MHZ)
        tasks = [storage.read_page(lun, 1, 0, 0) for lun in range(8)]
        for task in tasks:
            storage.run_to_completion(task)
        return sim.now

    assert total_time(shared=True) > total_time(shared=False)


# --- FTL over the storage controller ----------------------------------------------


def test_ftl_stripes_across_channels():
    sim, storage = make_storage(channels=2, luns=2, track_data=False)
    ftl = PageMappedFtl(
        sim, storage,
        FtlConfig(blocks_per_lun=6, overprovision_blocks=2,
                  gc_staging_base=8 * 1024 * 1024),
    )

    def scenario():
        for lpn in range(8):
            yield from ftl.write(lpn, 0)

    sim.run_process(scenario())
    used_luns = {ftl.map.lookup(lpn).lun for lpn in range(8)}
    assert used_luns == {0, 1, 2, 3}  # all channels, all LUNs
    ftl.map.check_invariants()


def test_describe_mentions_channels():
    sim, storage = make_storage(channels=2)
    assert "2 channels" in storage.describe()


def test_build_storage_helper():
    sim = Simulator()
    storage = build_storage(sim, channel_count=2, lun_count=2,
                            vendor=TEST_PROFILE, track_data=False)
    assert len(storage.luns) == 4
