"""Tests for the scale-out path: ShardRouter/ShardedFtl striping and the
queue-depth host engine (backpressure, doorbell batching, determinism,
and the channels × QD end-to-end smoke)."""

import numpy as np
import pytest

from repro.config import FtlSpec, StackSpec, build_stack
from repro.core import BabolController, ControllerConfig
from repro.flash.errors import ErrorModelConfig
from repro.ftl import FtlConfig, PageMappedFtl, ShardRouter, ShardedFtl
from repro.ftl.ftl import FtlError
from repro.host import (
    ChannelQueuePair,
    QueueSaturatedError,
    ScaleCommand,
    ScaleEngine,
    ScaleJob,
    run_scale_workload,
)
from repro.host.hic import HostOpcode
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE

FTL_CONFIG = FtlConfig(blocks_per_lun=8, overprovision_blocks=2,
                       gc_staging_base=8 * 1024 * 1024)


def make_array(channels=2, luns=2, prefill=32, queue_depth=8,
               doorbell_batch=4, track_data=False):
    sim = Simulator()
    controllers = [
        BabolController(
            sim,
            ControllerConfig(vendor=TEST_PROFILE, lun_count=luns,
                             runtime="coroutine", track_data=track_data,
                             seed=channel),
        )
        for channel in range(channels)
    ]
    for controller in controllers:
        for lun in controller.luns:
            lun.array.error_model.config = ErrorModelConfig.noiseless()
    ftl = ShardedFtl(sim, controllers, FTL_CONFIG)
    if prefill:
        ftl.prefill(prefill)
    engine = ScaleEngine(sim, ftl, queue_depth=queue_depth,
                         doorbell_batch=doorbell_batch)
    return sim, ftl, engine


# --- router --------------------------------------------------------------


def test_router_roundtrip():
    router = ShardRouter(4)
    for g in range(64):
        shard, local = router.route(g)
        assert 0 <= shard < 4
        assert router.global_lpn(shard, local) == g


def test_router_stripes_consecutive_lpns_across_shards():
    router = ShardRouter(4)
    assert [router.route(g)[0] for g in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_router_local_capacity_partitions_exactly():
    router = ShardRouter(3)
    for total in (0, 1, 7, 9, 100):
        parts = [router.local_capacity(s, total) for s in range(3)]
        assert sum(parts) == total
        assert max(parts) - min(parts) <= 1


def test_router_validates():
    with pytest.raises(ValueError):
        ShardRouter(0)
    with pytest.raises(ValueError):
        ShardRouter(2).global_lpn(5, 0)


# --- sharded FTL ---------------------------------------------------------


def test_sharded_ftl_routes_reads_to_owning_shard():
    sim, ftl, _ = make_array(channels=2, prefill=16)
    sim.run_process(ftl.read(3, 0))  # odd LPN → shard 1
    assert ftl.shards[1].host_reads == 1
    assert ftl.shards[0].host_reads == 0
    assert ftl.host_reads == 1


def test_sharded_ftl_write_then_read_roundtrip():
    sim, ftl, _ = make_array(channels=2, prefill=0)
    entry = sim.run_process(ftl.write(5, 0))
    assert entry is not None
    assert ftl.is_mapped(5)
    assert ftl.mapped_count == 1
    sim.run_process(ftl.read(5, 0))
    assert ftl.host_writes == 1 and ftl.host_reads == 1


def test_sharded_ftl_prefill_splits_evenly():
    sim, ftl, _ = make_array(channels=2, prefill=17)
    assert ftl.shards[0].map.mapped_count == 9
    assert ftl.shards[1].map.mapped_count == 8
    assert ftl.mapped_count == 17


def test_sharded_ftl_rejects_out_of_range_lpn():
    sim, ftl, _ = make_array(channels=2, prefill=0)
    with pytest.raises(FtlError):
        sim.run_process(ftl.read(ftl.logical_pages, 0))


def test_sharded_ftl_health_summary_aggregates():
    sim, ftl, _ = make_array(channels=2, prefill=16)
    summary = ftl.health_summary()
    assert summary["channels"] == 2
    assert summary["mapped_pages"] == 16
    assert list(summary) == sorted(summary)


# --- queue pairs and backpressure ----------------------------------------


def test_stage_beyond_depth_raises():
    sim, _, engine = make_array(channels=1, queue_depth=4)
    pair = engine.pairs[0]
    for lpn in range(4):
        engine.submit(ScaleCommand(opcode=HostOpcode.READ, lpn=lpn))
    assert pair.free_slots == 0
    with pytest.raises(QueueSaturatedError):
        engine.submit(ScaleCommand(opcode=HostOpcode.READ, lpn=4))


def test_doorbell_batching_publishes_in_groups():
    sim, _, engine = make_array(channels=1, queue_depth=8, doorbell_batch=4)
    pair = engine.pairs[0]
    for lpn in range(3):
        engine.submit(ScaleCommand(opcode=HostOpcode.READ, lpn=lpn))
    assert pair.doorbells == 0          # batch not full: still staged
    engine.submit(ScaleCommand(opcode=HostOpcode.READ, lpn=3))
    assert pair.doorbells == 1          # fourth entry rang the doorbell
    assert engine.ring_doorbells() == 0  # nothing left staged


def test_outstanding_never_exceeds_depth():
    sim, _, engine = make_array(channels=2, queue_depth=4, prefill=32)
    peak = {"value": 0}

    def monitor():
        while engine.completed < 24:
            peak["value"] = max(
                peak["value"],
                max(pair.outstanding for pair in engine.pairs),
            )
            yield 500
    sim.spawn(monitor(), name="qd-monitor")
    run_scale_workload(sim, engine, ScaleJob(io_count=24))
    assert 0 < peak["value"] <= 4


def test_drain_leaves_nothing_outstanding():
    sim, _, engine = make_array(channels=2, queue_depth=8)
    for lpn in range(6):
        engine.submit(ScaleCommand(opcode=HostOpcode.READ, lpn=lpn))
    sim.run_process(engine.drain())
    assert engine.outstanding == 0
    assert engine.completed == 6


# --- determinism ---------------------------------------------------------


def test_completion_order_is_deterministic():
    """Two identical runs complete the same commands in the same order at
    the same simulated nanoseconds — same-tick events resolve FIFO."""
    outcomes = []
    for _ in range(2):
        sim, _, engine = make_array(channels=2, queue_depth=8, prefill=32)
        result = run_scale_workload(
            sim, engine, ScaleJob(pattern="random", io_count=48, seed=11))
        order = [(c.cid, c.finished_at)
                 for pair in engine.pairs for c in pair.completions]
        outcomes.append((order, result.elapsed_ns, result.doorbells))
    assert outcomes[0] == outcomes[1]


def test_cids_are_engine_local_and_contiguous():
    sim, _, engine = make_array(channels=2, queue_depth=8, prefill=32)
    run_scale_workload(sim, engine, ScaleJob(io_count=16))
    cids = sorted(c.cid for pair in engine.pairs for c in pair.completions)
    assert cids == list(range(16))


# --- end-to-end smoke ----------------------------------------------------


def test_four_channel_qd32_smoke_completes_everything():
    sim, ftl, engine = make_array(channels=4, luns=2, prefill=64,
                                  queue_depth=32)
    result = run_scale_workload(sim, engine, ScaleJob(io_count=128))
    assert result.commands == 128
    assert engine.submitted == engine.completed == 128
    assert engine.outstanding == 0
    assert result.per_channel_commands == [32, 32, 32, 32]
    assert result.throughput_mb_s > 0
    assert result.p50_latency_ns <= result.p99_latency_ns <= result.max_latency_ns
    for pair in engine.pairs:
        assert all(c.finished_at is not None for c in pair.completions)


def test_scaling_one_to_four_channels():
    results = {}
    for channels in (1, 4):
        sim, _, engine = make_array(channels=channels, luns=2, prefill=64,
                                    queue_depth=16)
        results[channels] = run_scale_workload(
            sim, engine, ScaleJob(io_count=96))
    assert results[4].throughput_mb_s >= 2 * results[1].throughput_mb_s


def test_run_scale_workload_addresses_buffers_from_slot_pool():
    # Buffers must come from the pair's held slot pool, not a
    # ``submitted % depth`` sequence: even single-opcode jobs complete
    # out of order when some commands stall on GC/checkpoint work, and
    # a modulo slot can be rewritten while the earlier command holding
    # it is still in flight.
    sim, _, engine = make_array(channels=2, luns=2, prefill=64,
                                queue_depth=8)
    assert not engine.auto_dram
    job = ScaleJob(io_count=48, pattern="random")
    run_scale_workload(sim, engine, job)
    for pair in engine.pairs:
        for command in pair.completions:
            assert 0 <= command.slot < pair.depth
            assert command.dram_address == (
                job.dram_base + command.slot * job.dram_stride
            )
    # The run-scoped auto_dram override is restored afterwards.
    assert not engine.auto_dram
    assert engine.dram_base == 0


def test_engine_accepts_plain_page_mapped_ftl():
    sim = Simulator()
    controller = BabolController(
        sim, ControllerConfig(vendor=TEST_PROFILE, lun_count=2,
                              runtime="coroutine", track_data=False))
    ftl = PageMappedFtl(sim, controller, FTL_CONFIG)
    ftl.prefill(16)
    engine = ScaleEngine(sim, ftl, queue_depth=4)
    result = run_scale_workload(sim, engine, ScaleJob(io_count=12))
    assert result.channels == 1
    assert result.commands == 12


def test_build_scale_stack_constructs_working_array():
    sim = Simulator()
    controllers, ftl = build_stack(
        sim,
        StackSpec(channels=2, luns_per_channel=2, ftl=FtlSpec(
            blocks_per_lun=FTL_CONFIG.blocks_per_lun,
            overprovision_blocks=FTL_CONFIG.overprovision_blocks,
            gc_staging_base=FTL_CONFIG.gc_staging_base,
            prefill_pages=16)),
        profile=TEST_PROFILE)
    assert len(controllers) == 2
    assert isinstance(ftl, ShardedFtl)
    assert ftl.mapped_count == 16


def test_register_scale_metrics_exports_engine_state():
    from repro.obs import MetricsRegistry, register_scale_metrics

    sim, _, engine = make_array(channels=2, queue_depth=4, prefill=32)
    registry = register_scale_metrics(MetricsRegistry(), engine)
    run_scale_workload(sim, engine, ScaleJob(io_count=16))
    collected = registry.snapshot()["collected"]
    assert collected["scale_engine"]["completed"] == 16
    assert collected["scale_engine"]["outstanding"] == 0
    assert collected["scale_queue_pairs"]["ch0"]["completed"] == 8
    assert collected["scale_array_health"]["channels"] == 2


def test_job_validation():
    with pytest.raises(ValueError):
        ScaleJob(pattern="backwards").validate()
    with pytest.raises(ValueError):
        ScaleJob(io_count=0).validate()
    sim, _, engine = make_array(channels=1, prefill=0)
    with pytest.raises(ValueError):
        run_scale_workload(sim, engine, ScaleJob(io_count=4))


# --- the queue pair: slots, doorbells, completions -----------------------


def test_queue_pair_rejects_a_nonpositive_depth():
    sim, ftl, _ = make_array(channels=1, prefill=0)
    with pytest.raises(ValueError, match="queue depth"):
        ChannelQueuePair(sim, 0, 0, ftl.shards)


def test_engine_rejects_a_nonpositive_doorbell_batch():
    sim, ftl, _ = make_array(channels=1, prefill=0)
    with pytest.raises(ValueError, match="doorbell_batch"):
        ScaleEngine(sim, ftl, doorbell_batch=0)


def test_ringing_with_nothing_staged_counts_no_doorbell():
    sim, _, engine = make_array(channels=2)
    assert [pair.ring() for pair in engine.pairs] == [0, 0]
    assert engine.ring_doorbells() == 0
    assert engine.doorbells_rung == 0


def test_a_staged_command_waits_for_its_doorbell():
    sim, _, engine = make_array(channels=1, doorbell_batch=4)
    command = ScaleCommand(opcode=HostOpcode.READ, lpn=0)
    engine.submit(command)
    sim.run(until=sim.now + 1_000_000)
    assert command.started_at is None       # no worker saw it
    assert engine.pairs[0].outstanding == 1
    sim.run_process(engine.drain())         # rings the partial batch
    assert command.started_at == 1_000_000
    assert command.finished_at > command.started_at


def test_a_completed_command_returns_its_slot():
    sim, _, engine = make_array(channels=1, queue_depth=2)
    for lpn in range(2):
        engine.submit(ScaleCommand(opcode=HostOpcode.READ, lpn=lpn))
    assert engine.pairs[0].free_slots == 0
    sim.run_process(engine.drain())
    assert engine.pairs[0].free_slots == 2
    engine.submit(ScaleCommand(opcode=HostOpcode.READ, lpn=2))


def test_submit_routes_each_command_to_its_channel_pair():
    sim, ftl, engine = make_array(channels=2, prefill=16)
    commands = [ScaleCommand(opcode=HostOpcode.READ, lpn=lpn)
                for lpn in range(6)]
    for command in commands:
        engine.submit(command)
        assert (command.channel, command.local_lpn) == \
            ftl.router.route(command.lpn)
        assert engine.pair_for(command.lpn) is engine.pairs[command.channel]
    sim.run_process(engine.drain())
    for channel, pair in enumerate(engine.pairs):
        assert sorted(c.lpn for c in pair.completions) == \
            [c.lpn for c in commands if c.channel == channel]


def test_the_completion_pulse_carries_each_completed_command():
    sim, _, engine = make_array(channels=2)
    heard = []
    engine.completion_pulse.subscribe(heard.append)
    for lpn in range(5):
        engine.submit(ScaleCommand(opcode=HostOpcode.READ, lpn=lpn))
    sim.run_process(engine.drain())
    assert sorted(c.cid for c in heard) == list(range(5))
    assert all(c.finished_at is not None for c in heard)


def test_each_channel_pair_traces_on_its_own_track():
    from repro.obs import Tracer

    sim, _, engine = make_array(channels=2)
    tracer = Tracer()
    sim.set_tracer(tracer)
    assert [pair.track for pair in engine.pairs] == ["host/qp0", "host/qp1"]
    for lpn in range(6):
        engine.submit(ScaleCommand(opcode=HostOpcode.READ, lpn=lpn))
    sim.run_process(engine.drain())
    for pair in engine.pairs:
        spans = tracer.spans(pair.track)
        assert len(spans) == len(pair.completions) == 3
        assert {span.name for span in spans} == {"read"}


def test_reads_of_one_lpn_do_not_wait_for_each_other():
    sim, _, engine = make_array(channels=1, queue_depth=4)
    first = ScaleCommand(opcode=HostOpcode.READ, lpn=0)
    second = ScaleCommand(opcode=HostOpcode.READ, lpn=0, dram_address=4096)
    engine.submit(first)
    engine.submit(second)
    sim.run_process(engine.drain())
    assert first.started_at == second.started_at == 0


# --- the engine's commands on the FTL ------------------------------------


def test_engine_write_then_read_round_trips_the_data():
    sim, ftl, engine = make_array(channels=2, prefill=0, track_data=True)
    page = ftl.page_size
    for lpn in range(4):
        engine.submit(ScaleCommand(
            opcode=HostOpcode.WRITE, lpn=lpn, dram_address=lpn * page,
            payload=np.full(page, 0x30 + lpn, dtype=np.uint8)))
    sim.run_process(engine.drain())
    reads = [ScaleCommand(opcode=HostOpcode.READ, lpn=lpn,
                          dram_address=64 * 1024 + lpn * page)
             for lpn in range(4)]
    for command in reads:
        engine.submit(command)
    sim.run_process(engine.drain())
    for command in reads:
        dram = engine.shard(command.channel).controller.dram
        assert (dram.read(command.dram_address, page)
                == 0x30 + command.lpn).all()


def test_engine_trim_unmaps_the_page_without_media_work():
    sim, ftl, engine = make_array(channels=2, prefill=8)
    trim = ScaleCommand(opcode=HostOpcode.TRIM, lpn=3)
    engine.submit(trim)
    sim.run_process(engine.drain())
    assert not ftl.is_mapped(3)
    assert ftl.mapped_count == 7
    assert trim.finished_at == trim.started_at


def test_engine_flush_without_a_journal_completes_at_once():
    sim, ftl, engine = make_array(channels=2, prefill=8)
    flush = ScaleCommand(opcode=HostOpcode.FLUSH, lpn=0)
    engine.submit(flush)
    sim.run_process(engine.drain())
    assert flush.latency_ns == 0


def test_engine_records_acks_of_state_changing_commands_only():
    sim, ftl, _ = make_array(channels=2, prefill=8)
    engine = ScaleEngine(sim, ftl, queue_depth=4, doorbell_batch=1,
                         record_acks=True)
    opcodes = [HostOpcode.READ, HostOpcode.WRITE, HostOpcode.TRIM,
               HostOpcode.READ]
    for lpn, opcode in enumerate(opcodes):
        engine.submit(ScaleCommand(opcode=opcode, lpn=lpn))
        sim.run_process(engine.drain())
    assert [(c.opcode, c.lpn) for c in engine.acks] == [
        (HostOpcode.WRITE, 1), (HostOpcode.TRIM, 2)]


def test_engine_keeps_no_ack_ledger_by_default():
    sim, _, engine = make_array(channels=1, prefill=8)
    engine.submit(ScaleCommand(opcode=HostOpcode.WRITE, lpn=0))
    sim.run_process(engine.drain())
    assert not engine.record_acks and engine.acks == []


def test_auto_dram_addresses_each_command_from_its_slot():
    sim, ftl, _ = make_array(channels=2, prefill=16)
    engine = ScaleEngine(sim, ftl, queue_depth=4, auto_dram=True,
                         dram_base=4096, dram_stride=8192)
    commands = [ScaleCommand(opcode=HostOpcode.READ, lpn=lpn,
                             dram_address=123) for lpn in range(8)]
    for command in commands:
        engine.submit(command)
    for command in commands:
        assert command.dram_address == 4096 + command.slot * 8192
    # Each pair hands out its slots 0..depth-1 once.
    for channel in range(2):
        assert sorted(c.slot for c in commands
                      if c.channel == channel) == [0, 1, 2, 3]
    sim.run_process(engine.drain())
