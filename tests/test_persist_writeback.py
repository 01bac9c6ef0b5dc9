"""Tests for write-behind persistence: the shard's one meta writer, the
group-commit host FLUSH, the array-wide FLUSH barrier, and retry of a
failed meta program."""

import numpy as np
import pytest

from repro.core import BabolController, ControllerConfig
from repro.faults import FaultCampaign, FaultInjector, FaultKind, FaultSpec
from repro.faults.power import apply_power_cut, restore_media, snapshot_media
from repro.flash.errors import ErrorModelConfig
from repro.ftl import FtlConfig, PageMappedFtl, ShardedFtl
from repro.ftl.persist import REC_ERASE, REC_TRIM
from repro.ftl.spor import mount_sharded
from repro.host import ScaleCommand, ScaleEngine
from repro.host.hic import HostOpcode
from repro.obs import MetricsRegistry, register_ftl_health_metrics
from repro.sim import Simulator, Timeout

from tests.helpers import TEST_PROFILE, crash_after, read_back

PAGE = TEST_PROFILE.geometry.page_size
T_PROG = TEST_PROFILE.timing.t_prog_ns


def persistent_config(checkpoint_interval=1000, journal_flush_records=100):
    return FtlConfig(blocks_per_lun=10, overprovision_blocks=4,
                     checkpoint_interval=checkpoint_interval,
                     journal_flush_records=journal_flush_records,
                     meta_blocks=2, gc_staging_base=48 * 1024 * 1024)


def make_controller(sim, seed=5, fidelity="waveform"):
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=2, runtime="rtos",
                         track_data=True, seed=seed, fidelity=fidelity),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    return controller


def make_shard(config):
    sim = Simulator()
    controller = make_controller(sim)
    return sim, controller, PageMappedFtl(sim, controller, config)


def make_array(config, channels):
    sim = Simulator()
    controllers = [make_controller(sim, seed=channel)
                   for channel in range(channels)]
    return sim, controllers, ShardedFtl(sim, controllers, config)


def timed(sim, gen):
    """Run ``gen`` as a process; return (start_ns, end_ns) of its own
    completion (the run itself may go on for background work)."""
    span = {}

    def proc():
        span["start"] = sim.now
        yield from gen
        span["end"] = sim.now

    sim.run_process(proc())
    return span["start"], span["end"]


def write(sim, controller, ftl, lpn, fill=7):
    controller.dram.write(0, np.full(PAGE, fill, dtype=np.uint8))
    return timed(sim, ftl.write(lpn, 0))


# --- the write path no longer waits on meta programs ----------------------


def test_host_write_latency_contains_no_meta_program():
    sim, controller, volatile = make_shard(FtlConfig(
        blocks_per_lun=10, overprovision_blocks=4,
        gc_staging_base=48 * 1024 * 1024))
    start, end = write(sim, controller, volatile, lpn=3)
    baseline = end - start

    sim, controller, ftl = make_shard(persistent_config(checkpoint_interval=1))
    start, end = write(sim, controller, ftl, lpn=3)
    assert end - start == baseline  # the data program and nothing else
    # The checkpoint the write made due still landed, behind it.
    assert ftl.persist.checkpoints_written == 1
    assert sim.now >= end + T_PROG


def test_one_writer_per_shard_and_idle_after_run():
    sim, controllers, ftl = make_array(
        persistent_config(checkpoint_interval=6, journal_flush_records=3),
        channels=2)
    live = {}
    peak = {}
    for shard in ftl.shards:
        persist = shard.persist
        original = persist._writer

        def counted(persist=persist, original=original):
            live[persist] = live.get(persist, 0) + 1
            peak[persist] = max(peak.get(persist, 0), live[persist])
            try:
                yield from original()
            finally:
                live[persist] -= 1

        persist._writer = counted
    engine = ScaleEngine(sim, ftl, queue_depth=4, doorbell_batch=2,
                         auto_dram=True)

    def host():
        for i in range(96):
            opcode = HostOpcode.FLUSH if i % 16 == 15 else HostOpcode.WRITE
            engine.submit(ScaleCommand(opcode=opcode, lpn=(i * 5) % 48,
                                       payload=np.full(PAGE, i % 251,
                                                       dtype=np.uint8)))
            engine.ring_doorbells()
            yield from engine.drain()

    sim.run_process(host())
    assert set(peak) == {shard.persist for shard in ftl.shards}
    assert all(count == 1 for count in peak.values())
    assert all(count == 0 for count in live.values())
    for shard in ftl.shards:
        assert not shard.persist._busy
        assert shard.persist.checkpoints_written >= 1


# --- group commit ----------------------------------------------------------


def test_flush_returns_when_the_page_holding_its_mark_commits():
    config = persistent_config()

    def scenario(sim, controllers, ftl):
        persist = ftl.persist
        for lpn in range(3):
            controllers[0].dram.write(0, np.full(PAGE, 7 + lpn,
                                                 dtype=np.uint8))
            yield from ftl.write(lpn, 0)
        for lpn in (4, 5, 6):
            ftl.trim(lpn)  # tombstones for LPNs never written
        ftl.trim(1)  # the mark: the last trim noted before the FLUSH
        assert persist.journal_pages_written == 0  # below the threshold

        def noter():
            # A worker that keeps noting trims while the FLUSH runs.
            for seq in range(1000, 1020):
                yield Timeout(T_PROG // 4)
                persist.note_trim(seq, seq)

        sim.spawn(noter())
        start = sim.now
        yield from ftl.flush()
        return {"pages": persist.journal_pages_written,
                "records": len(persist.durable_journal),
                "took": sim.now - start}

    crashed, seen, mounted, controllers = crash_after(
        lambda sim: [make_controller(sim)],
        lambda sim, controllers: PageMappedFtl(sim, controllers[0], config),
        scenario)
    # One page carried the four records noted before the FLUSH (three
    # tombstones, then the mark's); the ones noted during its program
    # did not extend it, and were still buffered at the cut 1 ns later.
    assert seen["pages"] == 1
    assert seen["records"] == 4
    assert seen["took"] < 2 * T_PROG
    buffered = [rec[1] for rec in crashed.persist._buffer]
    assert len(buffered) >= 3 and buffered == list(
        range(1000, 1000 + len(buffered)))
    # After the cut, the trim held and both written pages read back.
    assert not mounted.is_mapped(1)
    for lpn in (0, 2):
        assert (read_back(mounted, controllers, lpn) == 7 + lpn).all()


def test_flush_with_nothing_noted_returns_at_once():
    sim, controller, ftl = make_shard(persistent_config())
    start, end = timed(sim, ftl.flush())
    assert end == start
    assert ftl.persist.journal_pages_written == 0


def test_array_flush_runs_the_shards_in_parallel():
    config = persistent_config()

    def scenario(sim, controllers, ftl):
        for lpn in range(12):
            controllers[ftl.shard_of(lpn)].dram.write(
                0, np.full(PAGE, lpn + 1, dtype=np.uint8))
            yield from ftl.write(lpn, 0)
        for lpn in range(12, 24):
            ftl.trim(lpn)  # three buffered tombstones on every shard
        for lpn in range(4):
            ftl.trim(lpn)  # one trim per shard
        assert sorted(ftl.shard_of(lpn) for lpn in range(4)) == [0, 1, 2, 3]
        assert all(len(shard.persist._buffer) == 4 for shard in ftl.shards)
        start = sim.now
        yield from ftl.flush()
        return sim.now - start

    crashed, took, mounted, controllers = crash_after(
        lambda sim: [make_controller(sim, seed=channel)
                     for channel in range(4)],
        lambda sim, controllers: ShardedFtl(sim, controllers, config),
        scenario)
    assert T_PROG <= took < 2 * T_PROG  # the slowest shard, not 4x
    for shard in crashed.shards:
        assert shard.persist.journal_pages_written == 1
        assert shard.persist._buffer == []
    # Cut 1 ns after the FLUSH: every shard's trim held, and every
    # other page reads back.
    for lpn in range(4):
        assert not mounted.is_mapped(lpn)
    for lpn in range(4, 12):
        assert (read_back(mounted, controllers, lpn) == lpn + 1).all()


@pytest.mark.parametrize("fidelity", ["waveform", "tlm"])
def test_flush_after_only_writes_returns_at_its_submit_ns(fidelity):
    # Then the same after enough overwrites that GC erased blocks on
    # every shard: an erase record only bumps wear, so it forces no
    # journal page and the FLUSH does not wait for it.
    config = persistent_config()
    rounds = 60

    def scenario(sim, controllers, ftl):
        engine = ScaleEngine(sim, ftl, queue_depth=8, doorbell_batch=1,
                             auto_dram=True)

        def burst(fill):
            writes = [
                ScaleCommand(opcode=HostOpcode.WRITE, lpn=lpn,
                             payload=np.full(PAGE, fill(lpn),
                                             dtype=np.uint8))
                for lpn in range(8)
            ]
            for command in writes:
                engine.submit(command)
            yield from engine.drain()
            return writes

        def flush():
            command = ScaleCommand(opcode=HostOpcode.FLUSH, lpn=0)
            engine.submit(command)
            yield from engine.drain()
            return command

        writes = yield from burst(lambda lpn: lpn + 1)
        first = yield from flush()
        buffered = [list(shard.persist._buffer) for shard in ftl.shards]
        for n in range(rounds):
            writes = yield from burst(lambda lpn, n=n: (lpn * rounds + n) % 251)
        assert all(shard.gc_runs for shard in ftl.shards)
        second = yield from flush()
        return writes, (first, second), buffered

    crashed, (writes, flushes, buffered), mounted, controllers = crash_after(
        lambda sim: [make_controller(sim, seed=channel, fidelity=fidelity)
                     for channel in range(2)],
        lambda sim, controllers: ShardedFtl(sim, controllers, config),
        scenario)
    assert all(command.finished_at is not None for command in writes)
    # Every bind was carried by its data page, and every GC erase's
    # record waits for the next page written: nothing to wait for.
    for flush in flushes:
        assert flush.finished_at == flush.submitted_at
    assert buffered == [[], []]
    for shard in crashed.shards:
        assert shard.persist.journal_pages_written == 0
        records = shard.persist._buffer
        assert records and all(rec[0] == REC_ERASE for rec in records)
    # A cut 1 ns after the FLUSH loses no acked write.
    for command in writes:
        got = read_back(mounted, controllers, command.lpn)
        assert (got == (command.lpn * rounds + rounds - 1) % 251).all()


# --- a failed meta program keeps its records --------------------------------


def fail_next_program_on(controller, block):
    injector = FaultInjector(FaultCampaign(
        name="meta", seed=1,
        faults=[FaultSpec(kind=FaultKind.PROGRAM_FAIL, lun=0, block=block)],
    ))
    return injector.attach(controller)


def test_failed_journal_program_retries_and_trim_survives_remount():
    config = persistent_config()
    sim, controllers, ftl = make_array(config, channels=1)
    controller = controllers[0]
    controller.dram.write(0, np.full(PAGE, 9, dtype=np.uint8))
    sim.run_process(ftl.write(5, 0))
    ftl.trim(5)
    persist = ftl.shards[0].persist
    injector = fail_next_program_on(
        controller, persist.meta_blocks[persist._ring_pos])
    sim.run_process(ftl.flush())
    injector.detach()
    assert injector.fires_by_kind() == {"program_fail": 1}
    assert persist.meta_program_failures == 1
    assert persist.journal_pages_written == 1  # the retry on the next page
    assert REC_TRIM in [rec[0] for rec in persist.durable_journal]
    assert persist.durable_trims() == {5}

    apply_power_cut([controller], sim.now)
    images = snapshot_media([controller])
    sim2 = Simulator()
    controller2 = make_controller(sim2, seed=77)
    restore_media([controller2], images)
    ftl2, _ = mount_sharded(sim2, [controller2], config)
    assert not ftl2.is_mapped(5), "trimmed LPN resurrected after remount"


def test_failed_checkpoint_ends_the_pass_and_the_next_write_retries():
    sim, controller, ftl = make_shard(persistent_config(checkpoint_interval=2))
    persist = ftl.persist
    write(sim, controller, ftl, lpn=0)
    injector = fail_next_program_on(
        controller, persist.meta_blocks[persist._ring_pos])
    write(sim, controller, ftl, lpn=1)  # makes the checkpoint due
    injector.detach()
    assert persist.meta_program_failures == 1
    assert persist.checkpoints_written == 0
    assert persist._writes_since_ckpt == 2  # left for the retry
    assert not persist._busy  # the pass ended: no livelock
    write(sim, controller, ftl, lpn=2)
    assert persist.checkpoints_written == 1
    assert persist._writes_since_ckpt == 0


# --- observability ----------------------------------------------------------


def test_journal_records_written_is_counted_and_exported():
    sim, controllers, ftl = make_array(
        persistent_config(journal_flush_records=4), channels=2)
    for lpn in range(16):
        controllers[ftl.shard_of(lpn)].dram.write(
            0, np.full(PAGE, lpn, dtype=np.uint8))
        sim.run_process(ftl.write(lpn, 0))
    for lpn in range(16):
        ftl.trim(lpn)  # eight tombstones a shard, four a page
    sim.run_process(ftl.flush())
    per_shard = [shard.persist.journal_records_written
                 for shard in ftl.shards]
    assert per_shard == [8, 8]
    assert ftl.journal_records_written == 16
    registry = MetricsRegistry()
    register_ftl_health_metrics(registry, ftl.shards[0], prefix="s0")
    health = registry.snapshot()["collected"]["s0.ftl_health"]
    assert health["journal_records_written"] == 8
    assert health["journal_pages_written"] == 2
