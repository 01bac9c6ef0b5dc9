"""Tests for the persistence stack's write side: the OOB record codec
and the checkpoint + journal layer (:mod:`repro.ftl.persist`)."""

import numpy as np
import pytest

from repro.core import BabolController, ControllerConfig
from repro.flash.errors import ErrorModelConfig
from repro.flash.oob import (
    KIND_CKPT,
    KIND_GC,
    KIND_HOST,
    KIND_JOURNAL,
    OOB_RECORD_BYTES,
    OobRecord,
    decode_oob,
    encode_oob,
)
from repro.ftl import FtlConfig, PageMappedFtl
from repro.ftl.persist import REC_ERASE, REC_RETIRE, REC_TRIM
from repro.sim import Simulator, Timeout

from tests.helpers import TEST_PROFILE, crash_after

PAGE = TEST_PROFILE.geometry.page_size


def make_controller(sim):
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=2, runtime="rtos",
                         track_data=True, seed=5),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    return controller


def persistent_config(checkpoint_interval=48, journal_flush_records=8,
                      **config_kwargs):
    return FtlConfig(blocks_per_lun=10, overprovision_blocks=4,
                     checkpoint_interval=checkpoint_interval,
                     journal_flush_records=journal_flush_records,
                     meta_blocks=2, gc_staging_base=48 * 1024 * 1024,
                     **config_kwargs)


def make_persistent_ftl(checkpoint_interval=48, journal_flush_records=8,
                        **config_kwargs):
    sim = Simulator()
    controller = make_controller(sim)
    ftl = PageMappedFtl(
        sim, controller,
        persistent_config(checkpoint_interval, journal_flush_records,
                          **config_kwargs),
    )
    return sim, controller, ftl


def host_write(sim, controller, ftl, lpn, fill):
    data = np.full(PAGE, fill % 251, dtype=np.uint8)
    controller.dram.write(0, data)
    return sim.run_process(ftl.write(lpn, 0))


# --- OOB record codec -------------------------------------------------------


@pytest.mark.parametrize("record", [
    OobRecord(kind=KIND_HOST, lpn=42, seq=7, payload_len=2048),
    OobRecord(kind=KIND_GC, lpn=0, seq=2 ** 40, payload_len=2048),
    OobRecord(kind=KIND_CKPT, seq=3, payload_len=900, chunk=1, chunks=4),
    OobRecord(kind=KIND_JOURNAL, seq=12, payload_len=77),
])
def test_oob_roundtrip(record):
    spare = encode_oob(record, TEST_PROFILE.geometry.spare_size)
    assert decode_oob(spare) == record


def test_oob_decode_rejects_torn_and_garbage():
    spare = encode_oob(OobRecord(kind=KIND_HOST, lpn=1, seq=1), 64)
    for byte in (0, 22, 23):  # magic, commit marker, checksum
        broken = spare.copy()
        broken[byte] ^= 0xFF
        assert decode_oob(broken) is None
    assert decode_oob(None) is None
    assert decode_oob(np.full(64, 0xFF, dtype=np.uint8)) is None
    assert decode_oob(np.zeros(OOB_RECORD_BYTES - 1, dtype=np.uint8)) is None


def test_oob_decode_rejects_unknown_kind():
    spare = encode_oob(OobRecord(kind=KIND_HOST, lpn=1, seq=1), 64)
    spare[1] = 99
    spare[23] = int(spare[:23].sum()) % 256  # re-checksum: kind still bad
    assert decode_oob(spare) is None


def test_oob_encode_validates_inputs():
    with pytest.raises(ValueError):
        encode_oob(OobRecord(kind=KIND_HOST), spare_size=16)  # too small
    with pytest.raises(ValueError):
        encode_oob(OobRecord(kind=250), spare_size=64)  # unknown kind


# --- journal + checkpoint write paths --------------------------------------


def test_host_writes_carry_decodable_oob_records():
    sim, controller, ftl = make_persistent_ftl()
    entry = host_write(sim, controller, ftl, lpn=9, fill=1)
    record = decode_oob(
        controller.luns[entry.lun].array.read_oob(entry.block, entry.page)
    )
    assert record is not None
    assert record.kind == KIND_HOST
    assert record.lpn == 9
    assert record.seq == ftl._entry_seq[9]


def test_journal_flushes_at_batch_threshold():
    # Binds never reach the journal; trims fill it, and the next host
    # write's hook starts the writer once a batch is buffered.
    sim, controller, ftl = make_persistent_ftl(journal_flush_records=4,
                                               checkpoint_interval=1000)
    persist = ftl.persist
    for i in range(4):
        host_write(sim, controller, ftl, lpn=i, fill=i)
    assert persist._buffer == []
    for i in range(3):
        ftl.trim(i)
    host_write(sim, controller, ftl, lpn=8, fill=8)
    assert persist.journal_pages_written == 0  # below the batch threshold
    ftl.trim(3)
    host_write(sim, controller, ftl, lpn=9, fill=9)
    assert persist.journal_pages_written == 1
    assert [rec[0] for rec in persist.durable_journal] == [REC_TRIM] * 4
    assert [rec[1] for rec in persist.durable_journal] == [0, 1, 2, 3]


def test_checkpoint_interval_resets_journal():
    sim, controller, ftl = make_persistent_ftl(checkpoint_interval=6,
                                               journal_flush_records=100)
    persist = ftl.persist
    for i in range(6):
        host_write(sim, controller, ftl, lpn=i, fill=i)
    assert persist.checkpoints_written == 1
    assert persist.durable_journal == []  # the checkpoint absorbed it
    state = persist.checkpoint_state
    assert sorted(lpn for lpn, *_ in state["map"]) == list(range(6))
    assert state["write_seq"] == persist.write_seq


def test_an_erase_rides_the_page_a_retirement_forces():
    # An erase record only bumps wear: it forces no page and no FLUSH
    # waits for it.  A retirement forces one, and the erase rides it.
    sim, controller, ftl = make_persistent_ftl(journal_flush_records=100,
                                               checkpoint_interval=1000)
    persist = ftl.persist
    persist.note_erase(1, 5)
    assert not persist._sync
    persist.maybe_flush()
    sim.run_process(persist.drained())
    assert persist.journal_pages_written == 0
    start = sim.now
    sim.run_process(persist.flush())
    assert sim.now == start
    persist.note_retire(0, 7, "program_fail", 3, 123)
    assert persist._sync
    persist.maybe_flush()
    sim.run_process(persist.drained())
    assert persist.journal_pages_written == 1
    assert persist.durable_journal == [
        [REC_ERASE, 1, 5], [REC_RETIRE, 0, 7, "program_fail", 3, 123]]


def test_durable_wear_projection_tracks_journal():
    sim, controller, ftl = make_persistent_ftl(journal_flush_records=1,
                                               checkpoint_interval=1000)
    persist = ftl.persist
    persist.note_erase(1, 5)
    persist.note_erase(1, 5)
    persist.note_retire(1, 5, "erase_fail", 2, 999)
    persist.note_erase(0, 2)
    sim.run_process(persist.flush())
    wear = persist.durable_wear()
    assert wear == {(0, 2): 1}  # the retirement popped (1, 5)
    assert persist.durable_retirements() == {(1, 5): "erase_fail"}


def test_trim_records_journal_tombstones():
    sim, controller, ftl = make_persistent_ftl(journal_flush_records=1,
                                               checkpoint_interval=1000)
    host_write(sim, controller, ftl, lpn=4, fill=9)
    ftl.trim(4)
    sim.run_process(ftl.persist.flush())
    tags = [rec[0] for rec in ftl.persist.durable_journal]
    assert REC_TRIM in tags
    assert ftl.map.lookup(4) is None


def test_big_journal_buffer_splits_across_pages():
    def scenario(sim, controllers, ftl):
        for lpn in range(4):
            controllers[0].dram.write(0, np.full(PAGE, lpn + 1,
                                                 dtype=np.uint8))
            yield from ftl.write(lpn, 0)
        for i in range(500):  # tombstones for unmapped LPNs
            ftl.trim(4 + i % 156)
        for lpn in range(4):  # the mark, in the buffer's last page
            ftl.trim(lpn)
        assert len(ftl.persist._buffer) == 504
        yield from ftl.flush()

    config = persistent_config(journal_flush_records=64,
                               checkpoint_interval=10_000)
    crashed, _, mounted, _ = crash_after(
        lambda sim: [make_controller(sim)],
        lambda sim, controllers: PageMappedFtl(sim, controllers[0], config),
        scenario)
    persist = crashed.persist
    assert persist.journal_pages_written == 8  # 504 records, 64 a page
    assert len(persist.durable_journal) == 504
    assert persist._buffer == []
    # Cut 1 ns after the FLUSH: the last page's trims held.
    assert not any(mounted.is_mapped(lpn) for lpn in range(4))


def test_checkpoint_keeps_trims_noted_during_chunk_programs():
    # A concurrent worker notes a trim while the checkpoint's chunk
    # programs are mid-flight (its maybe_flush bails on _busy).  The
    # serialized state was captured before the record existed, so the
    # commit must keep it buffered for the next flush — not clear it.
    sim, controller, ftl = make_persistent_ftl(journal_flush_records=100,
                                               checkpoint_interval=1000)
    persist = ftl.persist
    for i in range(4):
        host_write(sim, controller, ftl, lpn=i, fill=i)
    late = [REC_TRIM, 99, 777]
    sim.schedule(TEST_PROFILE.timing.t_prog_ns // 2,
                 lambda: persist.note_trim(99, 777))
    sim.run_process(persist.checkpoint())
    assert persist.checkpoints_written == 1
    assert late in persist._buffer          # survived the commit
    assert late not in persist.durable_journal
    assert all(lpn != 99 for lpn, _ in persist.checkpoint_state["trim"])


def test_checkpoint_keeps_erases_noted_during_chunk_programs():
    # Same window, but the late record is a GC erase: it forces no
    # page, so it stays buffered past the commit and rides the next
    # page written (here a trim's, forced by a FLUSH) in the *new*
    # epoch's journal rather than being silently discarded.  A lost
    # erase would leave the durable wear count short.
    sim, controller, ftl = make_persistent_ftl(journal_flush_records=100,
                                               checkpoint_interval=1000)
    persist = ftl.persist
    for i in range(4):
        host_write(sim, controller, ftl, lpn=i, fill=i)
    sim.schedule(TEST_PROFILE.timing.t_prog_ns // 2,
                 lambda: persist.note_erase(1, 5))
    sim.run_process(persist.checkpoint())
    assert persist.checkpoints_written == 1
    assert persist._buffer == [[REC_ERASE, 1, 5]]
    assert persist.durable_journal == []
    ftl.trim(0)
    sim.run_process(persist.flush())
    assert [REC_ERASE, 1, 5] in persist.durable_journal
    assert persist._buffer == []
    assert not persist._sync
    # The checkpoint's wear table predates the erase; the durable
    # projection (checkpoint + journal) still counts it.
    assert (1, 5) not in {(l, b) for l, b, _ in
                          persist.checkpoint_state["wear"]}
    assert persist.durable_wear()[(1, 5)] == 1


def test_host_flush_during_checkpoint_returns_after_trim_is_durable():
    # A host FLUSH that lands while a checkpoint's chunks are programming
    # must not return at once: the trim noted just before it is in
    # neither the serialized state nor any journal page yet.
    sim, controller, ftl = make_persistent_ftl(journal_flush_records=100,
                                               checkpoint_interval=1000)
    persist = ftl.persist
    for i in range(4):
        host_write(sim, controller, ftl, lpn=i, fill=i)
    returned = {}

    def host():
        yield Timeout(TEST_PROFILE.timing.t_prog_ns // 2)
        assert persist._busy  # the checkpoint is mid-flight
        ftl.trim(2)
        yield from ftl.flush()
        returned["durable"] = 2 in persist.durable_trims()
        returned["checkpoints"] = persist.checkpoints_written

    sim.spawn(persist.checkpoint())
    sim.spawn(host())
    sim.run()
    assert returned == {"durable": True, "checkpoints": 1}
    assert persist._buffer == []


def test_checkpoint_serializes_trim_tombstones():
    sim, controller, ftl = make_persistent_ftl(journal_flush_records=100,
                                               checkpoint_interval=1000)
    persist = ftl.persist
    host_write(sim, controller, ftl, lpn=4, fill=9)
    ftl.trim(4)
    trim_seq = ftl._entry_seq[4]
    sim.run_process(persist.checkpoint())
    state = persist.checkpoint_state
    assert [4, trim_seq] in state["trim"]
    assert all(lpn != 4 for lpn, *_ in state["map"])
    # The checkpoint absorbed the REC_TRIM journal record; the
    # tombstone in the state is now the only durable floor.
    assert persist.durable_journal == []


def test_durable_trims_tracks_latest_recorded_state():
    # The projection must replay checkpoint + journal *in order*: a
    # trim superseded by a later write is not durably-latest once a
    # checkpoint records that write (no bind reaches the journal), and
    # a buffered (unflushed) trim is not durable at all.
    sim, controller, ftl = make_persistent_ftl(journal_flush_records=1,
                                               checkpoint_interval=1000)
    persist = ftl.persist
    host_write(sim, controller, ftl, lpn=4, fill=9)
    host_write(sim, controller, ftl, lpn=5, fill=9)
    ftl.trim(4)
    ftl.trim(5)
    sim.run_process(persist.flush())
    assert persist.durable_trims() == {4, 5}
    # A later write leaves the journal as it was: only its data page's
    # OOB record carries it, so the tombstone is still the last record.
    host_write(sim, controller, ftl, lpn=4, fill=10)
    sim.run_process(persist.flush())
    assert persist.durable_trims() == {4, 5}
    # A checkpoint records the write and absorbs the journal; its
    # tombstone list carries LPN 5's trim.
    sim.run_process(persist.checkpoint())
    assert persist.durable_journal == []
    assert persist.durable_trims() == {5}
    # A fresh trim sitting in the volatile buffer is not durable yet.
    ftl.trim(4)
    assert persist.durable_trims() == {5}
    sim.run_process(persist.flush())
    assert persist.durable_trims() == {4, 5}


def test_meta_ring_rotation_survives_sustained_writes():
    # Enough traffic to wrap the two-block meta ring several times; the
    # ping-pong invariant (rotate -> fresh checkpoint first) must keep
    # the layer healthy throughout.
    sim, controller, ftl = make_persistent_ftl(checkpoint_interval=8,
                                               journal_flush_records=4)
    for i in range(120):
        host_write(sim, controller, ftl, lpn=i % ftl.logical_pages, fill=i)
    persist = ftl.persist
    assert persist.checkpoints_written >= 10
    assert persist.checkpoint_state is not None
    # The live meta block always holds the current checkpoint id.
    assert persist.checkpoint_id == persist.checkpoint_state["ckpt"]


def test_meta_erase_counters_account_for_every_ring_erase():
    # A ring erase rides a GC erase on the meta LUN or is the
    # rotation's own.  Together they are every erase the ring's blocks
    # took (no prefill or mount here, which erase offline).
    sim, controller, ftl = make_persistent_ftl(checkpoint_interval=8,
                                               journal_flush_records=4)
    for i in range(300):
        host_write(sim, controller, ftl, lpn=i % ftl.logical_pages, fill=i)
    sim.run()
    persist = ftl.persist
    array = controller.luns[persist.meta_lun].array
    erased = sum(array.block(b).erase_count for b in persist.meta_blocks)
    assert persist.meta_erases_ridden and persist.meta_erases_inline
    assert persist.meta_erases_ridden + persist.meta_erases_inline == erased
