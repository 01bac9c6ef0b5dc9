"""Tests for the crash-consistency fuzz harness and the host-engine
features it leans on (FLUSH commands, the ack ledger, the DRAM slot
pool)."""

import numpy as np
import pytest

from repro.analysis.crashfuzz import (
    EXIT_OK,
    EXIT_VIOLATION,
    build_ops,
    crashfuzz_spec,
    drive,
    run_crashfuzz,
    stand_up,
    summarize,
)
from repro.faults.power import versioned_payload
from repro.ftl.persist import PersistenceLayer
from repro.host.hic import HostOpcode

SMALL = crashfuzz_spec(seeds=1, points=4, ios=80, qd=4)
PAGE_SIZE = SMALL.stack.geometry.page_size  # the shrunken fuzz array's


def test_small_campaign_is_clean():
    report = run_crashfuzz(SMALL)
    assert report["exit_code"] == EXIT_OK
    assert report["violations"] == 0
    assert report["internal_errors"] == 0
    entry = report["results"][0]
    assert entry["oracle"]["acked"] > 0
    assert len(entry["points"]) == 4
    # The report carries the SPOR counters for every crash point.
    for point in entry["points"]:
        assert set(point["mount"]) >= {
            "journal_replay_entries", "mount_ns",
            "torn_pages_discarded", "unsafe_shutdowns",
        }


def test_campaign_is_deterministic():
    a = run_crashfuzz(SMALL)
    b = run_crashfuzz(SMALL)
    assert a == b


def test_fidelity_tiers_agree_on_the_verdict():
    # The committed media state at any cut is tier-invariant by design,
    # so both tiers must reach the same verdict.  (Cut nanoseconds
    # differ — each tier's oracle window differs — so only the verdict
    # triple is the contract, not the full report.)
    tlm, wav = (
        run_crashfuzz(crashfuzz_spec(fidelity=fidelity, seeds=1, points=3,
                                     ios=60, qd=4))
        for fidelity in ("tlm", "waveform"))
    keys = ("exit_code", "violations", "internal_errors")
    assert [tlm[k] for k in keys] == [wav[k] for k in keys]


def test_rejects_nonsense_parameters():
    # A spec cannot say them: construction is where they are refused.
    with pytest.raises(ValueError):
        crashfuzz_spec(seeds=0)
    with pytest.raises(ValueError):
        crashfuzz_spec(points=0)
    with pytest.raises(ValueError):
        crashfuzz_spec(ios=-1)


def test_build_ops_reads_and_trims_only_settled_lpns():
    rng = np.random.default_rng(42)
    ops = build_ops(rng, 300, span=64, channels=2, qd=4)
    assert len(ops) == 300
    kinds = {kind for kind, _, _ in ops}
    assert kinds == {"write", "read", "trim", "flush"}
    # A read or trim of an LPN is only legal once its previous touch
    # has >= qd later submissions on the same queue pair (strict-FIFO
    # guarantee keeps per-LPN completion order = submission order),
    # and a read never targets a trimmed-and-not-rewritten LPN.
    pair_subs = [0, 0]
    touch_sub = {}
    live = set()
    versions = {}
    for kind, lpn, version in ops:
        if kind in ("read", "trim"):
            assert pair_subs[lpn % 2] - touch_sub[lpn] >= 4
        if kind == "read":
            assert lpn in live
        elif kind == "write":
            live.add(lpn)
        elif kind == "trim":
            live.discard(lpn)
        if kind in ("write", "trim"):
            # Writes and trims share one strictly increasing per-LPN
            # version counter (what lets the verifier order them).
            assert version == versions.get(lpn, 0) + 1
            versions[lpn] = version
        if kind != "flush":
            touch_sub[lpn] = pair_subs[lpn % 2] + 1
        pair_subs[lpn % 2] += 1


def test_per_lpn_order_survives_non_fifo_completion():
    """Regression for ``crashfuzz --set stack.channels=4 --set
    workload.io_count=6000`` (1 seed, 1 point, base seed 7, TLM): a
    write held up by GC was overtaken by a later read of its LPN ("read
    of unmapped LPN 4") while per-LPN order rested on ``build_ops``'
    FIFO-completion hint.  ``drive`` now holds an op back until its LPN
    is idle."""
    built, span = stand_up(crashfuzz_spec(channels=4))
    engine = built.engine
    ops = build_ops(np.random.default_rng(7 * 1000 + 17), 6000, span, 4, 8)
    drive(built, ops)
    idle_at: dict = {}
    done = sorted((c for pair in engine.pairs for c in pair.completions),
                  key=lambda c: c.cid)
    assert len(done) == len(ops)
    for command in done:
        if command.opcode is HostOpcode.FLUSH:
            continue
        assert command.submitted_at >= idle_at.get(command.lpn, 0)
        idle_at[command.lpn] = command.finished_at


# --- engine features the fuzzer leans on -----------------------------------


def drive_stack(ios=60, qd=4):
    built, span = stand_up(crashfuzz_spec(qd=qd))
    ops = build_ops(np.random.default_rng(5), ios, span, 2, qd)
    drive(built, ops)
    return built.sim, built.controllers, built.ftl, built.engine, ops


def test_engine_ack_ledger_records_state_changing_ops_only():
    sim, controllers, ftl, engine, ops = drive_stack()
    assert engine.completed == len(ops)
    by_kind = {"write": 0, "trim": 0, "flush": 0}
    for kind, _, _ in ops:
        if kind in by_kind:
            by_kind[kind] += 1
    acks = [c.opcode for c in engine.acks]
    assert HostOpcode.READ not in acks
    assert len(acks) == by_kind["write"] + by_kind["trim"] + by_kind["flush"]
    # finished_at stamps are monotone per queue pair (FIFO completion).
    for channel in range(2):
        times = [c.finished_at for c in engine.acks
                 if c.lpn % 2 == channel and c.opcode is HostOpcode.WRITE]
        assert times == sorted(times)


def test_engine_slot_pool_is_returned_after_completion():
    sim, controllers, ftl, engine, ops = drive_stack(qd=4)
    for pair in engine.pairs:
        # Every slot handed out during the run came back.
        assert sorted(pair._slots) == list(range(4))


def test_auto_dram_addresses_never_collide_in_flight():
    # Two in-flight commands on the same pair must never share a DRAM
    # staging region: addresses are slot-derived and slots are held
    # from stage to completion.
    sim, controllers, ftl, engine, ops = drive_stack(ios=120, qd=4)
    stride = engine.dram_stride
    for command in engine.acks:
        assert command.dram_address % stride == 0
        assert 0 <= command.slot < 4


def test_flush_opcode_reaches_the_ftl_journal():
    sim, controllers, ftl, engine, ops = drive_stack(ios=100)
    # After a drained run with flushes in the stream, no shard's
    # journal buffer holds a sync-flagged backlog.
    for shard in ftl.shards:
        assert not shard.persist._sync


def test_flush_barrier_check_catches_a_flush_that_waits_for_nothing(
        monkeypatch):
    spec = crashfuzz_spec(seeds=1, points=10, ios=200, qd=4)
    clean = run_crashfuzz(spec)
    assert clean["exit_code"] == EXIT_OK
    assert clean["flush_barriers_checked"] > 0
    # A FLUSH that returns before the trims acked ahead of it are on
    # media breaks its promise, and the oracle says so.
    monkeypatch.setattr(PersistenceLayer, "mark", lambda self: 0)
    broken = run_crashfuzz(spec)
    assert broken["exit_code"] == EXIT_VIOLATION
    messages = [message for entry in broken["results"]
                for point in entry["points"]
                for message in point["violations"]]
    assert messages and all("FLUSH" in message for message in messages)


def test_the_report_counts_gc_erases_that_waited_on_a_trim():
    # 800 commands: long enough that GC takes a block holding a page a
    # trim undid before that trim's tombstone is on media.
    report = run_crashfuzz(crashfuzz_spec(seeds=1, points=1, ios=800))
    assert report["exit_code"] == EXIT_OK
    assert report["erases_after_trims"] > 0


def test_payload_encodes_identity():
    a = versioned_payload(7, 3, PAGE_SIZE)
    b = versioned_payload(7, 4, PAGE_SIZE)
    assert a.dtype == np.uint8 and len(a) == 2048
    assert not np.array_equal(a, b)
    assert int(a[0]) == 7 and int(a[2]) == 3


@pytest.mark.parametrize("fidelity", ["tlm", "waveform"])
def test_the_report_counts_programs_run_inside_a_suspended_erase(fidelity):
    """The stock campaign's writes cut into GC erases on both tiers, and
    the report says how many (CI needs it above zero)."""
    report = run_crashfuzz(crashfuzz_spec(fidelity=fidelity, seeds=1,
                                          points=4))
    assert report["exit_code"] == EXIT_OK
    assert report["inside_suspension"]["program"] > 0
    assert "run inside a suspended erase" in summarize(report)[-1]
