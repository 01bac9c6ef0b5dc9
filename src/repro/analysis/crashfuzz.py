"""Crash-consistency fuzzing: kill power mid-workload, remount, verify.

One fuzz *seed* is an oracle plus a family of crashes:

1. **Oracle run** — a seeded read/write/trim/flush mix drives the
   queue-depth host engine (:class:`~repro.host.engine.ScaleEngine`,
   ``record_acks=True``) over a persistence-enabled
   :class:`~repro.ftl.ftl.ShardedFtl` to completion.  Its ack ledger
   and elapsed window are ground truth.
2. **Crash points** — ``points`` nanoseconds drawn uniformly from the
   oracle's window.  Each point rebuilds the identical stack, arms a
   :class:`~repro.faults.power.PowerCut` there, and replays the same
   command stream until the lights go out.
3. **Remount + verify** — the dead machine's media transplants into a
   fresh stack, :func:`~repro.ftl.spor.mount_sharded` brings it back,
   and the verifier checks the crash-consistency contract:

   * the crashed run's ack ledger is a prefix of the oracle's (the
     simulator is deterministic — a mismatch is a harness/kernel bug,
     not a durability bug, and exits ``EXIT_INTERNAL``);
   * no mapped LPN points at a torn page;
   * every host-acked write with no later trim reads back with its
     acked contents (or a newer version the host had already submitted
     — roll-forward is allowed, rollback is not);
   * a trim follows NVMe-deallocate semantics: until its tombstone is
     durable (journal flush or checkpoint) the LPN's contents are
     indeterminate, but once a trim is durably the LPN's *latest*
     recorded state it never resurrects — after remount the LPN is
     unmapped or holds a write submitted after a trim, never an older
     version;
   * the rebuilt wear counters lie between the durable projection
     (:meth:`~repro.ftl.persist.PersistenceLayer.durable_wear`) of the
     crashed stack and its in-memory counters — a meta page whose
     program reached the array just before the cut is on media although
     the FTL never saw it complete, so the mount may know more than
     the projection, never less and never more than really happened;
   * every durably-recorded retirement survives the remount;
   * a FLUSH keeps its promise: a trim acked before an acked FLUSH on
     its shard was submitted is in the durable projection
     (:meth:`~repro.ftl.persist.PersistenceLayer.durable_trims`) unless
     a later write to that LPN was acked.  The report counts the FLUSHes
     that covered at least one such trim as ``flush_barriers_checked``.

The report also sums, over the oracle and every crashed run, the ops
the controllers ran inside a suspended erase, by kind
(``inside_suspension``): a cut that lands while a PROGRAM runs inside a
suspended GC erase is one of the states the fuzzer is there to reach.
Likewise ``erases_after_trims``: the GC erases that waited for a trim's
tombstone to reach media before erasing the copy it undid (see
:mod:`repro.ftl.persist`), a rule whose cuts only such erases test.

Everything derives from seeded RNGs and simulated time: the same
``(base_seed, seeds, points)`` triple produces a byte-identical report
under either fidelity tier.

Exit codes follow the house convention: 0 = contract held at every
point, 1 = at least one violation, 2 = internal error (determinism
cross-check failed or a run died unexpectedly).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Generator

import numpy as np

from repro.config.build import build_controllers, build_experiment
from repro.config.specs import (
    FINDINGS_ONLY,
    CampaignSpec,
    ExperimentSpec,
    FtlSpec,
    GeometrySpec,
    StackSpec,
    WorkloadSpec,
)
from repro.faults.power import (
    PowerCut,
    PowerLossError,
    apply_power_cut,
    restore_media,
    snapshot_media,
    versioned_payload,
)
from repro.ftl.spor import mount_sharded
from repro.host.engine import ScaleCommand, ScaleEngine
from repro.host.hic import HostOpcode
from repro.sim import Simulator

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INTERNAL = 2

#: The shrunken fuzz array as spec data (mirrors :data:`CHAOS_GEOMETRY`
#: in repro.faults.chaos — full code paths, tiny state).
FUZZ_GEOMETRY = {
    "page_size": 2048,
    "spare_size": 64,
    "pages_per_block": 16,
    "blocks_per_plane": 16,
    "planes": 2,
}

#: What a crashfuzz spec may not change: :func:`stand_up` prefills
#: exactly half the logical space (the op generator's reads need every
#: LPN of its span mapped), and the command stream is the fuzzer's own
#: seeded mix — no pattern, workload seed or working set to honour.
CRASHFUZZ_FIXED = (
    "stack.ftl.prefill_pages", *FINDINGS_ONLY, "workload.mix",
    "workload.pattern", "workload.seed", "workload.working_set_pages",
)


def crashfuzz_spec(seeds: int = 3, points: int = 50, channels: int = 2,
                   luns: int = 2, qd: int = 8, ios: int = 400,
                   fidelity: str = "tlm", vendor: str = "hynix",
                   base_seed: int = 7) -> ExperimentSpec:
    """The stock fuzz campaign — the ``workload.mix = "crashfuzz"``
    stream over a persistence-enabled (checkpoint + journal) sharded
    FTL: where its defaults live, and what ``repro crashfuzz`` resolves
    ``--set`` / ``--spec`` against."""
    spec = ExperimentSpec(
        name="crashfuzz",
        stack=StackSpec(
            vendor=vendor,
            channels=channels,
            luns_per_channel=luns,
            fidelity=fidelity,
            track_data=True,
            noiseless=True,
            factory_bad_rate=0.0,
            geometry=GeometrySpec(**FUZZ_GEOMETRY),
            # Small geometry, real code paths: 160 logical pages per
            # shard once the meta region is carved out, checkpoints
            # every 48 writes so most crash points land between them.
            ftl=FtlSpec(
                blocks_per_lun=10, overprovision_blocks=4,
                checkpoint_interval=48, journal_flush_records=16,
                meta_blocks=2,
            ),
        ),
        workload=WorkloadSpec(mix="crashfuzz", io_count=ios, queue_depth=qd),
        campaign=CampaignSpec(plan="crashfuzz", crash_seeds=seeds,
                              crash_points=points, base_seed=base_seed),
    )
    spec.validate()
    return spec


def stand_up(spec: ExperimentSpec):
    """One identical stack per run, built by the factory: returns the
    :class:`~repro.config.build.BuiltExperiment` (ack ledger and slot
    DRAM on) and the op generator's LPN span — half the logical space,
    prefilled, so every read in the stream targets a mapped page."""
    ftl = dataclasses.replace(spec.stack.ftl, prefill_pages=0)
    built = build_experiment(
        dataclasses.replace(
            spec, stack=dataclasses.replace(spec.stack, ftl=ftl)),
        record_acks=True, auto_dram=True)
    span = max(1, built.ftl.logical_pages // 2)
    built.ftl.prefill(span)
    return built, span


def build_ops(rng: np.random.Generator, ios: int, span: int,
              channels: int, qd: int) -> list[tuple[str, int, int]]:
    """The seeded command stream: ~65% writes, ~25% reads, ~5% trims,
    ~5% flushes.

    Reads and trims prefer LPNs whose last touch has probably left the
    queue: with at least ``qd`` later submissions on the same channel
    queue pair, backpressure means the earlier command was popped
    before this one was staged.  That is only a hint that keeps the
    submitter from stalling — completion is not FIFO (a GC pass can
    hold one write for milliseconds while later commands overtake it),
    so :func:`drive` enforces per-LPN ordering itself.  The span is
    prefilled, so any read is mapped.  Trims share the per-LPN version
    counter so the verifier can totally order writes and trims on one
    LPN.
    """
    ops: list[tuple[str, int, int]] = []
    versions: dict[int, int] = {}
    # Per-pair submission counters mirror the submitter's strict FIFO.
    pair_subs = [0] * channels
    touch_sub: dict[int, int] = {}  # last write/read/trim on this LPN
    readable: list[int] = []
    for _ in range(ios):
        roll = rng.random()
        settled = [
            lpn for lpn in readable
            if pair_subs[lpn % channels] - touch_sub[lpn] >= qd
        ]
        if roll < 0.05 and versions:
            lpn = int(rng.choice(sorted(versions)))
            ops.append(("flush", lpn, 0))
        elif roll < 0.10 and settled:
            lpn = settled[int(rng.integers(0, len(settled)))]
            version = versions[lpn] + 1
            versions[lpn] = version
            readable.remove(lpn)  # unmapped until rewritten
            ops.append(("trim", lpn, version))
            touch_sub[lpn] = pair_subs[lpn % channels] + 1
        elif roll < 0.35 and settled:
            lpn = settled[int(rng.integers(0, len(settled)))]
            ops.append(("read", lpn, 0))
            touch_sub[lpn] = pair_subs[lpn % channels] + 1
        else:
            lpn = int(rng.integers(0, span))
            version = versions.get(lpn, 0) + 1
            versions[lpn] = version
            if lpn not in readable:
                readable.append(lpn)
            ops.append(("write", lpn, version))
            touch_sub[lpn] = pair_subs[lpn % channels] + 1
        pair_subs[lpn % channels] += 1
    return ops


def drive(built, ops: list[tuple[str, int, int]]) -> None:
    """Replay ``ops`` on a :func:`stand_up` stack with the closed-loop
    backpressure submitter.

    Strict submission order, plus a per-LPN guard: an op whose LPN
    still has a command in flight waits (and blocks the ops behind
    it), so the verifier's "last acked operation per LPN" is also the
    last one the FTL executed.  Flushes touch no LPN and never wait.
    """

    engine: ScaleEngine = built.engine
    page_size = built.controllers[0].codec.geometry.page_size

    def submitter() -> Generator:
        queue = deque(ops)
        latest: dict[int, ScaleCommand] = {}  # LPN -> its newest command
        while queue:
            while queue:
                kind, lpn, version = queue[0]
                if engine.pair_for(lpn).free_slots <= 0:
                    break
                if kind == "flush":
                    command = ScaleCommand(opcode=HostOpcode.FLUSH, lpn=lpn)
                else:
                    prior = latest.get(lpn)
                    if prior is not None and prior.finished_at is None:
                        break
                    if kind == "write":
                        command = ScaleCommand(
                            opcode=HostOpcode.WRITE, lpn=lpn,
                            payload=versioned_payload(lpn, version,
                                                      page_size),
                            tag=version)
                    elif kind == "read":
                        command = ScaleCommand(opcode=HostOpcode.READ,
                                               lpn=lpn)
                    else:
                        command = ScaleCommand(opcode=HostOpcode.TRIM,
                                               lpn=lpn, tag=version)
                    latest[lpn] = command
                queue.popleft()
                engine.submit(command)
            if not queue:
                break
            engine.ring_doorbells()
            yield from engine.completion_pulse.wait()
        yield from engine.drain()

    built.sim.run_process(submitter(), name="crashfuzz-submitter")


def remount(crashed):
    """Crash is final: transplant the media of ``crashed`` (a
    :func:`stand_up` stack whose cut :func:`apply_power_cut` finalized)
    into a fresh build of the same stack and mount it.  Returns
    ``(controllers, ftl, MountReport)`` of the new machine."""
    stack = crashed.spec.stack
    images = snapshot_media(crashed.controllers)
    sim = Simulator()
    controllers = build_controllers(sim, stack)
    restore_media(controllers, images)
    ftl, report = mount_sharded(sim, controllers, stack.ftl.to_ftl_config())
    return controllers, ftl, report


def _ledger(commands) -> list[tuple[str, int, int]]:
    return [(c.opcode.value, c.lpn, c.tag) for c in commands]


def _verify_point(crashed, oracle_acks, crash_ns: int,
                  write_versions: dict, trims: dict) -> dict:
    """Remount the crashed stack and check the contract."""
    crashed_ftl, engine = crashed.ftl, crashed.engine
    point: dict = {"cut_ns": crash_ns, "acked": len(engine.acks)}
    violations: list[str] = []
    internal: list[str] = []

    # Determinism cross-check: the crashed ledger must be the oracle's
    # ledger truncated at the cut (completions *at* the cut nanosecond
    # lose to the blackout event, which was scheduled first).
    expect = _ledger(c for c in oracle_acks if c.finished_at < crash_ns)
    got = _ledger(engine.acks)
    if got != expect:
        internal.append(
            f"ack ledger diverged from oracle prefix at {crash_ns} ns "
            f"({len(got)} vs {len(expect)} entries)"
        )

    apply_power_cut(crashed.controllers, crash_ns)
    durable_wear = {
        shard_index: shard.persist.durable_wear()
        for shard_index, shard in enumerate(crashed_ftl.shards)
    }
    volatile_wear = {
        shard_index: dict(shard.wear.counts)
        for shard_index, shard in enumerate(crashed_ftl.shards)
    }
    retired_at_cut = {
        shard_index: set(shard.retired_blocks)
        for shard_index, shard in enumerate(crashed_ftl.shards)
    }
    durable_retired = {
        shard_index: shard.persist.durable_retirements()
        for shard_index, shard in enumerate(crashed_ftl.shards)
    }
    # LPNs whose durably-recorded latest state at the cut is a trim
    # tombstone — the only trims the contract holds binding.
    durable_trimmed: set[int] = set()
    for shard_index, shard in enumerate(crashed_ftl.shards):
        for local in shard.persist.durable_trims():
            durable_trimmed.add(
                crashed_ftl.router.global_lpn(shard_index, local))

    controllers2, ftl2, report = remount(crashed)
    sim2 = controllers2[0].sim
    point["mount"] = {
        "journal_replay_entries": report.journal_replay_entries,
        "mount_ns": report.mount_ns,
        "rolled_forward": report.rolled_forward,
        "torn_pages_discarded": report.torn_pages_discarded,
        "unsafe_shutdowns": report.unsafe_shutdowns,
    }

    # 1. No mapped LPN may point at a torn page.
    for index, shard in enumerate(ftl2.shards):
        for lpn, entry in sorted(shard.map._forward.items()):
            block = shard.controller.luns[entry.lun].array.block(entry.block)
            if entry.page in block.torn:
                violations.append(
                    f"shard {index}: LPN {lpn} mapped to torn page "
                    f"(lun {entry.lun} block {entry.block} page {entry.page})"
                )

    # 2. Per LPN, the last acked state-changing op (writes and trims
    #    share one per-LPN version counter, and the submitter's per-LPN
    #    guard keeps per-LPN completion order = submission order) must
    #    hold after remount:
    #      * no trim at or after the last acked write → the LPN reads
    #        back as that version or a newer *submitted* write
    #        (roll-forward is allowed, rollback is not) and may not be
    #        unmapped;
    #      * a trim was submitted at or after the last acked write →
    #        NVMe-deallocate semantics: contents are indeterminate
    #        until the tombstone reaches media, but once the durable
    #        projection says the LPN's latest recorded state is a trim,
    #        only unmapped or a post-trim write is legal — a pre-trim
    #        version resurrecting past a durable tombstone is the bug
    #        class the checkpoint tombstones exist to prevent.
    page_size = controllers2[0].codec.geometry.page_size
    acked: dict[int, tuple[int, HostOpcode]] = {}
    for command in engine.acks:
        if command.opcode in (HostOpcode.WRITE, HostOpcode.TRIM):
            prev = acked.get(command.lpn)
            if prev is None or command.tag > prev[0]:
                acked[command.lpn] = (command.tag, command.opcode)
    for lpn in sorted(acked):
        version, opcode = acked[lpn]
        trim_lo, trim_hi = trims.get(lpn, (0, 0))
        trimmed = opcode is HostOpcode.TRIM or trim_hi > version
        if not ftl2.is_mapped(lpn):
            if not trimmed:
                violations.append(f"acked LPN {lpn} unmapped after remount")
            continue
        if trimmed:
            if lpn not in durable_trimmed:
                # The tombstone never reached media before the cut:
                # the deallocate is still advisory at this crash point.
                continue
            candidates = [
                v for v in write_versions.get(lpn, ()) if v > trim_lo
            ]
            label = (
                f"durably-trimmed LPN {lpn} resurrected after remount "
                f"(pre-trim data despite a durable tombstone)"
            )
        else:
            candidates = [
                v for v in write_versions.get(lpn, ()) if v >= version
            ]
            label = (
                f"acked LPN {lpn} content mismatch after remount "
                f"(last acked write version {version})"
            )
        if not candidates:
            violations.append(label)
            continue

        def check(lpn=lpn) -> Generator:
            yield from ftl2.read(lpn, 0)

        sim2.run_process(check())
        channel, _ = ftl2.router.route(lpn)
        got_bytes = controllers2[channel].dram.read(0, page_size)
        ok = any(
            np.array_equal(got_bytes, versioned_payload(lpn, v, page_size))
            for v in candidates
        )
        if not ok:
            violations.append(label)

    # 3. Rebuilt wear counters: at least the durable projection, at
    #    most what the crashed FTL had counted (the journal page in
    #    flight at the cut may or may not have reached the array).  A
    #    block retired before the cut drops out of wear tracking at an
    #    equally indeterminate point.
    for index, shard in enumerate(ftl2.shards):
        floor, ceiling = durable_wear[index], volatile_wear[index]
        for key in sorted(shard.wear.counts.keys() | floor.keys()
                          | ceiling.keys()):
            if key in retired_at_cut[index]:
                continue
            count = shard.wear.counts.get(key, 0)
            if not floor.get(key, 0) <= count <= ceiling.get(key, 0):
                violations.append(
                    f"shard {index}: rebuilt wear of block {key} is "
                    f"{count}, outside [{floor.get(key, 0)} durable, "
                    f"{ceiling.get(key, 0)} at the cut]"
                )
    # 4. Durably-recorded retirements survive the remount.
    for index, shard in enumerate(ftl2.shards):
        for key, reason in sorted(durable_retired[index].items()):
            if key not in shard.bad_blocks:
                violations.append(
                    f"shard {index}: durable retirement of block {key} "
                    f"({reason}) lost across remount"
                )

    # 5. What a FLUSH promises: a trim acked before an acked FLUSH on
    #    its shard was submitted is durably its LPN's latest state,
    #    unless a later write to that LPN was acked (the stream puts a
    #    write between any two trims of one LPN, so that is: unless the
    #    trim is no longer the LPN's last acked op).
    acked_trims = [c for c in engine.acks
                   if c.opcode is HostOpcode.TRIM
                   and acked[c.lpn][0] == c.tag]
    barriers = 0
    undone: set[tuple[int, int]] = set()
    for flush in engine.acks:
        if flush.opcode is not HostOpcode.FLUSH:
            continue
        covered = [t for t in acked_trims
                   if t.channel == flush.channel
                   and t.finished_at < flush.submitted_at]
        barriers += bool(covered)
        for trim in covered:
            if trim.lpn not in durable_trimmed:
                undone.add((trim.lpn, trim.tag))
    for lpn, version in sorted(undone):
        violations.append(
            f"trim of LPN {lpn} (version {version}) not durable although "
            f"a FLUSH on its shard completed after it was acked"
        )
    point["flush_barriers_checked"] = barriers

    point["violations"] = violations
    if internal:
        point["internal"] = internal
    return point


def run_crashfuzz(spec: ExperimentSpec) -> dict:
    """Run the fuzz campaign ``spec`` describes (``workload.mix ==
    "crashfuzz"`` over a persistent FTL; sweep knobs in
    ``spec.campaign``); returns the JSON-ready report dict.  Every
    oracle, cut point and remount is the factory's build of
    ``spec.stack``."""
    spec.validate()
    spec.refuse_fixed(crashfuzz_spec(), CRASHFUZZ_FIXED, "crashfuzz")
    knobs = spec.campaign or CampaignSpec()
    channels = spec.stack.channels
    qd = spec.workload.queue_depth
    ios = spec.workload.io_count

    results: list[dict] = []
    total_violations = 0
    total_internal = 0
    total_barriers = 0
    inside = {"read": 0, "program": 0}
    erases_after_trims = 0

    def tally(built) -> None:
        nonlocal erases_after_trims
        for controller in built.controllers:
            for kind, count in controller.env.inside_suspension.items():
                inside[kind] += count
        erases_after_trims += sum(shard.persist.erases_after_trims
                                  for shard in built.ftl.shards)

    for index in range(knobs.crash_seeds):
        seed = knobs.base_seed + index
        rng = np.random.default_rng(seed * 1000 + 17)

        # -- oracle -----------------------------------------------------
        oracle, span = stand_up(spec)
        sim = oracle.sim
        ops = build_ops(rng, ios, span, channels, qd)
        start_ns = sim.now
        drive(oracle, ops)
        elapsed = sim.now - start_ns
        tally(oracle)
        oracle_acks = list(oracle.engine.acks)
        write_versions: dict[int, list[int]] = {}
        trims: dict[int, tuple[int, int]] = {}  # lpn -> (first, last)
        for kind, lpn, version in ops:
            if kind == "write":
                write_versions.setdefault(lpn, []).append(version)
            elif kind == "trim":
                first, _ = trims.get(lpn, (version, version))
                trims[lpn] = (first, version)

        entry: dict = {
            "seed": seed,
            "oracle": {
                "acked": len(oracle_acks),
                "elapsed_ns": elapsed,
                "ios": len(ops),
            },
            "points": [],
        }

        # -- fuzzed crash points ---------------------------------------
        cuts = sorted(
            start_ns + 1 + int(u * max(elapsed - 1, 1))
            for u in rng.random(knobs.crash_points)
        )
        for cut_ns in cuts:
            crashed, _ = stand_up(spec)
            cut = PowerCut(crashed.sim, cut_ns).arm(crashed.controllers)
            fired = True
            try:
                drive(crashed, ops)
                fired = False
            except PowerLossError:
                pass
            if not fired:
                cut.cancel()  # the run outlived this cut point
            tally(crashed)
            crash_ns = cut_ns if fired else crashed.sim.now + 1
            point = _verify_point(crashed, oracle_acks, crash_ns,
                                  write_versions, trims)
            point["fired"] = fired
            total_violations += len(point["violations"])
            total_internal += len(point.get("internal", ()))
            total_barriers += point["flush_barriers_checked"]
            entry["points"].append(point)
        results.append(entry)

    exit_code = EXIT_OK
    if total_violations:
        exit_code = EXIT_VIOLATION
    if total_internal:
        exit_code = EXIT_INTERNAL
    return {
        "schema": 2,
        "base_seed": knobs.base_seed,
        "channels": channels,
        "erases_after_trims": erases_after_trims,
        "exit_code": exit_code,
        "fidelity": spec.stack.fidelity,
        "flush_barriers_checked": total_barriers,
        "inside_suspension": inside,
        "internal_errors": total_internal,
        "ios": ios,
        "luns_per_channel": spec.stack.luns_per_channel,
        "points": knobs.crash_points,
        "queue_depth": qd,
        "results": results,
        "seeds": knobs.crash_seeds,
        "spec": spec.resolved(),
        "spec_hash": spec.spec_hash(),
        "vendor": spec.stack.vendor,
        "violations": total_violations,
    }


def summarize(report: dict) -> list[str]:
    """Human-readable lines for the CLI."""
    lines = [
        f"crashfuzz: {report['seeds']} seed(s) x {report['points']} "
        f"point(s), fidelity={report['fidelity']}",
    ]
    for entry in report["results"]:
        fired = sum(1 for p in entry["points"] if p["fired"])
        torn = sum(p["mount"]["torn_pages_discarded"]
                   for p in entry["points"])
        replayed = sum(p["mount"]["journal_replay_entries"]
                       for p in entry["points"])
        bad = sum(len(p["violations"]) for p in entry["points"])
        lines.append(
            f"  seed {entry['seed']}: {entry['oracle']['acked']} acks "
            f"oracle, {fired} cuts fired, {torn} torn discarded, "
            f"{replayed} journal entries replayed, {bad} violation(s)"
        )
    lines.append(
        f"verdict: {report['violations']} violation(s), "
        f"{report['internal_errors']} internal error(s), "
        f"{report['flush_barriers_checked']} FLUSH barrier(s) checked, "
        f"{report['inside_suspension']['program']} program(s) and "
        f"{report['inside_suspension']['read']} read(s) run inside a "
        f"suspended erase, {report['erases_after_trims']} GC erase(s) "
        f"waited on a trim"
    )
    return lines
