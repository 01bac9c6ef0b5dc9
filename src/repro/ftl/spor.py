"""Sudden-power-off recovery: mount a flash array back into an FTL.

The mount is the read side of :mod:`repro.ftl.persist`.  Given
controllers whose arrays carry post-crash media (transplanted via
:func:`repro.faults.power.restore_media`), it rebuilds every shard of a
:class:`~repro.ftl.ftl.ShardedFtl` from the NAND alone:

1. **Meta scan** — read every programmed page of the reserved meta
   blocks; collect checkpoint chunks by id and journal pages by meta
   sequence number.  Torn meta pages simply fail to decode.
2. **Checkpoint choice** — the highest id with *all* chunks committed
   wins; a cut mid-checkpoint falls back to the previous one (genesis
   — the empty FTL — if none ever completed).
3. **Journal replay** — journal pages extending the chosen checkpoint
   epoch replay in meta-sequence order: trim tombstones, erase wear
   bumps, block retirements.  The journal holds no binds: every bind
   since the checkpoint is on media in its data page's OOB record.
4. **OOB scan** — every committed data page's spare record is a bind
   candidate.  Highest sequence number wins (ties break on the lowest
   physical address — equal-sequence copies hold identical bytes), and
   a candidate must beat the LPN's trim tombstone.  This is what makes
   every write since the checkpoint durable: the program having
   committed implies the record is on media, so the mount rolls the
   map forward past the checkpoint.  The same scan checks each
   checkpoint-map entry: it stands only if its page's OOB record still
   names the same (LPN, seq).  A page since erased, torn, or
   reprogrammed (its block freed and reopened before the erase record
   committed) fails the check; the entry drops, and the scan may
   re-fill it from a GC copy carrying the same sequence number, never
   from an older one.
5. **Block-state rebuild** — write pointers from the media's
   programmed-page sets (torn pages count: they occupy cells), valid
   sets from the final map, free lists in ascending block order, at
   most one partially-written block reopened as the active block per
   LUN.  Interrupted erases are re-issued before the block may be
   reused (without charging the wear tracker: the verifier compares
   wear against the durable projection).  The placement counters
   restart from the rebuilt valid sets, with no die work outstanding.
6. **Re-anchor** — a fresh checkpoint is written offline so the next
   crash replays from the mounted state, not the pre-crash one.

Metadata reads use the array's pristine accessor — modeling the
max-strength ECC that real controllers reserve for mapping metadata —
so a mount never needs the read-retry machinery.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.flash.oob import KIND_CKPT, KIND_JOURNAL, decode_oob
from repro.ftl.badblocks import REASON_ERASE_FAIL, REASON_FACTORY
from repro.ftl.ftl import (BlockInfo, FtlError, LunBlocks, PageMappedFtl,
                           ShardedFtl)
from repro.ftl.mapping import MapEntry, PageMapTable
from repro.ftl.persist import REC_ERASE, REC_RETIRE, REC_TRIM
from repro.onfi.geometry import PhysicalAddress

# Deterministic per-record replay cost (ns) for the mount-time model.
_REPLAY_NS_PER_RECORD = 100


@dataclass
class MountReport:
    """Everything a mount learned, JSON-ready via :meth:`as_dict`."""

    unsafe_shutdowns: int = 0
    torn_pages_discarded: int = 0
    journal_replay_entries: int = 0
    mount_ns: int = 0
    checkpoints_used: list = field(default_factory=list)
    meta_pages_read: int = 0
    data_pages_scanned: int = 0
    rolled_forward: int = 0
    dropped_stale: int = 0
    erases_reissued: int = 0
    lpns_recovered: int = 0

    def as_dict(self) -> dict:
        return {
            "checkpoints_used": list(self.checkpoints_used),
            "data_pages_scanned": self.data_pages_scanned,
            "dropped_stale": self.dropped_stale,
            "erases_reissued": self.erases_reissued,
            "journal_replay_entries": self.journal_replay_entries,
            "lpns_recovered": self.lpns_recovered,
            "meta_pages_read": self.meta_pages_read,
            "mount_ns": self.mount_ns,
            "rolled_forward": self.rolled_forward,
            "torn_pages_discarded": self.torn_pages_discarded,
            "unsafe_shutdowns": self.unsafe_shutdowns,
        }


def mount_sharded(
    sim,
    controllers,
    config=None,
    victim_policy_factory=None,
) -> tuple[ShardedFtl, MountReport]:
    """Rebuild a :class:`ShardedFtl` from crashed media.

    ``controllers`` must be freshly built stacks whose arrays already
    hold the dead machine's media (see
    :func:`repro.faults.power.restore_media`).  ``config`` must match
    the pre-crash :class:`~repro.ftl.ftl.FtlConfig` — the meta region
    location is derived from it.
    """
    ftl = ShardedFtl(sim, controllers, config,
                     victim_policy_factory=victim_policy_factory)
    report = MountReport()
    for shard in ftl.shards:
        _rebuild_shard(sim, shard, report)
    return ftl, report


def _rebuild_shard(sim, shard: PageMappedFtl, report: MountReport) -> None:
    persist = shard.persist
    if persist is None:
        raise FtlError(
            "mount requires persistence (FtlConfig.checkpoint_interval > 0)"
        )
    timing = shard.controller.config.vendor.timing
    mount_ns = 0

    # -- 1. meta scan ---------------------------------------------------
    meta_array = shard.controller.luns[persist.meta_lun].array
    ckpt_chunks: dict[int, dict[int, bytes]] = {}
    ckpt_totals: dict[int, int] = {}
    journal_pages: list[tuple[int, int, list]] = []
    max_meta_seq = 0
    meta_home: dict[int, int] = {}  # checkpoint id -> meta block
    for meta_block in persist.meta_blocks:
        block = meta_array.block(meta_block)
        for page in sorted(block.programmed):
            report.meta_pages_read += 1
            mount_ns += timing.t_read_ns
            if page in block.torn:
                report.torn_pages_discarded += 1
                continue
            record = decode_oob(meta_array.read_oob(meta_block, page))
            if record is None:
                continue
            payload = bytes(
                meta_array.pristine_page(
                    PhysicalAddress(block=meta_block, page=page)
                )[: record.payload_len]
            )
            if record.kind == KIND_CKPT:
                ckpt_chunks.setdefault(record.seq, {})[record.chunk] = payload
                ckpt_totals[record.seq] = record.chunks
                meta_home[record.seq] = meta_block
            elif record.kind == KIND_JOURNAL:
                try:
                    body = json.loads(payload)
                except ValueError:
                    continue
                journal_pages.append(
                    (record.seq, int(body.get("e", 0)), body.get("r", []))
                )
                max_meta_seq = max(max_meta_seq, record.seq)

    # -- 2. checkpoint choice -------------------------------------------
    chosen_id = 0
    state: Optional[dict] = None
    for ckpt_id in sorted(ckpt_chunks, reverse=True):
        chunks = ckpt_chunks[ckpt_id]
        total = ckpt_totals[ckpt_id]
        if len(chunks) == total and set(chunks) == set(range(total)):
            state = json.loads(b"".join(chunks[i] for i in range(total)))
            chosen_id = ckpt_id
            break
    report.checkpoints_used.append(chosen_id)

    current: dict[int, tuple[int, MapEntry]] = {}
    floor: dict[int, int] = {}
    wear: dict[tuple[int, int], int] = {}
    bad_records: list[dict] = []
    write_seq = 0
    rotor = 0
    if state is not None:
        for lpn, lun, blk, page, seq in state["map"]:
            current[lpn] = (seq, MapEntry(lun=lun, block=blk, page=page))
            write_seq = max(write_seq, seq)
        # Checkpointed trim tombstones: the durable floor below which
        # the OOB scan must never resurrect an older version.  (``get``
        # tolerates pre-tombstone checkpoints already on media.)
        for lpn, seq in state.get("trim", []):
            floor[lpn] = seq
            write_seq = max(write_seq, seq)
        wear = {(lun, blk): count for lun, blk, count in state["wear"]}
        bad_records = [dict(rec) for rec in state["bad"]]
        write_seq = max(write_seq, state["write_seq"])
        rotor = state["rotor"]

    # -- 3. journal replay ----------------------------------------------
    for _, epoch, records in sorted(journal_pages):
        if epoch != chosen_id:
            continue  # a stale epoch's leftovers (pre-checkpoint pages)
        for rec in records:
            report.journal_replay_entries += 1
            mount_ns += _REPLAY_NS_PER_RECORD
            tag = rec[0]
            if tag == REC_TRIM:
                _, lpn, seq = rec
                current.pop(lpn, None)
                floor[lpn] = max(floor.get(lpn, 0), seq)
                write_seq = max(write_seq, seq)
            elif tag == REC_ERASE:
                _, lun, blk = rec
                wear[(lun, blk)] = wear.get((lun, blk), 0) + 1
            elif tag == REC_RETIRE:
                _, lun, blk, reason, pe, time_ns = rec
                bad_records.append({
                    "time_ns": time_ns, "lun": lun, "block": blk,
                    "reason": reason, "pe_cycles": pe,
                })
                wear.pop((lun, blk), None)

    # -- 4. OOB scan of the data blocks ---------------------------------
    # ``confirmed``: the checkpoint entries whose page's OOB record
    # still names the same (LPN, seq).
    meta_keys = {(persist.meta_lun, b) for b in persist.meta_blocks}
    candidates: dict[int, tuple[int, MapEntry]] = {}
    confirmed: set[int] = set()
    for lun in range(shard.lun_count):
        array = shard.controller.luns[lun].array
        for blk in range(shard.config.blocks_per_lun):
            if (lun, blk) in meta_keys:
                continue
            block = array.block(blk)
            if block.erase_interrupted:
                continue
            for page in sorted(block.programmed):
                report.data_pages_scanned += 1
                mount_ns += timing.t_read_ns // 4  # spare-area-only read
                if page in block.torn:
                    report.torn_pages_discarded += 1
                    continue
                record = decode_oob(array.read_oob(blk, page))
                if record is None or not record.is_data:
                    continue
                cand = (record.seq, MapEntry(lun=lun, block=blk, page=page))
                if current.get(record.lpn) == cand:
                    confirmed.add(record.lpn)
                write_seq = max(write_seq, record.seq)
                prev = candidates.get(record.lpn)
                if prev is None or _better(cand, prev):
                    candidates[record.lpn] = cand

    # A checkpoint entry that failed the check is provably gone; the
    # scan may re-fill it only from a copy at least as new.
    dropped = {lpn: seq for lpn, (seq, _) in current.items()
               if lpn not in confirmed}
    for lpn in dropped:
        del current[lpn]
    report.dropped_stale += len(dropped)

    for lpn, (seq, entry) in sorted(candidates.items()):
        if lpn >= shard.logical_pages:
            continue  # corrupt record; never serve it
        cur = current.get(lpn)
        if cur is not None:
            if seq > cur[0]:
                current[lpn] = (seq, entry)
                report.rolled_forward += 1
        elif lpn in dropped:
            if seq >= dropped[lpn] and seq > floor.get(lpn, 0):
                current[lpn] = (seq, entry)
        elif seq > floor.get(lpn, 0):
            current[lpn] = (seq, entry)
            report.rolled_forward += 1

    # -- 5. rebuild the shard's volatile state --------------------------
    lun_count = shard.lun_count
    shard.map = PageMapTable(shard.logical_pages)
    shard._entry_seq = {}
    shard._luns = [LunBlocks() for _ in range(lun_count)]
    shard._info = {}
    shard._write_rotor = rotor
    shard._pending = [0] * lun_count  # nothing is in flight after a mount

    # Retirements: durable records first (authoritative reasons), then
    # any worn-out block the journal never captured.  The constructor's
    # factory scan is discarded — it cannot tell factory defects from
    # blocks that wore out during the crashed run.
    from repro.ftl.badblocks import GrownBadBlockTable

    shard.bad_blocks = GrownBadBlockTable()
    for rec in bad_records:
        shard.bad_blocks.retire(rec["time_ns"], rec["lun"], rec["block"],
                                rec["reason"], pe_cycles=rec["pe_cycles"])
    for lun in range(lun_count):
        array = shard.controller.luns[lun].array
        for blk in range(shard.config.blocks_per_lun):
            if (lun, blk) in meta_keys or (lun, blk) in shard.bad_blocks:
                continue
            if array.block(blk).worn_out:
                shard.bad_blocks.retire(0, lun, blk, REASON_FACTORY)
    shard.wear.counts = dict(wear)

    for lpn in sorted(current):
        seq, entry = current[lpn]
        shard.map.bind(lpn, entry)
        shard._entry_seq[lpn] = seq
    for lpn, seq in floor.items():
        if seq > shard._entry_seq.get(lpn, 0):
            shard._entry_seq[lpn] = seq
    report.lpns_recovered += len(current)

    valid_by_block: dict[tuple[int, int], set] = {}
    for entry, _lpn in shard.map._reverse.items():
        valid_by_block.setdefault((entry.lun, entry.block), set()).add(
            entry.page
        )

    for lun, blocks in enumerate(shard._luns):
        array = shard.controller.luns[lun].array
        free: list[int] = []
        partials: list[BlockInfo] = []
        for blk in range(shard.config.blocks_per_lun):
            if (lun, blk) in meta_keys or (lun, blk) in shard.bad_blocks:
                continue
            block = array.block(blk)
            if block.erase_interrupted:
                # The cells read erased but the cycle never finished:
                # re-erase before the block may hold data again.
                report.erases_reissued += 1
                mount_ns += timing.t_bers_ns
                if not array.erase(blk, now_ns=sim.now):
                    shard._retire_block(lun, blk, REASON_ERASE_FAIL)
                    continue
                free.append(blk)
                continue
            programmed = block.programmed
            if not programmed:
                free.append(blk)
                continue
            info = BlockInfo(
                lun=lun, block=blk, capacity=shard.pages_per_block,
                write_ptr=max(programmed) + 1,
                valid=valid_by_block.get((lun, blk), set()),
                closed_at_ns=0,
            )
            shard._info[(lun, blk)] = info
            if info.is_full:
                blocks.closed.append(info)
            else:
                partials.append(info)
        # Reopen one partial block per plane pair — the emptiest as the
        # active block, the emptiest on another plane as its twin; the
        # rest close (GC reclaims their untouched tails eventually).
        partials.sort(key=lambda b: (b.write_ptr, b.block))
        for info in partials:
            active = blocks.active
            if active is None:
                blocks.active = info
            elif shard._planes > 1 and blocks.twin is None and \
                    shard._plane(info.block) != shard._plane(active.block):
                blocks.twin = info
            else:
                blocks.closed.append(info)
        blocks.free = deque(sorted(free))
    shard._lun_valid = shard._recount()  # placement counts from here

    # -- 6. re-anchor the persistence layer -----------------------------
    persist.write_seq = write_seq
    persist.meta_seq = max_meta_seq
    persist.checkpoint_id = chosen_id
    live_block = meta_home.get(chosen_id)
    if live_block is not None:
        persist._ring_pos = persist.meta_blocks.index(live_block)
        programmed = meta_array.block(live_block).programmed
        persist._next_page = (max(programmed) + 1) if programmed else 0
    else:
        persist._ring_pos = 0
        persist._next_page = shard.pages_per_block  # force a rotation
    persist.write_checkpoint_offline(sim.now)

    if (report.torn_pages_discarded or report.erases_reissued
            or report.journal_replay_entries or journal_pages):
        report.unsafe_shutdowns += 1
    report.mount_ns = max(report.mount_ns, mount_ns)


def _better(cand: tuple, prev: tuple) -> bool:
    """Candidate ordering: higher seq wins; ties take the lowest
    physical address (equal-sequence copies are byte-identical)."""
    if cand[0] != prev[0]:
        return cand[0] > prev[0]
    c, p = cand[1], prev[1]
    return (c.lun, c.block, c.page) < (p.lun, p.block, p.page)
