"""FTL persistence: checkpoints + journal in a reserved meta region.

Power-loss protection needs the FTL's volatile state — the page map,
wear counters, and the grown-bad-block journal — to be reconstructable
from the NAND itself.  This module owns the on-media format and the
write paths; :mod:`repro.ftl.spor` owns the read path (the mount).

Layout
------

The last ``FtlConfig.meta_blocks`` factory-good blocks of LUN 0 are
withheld from the data rotation and used as a small log ring:

* **Checkpoint pages** — the full FTL state (map + per-entry write
  sequence numbers, wear counts, bad-block journal, rotor, write
  sequence high-water mark) serialized as JSON and split into
  page-sized chunks.  Each chunk's spare area carries a
  :class:`~repro.flash.oob.OobRecord` of kind ``ckpt`` with the
  checkpoint id (``seq``) and its chunk index/count — a checkpoint
  counts only if *every* chunk committed, so a cut mid-checkpoint
  falls back to the previous one.
* **Journal pages** — batches of compact records (trims, erases,
  retirements) appended since the last checkpoint, tagged with the
  checkpoint *epoch* they extend and a monotonically increasing meta
  sequence number for replay ordering.

The journal carries only what no data page carries.  A host or GC
bind never reaches it: the data page's own OOB record holds its (LPN,
sequence number), and the mount's OOB scan rebuilds the map from
those records, keeping a checkpoint's entry only where the page's OOB
record still names the same (LPN, seq).

Rotation is ping-pong: when the current meta block fills, the ring
advances, the (stale) target block is erased, and a **fresh checkpoint
is written first** — so the block holding the previous checkpoint is
never erased before a newer one is fully committed.  A crash at any
nanosecond therefore always leaves one complete checkpoint plus a
durable prefix of its journal on media.

That erase rarely runs on the rotation itself.  Once the live block
holds a committed checkpoint, the next ring block is stale, and the
meta LUN's collector erases it beside a GC victim on another plane in
one multi-plane ERASE (:meth:`PersistenceLayer.stale_block`, a *ride*;
``PageMappedFtl._claim_partner``).  The rotation waits for a ride in
flight on its target and erases only what is still not erased, so a
journal page a FLUSH waits on seldom waits for a tBERS.  Neither erase
writes a journal or wear record: the mount rescans the whole ring.

Every meta program is **written behind** host I/O by the shard's one
writer process: the FTL's hooks only count and, when a checkpoint or a
journal flush is due, start the writer and return.

A host FLUSH waits only for the records that carry a promise:
**trim tombstones and retirements**.  It is a **group commit**: it
marks the position of the last such record noted before it and waits
until the buffer up to there is journaled or absorbed by a checkpoint
— records noted later do not extend it.  A FLUSH that follows only
writes and GC erases returns at once; one after a trim returns once
the page holding that trim commits.  An erase record is lazy: it only
bumps wear, so it rides whatever page is written next (a trim's, a
retirement's, a full batch (``journal_flush_records``) or a
checkpoint).

One ordering rule keeps a trim from being undone by GC: **a trim's
tombstone is durable before GC erases the newest copy it
invalidated.**  ``PageMappedFtl.trim`` tags the invalidated page's
block with the tombstone's journal position (``BlockInfo.tombstone``),
and the collect waits for that position (:meth:`wait_tombstones`)
before it erases the block.  Without the rule the mount's OOB scan could
find an older copy of the LPN and resurrect it.

Data pages carry their own OOB record (kind ``host`` or ``gc`` with
the LPN and write sequence number), staged by the FTL right before the
program op — the array attaches it only when the program commits, so a
torn page never presents a decodable record.  GC relocations reuse the
*original* write's sequence number: a copy is the same logical
version, and the mount must never prefer a stale copy over a newer
host write.
"""

from __future__ import annotations

import json
from typing import Generator, Optional

import numpy as np

from repro.flash.oob import (
    KIND_CKPT,
    KIND_JOURNAL,
    OobRecord,
    encode_oob,
)
from repro.onfi.geometry import PhysicalAddress
from repro.sim.sync import Trigger

# Journal record tags (first element of each compact record list).
REC_TRIM = "t"       # ["t", lpn, seq]
REC_ERASE = "x"      # ["x", lun, block]
REC_RETIRE = "d"     # ["d", lun, block, reason, pe_cycles, time_ns]

# DRAM offset (past the GC staging page) used to stage meta pages.
_META_STAGING_PAGES = 2


class PersistenceLayer:
    """Checkpoint + journal writer for one :class:`PageMappedFtl` shard."""

    def __init__(self, ftl, meta_blocks: list[int], meta_lun: int = 0):
        from repro.ftl.ftl import FtlError

        self._FtlError = FtlError
        self.ftl = ftl
        self.meta_lun = meta_lun
        self.meta_blocks = list(meta_blocks)
        geometry = ftl.controller.codec.geometry
        self.spare_size = geometry.spare_size
        if self.spare_size < 24:
            raise FtlError(
                f"persistence needs >= 24 spare bytes/page, have "
                f"{self.spare_size}"
            )
        self._staging = (
            ftl.config.gc_staging_base
            + _META_STAGING_PAGES * geometry.full_page_size
        )

        # Ring cursor inside the meta region.
        self._ring_pos = 0
        self._next_page = 0

        # Monotonic counters.
        self.write_seq = 0       # per-shard host/GC data version counter
        self.meta_seq = 0        # journal-page replay order
        self.checkpoint_id = 0   # 0 = genesis (no checkpoint on media)

        # Volatile journal buffer + write-behind state.  Records leave
        # the buffer in order, so counts stand for positions in it.
        self._buffer: list[list] = []
        self._noted = 0          # records ever noted (monotonic)
        self._committed = 0      # of those, journaled or absorbed
        self._fence = 0          # noted count through the last trim or
                                 # retirement: what a FLUSH waits for
        self._want = 0           # noted count a retirement, FLUSH or
                                 # GC erase (``wait_durable``) awaits
        self._writes_since_ckpt = 0
        self._ckpt_requested = False  # checkpoint() asked for one
        self._ckpt_owed = False  # the live meta block has no checkpoint
        self._busy = False       # the shard's writer process is running
        self._idle = Trigger(ftl.sim)  # each writer step, and its end
        # The stale ring block a GC erase is erasing for the ring, and
        # the pulse at its end (``stale_block``, ``end_ride``).
        self.riding: Optional[int] = None
        self._ride_done = Trigger(ftl.sim)

        # Host-side copies of what is durably on media (the crash-fuzz
        # verifier compares the rebuilt state against these).
        self.checkpoint_state: Optional[dict] = None
        self.durable_journal: list[list] = []

        # Counters.
        self.journal_pages_written = 0
        self.journal_records_written = 0
        self.checkpoints_written = 0
        self.meta_program_failures = 0
        self.meta_erases_ridden = 0  # passed inside a GC multi-plane ERASE
        self.meta_erases_inline = 0  # issued by a rotation itself
        self.erases_after_trims = 0  # GC erases that waited on a tombstone

    # ------------------------------------------------------------------
    # Sequence numbers
    # ------------------------------------------------------------------

    def next_seq(self) -> int:
        self.write_seq += 1
        return self.write_seq

    def _take_meta_seq(self) -> int:
        self.meta_seq += 1
        return self.meta_seq

    # ------------------------------------------------------------------
    # Data-page OOB staging (called by the FTL write/GC paths)
    # ------------------------------------------------------------------

    def stage_data_oob(self, lun: int, block: int, page: int,
                       kind: int, lpn: int, seq: int) -> None:
        record = OobRecord(kind=kind, lpn=lpn, seq=seq,
                           payload_len=self.ftl.page_size)
        self.ftl.controller.luns[lun].array.stage_oob(
            block, page, encode_oob(record, self.spare_size)
        )

    # ------------------------------------------------------------------
    # Journal recording (cheap, in-memory; durable at the next flush)
    # ------------------------------------------------------------------

    def note_trim(self, lpn: int, seq: int) -> int:
        """Buffer a trim tombstone; returns its journal position (the
        mark :meth:`wait_durable` takes)."""
        self._buffer.append([REC_TRIM, lpn, seq])
        self._noted += 1
        self._fence = self._noted
        return self._noted

    def note_erase(self, lun: int, block: int) -> None:
        """Buffer an erase's wear bump; it rides the next page written."""
        self._buffer.append([REC_ERASE, lun, block])
        self._noted += 1

    def note_retire(self, lun: int, block: int, reason: str,
                    pe_cycles: int, time_ns: int) -> None:
        self._buffer.append(
            [REC_RETIRE, lun, block, reason, pe_cycles, time_ns]
        )
        self._noted += 1
        self._fence = self._want = self._noted

    @property
    def _sync(self) -> bool:
        """A retirement, a FLUSH or a GC erase awaits the journal."""
        return self._committed < self._want

    # ------------------------------------------------------------------
    # Write-behind policy: the FTL's hooks start the writer and go on
    # ------------------------------------------------------------------

    def after_host_write(self) -> None:
        """Hook run at the end of every successful host write."""
        self._writes_since_ckpt += 1
        self._start_writer()

    def maybe_flush(self) -> None:
        """Start the writer if meta work is due, and return at once
        (a process that wants the pass finished waits on
        :meth:`drained`)."""
        self._start_writer()

    def drained(self) -> Generator:
        """Wait until the writer has stopped."""
        while self._busy:
            yield from self._idle.wait()

    def flush(self) -> Generator:
        """Host FLUSH: return once every trim and retirement noted
        before the call is journaled or absorbed by a checkpoint (group
        commit).  Erase records do not extend it: they only bump wear."""
        yield from self.wait_durable(self.mark())

    def mark(self) -> int:
        """Demand durability through the last trim or retirement and
        start the writer; returns the mark for :meth:`wait_durable`
        (already met if nothing such is pending)."""
        mark = self._fence
        if mark > self._want:
            self._want = mark
        self._start_writer()
        return mark

    def wait_durable(self, mark: int) -> Generator:
        """Wait until the first ``mark`` noted records are on media,
        demanding a journal page for them if none is due."""
        if mark > self._want:
            self._want = mark
        while self._committed < mark:
            # A no-op while the writer runs; after a pass that ended on
            # a failed checkpoint, a retry.
            self._start_writer()
            yield from self._idle.wait()

    def wait_tombstones(self, mark: int) -> Generator:
        """Hold a GC erase until the tombstones up to ``mark`` (the
        victims' ``BlockInfo.tombstone``) are on media, counting the
        erases that had to wait."""
        if self._committed < mark:
            self.erases_after_trims += 1
            yield from self.wait_durable(mark)

    def checkpoint(self) -> Generator:
        """Have the writer write a checkpoint next; wait until it stops."""
        self._ckpt_requested = True
        self._start_writer()
        yield from self.drained()

    def _start_writer(self) -> None:
        """Spawn the writer unless it runs or no meta work is due."""
        if self._busy:
            return
        if self._checkpoint_due() or self._journal_due():
            self._busy = True
            self.ftl.sim.spawn(self._writer(), name="meta-writer")

    def _checkpoint_due(self) -> bool:
        return (self._ckpt_owed or self._ckpt_requested
                or self._writes_since_ckpt
                >= self.ftl.config.checkpoint_interval)

    def _journal_due(self) -> bool:
        return self._committed < self._want or (
            len(self._buffer) >= self.ftl.config.journal_flush_records
        )

    def _writer(self) -> Generator:
        """The shard's one meta writer: while work is due, a checkpoint
        if one is due, else one journal page.  A failed checkpoint ends
        the pass; the next host write (or a waiting FLUSH) retries it."""
        try:
            while True:
                if self._checkpoint_due():
                    if not (yield from self._write_checkpoint_pages()):
                        break
                elif self._buffer and self._journal_due():
                    yield from self._write_journal_page()
                else:
                    break
                self._idle.fire()
        finally:
            self._busy = False
            self._idle.fire()

    def _write_journal_page(self) -> Generator:
        """Commit the buffer's oldest records in one journal page."""
        if not self._pages_left():
            # Ping-pong: the fresh block owes a checkpoint, which the
            # writer's next step writes before any journal page.
            yield from self._rotate()
            return
        chunk = self._take_chunk()
        payload = json.dumps(
            {"e": self.checkpoint_id, "r": chunk},
            separators=(",", ":"),
        ).encode()
        record = OobRecord(kind=KIND_JOURNAL,
                           seq=self._take_meta_seq(),
                           payload_len=len(payload))
        if (yield from self._program_meta(payload, record)):
            self.durable_journal.extend(chunk)
            self.journal_pages_written += 1
            self.journal_records_written += len(chunk)
            self._committed += len(chunk)
        else:
            # Nothing committed: the records go back to the front of
            # the buffer and retry on the next ring page.
            self.meta_program_failures += 1
            self._buffer[:0] = chunk

    def _take_chunk(self) -> list[list]:
        """Pop a prefix of the buffer that serializes within one page."""
        take = min(len(self._buffer),
                   max(self.ftl.config.journal_flush_records, 1))
        while take > 1:
            payload = json.dumps(
                {"e": self.checkpoint_id, "r": self._buffer[:take]},
                separators=(",", ":"),
            )
            if len(payload) <= self.ftl.page_size:
                break
            take //= 2
        chunk = self._buffer[:take]
        del self._buffer[:take]
        return chunk

    # ------------------------------------------------------------------
    # Meta-region mechanics
    # ------------------------------------------------------------------

    def _array(self):
        return self.ftl.controller.luns[self.meta_lun].array

    def _pages_left(self) -> int:
        return self.ftl.pages_per_block - self._next_page

    def _needs_erase(self, block: int) -> bool:
        info = self._array().block(block)
        return bool(info.programmed or info.torn or info.erase_interrupted)

    def stale_block(self) -> Optional[int]:
        """The ring block the next rotation will erase, if an erase may
        start on it now: the live block holds a committed checkpoint (so
        every other ring block is stale), the block is not erased yet,
        and no ride is in flight.  A caller that erases it claims it
        with :meth:`start_ride` and calls :meth:`end_ride` after."""
        if self._ckpt_owed or self.riding is not None:
            return None
        block = self.meta_blocks[(self._ring_pos + 1) % len(self.meta_blocks)]
        return block if self._needs_erase(block) else None

    def start_ride(self, block: int) -> bool:
        """Claim ``block`` for an erase that is about to start, if it is
        still :meth:`stale_block`; False (nothing claimed) if not."""
        if self.stale_block() != block:
            return False
        self.riding = block
        return True

    def end_ride(self, passed: bool) -> None:
        """The ride's erase ended (``passed``: its block's status); a
        rotation waiting on it goes on."""
        if passed:
            self.meta_erases_ridden += 1
        self.riding = None
        self._ride_done.fire()

    def _rotate(self) -> Generator:
        if self._ckpt_owed:
            # Rotating again would erase the block that holds the last
            # committed checkpoint before a newer one exists.
            raise self._FtlError(
                f"meta block {self.meta_blocks[self._ring_pos]} "
                f"(LUN {self.meta_lun}) filled before its checkpoint "
                f"committed; persistence region exhausted"
            )
        ring_pos = (self._ring_pos + 1) % len(self.meta_blocks)
        block = self.meta_blocks[ring_pos]
        while self.riding == block:
            # A GC erase is erasing it: the live block stays live (and
            # the ride stale) until that erase ends.
            yield from self._ride_done.wait()
        self._ring_pos = ring_pos
        self._next_page = 0
        self._ckpt_owed = True
        if self._needs_erase(block):
            # No ride erased it (or its erase failed): erase it here.
            self.meta_erases_inline += 1
            ftl = self.ftl
            ok = yield from ftl._media(ftl._t_bers, ftl.controller.erase_block,
                                       self.meta_lun, block)
            if not ok:
                raise self._FtlError(
                    f"meta block {block} (LUN {self.meta_lun}) wore out; "
                    f"persistence region exhausted"
                )

    def _write_checkpoint_pages(self) -> Generator:
        new_id = self.checkpoint_id + 1
        # The state below absorbs exactly the records buffered *now*;
        # anything appended while the chunk programs yield is not in it
        # and must survive the commit for the next journal flush.
        absorbed = len(self._buffer)
        state = self._serialize(new_id)
        chunks = self._chunk_payload(
            json.dumps(state, separators=(",", ":"), sort_keys=True).encode()
        )
        if len(chunks) > self.ftl.pages_per_block:
            raise self._FtlError(
                f"checkpoint needs {len(chunks)} pages but a meta block "
                f"holds {self.ftl.pages_per_block}"
            )
        if self._pages_left() < len(chunks):
            yield from self._rotate()
        for index, chunk in enumerate(chunks):
            record = OobRecord(kind=KIND_CKPT, seq=new_id,
                               payload_len=len(chunk),
                               chunk=index, chunks=len(chunks))
            ok = yield from self._program_meta(chunk, record)
            if not ok:
                # Incomplete checkpoint: the previous one (plus its
                # journal) stays authoritative.
                self.meta_program_failures += 1
                return False
        self._commit_checkpoint(new_id, state, absorbed)
        return True

    def _commit_checkpoint(self, new_id: int, state: dict,
                           absorbed: int) -> None:
        self.checkpoint_id = new_id
        self.checkpoint_state = state
        self.durable_journal = []
        # Only the records the serialized state absorbed are disposable;
        # records appended by concurrent workers during the chunk
        # programs (trims, GC erases) are *not* in the state and
        # stay buffered for the next flush under the new epoch.
        del self._buffer[:absorbed]
        self._committed += absorbed
        self._writes_since_ckpt = 0
        self._ckpt_requested = False
        self._ckpt_owed = False
        self.checkpoints_written += 1

    def _chunk_payload(self, payload: bytes) -> list[bytes]:
        size = self.ftl.page_size
        return [payload[i:i + size] for i in range(0, len(payload), size)] \
            or [b"{}"]

    def _program_meta(self, payload: bytes, record: OobRecord) -> Generator:
        block = self.meta_blocks[self._ring_pos]
        page = self._next_page
        self._next_page += 1
        self._array().stage_oob(block, page, encode_oob(record, self.spare_size))
        padded = payload.ljust(self.ftl.page_size, b"\x00")
        data = np.frombuffer(padded, dtype=np.uint8)
        ftl = self.ftl
        ftl.controller.dram.write(self._staging, data)
        ok = yield from ftl._media(ftl._t_prog, ftl.controller.program_page,
                                   self.meta_lun, block, page, self._staging)
        return bool(ok)

    # ------------------------------------------------------------------
    # Offline checkpoint (prefill / end of mount: zero simulated time)
    # ------------------------------------------------------------------

    def write_checkpoint_offline(self, now_ns: int = 0) -> None:
        """Write a checkpoint directly into the arrays (no sim time).

        Used where the paper's methodology spends no simulated time:
        experiment prefill and the tail of the SPOR mount.
        """
        new_id = self.checkpoint_id + 1
        absorbed = len(self._buffer)  # no yields below: this is all of it
        state = self._serialize(new_id)
        chunks = self._chunk_payload(
            json.dumps(state, separators=(",", ":"), sort_keys=True).encode()
        )
        if len(chunks) > self.ftl.pages_per_block:
            raise self._FtlError("checkpoint does not fit in one meta block")
        array = self._array()
        if self._pages_left() < len(chunks):
            self._ring_pos = (self._ring_pos + 1) % len(self.meta_blocks)
            self._next_page = 0
            block = self.meta_blocks[self._ring_pos]
            if self._needs_erase(block):
                if not array.erase(block, now_ns=now_ns):
                    raise self._FtlError(
                        f"meta block {block} wore out during offline "
                        f"checkpoint"
                    )
        for index, chunk in enumerate(chunks):
            record = OobRecord(kind=KIND_CKPT, seq=new_id,
                               payload_len=len(chunk),
                               chunk=index, chunks=len(chunks))
            block = self.meta_blocks[self._ring_pos]
            page = self._next_page
            self._next_page += 1
            array.stage_oob(block, page, encode_oob(record, self.spare_size))
            ok = array.program(
                PhysicalAddress(block=block, page=page),
                np.frombuffer(chunk, dtype=np.uint8),
                now_ns=now_ns,
            )
            if not ok:
                raise self._FtlError(
                    "meta block wore out during offline checkpoint"
                )
        self._commit_checkpoint(new_id, state, absorbed)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def _serialize(self, new_id: int) -> dict:
        ftl = self.ftl
        entry_seq = ftl._entry_seq
        mapped = ftl.map._forward
        return {
            "ckpt": new_id,
            "write_seq": self.write_seq,
            "rotor": ftl._write_rotor,
            "map": [
                [lpn, e.lun, e.block, e.page, entry_seq.get(lpn, 0)]
                for lpn, e in sorted(mapped.items())
            ],
            # Trim tombstones: an LPN with a sequence number but no
            # mapping was trimmed.  Without these the checkpoint would
            # absorb (and clear) the REC_TRIM journal record while
            # leaving no durable floor, and the mount's OOB scan could
            # resurrect the pre-trim version from uncollected pages.
            "trim": [
                [lpn, seq]
                for lpn, seq in sorted(entry_seq.items())
                if lpn not in mapped
            ],
            "wear": [
                [lun, block, count]
                for (lun, block), count in sorted(ftl.wear.counts.items())
            ],
            "bad": ftl.bad_blocks.as_dict(),
        }

    # ------------------------------------------------------------------
    # Durable projections (crash-fuzz verifier oracles)
    # ------------------------------------------------------------------

    def durable_wear(self) -> dict:
        """Wear counts provable from media: checkpoint + durable journal."""
        counts: dict[tuple[int, int], int] = {}
        if self.checkpoint_state is not None:
            for lun, block, count in self.checkpoint_state["wear"]:
                counts[(lun, block)] = count
        for rec in self.durable_journal:
            if rec[0] == REC_ERASE:
                key = (rec[1], rec[2])
                counts[key] = counts.get(key, 0) + 1
            elif rec[0] == REC_RETIRE:
                counts.pop((rec[1], rec[2]), None)
        return counts

    def durable_trims(self) -> set:
        """LPNs whose durably-recorded *latest* state is a trim.

        Takes the checkpoint's map and tombstones, then the durable
        journal's tombstones.  No bind reaches the journal, so a write
        acked after a journaled trim is durable via its OOB record
        alone (the mount's roll-forward finds it) and this projection
        still names its LPN; what it promises is only that the trim
        itself reached media, so the mount can never resurrect a
        *pre*-trim version of these LPNs.
        """
        latest_is_trim: dict[int, bool] = {}
        if self.checkpoint_state is not None:
            for lpn, *_ in self.checkpoint_state["map"]:
                latest_is_trim[lpn] = False
            for lpn, _seq in self.checkpoint_state.get("trim", ()):
                latest_is_trim[lpn] = True
        for rec in self.durable_journal:
            if rec[0] == REC_TRIM:
                latest_is_trim[rec[1]] = True
        return {lpn for lpn, trimmed in latest_is_trim.items() if trimmed}

    def durable_retirements(self) -> dict:
        """Non-factory retirements provable from media, keyed by block."""
        retired: dict[tuple[int, int], str] = {}
        if self.checkpoint_state is not None:
            for rec in self.checkpoint_state["bad"]:
                if rec["reason"] != "factory":
                    retired[(rec["lun"], rec["block"])] = rec["reason"]
        for rec in self.durable_journal:
            if rec[0] == REC_RETIRE:
                retired.setdefault((rec[1], rec[2]), rec[3])
        return retired
