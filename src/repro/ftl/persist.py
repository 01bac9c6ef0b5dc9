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
* **Journal pages** — batches of compact records (binds, trims,
  erases, retirements) appended since the last checkpoint, tagged with
  the checkpoint *epoch* they extend and a monotonically increasing
  meta sequence number for replay ordering.

Rotation is ping-pong: when the current meta block fills, the ring
advances, the (stale) target block is erased, and a **fresh checkpoint
is written first** — so the block holding the previous checkpoint is
never erased before a newer one is fully committed.  A crash at any
nanosecond therefore always leaves one complete checkpoint plus a
durable prefix of its journal on media.

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
    KIND_GC,
    KIND_HOST,
    KIND_JOURNAL,
    OobRecord,
    encode_oob,
)
from repro.onfi.geometry import PhysicalAddress
from repro.sim.sync import Trigger

# Journal record tags (first element of each compact record list).
REC_BIND = "b"       # ["b", lpn, lun, block, page, seq]
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

        # Volatile journal buffer + flush policy state.
        self._buffer: list[list] = []
        self._sync = False       # force a flush at the next opportunity
        self._writes_since_ckpt = 0
        self._busy = False       # one meta op in flight at a time
        self._idle = Trigger(ftl.sim)  # fires whenever _busy clears

        # Host-side copies of what is durably on media (the crash-fuzz
        # verifier compares the rebuilt state against these).
        self.checkpoint_state: Optional[dict] = None
        self.durable_journal: list[list] = []

        # Counters.
        self.journal_pages_written = 0
        self.checkpoints_written = 0
        self.meta_program_failures = 0

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

    def note_bind(self, lpn: int, entry, seq: int) -> None:
        self._buffer.append(
            [REC_BIND, lpn, entry.lun, entry.block, entry.page, seq]
        )

    def note_trim(self, lpn: int, seq: int) -> None:
        self._buffer.append([REC_TRIM, lpn, seq])

    def note_erase(self, lun: int, block: int) -> None:
        self._buffer.append([REC_ERASE, lun, block])
        self._sync = True

    def note_retire(self, lun: int, block: int, reason: str,
                    pe_cycles: int, time_ns: int) -> None:
        self._buffer.append(
            [REC_RETIRE, lun, block, reason, pe_cycles, time_ns]
        )
        self._sync = True

    # ------------------------------------------------------------------
    # Flush / checkpoint policy
    # ------------------------------------------------------------------

    def after_host_write(self) -> Generator:
        """Hook run at the end of every successful host write."""
        self._writes_since_ckpt += 1
        if self._busy:
            return  # another worker is already persisting
        if self._writes_since_ckpt >= self.ftl.config.checkpoint_interval:
            yield from self.checkpoint()
        elif self._sync or (
            len(self._buffer) >= self.ftl.config.journal_flush_records
        ):
            yield from self.flush()

    def maybe_flush(self) -> Generator:
        """Flush if the sync flag or batch threshold says so."""
        if self._busy:
            return
        if self._sync or (
            len(self._buffer) >= self.ftl.config.journal_flush_records
        ):
            yield from self.flush()

    def flush(self) -> Generator:
        """Write the buffered journal records to meta pages.

        Called while another meta op is in flight (a host FLUSH), this
        first waits for it: records noted before the call may be in
        neither that op nor anything durable yet."""
        while self._busy:
            yield from self._idle.wait()
        if not self._buffer:
            return
        self._busy = True
        try:
            while self._buffer:
                yield from self._ensure_room(1, with_checkpoint=True)
                if not self._buffer:
                    break  # the rotation checkpoint absorbed everything
                chunk = self._take_chunk()
                payload = json.dumps(
                    {"e": self.checkpoint_id, "r": chunk},
                    separators=(",", ":"),
                ).encode()
                record = OobRecord(kind=KIND_JOURNAL,
                                   seq=self._take_meta_seq(),
                                   payload_len=len(payload))
                ok = yield from self._program_meta(payload, record)
                if ok:
                    self.durable_journal.extend(chunk)
                    self.journal_pages_written += 1
                else:
                    # A failed meta program loses this batch's records;
                    # the OOB scan at mount is the safety net for binds.
                    self.meta_program_failures += 1
            self._sync = False
        finally:
            self._busy = False
            self._idle.fire()

    def checkpoint(self) -> Generator:
        """Serialize the full FTL state into the meta region."""
        if self._busy:
            return
        self._busy = True
        try:
            yield from self._write_checkpoint_pages()
        finally:
            self._busy = False
            self._idle.fire()
        # Records noted by concurrent workers *during* the checkpoint's
        # chunk programs (their maybe_flush saw _busy and bailed) stay
        # in the buffer; if one of them demanded a sync flush — a GC
        # erase, a retirement — honour it now rather than at the next
        # host write.
        yield from self.maybe_flush()

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

    def _ensure_room(self, pages: int, with_checkpoint: bool) -> Generator:
        if self._pages_left() >= pages:
            return
        yield from self._rotate()
        if with_checkpoint:
            # Ping-pong invariant: a freshly entered meta block starts
            # with a checkpoint, so the *previous* block (holding the
            # old checkpoint) only becomes disposable once this commits.
            yield from self._write_checkpoint_pages()

    def _rotate(self) -> Generator:
        self._ring_pos = (self._ring_pos + 1) % len(self.meta_blocks)
        self._next_page = 0
        block = self.meta_blocks[self._ring_pos]
        info = self._array().block(block)
        if info.programmed or info.torn or info.erase_interrupted:
            task = self.ftl.controller.erase_block(self.meta_lun, block)
            ok = yield from self.ftl.controller.wait(task)
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
                return
        self._commit_checkpoint(new_id, state, absorbed)

    def _commit_checkpoint(self, new_id: int, state: dict,
                           absorbed: int) -> None:
        self.checkpoint_id = new_id
        self.checkpoint_state = state
        self.durable_journal = []
        # Only the records the serialized state absorbed are disposable;
        # records appended by concurrent workers during the chunk
        # programs (binds, trims, GC erases) are *not* in the state and
        # stay buffered for the next flush under the new epoch.
        del self._buffer[:absorbed]
        self._sync = any(
            rec[0] in (REC_ERASE, REC_RETIRE) for rec in self._buffer
        )
        self._writes_since_ckpt = 0
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
        self.ftl.controller.dram.write(self._staging, data)
        task = self.ftl.controller.program_page(
            self.meta_lun, block, page, self._staging
        )
        ok = yield from self.ftl.controller.wait(task)
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
            info = array.block(block)
            if info.programmed or info.torn or info.erase_interrupted:
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

        Replays the checkpoint and the durable journal in order and
        keeps the LPNs whose last record is a tombstone with no later
        durable bind.  A write acked after the trim may still be
        durable via its OOB record alone (the mount's roll-forward
        handles that); what this projection promises is only that the
        trim itself reached media, so the mount can never resurrect a
        *pre*-trim version of these LPNs.
        """
        latest_is_trim: dict[int, bool] = {}
        if self.checkpoint_state is not None:
            for lpn, *_ in self.checkpoint_state["map"]:
                latest_is_trim[lpn] = False
            for lpn, _seq in self.checkpoint_state.get("trim", ()):
                latest_is_trim[lpn] = True
        for rec in self.durable_journal:
            if rec[0] == REC_BIND:
                latest_is_trim[rec[1]] = False
            elif rec[0] == REC_TRIM:
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
