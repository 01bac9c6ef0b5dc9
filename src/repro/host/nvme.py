"""NVMe-style host interface (the Fig. 1 HIC, more faithfully).

The simpler :class:`~repro.host.hic.HostInterface` speaks pages; real
hosts speak NVMe: logical blocks (typically 4 KiB) over submission/
completion queue pairs.  This module implements that front end over the
FTL:

* :class:`NvmeCommand` — READ / WRITE / FLUSH / DSM(deallocate) with
  ``slba``/``nlb`` addressing and a PRP-style DRAM pointer; it is its
  own completion entry (``status``, ``finished_at``).  A FLUSH
  completes once every DSM deallocate completed before it is durable
  (with every erase and retirement the FTL noted): a WRITE is durable
  when it completes, since its page's OOB record commits with the data,
  so a FLUSH after only writes completes at once;
* :class:`NvmeController` — LBA→LPN translation, including
  **read-modify-write** for writes that cover only part of a flash
  page (a 4 KiB write into a 16 KiB page really does cost a page read
  plus a page program — visible in the measured latencies).  Its queue
  pairs are the engine's :class:`~repro.host.engine.ChannelQueuePair`
  running :meth:`NvmeController._execute`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Generator, Optional

import numpy as np

from repro.ftl.ftl import PageMappedFtl
from repro.host.engine import ChannelQueuePair
from repro.sim import Simulator
from repro.sim.sync import Trigger

_cids = itertools.count(1)


class NvmeOpcode(enum.IntEnum):
    """NVM command set opcodes (the subset this HIC implements)."""

    FLUSH = 0x00
    WRITE = 0x01
    READ = 0x02
    DSM = 0x09  # dataset management: deallocate (trim)


class NvmeStatus(enum.IntEnum):
    SUCCESS = 0x00
    INVALID_FIELD = 0x02
    INTERNAL_ERROR = 0x06
    LBA_OUT_OF_RANGE = 0x80


@dataclass
class NvmeCommand:
    """One submission-queue entry, completed in place."""

    opcode: NvmeOpcode
    slba: int = 0
    block_count: int = 1          # the spec's NLB is zero-based; this is not
    prp: int = 0                  # DRAM address of the data buffer
    cid: int = field(default_factory=lambda: next(_cids))
    slot: int = -1                # pair slot: this command's bounce page
    submitted_at: int = 0
    started_at: Optional[int] = None
    finished_at: Optional[int] = None
    status: Optional[NvmeStatus] = None

    @property
    def ok(self) -> bool:
        return self.status is NvmeStatus.SUCCESS

    @property
    def span(self) -> tuple[str, dict]:
        # cid is process-global: left out, so traces depend on the run only.
        return (self.opcode.name.lower(),
                {"slba": self.slba, "blocks": self.block_count})


class NvmeController:
    """LBA-granular NVMe front end over a page-mapped FTL."""

    def __init__(self, sim: Simulator, ftl: PageMappedFtl, block_size: int = 4096):
        if ftl.page_size % block_size:
            raise ValueError("page size must be a multiple of the block size")
        self.sim = sim
        self.ftl = ftl
        self.block_size = block_size
        self.blocks_per_page = ftl.page_size // block_size
        self.capacity_blocks = ftl.logical_pages * self.blocks_per_page
        # Bounce pages for read-modify-write, one per queue-pair slot,
        # above the GC and meta staging.  A full-page stride: a page
        # read lands its spare bytes in DRAM too.
        self._full_page = ftl.controller.codec.geometry.full_page_size
        self._bounce_end = ftl.config.gc_staging_base + 4 * self._full_page
        # cid -> (first page, last page, is a read) of each command
        # executing, in start order.
        self._claims: dict[int, tuple[int, int, bool]] = {}
        self._released = Trigger(sim)
        self._pairs = 0
        self.rmw_count = 0

    def create_queue_pair(self, depth: int = 32) -> ChannelQueuePair:
        bounce_base = self._bounce_end
        self._bounce_end += depth * self._full_page
        if self._bounce_end > self.ftl.controller.dram.size:
            raise ValueError(f"{depth} bounce pages overrun the DRAM")
        self._pairs += 1
        return ChannelQueuePair(self.sim, 0, depth,
                                partial(self._execute, bounce_base),
                                name=f"nvme{self._pairs - 1}")

    def identify(self) -> dict:
        """A minimal IDENTIFY-namespace payload."""
        return {
            "capacity_blocks": self.capacity_blocks,
            "block_size": self.block_size,
            "blocks_per_page": self.blocks_per_page,
            "model": "BABOL-REPRO-SSD",
        }

    # -- execution -------------------------------------------------------

    def _execute(self, bounce_base: int, command: NvmeCommand) -> Generator:
        """What a queue pair's worker runs: sets ``command.status``."""
        if command.opcode is NvmeOpcode.FLUSH:
            # Durability barrier: every deallocate, erase and retirement
            # noted before the FLUSH is on media when it completes (a
            # write's own OOB record made it durable at its completion).
            yield from self.ftl.flush()
            command.status = NvmeStatus.SUCCESS
        elif command.block_count <= 0 or command.opcode not in (
                NvmeOpcode.READ, NvmeOpcode.WRITE, NvmeOpcode.DSM):
            command.status = NvmeStatus.INVALID_FIELD
        elif command.slba + command.block_count > self.capacity_blocks:
            command.status = NvmeStatus.LBA_OUT_OF_RANGE
        else:
            bounce = bounce_base + command.slot * self._full_page
            yield from self._claim(command)
            if command.opcode is NvmeOpcode.READ:
                yield from self._read(command, bounce)
            elif command.opcode is NvmeOpcode.WRITE:
                yield from self._write(command, bounce)
            else:
                self._deallocate(command)
            del self._claims[command.cid]
            self._released.fire()
            command.status = NvmeStatus.SUCCESS

    def _claim(self, command: NvmeCommand) -> Generator:
        """Wait while an earlier in-flight command on one of this
        command's pages conflicts: any pair but two reads.  Two sub-page
        writes to one page would otherwise each merge into the old page
        and the later bind would drop the earlier write's blocks."""
        bpp = self.blocks_per_page
        first = command.slba // bpp
        last = (command.slba + command.block_count - 1) // bpp
        reading = command.opcode is NvmeOpcode.READ
        mine = self._claims[command.cid] = (first, last, reading)
        while any(f <= last and first <= l and not (reading and r)
                  for f, l, r in itertools.takewhile(
                      lambda held: held is not mine, self._claims.values())):
            yield from self._released.wait()

    def _spans(self, command: NvmeCommand):
        """Split an LBA range into per-page (lpn, first_block, nblocks)."""
        lba = command.slba
        remaining = command.block_count
        while remaining:
            lpn, offset = divmod(lba, self.blocks_per_page)
            nblocks = min(self.blocks_per_page - offset, remaining)
            yield lpn, offset, nblocks
            lba += nblocks
            remaining -= nblocks

    def _read(self, command: NvmeCommand, bounce: int) -> Generator:
        dram = self.ftl.controller.dram
        out = command.prp
        for lpn, offset, nblocks in self._spans(command):
            if self.ftl.map.lookup(lpn) is None:
                # Unwritten blocks read as zeroes, per NVMe deallocate
                # semantics.
                dram.write(out, np.zeros(nblocks * self.block_size, dtype=np.uint8))
            else:
                yield from self.ftl.read(lpn, bounce)
                chunk = dram.read(
                    bounce + offset * self.block_size, nblocks * self.block_size
                )
                dram.write(out, chunk)
            out += nblocks * self.block_size

    def _write(self, command: NvmeCommand, bounce: int) -> Generator:
        dram = self.ftl.controller.dram
        src = command.prp
        for lpn, offset, nblocks in self._spans(command):
            if nblocks < self.blocks_per_page:
                # Read-modify-write: fetch the page's current content
                # (if any), overlay the host blocks, program the merge.
                self.rmw_count += 1
                if self.ftl.map.lookup(lpn) is not None:
                    yield from self.ftl.read(lpn, bounce)
                else:
                    dram.write(
                        bounce, np.zeros(self.ftl.page_size, dtype=np.uint8)
                    )
            chunk = dram.read(src, nblocks * self.block_size)
            dram.write(bounce + offset * self.block_size, chunk)
            yield from self.ftl.write(lpn, bounce)
            src += nblocks * self.block_size

    def _deallocate(self, command: NvmeCommand) -> None:
        for lpn, offset, nblocks in self._spans(command):
            if offset == 0 and nblocks == self.blocks_per_page:
                self.ftl.trim(lpn)
            # Partial-page deallocations are advisory; ignoring them is
            # spec-compliant.
