"""Page-mapped FTL with load-aware placement, background GC, and wear
accounting.

The FTL drives any controller exposing the shared request surface
(``read_page`` / ``program_page`` / ``erase_block`` / ``wait``) — the
BABOL controller and both hardware baselines qualify — so the Fig. 12
comparison swaps storage controllers under an identical FTL, exactly as
the paper swaps them inside the Cosmos+.

Design choices (conventional, per the FTL surveys the paper cites):

* **Page mapping**: a flat LPN→PPN table (:class:`PageMapTable`).
* **Placement**: a host write goes to the LUN with the least
  outstanding die work — a per-LUN ledger of the nominal array time
  (tR / tPROG / tBERS) of every media op issued and not yet waited on —
  with ties going to the LUN a write rotor names, so a uniformly loaded
  array stripes consecutive writes exactly as a rotor would.  A LUN
  whose next write would wait for its collector (``LunBlocks.held``)
  takes a write only when no other candidate can.  A LUN
  already holding its share of valid data (its data blocks less the
  overprovisioning, in pages) takes only overwrites of LPNs it holds,
  so no LUN fills past the point where its GC can still make room.
* **Background GC**: a LUN's last free block is GC's reserve
  (:class:`LunBlocks` ``.spare``).  A write on a LUN below that starts
  its collector (one process per LUN at most) and goes on; one that
  would open the reserve waits until the collector frees another.  The
  collector reclaims victims (policy-pluggable) into its own open block
  until ``spare`` holds again.
* **GC in plane pairs**: on a controller with ``pairs_erases`` (a
  multi-plane die with the stock ERASE), the collector takes a
  partner with each victim — the policy's pick among the LUN's closed
  blocks on another plane, if moving its valid pages costs less die
  time than the tBERS it saves — moves both blocks' pages, and erases
  the two in one multi-plane ERASE, freeing or retiring each on its own
  status.
* **Admission classes**: every media op carries a ``priority`` class
  for the controller's per-LUN admission — host reads first, then host
  writes and persistence, then GC — and a waiting host read, or a host
  or meta-writer PROGRAM, suspends an erase of a higher class in flight
  on its die (see ``core/fastops.py`` and
  ``SoftwareEnvironment.preempt_erase``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.ftl.badblocks import (
    GrownBadBlockTable,
    REASON_ERASE_FAIL,
    REASON_FACTORY,
    REASON_PROGRAM_FAIL,
)
from repro.ftl.gc import GreedyPolicy, VictimPolicy
from repro.ftl.mapping import MapEntry, PageMapTable, ShardRouter
from repro.ftl.wear import WearTracker
from repro.onfi.geometry import PhysicalAddress
from repro.sim import Simulator
from repro.sim.sync import Trigger

#: The admission classes the FTL gives its media ops (lowest first).
HOST_READ = 0    # may suspend an erase on its die
HOST_WRITE = 1   # host programs; the meta writer's programs and erases
#                  (the programs may suspend a GC erase on their die)
BACKGROUND = 2   # GC and retirement relocations, GC erases


@dataclass
class FtlConfig:
    """FTL sizing and thresholds."""

    blocks_per_lun: int = 32          # physical blocks the FTL manages per LUN
    overprovision_blocks: int = 4     # per LUN, withheld from logical capacity
    gc_staging_base: int = 48 * 1024 * 1024  # DRAM region for GC moves
    # Power-loss protection (0 = off: the historical volatile FTL).
    # When on, the FTL reserves ``meta_blocks`` blocks on LUN 0 for
    # checkpoints + journal and stamps every data page's spare area.
    checkpoint_interval: int = 0      # checkpoint every N host writes
    journal_flush_records: int = 32   # flush the journal at this batch size
    meta_blocks: int = 2              # reserved checkpoint/journal blocks

    def validate(self) -> None:
        if self.blocks_per_lun <= self.overprovision_blocks:
            raise ValueError("need more blocks than overprovisioning")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if self.checkpoint_interval > 0:
            if self.meta_blocks < 2:
                raise ValueError("persistence needs >= 2 meta blocks "
                                 "(ping-pong checkpoint rotation)")
            if self.journal_flush_records < 1:
                raise ValueError("journal_flush_records must be >= 1")
            if self.overprovision_blocks <= self.meta_blocks:
                raise ValueError(
                    "persistence meta blocks must fit inside the "
                    "overprovisioning budget (overprovision_blocks > "
                    "meta_blocks)"
                )


@dataclass
class BlockInfo:
    """FTL-side state of one physical block."""

    lun: int
    block: int
    capacity: int
    write_ptr: int = 0
    valid: set = field(default_factory=set)
    closed_at_ns: int = 0
    inflight: int = 0  # pages allocated but not yet committed/validated
    retired: bool = False  # grown-bad: must never be a GC victim again

    @property
    def valid_count(self) -> int:
        return len(self.valid)

    @property
    def is_full(self) -> bool:
        return self.write_ptr >= self.capacity


#: Spare blocks a LUN keeps beyond its share of valid data: the reserve
#: only GC may open, plus GC's open block (the host's open block is full
#: whenever the host asks for the next one).
SPARE_BLOCKS = 2


@dataclass
class LunBlocks:
    """One LUN's blocks and the one rule over them, ``spare``."""

    free: deque = field(default_factory=deque)
    # The host's open blocks: pages alternate between ``active`` and
    # ``twin`` (a block on another plane), so consecutive programs on a
    # die can run as one multi-plane PROGRAM.
    active: Optional[BlockInfo] = None
    twin: Optional[BlockInfo] = None
    on_twin: bool = False
    gc: Optional[BlockInfo] = None  # GC relocates here, never the host
    closed: list = field(default_factory=list)

    @property
    def spare(self) -> bool:
        """The host may open a block: the last free one is GC's
        reserve.  Below this GC runs, and it stops once this holds."""
        return len(self.free) > 1

    @property
    def held(self) -> bool:
        """The LUN's next host write would open GC's reserve, so it
        waits for the collector: no open host block and no ``spare``."""
        return self.active is None and not self.spare

    def drop(self, info: BlockInfo) -> None:
        """Take a block out of its role (an active block's twin takes
        over)."""
        if self.active is info:
            self.active, self.twin = self.twin, None
        elif self.twin is info:
            self.twin = None
        elif self.gc is info:
            self.gc = None
        elif info in self.closed:
            self.closed.remove(info)


class FtlError(RuntimeError):
    """Raised on capacity exhaustion or misuse."""


class PageMappedFtl:
    """The translation layer."""

    def __init__(
        self,
        sim: Simulator,
        controller,
        config: Optional[FtlConfig] = None,
        victim_policy: Optional[VictimPolicy] = None,
    ):
        self.sim = sim
        self.controller = controller
        self.config = config or FtlConfig()
        self.config.validate()
        self.victim_policy = victim_policy or GreedyPolicy()

        geometry = controller.codec.geometry
        self.pages_per_block = geometry.pages_per_block
        self.page_size = geometry.page_size
        self.lun_count = len(controller.luns)
        # Host pages alternate between planes only for a controller
        # whose admission pairs queued programs (``pairs_programs``).
        self._planes = geometry.planes if getattr(
            controller, "pairs_programs", False) else 1
        # GC erases two victims on distinct planes in one tBERS only on
        # a controller whose dies take it (``pairs_erases``).
        self._erase_pair = controller.erase_pair if getattr(
            controller, "pairs_erases", False) else None

        self.wear = WearTracker()
        # Power-loss protection (attached below once the free lists
        # exist; ``None`` keeps the historical volatile behaviour).
        self.persist = None
        self._entry_seq: dict[int, int] = {}

        self._luns: list[LunBlocks] = []
        self._info: dict[tuple[int, int], BlockInfo] = {}
        self.bad_blocks = GrownBadBlockTable()
        for lun in range(self.lun_count):
            # Factory bad-block scan: defective blocks never enter the
            # rotation; the overprovisioning budget absorbs them.
            bad = {
                b for b in range(self.config.blocks_per_lun)
                if controller.luns[lun].array.is_bad(b)
            }
            usable = [b for b in range(self.config.blocks_per_lun) if b not in bad]
            for b in sorted(bad):
                self._retire_block(lun, b, REASON_FACTORY)
            self._luns.append(LunBlocks(free=deque(usable)))
        meta = self._reserve_meta() if self.config.checkpoint_interval > 0 \
            else ()

        # Placement state.  ``_pending[lun]``: nominal array time (ns)
        # of the LUN's media ops issued and not yet waited on (see
        # ``_media``).  ``_place`` credits it from the admission state
        # of the controller's software environment (``_env``; None on a
        # controller without one): one tPROG for a queued PROGRAM that
        # waits for a partner, and the part of the die's running op
        # already run, up to its nominal array time (``_op_cost``, by
        # task label).  ``_lun_valid[lun]``: the LUN's valid pages plus
        # the pages placed on it and not yet bound.  ``_share[lun]``: the
        # most ``_lun_valid`` may reach for a new LPN — sized from the
        # LUN's factory-good blocks, the shares sum to the logical
        # capacity (``_size_shares``).
        timing = controller.luns[0].profile.timing
        self._t_read = timing.t_read_ns
        self._t_prog = timing.t_prog_ns
        self._t_bers = timing.t_bers_ns
        self._pending = [0] * self.lun_count
        self._env = getattr(controller, "env", None)
        self._op_cost = {}
        if self._env is not None:
            from repro.core.ops import (
                erase_block_op,
                full_page_read_op,
                paired_erase_op,
                program_page_op,
                read_page_op,
            )

            self._op_cost = {
                full_page_read_op.__name__: self._t_read,
                read_page_op.__name__: self._t_read,
                program_page_op.__name__: self._t_prog,
                erase_block_op.__name__: self._t_bers,
                paired_erase_op.__name__: self._t_bers,
            }
        self._lun_valid = [0] * self.lun_count
        self._share = self._size_shares(len(meta))
        self.logical_pages = sum(self._share)
        self.map = PageMapTable(self.logical_pages)
        # ``_rings[r]``: the LUNs in rotor order starting at ``r``.
        self._rings = [
            tuple((r + i) % self.lun_count for i in range(self.lun_count))
            for r in range(self.lun_count)
        ]
        # Writes waiting for a LUN below its share, and their wake-up.
        self._room_waits = 0
        self._room = Trigger(sim)

        if meta:
            from repro.ftl.persist import PersistenceLayer

            self.persist = PersistenceLayer(self, meta, meta_lun=0)

        # Where placement starts looking, and where prefill puts pages.
        self._write_rotor = 0
        # LUNs with a collect in flight (the collector or level_wear).
        self._collecting: set[int] = set()
        # Fires when a collect frees a block or ends, and when a closed
        # block's last in-flight program lands.
        self._gc_done = Trigger(sim)
        self.host_reads = 0
        self.host_writes = 0
        self.gc_runs = 0
        self.gc_page_moves = 0
        self.gc_write_stalls = 0  # host writes that waited on the reserve
        self.program_fail_rewrites = 0
        self.writes_off_rotor = 0  # placed on a LUN other than the rotor's
        self.host_writes_by_lun = [0] * self.lun_count

    def _reserve_meta(self) -> list[int]:
        """Reserve the persistence meta region: the last ``meta_blocks``
        factory-good blocks of LUN 0 leave the data rotation, and the
        meta LUN's share shrinks by as many blocks (``_size_shares``),
        so the rest of the overprovisioning budget is untouched."""
        if not self.controller.luns[0].array.track_data:
            raise FtlError("persistence requires track_data=True "
                           "(checkpoints are read back from the arrays)")
        free0 = self._luns[0].free
        if len(free0) <= self.config.meta_blocks:
            raise FtlError(
                f"LUN 0 has only {len(free0)} good blocks; cannot reserve "
                f"{self.config.meta_blocks} for the meta region"
            )
        return sorted(free0.pop() for _ in range(self.config.meta_blocks))

    def _size_shares(self, meta_blocks: int) -> list[int]:
        """Each LUN's share of valid data, in pages, from its
        factory-good blocks (the array's ``factory_bad_blocks``, not the
        bad-block scan: a mount's scan also sees blocks that wore out
        during the run, and must size the shard as the run did).

        A LUN's share is its data blocks less the overprovisioning (less
        the meta region on LUN 0), as configured — unless factory
        defects leave it fewer than ``min(SPARE_BLOCKS,
        overprovision_blocks)`` spare blocks.  Then its
        share gives up the missing blocks and the LUNs with the most
        spare blocks above that floor take them on, one block at a
        time.  The shares sum to the configured logical capacity; it
        shrinks only by what no LUN's spare blocks can absorb.
        """
        config = self.config
        spare = config.overprovision_blocks
        floor = min(SPARE_BLOCKS, spare)
        managed = config.blocks_per_lun
        good = [managed - sum(b < managed for b in lun.array.factory_bad_blocks)
                for lun in self.controller.luns]
        good[0] -= meta_blocks
        share = [managed - spare for _ in good]
        share[0] -= meta_blocks
        deficit = 0
        for lun, blocks in enumerate(good):
            short = min(floor - (blocks - share[lun]), share[lun])
            if short > 0:
                share[lun] -= short
                deficit += short
        while deficit:
            roomiest = max(range(len(good)),
                           key=lambda lun: (good[lun] - share[lun], -lun))
            if good[roomiest] - share[roomiest] <= floor:
                break  # every LUN is at its floor: the capacity shrinks
            share[roomiest] += 1
            deficit -= 1
        if not any(share):
            raise FtlError(f"only {sum(good)} good blocks: none is left "
                           "for data once every LUN keeps its spare blocks")
        return [blocks * self.pages_per_block for blocks in share]

    # ------------------------------------------------------------------
    # Host-facing I/O (generators: drive from a simulation process)
    # ------------------------------------------------------------------

    def read(self, lpn: int, dram_address: int) -> Generator:
        """Read one logical page into DRAM; returns the map entry used."""
        entry = self.map.lookup(lpn)
        if entry is None:
            raise FtlError(f"read of unmapped LPN {lpn}")
        self.host_reads += 1
        # ``_media``'s three steps, inlined: a host read costs no more
        # Python calls than the bare controller round trip.
        lun = entry.lun
        pending = self._pending
        pending[lun] += self._t_read
        task = self.controller.read_page(lun, entry.block, entry.page,
                                         dram_address, priority=HOST_READ)
        yield from self.controller.wait(task)
        pending[lun] -= self._t_read
        return entry

    def write(self, lpn: int, dram_address: int, _seq: int = None) -> Generator:
        """Write one logical page from DRAM; returns the new map entry."""
        self.map._check_lpn(lpn)
        persist = self.persist
        seq = _seq
        if persist is not None and seq is None:
            # The version number is taken at *submission* order, before
            # any GC yield, so per-LPN sequence order equals the order
            # the host issued the writes in.
            seq = persist.next_seq()
        lun = self._place(lpn)
        while lun < 0:
            # Every LUN is at its share: a write or relocation in flight
            # frees a page somewhere when it lands.
            self._room_waits += 1
            yield from self._room.wait()
            self._room_waits -= 1
            lun = self._place(lpn)
        yield from self._admit(lun)
        info = self._host_block(lun)
        page = info.write_ptr
        info.write_ptr += 1
        info.inflight += 1
        if info.is_full:
            # Rotate at *allocation* time: concurrent writers (the HIC
            # runs several workers) must never be handed page indexes
            # beyond the block.
            self._close(info)
        if persist is not None:
            from repro.flash.oob import KIND_HOST

            persist.stage_data_oob(lun, info.block, page, KIND_HOST, lpn, seq)
        ok = yield from self._media(self._t_prog, self.controller.program_page,
                                    lun, info.block, page, dram_address)
        if not ok:
            # Grown bad block: retire it (relocating its survivors) and
            # retry the host write on a fresh block.
            info.inflight -= 1
            self._release(lun)
            yield from self._retire(info)
            entry = yield from self.write(lpn, dram_address, _seq=seq)
            self.program_fail_rewrites += 1
            return entry
        entry = MapEntry(lun=lun, block=info.block, page=page)
        if self._bind_versioned(lpn, entry, seq):
            info.valid.add(page)
        else:
            self._release(lun)
        info.inflight -= 1
        if not info.inflight and info.write_ptr == info.capacity:
            # A closed block just became eligible as a victim.
            self._gc_done.fire()
        self.host_writes += 1
        self.host_writes_by_lun[lun] += 1
        if persist is not None:
            persist.after_host_write()
        return entry

    def _place(self, lpn: int) -> int:
        """Choose the LUN for a host write of ``lpn`` and count the page
        on it; -1 when every LUN is at its share.

        An unheld candidate beats a ``held`` one (``LunBlocks.held``: the
        write would wait in ``_admit`` for the LUN's collector, a wait no
        ledger entry shows).  Among candidates alike in that, the one
        with the least outstanding die work wins; ties go to the first
        in rotor order.  A LUN's work is its ledger entry less its
        credits (see ``__init__``): one tPROG while an odd number of
        full-page PROGRAMs wait in its admission queue (one waits for a
        partner, and admission runs the new page with it in one tPROG),
        and its running op's elapsed time, capped at that op's nominal
        array time.  A LUN at its share is a candidate only for an
        overwrite of an LPN it already holds, held or not.
        """
        rotor = self._write_rotor % self.lun_count
        self._write_rotor += 1
        pending = self._pending
        credit = [0] * self.lun_count
        env = self._env
        if env is not None:
            t_prog = self._t_prog
            for task in env._admission_queue:
                if task.pair is not None:
                    lun = task.lun_position
                    credit[lun] = t_prog - credit[lun]
            now = self.sim.now
            cost = self._op_cost
            running = env._running
            for lun in running:
                task = running[lun]
                if task.label in cost:
                    ran = now - task.admitted_at
                    cap = cost[task.label]
                    credit[lun] += ran if ran < cap else cap
        count = self._lun_valid
        share = self._share
        luns = self._luns
        best = -1
        best_held = False
        holder = None
        for lun in self._rings[rotor]:
            if count[lun] >= share[lun]:
                if holder is None:
                    entry = self.map._forward.get(lpn)
                    holder = entry.lun if entry is not None else -1
                if lun != holder:
                    continue
            held = luns[lun].active is None and luns[lun].held
            if best >= 0:
                if held != best_held:
                    if held:
                        continue
                elif pending[lun] - credit[lun] \
                        >= pending[best] - credit[best]:
                    continue
            best = lun
            best_held = held
        if best >= 0:
            count[best] += 1
            if best != rotor:
                self.writes_off_rotor += 1
        return best

    def _release(self, lun: int) -> None:
        """One page stops counting toward ``lun``'s share (invalidated,
        superseded, or its program failed); a write waiting for room
        may try again."""
        self._lun_valid[lun] -= 1
        if self._room_waits:
            self._room.fire()

    def _media(self, cost: int, issue, lun: int, *args,
               priority: int = HOST_WRITE) -> Generator:
        """Issue one media op on ``lun`` in admission class ``priority``
        and wait for it, keeping the LUN's work ledger: ``cost`` (the
        op's nominal array time) is outstanding from issue until the
        wait returns.  Every media op of the FTL and its meta writer
        goes through here, except the host read, which inlines these
        steps."""
        pending = self._pending
        pending[lun] += cost
        ok = yield from self.controller.wait(
            issue(lun, *args, priority=priority))
        pending[lun] -= cost
        return ok

    def _bind_versioned(self, lpn: int, entry: MapEntry, seq) -> bool:
        """Bind unless a newer version of the LPN already landed.

        With persistence off this is exactly the historical bind.  With
        it on, concurrent writers (and GC relocations, which reuse the
        original write's sequence number) may complete out of order;
        the sequence number decides, and a superseded program's page is
        simply left invalid for GC to reclaim.
        """
        persist = self.persist
        if persist is None:
            old = self.map.bind(lpn, entry)
            if old is not None:
                self._invalidate(old)
            return True
        current = self._entry_seq.get(lpn)
        if current is not None and current > seq:
            return False  # a newer version won the race
        self._entry_seq[lpn] = seq
        old = self.map.bind(lpn, entry)
        if old is not None:
            self._invalidate(old)
        persist.note_bind(lpn, entry, seq)
        return True

    def _rebind(self, lpn: int, source: MapEntry, entry: MapEntry,
                seq) -> bool:
        """Bind a relocated copy, unless a host write or trim superseded
        the source while the relocation's program ran (without
        persistence there is no sequence number to say so)."""
        if self.map.owner_of(source) != lpn:
            return False
        return self._bind_versioned(lpn, entry, seq)

    def trim(self, lpn: int) -> None:
        """Discard a logical page (no media work until GC)."""
        old = self.map.unbind(lpn)
        if old is not None:
            self._invalidate(old)
        persist = self.persist
        if persist is not None:
            # Tombstone: the trim gets its own sequence number so the
            # mount's OOB scan cannot resurrect an older version.
            seq = persist.next_seq()
            self._entry_seq[lpn] = seq
            persist.note_trim(lpn, seq)

    # ------------------------------------------------------------------
    # Prefill (zero-simulated-time initialization for experiments)
    # ------------------------------------------------------------------

    def prefill(self, logical_pages: int, fill_byte: int = 0x5A) -> None:
        """Populate the first ``logical_pages`` LPNs directly in the
        arrays (the paper 'initialized the SSDs with data' before the
        fio runs; replaying that fill in simulated time would add
        nothing)."""
        import numpy as np

        if logical_pages > self.logical_pages:
            raise FtlError("prefill exceeds logical capacity")
        persist = self.persist
        payload = np.full(64, fill_byte, dtype=np.uint8)  # token content
        count = self._lun_valid
        share = self._share
        for lpn in range(logical_pages):
            # The rotor's order, passing over a LUN at its share (only a
            # persistent shard filled past its meta LUN's share meets
            # one; every other image is the plain rotor's).
            for lun in self._rings[self._write_rotor % self.lun_count]:
                self._write_rotor += 1
                if count[lun] < share[lun]:
                    break
            else:
                raise FtlError("prefill: every LUN holds its share")
            info = self._active_block(lun)
            page = info.write_ptr
            info.write_ptr += 1
            if persist is not None:
                from repro.flash.oob import KIND_HOST

                seq = persist.next_seq()
                self._entry_seq[lpn] = seq
                persist.stage_data_oob(lun, info.block, page,
                                       KIND_HOST, lpn, seq)
            self.controller.luns[lun].array.program(
                PhysicalAddress(block=info.block, page=page),
                payload,
                now_ns=self.sim.now,
            )
            self.map.bind(lpn, MapEntry(lun=lun, block=info.block, page=page))
            info.valid.add(page)
            count[lun] += 1
            if info.is_full:
                self._close(info)
        if persist is not None:
            # Anchor the prefilled state so a crash before the first
            # periodic checkpoint still mounts.
            persist.write_checkpoint_offline(self.sim.now)

    # ------------------------------------------------------------------
    # Block management
    # ------------------------------------------------------------------

    def _active_block(self, lun: int) -> BlockInfo:
        blocks = self._luns[lun]
        if blocks.active is None:
            blocks.active = self._open_block(lun)
        return blocks.active

    def _host_block(self, lun: int) -> BlockInfo:
        """The open block the LUN's next host page goes to.  Pages
        alternate between the active block and its twin on another
        plane; the twin opens only while the LUN has a ``spare`` block,
        else the active block takes the page.  Prefill fills the active
        block alone."""
        blocks = self._luns[lun]
        if blocks.on_twin:
            blocks.on_twin = False
            twin = blocks.twin
            if twin is None and blocks.active is not None:
                twin = blocks.twin = self._open_beside(
                    lun, blocks.active.block)
            if twin is not None:
                return twin
        elif self._planes > 1:
            blocks.on_twin = True
        return self._active_block(lun)

    def _open_beside(self, lun: int, block: int) -> Optional[BlockInfo]:
        """Open the first free block on another plane than ``block``,
        if the LUN has a ``spare`` block; None otherwise."""
        blocks = self._luns[lun]
        if not blocks.spare:
            return None
        free = blocks.free
        plane = self._plane(block)
        for other in free:
            if self._plane(other) != plane:
                free.remove(other)
                return self._block_info(lun, other)
        return None

    def _plane(self, block: int) -> int:
        return self.controller.codec.plane_of(PhysicalAddress(block, 0))

    def _open_block(self, lun: int) -> BlockInfo:
        free = self._luns[lun].free
        if not free:
            raise FtlError(f"LUN {lun} out of free blocks (GC failed?)")
        return self._block_info(lun, free.popleft())

    def _block_info(self, lun: int, block: int) -> BlockInfo:
        """The FTL-side state of a block leaving the free pool."""
        info = self._info.get((lun, block))
        if info is None or info.write_ptr:
            info = BlockInfo(lun=lun, block=block, capacity=self.pages_per_block)
            self._info[(lun, block)] = info
        return info

    def _close(self, info: BlockInfo) -> None:
        """Close a full open block (an active block's twin takes over)."""
        blocks = self._luns[info.lun]
        blocks.drop(info)
        info.closed_at_ns = self.sim.now
        blocks.closed.append(info)

    def _invalidate(self, entry: MapEntry) -> None:
        info = self._info.get((entry.lun, entry.block))
        if info is not None and entry.page in info.valid:
            info.valid.remove(entry.page)
            self._release(entry.lun)

    # ------------------------------------------------------------------
    # Garbage collection (one background collector per LUN)
    # ------------------------------------------------------------------

    def _admit(self, lun: int) -> Generator:
        """Start the LUN's collector unless it has a ``spare`` block, and
        hold a write on a ``held`` LUN (one that would open its last
        free block) until the collector frees another — unless nothing
        on the LUN can become reclaimable, where the write takes the
        block (or raises).  ``_place`` sends a write here only when no
        unheld LUN could take it, so ``gc_write_stalls`` counts only
        writes with no unheld candidate."""
        blocks = self._luns[lun]
        if blocks.spare:
            return
        collecting = self._start_collector(lun)
        if not blocks.held:
            return
        if not (collecting or self._draining(lun)):
            return
        self.gc_write_stalls += 1
        while True:
            yield from self._gc_done.wait()
            if not blocks.held:
                return
            if not (self._start_collector(lun) or self._draining(lun)):
                return

    def _draining(self, lun: int) -> bool:
        """A closed block still has programs in flight (it may become a
        victim once they land)."""
        return any(info.inflight for info in self._luns[lun].closed)

    def _start_collector(self, lun: int) -> bool:
        """Spawn the LUN's collector on a claimed victim unless a collect
        is already in flight; False when there is nothing to collect."""
        if lun in self._collecting:
            return True
        victim = self._claim_victim(lun)
        if victim is None:
            return False
        self._collecting.add(lun)
        self.sim.spawn(self._collector(victim), name=f"gc-lun{lun}")
        return True

    def _claim_victim(self, lun: int) -> Optional[BlockInfo]:
        """Take the policy's victim out of the closed list — before any
        yield, so nothing else (a retire, level_wear) can take it — if
        its valid pages have somewhere to go."""
        closed = self._luns[lun].closed
        victim = self.victim_policy.select(closed, self.sim.now)
        if victim is None or not self._has_room(victim):
            return None
        closed.remove(victim)
        return victim

    def _claim_partner(self, victim: BlockInfo) -> Optional[BlockInfo]:
        """Take a second block for ``victim``'s erase, only on a
        controller with ``pairs_erases``.  On the meta LUN, the
        persistence ring's stale block comes first when it sits on
        another plane (``PersistenceLayer.stale_block``): returned as a
        block with nothing to relocate, it rides the victim's erase (the
        collect claims it then, ``PersistenceLayer.start_ride``), so the
        ring's erase costs no tBERS on the flush path.  Else the
        second victim out of the closed list: the policy's pick among the
        LUN's closed blocks on another plane, only if moving its valid
        pages costs less die time than the tBERS the shared erase saves,
        and only if both victims' pages fit."""
        if self._erase_pair is None:
            return None
        lun = victim.lun
        plane = self._plane(victim.block)
        persist = self.persist
        if persist is not None and lun == persist.meta_lun:
            stale = persist.stale_block()
            if stale is not None and self._plane(stale) != plane:
                return BlockInfo(lun=lun, block=stale,
                                 capacity=self.pages_per_block)
        closed = self._luns[lun].closed
        partner = self.victim_policy.select(
            [info for info in closed if self._plane(info.block) != plane],
            self.sim.now)
        if partner is None or partner.valid_count * (
                self._t_read + self._t_prog) >= self._t_bers \
                or not self._has_room(victim, partner):
            return None
        closed.remove(partner)
        return partner

    def _has_room(self, victim: BlockInfo,
                  partner: Optional[BlockInfo] = None) -> bool:
        """GC's open block, plus one free block if any is left (even the
        reserve), holds the victim's valid pages (and its partner's)."""
        blocks = self._luns[victim.lun]
        dest = blocks.gc
        room = dest.capacity - dest.write_ptr if dest is not None else 0
        if blocks.free:
            room += self.pages_per_block
        pages = victim.valid_count
        if partner is not None:
            pages += partner.valid_count
        return pages <= room

    def _collector(self, victim: BlockInfo) -> Generator:
        """Collect greedy victims, in plane pairs where a partner is
        worth it, until the LUN has a ``spare`` block again."""
        lun = victim.lun
        try:
            while victim is not None:
                yield from self._collect(victim, self._claim_partner(victim))
                if self._luns[lun].spare:
                    break
                victim = self._claim_victim(lun)
        finally:
            self._collecting.discard(lun)
            self._gc_done.fire()

    def _gc_page(self, lun: int) -> tuple[BlockInfo, int]:
        """Allocate the next page of the LUN's GC destination block."""
        blocks = self._luns[lun]
        dest = blocks.gc
        if dest is None:
            dest = blocks.gc = self._open_block(lun)
        page = dest.write_ptr
        dest.write_ptr += 1
        dest.inflight += 1
        self._lun_valid[lun] += 1
        if dest.is_full:
            self._close(dest)
        return dest, page

    def _gc_staging(self, lun: int, block: int) -> int:
        """Per-victim staging buffer, growing *down* from the staging
        base (meta staging owns the space above it).  A queue-depth
        host runs several GC collects at once — relocations sharing one
        buffer write each other's bytes."""
        full = self.controller.codec.geometry.full_page_size
        slot = 1 + lun * self.config.blocks_per_lun + block
        return self.config.gc_staging_base - slot * full

    def _collect(self, victim: BlockInfo,
                 partner: Optional[BlockInfo] = None) -> Generator:
        """Move the victim's valid pages, then erase it — with a partner
        on another plane, move both blocks' pages, then erase the two
        in one multi-plane ERASE, each freed or retired on its own
        status.  A partner that is the meta ring's ride is only erased,
        and only if it is still stale then; whatever its status, the
        ring's rotation checks the block."""
        lun = victim.lun
        persist = self.persist
        ride = partner is not None and persist is not None \
            and lun == persist.meta_lun and partner.block in persist.meta_blocks
        victims = (victim,) if partner is None or ride else (victim, partner)
        self.gc_runs += len(victims)
        for info in victims:
            if not (yield from self._relocate(info)):
                # End of life: nowhere left to relocate to.  The victims
                # keep their other pages and go back to the closed list;
                # a host write needing a block raises.
                self._luns[lun].closed.extend(victims)
                return
        for info in victims:
            self._drop_valid(info)
        if ride and not persist.start_ride(partner.block):
            partner = None  # the ring rotated onto it meanwhile
        if partner is None:
            ok = yield from self._media(
                self._t_bers, self.controller.erase_block, lun, victim.block,
                priority=BACKGROUND)
            passed = (ok,)
        else:
            passed = yield from self._media(
                self._t_bers, self._erase_pair, lun,
                (victim.block, partner.block), priority=BACKGROUND)
            passed = passed or (False, False)  # the op itself failed
            if ride:
                persist.end_ride(passed[1])
                passed = passed[:1]
        for info, ok in zip(victims, passed):
            self._info.pop((lun, info.block), None)
            if not ok:
                # The block wore out: retire it; the pool shrinks into
                # the overprovisioning budget.
                self._retire_block(lun, info.block, REASON_ERASE_FAIL)
                continue
            self.wear.record_erase(lun, info.block)
            self._luns[lun].free.append(info.block)
            if persist is not None:
                persist.note_erase(lun, info.block)
        if any(passed):
            self._gc_done.fire()  # a write may be waiting on the reserve
        if persist is not None:
            # An erase or retirement starts the journal writer at once:
            # the journal must not lag far behind a block being reused.
            persist.maybe_flush()

    def _relocate(self, victim: BlockInfo) -> Generator:
        """Move the victim's valid pages into GC's open block; False at
        end of life (no block left to move a page to)."""
        lun = victim.lun
        blocks = self._luns[lun]
        staging = self._gc_staging(lun, victim.block)
        persist = self.persist
        for page in sorted(victim.valid):
            source = MapEntry(lun=lun, block=victim.block, page=page)
            lpn = self.map.owner_of(source)
            if lpn is None:  # raced with a trim; nothing to preserve
                continue
            yield from self._media(self._t_read, self.controller.read_page,
                                   lun, victim.block, page, staging,
                                   priority=BACKGROUND)
            if self.map.owner_of(source) != lpn:
                continue  # a host write/trim superseded it mid-read
            seq = self._entry_seq.get(lpn, 0)
            while True:
                if blocks.gc is None and not blocks.free:
                    return False
                dest, dest_page = self._gc_page(lun)
                if persist is not None:
                    from repro.flash.oob import KIND_GC

                    # A relocation is the *same* logical version: it
                    # keeps the original write's sequence number so the
                    # mount can never prefer a stale copy over a newer
                    # host write.
                    persist.stage_data_oob(lun, dest.block, dest_page,
                                           KIND_GC, lpn, seq)
                ok = yield from self._media(self._t_prog,
                                            self.controller.program_page,
                                            lun, dest.block, dest_page,
                                            staging, priority=BACKGROUND)
                if ok:
                    break
                # The destination went bad: retire it (moving what it
                # holds) and relocate the page again, as a host write
                # does on a failed program — unless no free block is
                # left to move its pages to (end of life, as above).
                dest.inflight -= 1
                self._release(lun)
                if not blocks.free:
                    if blocks.gc is dest:
                        self._close(dest)
                    return False
                yield from self._retire(dest)
            entry = MapEntry(lun=lun, block=dest.block, page=dest_page)
            if self._rebind(lpn, source, entry, seq):
                dest.valid.add(dest_page)
            else:
                self._release(lun)
            dest.inflight -= 1
            self.gc_page_moves += 1
        return True

    def _retire(self, victim: BlockInfo) -> Generator:
        """Permanently remove a grown-bad block from the rotation,
        relocating its valid pages as GC does.  A block whose in-flight
        programs fail together is retired once, by the first."""
        if victim.retired:
            return
        victim.retired = True
        lun = victim.lun
        self._luns[lun].drop(victim)
        if not (yield from self._relocate(victim)):
            raise FtlError(f"LUN {lun} out of free blocks retiring "
                           f"block {victim.block}")
        self._drop_valid(victim)
        self._info.pop((lun, victim.block), None)
        self._retire_block(lun, victim.block, REASON_PROGRAM_FAIL)
        if self.persist is not None:
            self.persist.maybe_flush()

    def _drop_valid(self, victim: BlockInfo) -> None:
        """Forget a reclaimed block's leftover valid pages (none whose
        LPN still maps here: those were moved or superseded)."""
        if victim.valid:
            self._lun_valid[victim.lun] -= len(victim.valid)
            victim.valid.clear()

    def _retire_block(self, lun: int, block: int, reason: str) -> None:
        """Journal a retirement and drop the block from wear tracking
        (a dead block must not skew the leveling statistics)."""
        pe = self.wear.erase_count(lun, block)
        if not pe:
            pe = self.controller.luns[lun].array.block(block).erase_count
        self.bad_blocks.retire(self.sim.now, lun, block, reason, pe_cycles=pe)
        self.wear.counts.pop((lun, block), None)
        info = self._info.get((lun, block))
        if info is not None:
            info.retired = True
        if self.persist is not None and reason != REASON_FACTORY:
            self.persist.note_retire(lun, block, reason, pe, self.sim.now)

    @property
    def retired_blocks(self) -> list[tuple[int, int]]:
        """Every retired ``(lun, block)``, in journal order."""
        return self.bad_blocks.blocks()

    # ------------------------------------------------------------------
    # Durability barrier
    # ------------------------------------------------------------------

    def flush(self) -> Generator:
        """Host FLUSH: return once every trim, erase and retirement
        noted before the call is on media (group commit; see
        ``persist.flush``)."""
        if self.persist is not None:
            yield from self.persist.flush()

    # ------------------------------------------------------------------
    # Static wear leveling
    # ------------------------------------------------------------------

    def level_wear(self, threshold: float = 2.0) -> Generator:
        """Static wear leveling pass.

        When the erase-count imbalance exceeds ``threshold``, the
        coldest closed block (least-worn, holding the stalest data) is
        forcibly relocated and erased so it rejoins the rotation —
        otherwise cold data pins fresh blocks forever while hot blocks
        cycle.  Returns the number of blocks leveled.
        """
        leveled = 0
        if not self.wear.should_level(threshold):
            return leveled
            yield  # pragma: no cover - generator marker
        coldest = self.wear.coldest_block()
        if coldest is None:
            return leveled
        lun, block = coldest
        victim = self._info.get((lun, block))
        closed = self._luns[lun].closed
        if victim is None or victim not in closed or victim.inflight:
            return leveled
        if lun in self._collecting or not self._has_room(victim):
            return leveled  # one collect per LUN, and only one that fits
        closed.remove(victim)
        self._collecting.add(lun)
        try:
            yield from self._collect(victim)
            leveled = 1
        finally:
            self._collecting.discard(lun)
            self._gc_done.fire()
        return leveled

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Property-test hook for placement: each LUN's count equals a
        recount of its blocks' valid and in-flight pages, and no LUN
        holds more than its share.  Call it between commands (a write
        waiting on GC is counted before its block shows it)."""
        recount = self._recount()
        if recount != self._lun_valid:
            raise AssertionError(
                f"LUN counts {self._lun_valid} != recount {recount}")
        for lun, (count, share) in enumerate(zip(recount, self._share)):
            if count > share:
                raise AssertionError(
                    f"LUN {lun} holds {count} pages, over its share of "
                    f"{share}")

    def _recount(self) -> list[int]:
        """Each LUN's valid plus in-flight pages, counted from its blocks."""
        counts = [0] * self.lun_count
        for info in self._info.values():
            counts[info.lun] += len(info.valid) + info.inflight
        return counts

    @property
    def write_amplification(self) -> float:
        if self.host_writes == 0:
            return 1.0
        return (self.host_writes + self.gc_page_moves) / self.host_writes

    def describe(self) -> str:
        return (
            f"FTL[{self.victim_policy.name}] {self.lun_count} LUNs, "
            f"{self.map.mapped_count}/{self.logical_pages} mapped, "
            f"WA={self.write_amplification:.2f}"
        )


class ShardedFtl:
    """Channel-striped FTL: one :class:`PageMappedFtl` shard per channel.

    The scale-out translation layer.  Each attached controller owns one
    NAND channel (its own bus, executor, runtime, and DRAM); a
    :class:`~repro.ftl.mapping.ShardRouter` stripes global LPNs
    round-robin across the shards so sequential streams occupy every
    channel at once.  Shards never share physical state — GC, wear, and
    bad-block bookkeeping stay channel-local — and this facade
    aggregates their health counters into one array-wide view.

    The host-facing surface mirrors :class:`PageMappedFtl` (``read`` /
    ``write`` / ``trim`` / ``prefill`` generators plus the stats
    properties), so workload drivers run unchanged against either.
    """

    def __init__(
        self,
        sim: Simulator,
        controllers,
        config: Optional[FtlConfig] = None,
        victim_policy_factory=None,
    ):
        if not controllers:
            raise FtlError("ShardedFtl needs at least one channel controller")
        self.sim = sim
        self.controllers = list(controllers)
        self.config = config or FtlConfig()
        self.shards: list[PageMappedFtl] = [
            PageMappedFtl(
                sim,
                controller,
                self.config,
                victim_policy=victim_policy_factory() if victim_policy_factory else None,
            )
            for controller in self.controllers
        ]
        self.router = ShardRouter(len(self.shards))
        # Uniform striping: capacity is bounded by the smallest shard so
        # every global LPN routes to a valid shard-local LPN.
        per_shard = min(shard.logical_pages for shard in self.shards)
        self.logical_pages = per_shard * len(self.shards)
        self.page_size = self.shards[0].page_size

    # -- host-facing I/O (generators) ----------------------------------

    def read(self, lpn: int, dram_address: int) -> Generator:
        """Read one global LPN into its channel's DRAM at ``dram_address``."""
        shard, local = self._route(lpn)
        entry = yield from self.shards[shard].read(local, dram_address)
        return entry

    def write(self, lpn: int, dram_address: int) -> Generator:
        """Write one global LPN from its channel's DRAM at ``dram_address``."""
        shard, local = self._route(lpn)
        entry = yield from self.shards[shard].write(local, dram_address)
        return entry

    def trim(self, lpn: int) -> None:
        shard, local = self._route(lpn)
        self.shards[shard].trim(local)

    def flush(self) -> Generator:
        """Durability barrier over the array.  Every shard's mark is
        taken at the same instant, so their journal writers run in
        parallel and the FLUSH costs the slowest shard, not the sum."""
        marks = [
            (shard.persist, shard.persist.mark())
            for shard in self.shards if shard.persist is not None
        ]
        for persist, mark in marks:
            yield from persist.wait_durable(mark)

    def is_mapped(self, lpn: int) -> bool:
        shard, local = self._route(lpn)
        return self.shards[shard].map.lookup(local) is not None

    def shard_of(self, lpn: int) -> int:
        """The channel index a global LPN stripes onto."""
        return self._route(lpn)[0]

    def prefill(self, logical_pages: int, fill_byte: int = 0x5A) -> None:
        """Populate the first ``logical_pages`` global LPNs.

        Globals ``i, i+S, i+2S, ...`` are shard ``i``'s locals
        ``0, 1, 2, ...`` — consecutive — so the per-shard prefill path
        applies unchanged."""
        if logical_pages > self.logical_pages:
            raise FtlError("prefill exceeds logical capacity")
        for index, shard in enumerate(self.shards):
            count = self.router.local_capacity(index, logical_pages)
            if count:
                shard.prefill(count, fill_byte=fill_byte)

    def _route(self, lpn: int) -> tuple[int, int]:
        if not 0 <= lpn < self.logical_pages:
            raise FtlError(
                f"LPN {lpn} out of range [0, {self.logical_pages})"
            )
        return self.router.route(lpn)

    # -- aggregated topology and health view ---------------------------

    @property
    def channel_count(self) -> int:
        return len(self.shards)

    @property
    def lun_count(self) -> int:
        return sum(shard.lun_count for shard in self.shards)

    @property
    def mapped_count(self) -> int:
        return sum(shard.map.mapped_count for shard in self.shards)

    @property
    def host_reads(self) -> int:
        return sum(shard.host_reads for shard in self.shards)

    @property
    def host_writes(self) -> int:
        return sum(shard.host_writes for shard in self.shards)

    @property
    def gc_runs(self) -> int:
        return sum(shard.gc_runs for shard in self.shards)

    @property
    def gc_page_moves(self) -> int:
        return sum(shard.gc_page_moves for shard in self.shards)

    @property
    def gc_write_stalls(self) -> int:
        return sum(shard.gc_write_stalls for shard in self.shards)

    @property
    def program_fail_rewrites(self) -> int:
        return sum(shard.program_fail_rewrites for shard in self.shards)

    @property
    def checkpoints_written(self) -> int:
        return sum(
            shard.persist.checkpoints_written
            for shard in self.shards if shard.persist is not None
        )

    @property
    def journal_pages_written(self) -> int:
        return sum(
            shard.persist.journal_pages_written
            for shard in self.shards if shard.persist is not None
        )

    @property
    def journal_records_written(self) -> int:
        return sum(
            shard.persist.journal_records_written
            for shard in self.shards if shard.persist is not None
        )

    @property
    def write_amplification(self) -> float:
        writes = self.host_writes
        if writes == 0:
            return 1.0
        return (writes + self.gc_page_moves) / writes

    @property
    def retired_blocks(self) -> list[tuple[int, int, int]]:
        """Every retirement as ``(channel, lun, block)``."""
        return [
            (channel, lun, block)
            for channel, shard in enumerate(self.shards)
            for lun, block in shard.retired_blocks
        ]

    def bad_block_records(self) -> list:
        """All shards' grown-bad-block journal entries, by channel."""
        return [
            (channel, record)
            for channel, shard in enumerate(self.shards)
            for record in shard.bad_blocks.journal
        ]

    def health_summary(self) -> dict:
        """Array-wide health counters (sorted keys, JSON-ready)."""
        return {
            "channels": self.channel_count,
            "gc_page_moves": self.gc_page_moves,
            "gc_runs": self.gc_runs,
            "host_reads": self.host_reads,
            "host_writes": self.host_writes,
            "luns": self.lun_count,
            "mapped_pages": self.mapped_count,
            "program_fail_rewrites": self.program_fail_rewrites,
            "retired_blocks": len(self.retired_blocks),
            "write_amplification": round(self.write_amplification, 4),
        }

    def describe(self) -> str:
        return (
            f"ShardedFtl x{self.channel_count} channels "
            f"({self.lun_count} LUNs), "
            f"{self.mapped_count}/{self.logical_pages} mapped, "
            f"WA={self.write_amplification:.2f}"
        )
