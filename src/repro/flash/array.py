"""Flash array storage: blocks, pages, wear state, and page I/O.

The array is the persistent core of a LUN.  Pages are stored lazily
(only programmed pages allocate memory), wear is tracked per block, and
every page load runs through the error model so the ECC / read-retry
machinery upstream sees realistic corruption.

For throughput experiments where payload content is irrelevant, the
array can run with ``track_data=False``: reads then return a
deterministic synthetic pattern without per-page allocation, making
long Fig. 10/12 sweeps cheap while exercising the identical timing
paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.flash.cell import CellMode, profile_for
from repro.flash.errors import ErrorModel
from repro.onfi.geometry import Geometry, PhysicalAddress

ERASED_BYTE = 0xFF


class ProgramEraseError(RuntimeError):
    """Raised on illegal array usage (reprogram without erase, etc.)."""


@dataclass
class Block:
    """Erase-block state."""

    index: int
    erase_count: int = 0
    cell_mode: CellMode = CellMode.TLC
    optimal_retry_level: int = 0
    # Stored page images and OOB records are read-only ndarrays: a
    # media image shares them, and readers get copies.
    pages: dict[int, np.ndarray] = field(default_factory=dict)
    programmed: set[int] = field(default_factory=set)
    programmed_at_ns: dict[int, int] = field(default_factory=dict)
    worn_out: bool = False
    # Power-loss media state: spare-area records committed with each
    # page, pages caught mid-tPROG by a power cut (indeterminate cell
    # charge), and the interrupted-erase flag (cells read erased but
    # are unreliable until the erase is re-run).
    oob: dict[int, np.ndarray] = field(default_factory=dict)
    torn: set[int] = field(default_factory=set)
    erase_interrupted: bool = False

    def is_programmed(self, page: int) -> bool:
        return page in self.programmed


class FlashArray:
    """All blocks of one LUN plus the wear/error bookkeeping."""

    def __init__(
        self,
        geometry: Geometry,
        native_mode: CellMode = CellMode.TLC,
        error_model: Optional[ErrorModel] = None,
        endurance_cycles: int = 3000,
        track_data: bool = True,
        seed: int = 0,
        factory_bad_rate: float = 0.0,
    ):
        geometry.validate()
        if not 0.0 <= factory_bad_rate < 1.0:
            raise ValueError("factory_bad_rate must be in [0, 1)")
        self.geometry = geometry
        self.native_mode = native_mode
        self.error_model = error_model or ErrorModel(seed=seed)
        self.endurance_cycles = endurance_cycles
        self.track_data = track_data
        self._blocks: dict[int, Block] = {}
        self._pattern_cache: Optional[np.ndarray] = None
        # Factory bad blocks: shipped-defective erase blocks that the
        # manufacturer marks in the spare area.  Deterministic per seed.
        bad_count = int(geometry.blocks_per_lun * factory_bad_rate)
        if bad_count:
            rng = np.random.default_rng(seed ^ 0xBAD)
            chosen = rng.choice(geometry.blocks_per_lun, size=bad_count,
                                replace=False)
            self.factory_bad_blocks = {int(b) for b in chosen}
        else:
            self.factory_bad_blocks = set()
        self.reads = 0
        self.programs = 0
        self.erases = 0
        # Spare-area records staged by the FTL for the next program of
        # (block, page); attached atomically when the program commits.
        self._staged_oob: dict[tuple[int, int], np.ndarray] = {}
        # Power-cut freeze: once set, no array mutation whose *logical
        # end time* is at or past this nanosecond commits.  Operations
        # already in flight (begun before the cut) leave torn pages or
        # interrupted erases instead — identical under both fidelity
        # tiers, because the decision depends only on logical times.
        self.power_fail_ns: Optional[int] = None
        self.seed = seed

    # -- block access -----------------------------------------------------

    def block(self, index: int) -> Block:
        if not 0 <= index < self.geometry.blocks_per_lun:
            raise ProgramEraseError(f"block {index} out of range")
        existing = self._blocks.get(index)
        if existing is None:
            existing = Block(
                index=index,
                cell_mode=self.native_mode,
                optimal_retry_level=self.error_model.sample_optimal_retry_level(),
                worn_out=index in self.factory_bad_blocks,
            )
            self._blocks[index] = existing
        return existing

    def is_bad(self, index: int) -> bool:
        """Factory-marked or grown-bad (worn out) block."""
        return self.block(index).worn_out

    # -- operations ------------------------------------------------------

    def erase(
        self,
        block_index: int,
        cell_mode: Optional[CellMode] = None,
        now_ns: int = 0,
        begun_ns: Optional[int] = None,
    ) -> bool:
        """Erase a block, optionally re-dedicating it to ``cell_mode``.

        Returns True on success, False when the block is worn out (the
        LUN reports this as a status FAIL).  ``now_ns`` is the logical
        completion time and ``begun_ns`` the tBERS start: when a power
        cut intervenes, an erase begun before the cut leaves the block
        in the interrupted-erase state instead of completing.
        """
        block = self.block(block_index)
        if block.worn_out:
            return False
        freeze = self.power_fail_ns
        if freeze is not None and now_ns >= freeze:
            if begun_ns is not None and begun_ns < freeze:
                self.interrupt_erase(block_index)
            return True  # nothing past the cut is observable anyway
        block.pages.clear()
        block.programmed.clear()
        block.programmed_at_ns.clear()
        block.oob.clear()
        block.torn.clear()
        block.erase_interrupted = False
        self._staged_oob = {
            key: value for key, value in self._staged_oob.items()
            if key[0] != block_index
        }
        block.erase_count += 1
        if cell_mode is not None:
            block.cell_mode = cell_mode
        budget = self.endurance_cycles * profile_for(block.cell_mode).endurance_scale
        if block.erase_count >= budget:
            block.worn_out = True
        self.erases += 1
        return True

    def program(
        self,
        addr: PhysicalAddress,
        data: np.ndarray,
        now_ns: int = 0,
        cell_mode: Optional[CellMode] = None,
        begun_ns: Optional[int] = None,
    ) -> bool:
        """Program one full page.  NAND forbids in-place rewrites.

        ``begun_ns`` is the tPROG start time; a program caught by a
        power cut (committed at ``now_ns`` past the cut, begun before
        it) tears the page instead of committing it.
        """
        block = self.block(addr.block)
        if block.is_programmed(addr.page):
            raise ProgramEraseError(
                f"page {addr.describe()} already programmed (erase first)"
            )
        staged = self._staged_oob.pop((addr.block, addr.page), None)
        if block.worn_out:
            return False
        freeze = self.power_fail_ns
        if freeze is not None and now_ns >= freeze:
            if begun_ns is not None and begun_ns < freeze:
                self._tear(block, addr.page)
            return True  # the "success" is never observed: power is gone
        if cell_mode is not None:
            block.cell_mode = cell_mode
        full = self.geometry.full_page_size
        if self.track_data:
            page = np.full(full, ERASED_BYTE, dtype=np.uint8)
            n = min(len(data), full)
            page[:n] = np.asarray(data[:n], dtype=np.uint8)
            page.flags.writeable = False
            block.pages[addr.page] = page
        block.programmed.add(addr.page)
        block.programmed_at_ns[addr.page] = now_ns
        if staged is not None:
            block.oob[addr.page] = staged
        self.programs += 1
        return True

    # -- power-loss media state --------------------------------------------

    def stage_oob(self, block: int, page: int, spare: np.ndarray) -> None:
        """Stage the spare-area record for the next program of a page.

        The FTL stages this before issuing the program op; the array
        attaches it when (and only when) the program actually commits,
        so a torn or failed program never presents a valid record.
        The array keeps its own read-only copy.
        """
        record = np.array(spare, dtype=np.uint8)
        record.flags.writeable = False
        self._staged_oob[(block, page)] = record

    def read_oob(self, block: int, page: int) -> Optional[np.ndarray]:
        """The committed spare-area bytes of a page (None if absent).

        A torn page returns deterministic garbage that never decodes as
        a valid :class:`~repro.flash.oob.OobRecord`.
        """
        info = self.block(block)
        if page in info.torn:
            return self._torn_bytes(block, page, 64)
        return info.oob.get(page)

    def mark_torn(self, addr: PhysicalAddress) -> None:
        """Tear a page: a program was in flight when power died.

        The cells hold indeterminate charge — modeled as deterministic
        garbage content and an undecodable spare area.  The page counts
        as programmed (it is not erased, so it cannot be reprogrammed
        without an erase).
        """
        block = self.block(addr.block)
        if addr.page in block.programmed and addr.page not in block.torn:
            return  # already committed before the cut; nothing to tear
        self._tear(block, addr.page)

    def _tear(self, block: Block, page: int) -> None:
        block.programmed.add(page)
        block.torn.add(page)
        block.programmed_at_ns.setdefault(page, self.power_fail_ns or 0)
        block.oob.pop(page, None)
        if self.track_data:
            torn = self._torn_bytes(block.index, page,
                                    self.geometry.full_page_size)
            torn.flags.writeable = False
            block.pages[page] = torn

    def interrupt_erase(self, block_index: int) -> None:
        """Power died mid-tBERS: cells read erased but are unreliable.

        The erase count is *not* bumped (the cycle never completed);
        the SPOR mount re-erases such blocks before reuse.
        """
        block = self.block(block_index)
        block.pages.clear()
        block.programmed.clear()
        block.programmed_at_ns.clear()
        block.oob.clear()
        block.torn.clear()
        block.erase_interrupted = True

    def _torn_bytes(self, block: int, page: int, nbytes: int) -> np.ndarray:
        """Deterministic per-page garbage for torn cells."""
        rng = np.random.default_rng(
            (self.seed & 0xFFFF) ^ (block << 20) ^ (page << 4) ^ 0x70_51
        )
        return rng.integers(0, 256, size=nbytes, dtype=np.uint8)

    def set_power_fail(self, at_ns: Optional[int]) -> None:
        self.power_fail_ns = at_ns

    def media_image(self) -> dict:
        """The persistent media state (for crash/remount).

        Stored pages and OOB records are read-only, so the image shares
        them with the array instead of copying them; only the per-block
        containers are new, so a later erase or program of either side
        leaves the other intact."""
        blocks = {}
        for index, block in self._blocks.items():
            blocks[index] = {
                "erase_count": block.erase_count,
                "cell_mode": block.cell_mode,
                "optimal_retry_level": block.optimal_retry_level,
                "pages": dict(block.pages),
                "programmed": set(block.programmed),
                "programmed_at_ns": dict(block.programmed_at_ns),
                "worn_out": block.worn_out,
                "oob": dict(block.oob),
                "torn": set(block.torn),
                "erase_interrupted": block.erase_interrupted,
            }
        return {"blocks": blocks}

    def restore_media(self, image: dict) -> None:
        """Load a :meth:`media_image` into this (freshly built) array,
        sharing its read-only pages and OOB records."""
        self._blocks.clear()
        self._staged_oob.clear()
        self.power_fail_ns = None
        for index, state in image["blocks"].items():
            block = Block(
                index=index,
                erase_count=state["erase_count"],
                cell_mode=state["cell_mode"],
                optimal_retry_level=state["optimal_retry_level"],
                pages=dict(state["pages"]),
                programmed=set(state["programmed"]),
                programmed_at_ns=dict(state["programmed_at_ns"]),
                worn_out=state["worn_out"],
                oob=dict(state["oob"]),
                torn=set(state["torn"]),
                erase_interrupted=state["erase_interrupted"],
            )
            self._blocks[index] = block

    def load_page(
        self,
        addr: PhysicalAddress,
        now_ns: int = 0,
        read_retry_level: int = 0,
        cell_mode_override: Optional[CellMode] = None,
    ) -> np.ndarray:
        """Read a raw page with injected bit errors.

        ``read_retry_level`` is the controller-selected voltage step;
        error injection is minimized when it matches the block's
        sampled optimum.
        """
        block = self.block(addr.block)
        mode = cell_mode_override or block.cell_mode
        self.reads += 1
        if not block.is_programmed(addr.page):
            return self._erased_page()
        retention_ns = max(now_ns - block.programmed_at_ns.get(addr.page, 0), 0)
        rate = self.error_model.rber(
            mode=mode,
            pe_cycles=block.erase_count,
            retention_hours=retention_ns / 3.6e12,
            read_offset_distance=read_retry_level - block.optimal_retry_level,
        )
        data = self._page_bytes(block, addr.page).copy()
        self.error_model.inject(data, rate)
        return data

    def pristine_page(self, addr: PhysicalAddress) -> np.ndarray:
        """Oracle accessor: the stored bytes without error injection.

        The behavioural ECC engine (see :mod:`repro.ecc.bch`) compares
        received data against this to count true bit errors — the
        simulation stand-in for algebraic decoding.
        """
        block = self.block(addr.block)
        if not block.is_programmed(addr.page):
            return self._erased_page()
        return self._page_bytes(block, addr.page).copy()

    # -- capacity & wear reporting -----------------------------------------

    def usable_pages(self, block_index: int) -> int:
        """Pages usable in the block's current cell mode (pSLC shrinks)."""
        block = self.block(block_index)
        scale = profile_for(block.cell_mode).capacity_scale
        return max(int(self.geometry.pages_per_block * scale), 1)

    def wear_summary(self) -> dict[str, float]:
        counts = [b.erase_count for b in self._blocks.values()] or [0]
        return {
            "touched_blocks": float(len(self._blocks)),
            "max_erase": float(max(counts)),
            "mean_erase": float(sum(counts)) / len(counts),
        }

    # -- internals ---------------------------------------------------------

    def _page_bytes(self, block: Block, page: int) -> np.ndarray:
        if self.track_data:
            return block.pages[page]
        return self._pattern()

    def _erased_page(self) -> np.ndarray:
        return np.full(self.geometry.full_page_size, ERASED_BYTE, dtype=np.uint8)

    def _pattern(self) -> np.ndarray:
        if self._pattern_cache is None:
            size = self.geometry.full_page_size
            self._pattern_cache = (np.arange(size) % 251).astype(np.uint8)
        return self._pattern_cache
