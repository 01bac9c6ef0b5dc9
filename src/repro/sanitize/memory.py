"""Memory/DMA sanitizer — SAN3xx: DRAM staging-buffer hazards.

Keeps an ASan-style shadow of the DRAM staging buffer: a byte-granular
"written" bitmap plus the allocator's live/free interval sets.  Shadow
state is only allocated when the sanitizer attaches, so an unsanitized
simulation carries a single ``None`` attribute on the buffer.

* **SAN301** — read-before-write: a DMA fetch (or explicit ``read``)
  touches bytes never written this run — the flash would be programmed
  with whatever junk the staging buffer held.
* **SAN302** — allocator misuse: double-free of a region, free of a
  region that was never allocated, or a free whose size disagrees with
  the allocation.
* **SAN303** — transfer/allocation mismatch: a DMA transfer moves a
  different byte count than its descriptor window was minted for
  (silent truncation on deliver, short bursts on fetch).
"""

from __future__ import annotations

import numpy as np

from repro.dram.buffer import zeroed_region
from repro.sanitize.base import Sanitizer


class MemorySanitizer(Sanitizer):
    """Shadow-state checker for :class:`repro.dram.DramBuffer`."""

    name = "memory"

    #: Cap per rule so a hot loop cannot flood the report.
    max_findings_per_rule = 64

    def attach(self, target, report) -> None:
        super().attach(target, report)
        dram = getattr(target, "dram", None)
        if dram is None:
            raise ValueError(f"{target!r} has no DRAM buffer to sanitize")
        self.dram = dram
        self._written = zeroed_region(dram.size, dtype=bool)
        self._live: dict[int, int] = {}    # base -> nbytes
        self._freed: dict[int, int] = {}   # base -> nbytes on the free list
        self._emitted: dict[str, int] = {}
        self._seen_reads: set[tuple[int, int]] = set()
        dram._sanitizer = self

    def _capped_emit(self, rule: str, message: str, **kwargs) -> None:
        count = self._emitted.get(rule, 0)
        if count >= self.max_findings_per_rule:
            return
        self._emitted[rule] = count + 1
        self.emit(rule, message, component="dram", **kwargs)

    # -- access hooks (DramBuffer.read/write/view) ---------------------

    def on_write(self, address: int, nbytes: int) -> None:
        self._written[address:address + nbytes] = True

    def on_read(self, address: int, nbytes: int) -> None:
        if nbytes <= 0:
            return
        window = self._written[address:address + nbytes]
        if window.all():
            return
        key = (address, nbytes)
        if key in self._seen_reads:
            return
        self._seen_reads.add(key)
        first = address + int(np.argmin(window))
        self._capped_emit(
            "SAN301",
            f"read of [{address}, {address + nbytes}) touches "
            f"uninitialized DRAM (first unwritten byte at {first})",
            hint="stage the payload into DRAM before pointing a DMA "
                 "descriptor at it",
        )

    # -- allocator hooks (DramBuffer.alloc/free) -----------------------

    def on_alloc(self, base: int, nbytes: int) -> None:
        self._live[base] = nbytes
        end = base + nbytes
        carved: dict[int, int] = {}
        for free_base, free_len in self._freed.items():
            free_end = free_base + free_len
            if free_end <= base or free_base >= end:
                carved[free_base] = free_len
                continue
            if free_base < base:
                carved[free_base] = base - free_base
            if free_end > end:
                carved[end] = free_end - end
        self._freed = carved

    def on_free(self, base: int, nbytes: int) -> None:
        end = base + nbytes
        for free_base, free_len in self._freed.items():
            if free_base < end and base < free_base + free_len:
                self._capped_emit(
                    "SAN302",
                    f"double free of [{base}, {end}): overlaps region "
                    f"[{free_base}, {free_base + free_len}) already on the "
                    f"free list",
                    hint="each allocated region may be freed exactly once",
                )
                return
        allocated = self._live.pop(base, None)
        if allocated is None:
            self._capped_emit(
                "SAN302",
                f"free of [{base}, {end}) which was never allocated",
                hint="free only regions returned by alloc()",
            )
        elif allocated != nbytes:
            self._capped_emit(
                "SAN302",
                f"free of [{base}, {end}) but the allocation was "
                f"{allocated} bytes",
                hint="free with the same size the region was allocated with",
            )
        self._freed[base] = nbytes

    # -- DMA hooks (DmaHandle.deliver/fetch) ---------------------------

    def on_transfer(self, handle, direction: str, requested: int) -> None:
        if requested == handle.nbytes:
            return
        verb = "truncated" if requested > handle.nbytes else "short"
        self._capped_emit(
            "SAN303",
            f"{direction} of {requested} B through a {handle.nbytes} B DMA "
            f"window at address {handle.address} ({verb} transfer)",
            hint="mint the DMA descriptor with the burst's exact byte count",
        )
