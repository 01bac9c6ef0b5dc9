"""DRAM staging buffer with a bump-pointer region allocator.

Storage is a flat ``numpy`` byte array.  Access time is charged by the
Packetizer (which knows the burst sizes), not here — DRAM bandwidth in
the Cosmos+ class of devices comfortably exceeds one channel's needs,
so the channel model treats DRAM as never the bottleneck, matching the
paper's single-channel experiments.

The storage is a private anonymous mapping (:func:`zeroed_region`), so
a 64 MiB buffer costs host memory only for the pages the model writes.
"""

from __future__ import annotations

import mmap

import numpy as np


class AllocationError(RuntimeError):
    """DRAM region allocator exhaustion or bad free."""


def zeroed_region(count: int, dtype=np.uint8) -> np.ndarray:
    """A zero-filled ``count``-element array that costs host memory only
    where it is written.

    The mapping must be *private*: ``mmap.mmap(-1, n)`` alone is
    ``MAP_SHARED`` on Linux, i.e. shmem, where reading an untouched page
    allocates it.  ``MADV_NOHUGEPAGE`` stops the kernel from backing a
    few written KiB with a whole 2 MiB page, which ``np.zeros`` invites
    by marking large arrays ``MADV_HUGEPAGE``.
    """
    region = mmap.mmap(-1, count * np.dtype(dtype).itemsize,
                       flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # Linux only
        region.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(region, dtype=dtype)


class DramBuffer:
    """A fixed-size byte buffer with region allocation."""

    def __init__(self, size: int = 64 * 1024 * 1024):
        if size <= 0:
            raise ValueError("DRAM size must be positive")
        self.size = size
        self.data = zeroed_region(size)
        self._next = 0
        self._free_list: list[tuple[int, int]] = []
        self._sanitizer = None  # MemorySanitizer when attached

    def alloc(self, nbytes: int) -> int:
        """Allocate a region; returns its base address."""
        if nbytes <= 0:
            raise AllocationError("allocation size must be positive")
        for i, (base, length) in enumerate(self._free_list):
            if length >= nbytes:
                if length == nbytes:
                    self._free_list.pop(i)
                else:
                    self._free_list[i] = (base + nbytes, length - nbytes)
                if self._sanitizer is not None:
                    self._sanitizer.on_alloc(base, nbytes)
                return base
        if self._next + nbytes > self.size:
            raise AllocationError(
                f"DRAM exhausted: need {nbytes}, have {self.size - self._next}"
            )
        base = self._next
        self._next += nbytes
        if self._sanitizer is not None:
            self._sanitizer.on_alloc(base, nbytes)
        return base

    def free(self, base: int, nbytes: int) -> None:
        """Return a region to the allocator (no coalescing; bounded reuse)."""
        if not 0 <= base <= self.size - nbytes:
            raise AllocationError(f"bad free of [{base}, {base + nbytes})")
        if self._sanitizer is not None:
            self._sanitizer.on_free(base, nbytes)
        self._free_list.append((base, nbytes))

    def write(self, address: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.uint8)
        self._check(address, len(data))
        if self._sanitizer is not None:
            self._sanitizer.on_write(address, len(data))
        self.data[address:address + len(data)] = data

    def read(self, address: int, nbytes: int) -> np.ndarray:
        self._check(address, nbytes)
        if self._sanitizer is not None:
            self._sanitizer.on_read(address, nbytes)
        return self.data[address:address + nbytes].copy()

    def view(self, address: int, nbytes: int) -> np.ndarray:
        """Zero-copy window (mutations are visible; used by the DMA path)."""
        self._check(address, nbytes)
        if self._sanitizer is not None:
            # A view hands out mutable storage; treat it as initialized.
            self._sanitizer.on_write(address, nbytes)
        return self.data[address:address + nbytes]

    def _check(self, address: int, nbytes: int) -> None:
        if address < 0 or address + nbytes > self.size:
            raise AllocationError(
                f"DRAM access [{address}, {address + nbytes}) out of bounds"
            )
