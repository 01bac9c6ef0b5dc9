"""DMA endpoints connecting LUN data bursts to DRAM.

A :class:`DmaHandle` is the object the Data Writer/Reader µFSMs attach
to a data action: the LUN model calls :meth:`deliver` (flash→DRAM) or
:meth:`fetch` (DRAM→flash) when the burst's time comes.  The handle
records transfer accounting for the metrics layer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dram.buffer import DramBuffer


class DmaHandle:
    """One DMA descriptor: a DRAM window plus transfer bookkeeping."""

    def __init__(self, dram: Optional[DramBuffer], address: int, nbytes: int):
        self.dram = dram
        self.address = address
        self.nbytes = nbytes
        self.delivered: Optional[np.ndarray] = None
        self.bytes_moved = 0
        # Set by the channel when the PHY eye is mis-trimmed: the burst
        # arrives, but its content is garbled (what a real scope shows
        # when the sampling point misses the data window).
        self.corrupt_seed: Optional[int] = None

    # -- flash -> controller -------------------------------------------

    def deliver(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.uint8).copy()
        if self.dram is not None and self.dram._sanitizer is not None:
            self.dram._sanitizer.on_transfer(self, "deliver", len(data))
        if self.corrupt_seed is not None:
            rng = np.random.default_rng(self.corrupt_seed)
            noise = rng.integers(0, 256, size=len(data), dtype=np.uint8)
            data ^= noise
        n = min(len(data), self.nbytes)
        if self.dram is not None:
            self.dram.write(self.address, data[:n])
        self.delivered = data[:n]
        self.bytes_moved += n

    # -- controller -> flash -------------------------------------------

    def fetch(self, nbytes: int) -> np.ndarray:
        n = min(nbytes, self.nbytes)
        if self.dram is None:
            return np.zeros(n, dtype=np.uint8)
        if self.dram._sanitizer is not None:
            self.dram._sanitizer.on_transfer(self, "fetch", nbytes)
        data = self.dram.read(self.address, n)
        self.bytes_moved += n
        return data


class InlineDmaHandle(DmaHandle):
    """A descriptor carrying immediate bytes (controller register writes
    such as SET FEATURES parameters) instead of a DRAM window."""

    def __init__(self, data):
        data = np.asarray(data, dtype=np.uint8)
        super().__init__(None, 0, len(data))
        self._data = data

    def fetch(self, nbytes: int) -> np.ndarray:
        self.bytes_moved += min(nbytes, len(self._data))
        return self._data[:nbytes].copy()

