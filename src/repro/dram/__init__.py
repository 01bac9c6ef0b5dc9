"""Controller-side DRAM staging buffer and DMA plumbing.

The SSD's DRAM stages all data moving between the host and the flash
channel (Fig. 1).  The Packetizer µFSM-companion reads/writes it through
:class:`DmaHandle` endpoints.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "AllocationError": "buffer",
    "DramBuffer": "buffer",
    "DmaHandle": "dma",
    "InlineDmaHandle": "dma",
})
