"""ONFI data-interface modes and transfer-rate arithmetic.

The paper's packages all speak NV-DDR2 at up to 200 megatransfers per
second and boot in SDR mode 0.  A :class:`DataInterface` converts byte
counts to wire time; everything downstream (µFSMs, the channel model,
the throughput benchmarks) uses these conversions.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DataInterface:
    """One ONFI data-interface operating point.

    Attributes:
        name: ONFI-style mode name.
        mega_transfers: bus rate in megatransfers/second (one byte per
            transfer on the paper's x8 packages).
        ddr: whether the strobe clocks data on both edges (NV-DDR2).
        turnaround_ns: bus turnaround / preamble cost charged once per
            data burst (DQS preamble + read/write turnaround).
    """

    name: str
    mega_transfers: int
    ddr: bool
    turnaround_ns: int

    def transfer_ns(self, nbytes: int) -> int:
        """Wire time for an ``nbytes`` burst, including turnaround."""
        if nbytes <= 0:
            return 0
        ticks = (nbytes * 1000 + self.mega_transfers - 1) // self.mega_transfers
        return ticks + self.turnaround_ns

    def bandwidth_mb_s(self) -> float:
        """Peak payload bandwidth in MB/s (1 byte per transfer)."""
        return float(self.mega_transfers)


# Asynchronous SDR mode 0: the boot interface every package powers up in.
SDR_MODE0 = DataInterface(name="SDR-mode0", mega_transfers=10, ddr=False, turnaround_ns=100)

# NV-DDR2 operating points used throughout the evaluation.
NVDDR2_100 = DataInterface(name="NV-DDR2-100", mega_transfers=100, ddr=True, turnaround_ns=40)
NVDDR2_200 = DataInterface(name="NV-DDR2-200", mega_transfers=200, ddr=True, turnaround_ns=40)

_BY_NAME = {mode.name: mode for mode in (SDR_MODE0, NVDDR2_100, NVDDR2_200)}


def interface_by_name(name: str) -> DataInterface:
    """Look up a data interface by its ONFI-style name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown data interface {name!r}; known: {sorted(_BY_NAME)}"
        ) from None
