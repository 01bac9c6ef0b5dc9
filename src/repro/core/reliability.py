"""The reliable-read pipeline: ECC, read-retry escalation, RAIL fallback.

Wires the pieces the paper's related work motivates into one policy:

1. plain READ, decode with the BCH engine;
2. on an uncorrectable page, sweep read-retry voltage levels
   (SET FEATURES on the vendor register, re-read, re-decode) — the
   Park et al. [48] optimization;
3. if a replica map is registered (RAIL-style intra-channel
   replication [32]), fall back to reading a replica.

The pipeline reports exactly what happened per read, so reliability
studies can measure retry rates and tail-latency impact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.core.controller import BabolController
from repro.ecc import BchEngine
from repro.onfi.geometry import PhysicalAddress


class ReadOutcome(enum.Enum):
    CLEAN = "clean"            # decoded at the default voltage
    RETRIED = "retried"        # needed a read-retry sweep
    REPLICA = "replica"        # recovered from a RAIL replica
    UNCORRECTABLE = "uncorrectable"


@dataclass
class ReliableReadResult:
    """What one pipeline read did."""

    outcome: ReadOutcome
    data: Optional[np.ndarray]
    corrected_bits: int = 0
    retry_level: int = 0
    latency_ns: int = 0


@dataclass
class ReliabilityStats:
    reads: int = 0
    clean: int = 0
    retried: int = 0
    replica: int = 0
    uncorrectable: int = 0
    bits_corrected: int = 0

    def record(self, result: ReliableReadResult) -> None:
        self.reads += 1
        self.bits_corrected += result.corrected_bits
        if result.outcome is ReadOutcome.CLEAN:
            self.clean += 1
        elif result.outcome is ReadOutcome.RETRIED:
            self.retried += 1
        elif result.outcome is ReadOutcome.REPLICA:
            self.replica += 1
        else:
            self.uncorrectable += 1


class ReliableReader:
    """ECC + retry + replica policy over a BABOL controller."""

    def __init__(
        self,
        controller: BabolController,
        ecc: BchEngine,
        max_retry_levels: int = 8,
    ):
        self.controller = controller
        self.ecc = ecc
        self.max_retry_levels = max_retry_levels
        self.stats = ReliabilityStats()
        # (lun, block, page) -> list of replica (lun, block, page).
        self._replicas: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}

    # -- replica registration (the RAIL layout) -------------------------

    def register_replica(
        self, primary: tuple[int, int, int], replica: tuple[int, int, int]
    ) -> None:
        self._replicas.setdefault(primary, []).append(replica)

    # -- the pipeline ------------------------------------------------------

    def read(self, lun: int, block: int, page: int,
             dram_address: int) -> Generator:
        """Reliable read; run from a simulation process.

        ``result = yield from reader.read(...)``
        """
        sim = self.controller.sim
        start = sim.now
        address = PhysicalAddress(block=block, page=page)
        pristine = self.controller.luns[lun].array.pristine_page(address)

        # Stage 1: plain read + decode.
        task = self.controller.read_page(lun, block, page, dram_address)
        yield from self.controller.wait(task)
        received = self.controller.dram.read(dram_address, len(pristine))
        decode = self.ecc.decode(received, pristine)
        if decode.ok:
            result = ReliableReadResult(
                outcome=ReadOutcome.CLEAN, data=decode.data,
                corrected_bits=decode.corrected_bits,
                latency_ns=sim.now - start,
            )
            self.stats.record(result)
            return result

        # Stage 2: retry sweep.
        def validate(handle) -> bool:
            data = self.controller.dram.read(dram_address, len(pristine))
            return self.ecc.decode(data, pristine).ok

        task = self.controller.read_with_retry(
            lun, block, page, dram_address, validate,
            max_levels=self.max_retry_levels,
        )
        level, _handle = yield from self.controller.wait(task)
        if level is not None:
            data = self.controller.dram.read(dram_address, len(pristine))
            decode = self.ecc.decode(data, pristine)
            result = ReliableReadResult(
                outcome=ReadOutcome.RETRIED, data=decode.data,
                corrected_bits=decode.corrected_bits, retry_level=level,
                latency_ns=sim.now - start,
            )
            self.stats.record(result)
            return result

        # Stage 3: replicas, if any were registered.
        for r_lun, r_block, r_page in self._replicas.get((lun, block, page), []):
            r_addr = PhysicalAddress(block=r_block, page=r_page)
            r_pristine = self.controller.luns[r_lun].array.pristine_page(r_addr)
            task = self.controller.read_page(r_lun, r_block, r_page, dram_address)
            yield from self.controller.wait(task)
            data = self.controller.dram.read(dram_address, len(r_pristine))
            decode = self.ecc.decode(data, r_pristine)
            if decode.ok:
                result = ReliableReadResult(
                    outcome=ReadOutcome.REPLICA, data=decode.data,
                    corrected_bits=decode.corrected_bits,
                    latency_ns=sim.now - start,
                )
                self.stats.record(result)
                return result

        result = ReliableReadResult(
            outcome=ReadOutcome.UNCORRECTABLE, data=None,
            latency_ns=sim.now - start,
        )
        self.stats.record(result)
        return result

    def describe(self) -> str:
        s = self.stats
        return (
            f"ReliableReader: {s.reads} reads "
            f"(clean {s.clean}, retried {s.retried}, replica {s.replica}, "
            f"lost {s.uncorrectable}), {s.bits_corrected} bits corrected"
        )
