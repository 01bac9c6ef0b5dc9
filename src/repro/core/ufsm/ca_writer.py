"""Command/Address Writer µFSM.

Parameterized exactly as Fig. 6 describes: the number of latches, a
vector of latch types, and a vector of latch values.  The emitter
computes all intra-segment timing (latch cycle times from the current
mode's timing set) and appends the mandatory category-2 wait the
protocol table (:mod:`repro.onfi.protocol`, ``wait_after``) names for
the vector's final opcode: tWB after a confirm (the wait before R/B#
drops) or tWHR after a command that will be followed by a data-out
(status reads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from repro.core.ufsm.base import HardwareInventory, MicroFsm
from repro.onfi.protocol import OPCODES
from repro.onfi.signals import (
    AddressLatch,
    CommandLatch,
    SegmentKind,
    WaveformSegment,
)

@dataclass(frozen=True)
class Latch:
    """One latch descriptor: ``kind`` is 'cmd' or 'addr'."""

    kind: str
    value: Union[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        if self.kind not in ("cmd", "addr"):
            raise ValueError(f"latch kind must be 'cmd' or 'addr', got {self.kind!r}")
        if self.kind == "cmd" and not isinstance(self.value, int):
            raise ValueError("command latch value must be an opcode byte")
        if self.kind == "addr" and isinstance(self.value, int):
            raise ValueError("address latch value must be a byte tuple")


def cmd(opcode: int) -> Latch:
    return Latch("cmd", opcode)


def addr(address_bytes: Iterable[int]) -> Latch:
    return Latch("addr", tuple(address_bytes))


class CAWriter(MicroFsm):
    """Emits command/address preamble segments."""

    name = "ca_writer"

    def emit(self, latches: list[Latch], chip_mask: int = 0b1, label: str = "") -> WaveformSegment:
        """Build one CMD_ADDR segment from a latch vector (uncached: the
        op-program lowering calls this once per shape and keeps it)."""
        if not latches:
            raise ValueError("a C/A segment needs at least one latch")
        self._count()
        duration_ns, actions = self._encode(latches)
        return WaveformSegment(
            kind=SegmentKind.CMD_ADDR,
            duration_ns=duration_ns,
            actions=actions,
            chip_mask=chip_mask,
            label=label or "c/a",
        )

    def _encode(self, latches: list[Latch]) -> tuple[int, tuple]:
        """Encode a latch vector: (duration_ns, latch actions)."""
        cycle = self.timing.latch_cycle_ns()
        actions = []
        t = self.timing.tCS  # CE# setup before the first latch
        last_opcode = None
        for latch in latches:
            if latch.kind == "cmd":
                actions.append((t, CommandLatch(int(latch.value))))
                t += cycle
                last_opcode = int(latch.value)
            else:
                address_bytes = tuple(latch.value)
                actions.append((t, AddressLatch(address_bytes)))
                t += cycle * len(address_bytes)
                last_opcode = None
        t += self.timing.tCH  # CE# hold

        # Category-2 mandatory wait owned by this µFSM (Section IV-B):
        # the protocol table names it per opcode — tWB after a confirm
        # that drops R/B#, tWHR before a directly following data-out.
        row = OPCODES.get(last_opcode)
        if row is not None and row.wait_after is not None:
            t += getattr(self.timing, row.wait_after)
        return t, tuple(actions)

    def inventory(self) -> HardwareInventory:
        # Latch-cycle sequencing (setup/pulse/hold sub-states per mode),
        # the latch-type/value vector registers, and per-mode timing
        # counters.  NV-DDR2 support needs its own cycle sub-FSM, hence
        # the state count.
        return HardwareInventory(
            fsm_states=36,
            registers_bits=450,
            buffer_bits=128,
            comment="latch sequencer + value FIFO + timing counters",
        )
