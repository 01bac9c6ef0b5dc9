"""Pin, edge, and waveform-segment model.

A *waveform segment* is the unit a µFSM emits and the unit that occupies
the shared channel (the paper's Figures 2 and 6).  Segments carry two
parallel descriptions:

* **semantic actions** — decoded ``CommandLatch`` / ``AddressLatch`` /
  data-burst records with nanosecond offsets, which the LUN model
  consumes directly; and
* **pin edges** — an optional per-pin rendering used by the logic
  analyzer (Fig. 11) and the waveform renderer, generated on demand so
  the fast path never pays for it.

Keeping both views consistent is the signal-level fidelity this
reproduction substitutes for real probes: the *times* at which latches
and bursts occur are exact; only the analog electrical detail is
abstracted away.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.onfi.commands import opcode_name
from repro.onfi.datamodes import DataInterface
from repro.onfi.timing import TimingSet


class Pin(enum.Enum):
    """ONFI pins relevant to the waveform model (x8 package)."""

    CE = "CE#"
    CLE = "CLE"
    ALE = "ALE"
    WE = "WE#"
    RE = "RE#"
    DQS = "DQS"
    DQ = "DQ[7:0]"
    RB = "R/B#"


@dataclass(frozen=True)
class Edge:
    """A pin transition at ``t`` ns from segment start.

    ``value`` is 0/1 for control pins and the byte value for ``Pin.DQ``.
    """

    t: int
    pin: Pin
    value: int


@dataclass(frozen=True)
class CommandLatch:
    """A command-latch cycle establishing ``opcode`` in the LUN."""

    opcode: int

    def describe(self) -> str:
        return f"CMD {opcode_name(self.opcode)}"


@dataclass(frozen=True)
class AddressLatch:
    """One or more address-latch cycles carrying raw address bytes."""

    address_bytes: tuple[int, ...]

    def describe(self) -> str:
        raw = ",".join(f"{b:02X}" for b in self.address_bytes)
        return f"ADDR [{raw}]"


@dataclass(frozen=True)
class DataOutAction:
    """A data burst from the LUN's register to the controller.

    ``dma_handle`` identifies the Packetizer destination; the LUN fills
    the handle with the register contents when the burst completes.
    """

    nbytes: int
    dma_handle: object = None

    def describe(self) -> str:
        return f"DOUT {self.nbytes}B"


@dataclass(frozen=True)
class DataInAction:
    """A data burst from the controller into the LUN's page register."""

    nbytes: int
    column: int = 0
    dma_handle: object = None

    def describe(self) -> str:
        return f"DIN {self.nbytes}B @col {self.column}"


@dataclass(frozen=True)
class IdleWait:
    """An explicit pause (the Timer µFSM's output)."""

    duration: int

    def describe(self) -> str:
        return f"WAIT {self.duration}ns"


Action = Union[CommandLatch, AddressLatch, DataOutAction, DataInAction, IdleWait]


class SegmentKind(enum.Enum):
    CMD_ADDR = "cmd_addr"
    DATA_IN = "data_in"
    DATA_OUT = "data_out"
    TIMER = "timer"
    CE_CONTROL = "ce_control"


@dataclass
class WaveformSegment:
    """One µFSM emission: bus occupancy plus decoded content.

    Attributes:
        kind: which µFSM family produced it.
        duration_ns: how long the segment monopolizes the channel.
        actions: ``(offset_ns, action)`` pairs, offsets relative to the
            segment start and strictly non-decreasing.
        chip_mask: bitmap of targeted LUN positions on the channel
            (bit *i* set = chip-enable asserted for position *i*).
        label: short human-readable tag for traces.
        data_out_bytes / data_in_bytes: burst bytes per direction,
            counted in the one walk that validates ``actions`` so the
            channel books a segment from plain fields.

    The constructor validates; :meth:`bind` mints a transmission of an
    already validated segment, which has nothing left to check.  After
    either, what may still be written is ``emitted_at`` (the channel, on
    driving it), ``chip_mask`` (Chip Control) and the DMA handles its
    bursts point at (PHY, fault hooks) — never the shape.
    """

    kind: SegmentKind
    duration_ns: int
    actions: tuple[tuple[int, Action], ...] = ()
    chip_mask: int = 0b1
    label: str = ""
    emitted_at: Optional[int] = field(default=None, compare=False)
    data_out_bytes: int = field(default=0, init=False, compare=False)
    data_in_bytes: int = field(default=0, init=False, compare=False)

    def __post_init__(self) -> None:
        if self.duration_ns < 0:
            raise ValueError("segment duration must be >= 0")
        last = -1
        for offset, action in self.actions:
            if offset < last:
                raise ValueError("segment action offsets must be non-decreasing")
            if offset > self.duration_ns:
                raise ValueError("segment action offset beyond segment end")
            last = offset
            if isinstance(action, DataOutAction):
                self.data_out_bytes += action.nbytes
            elif isinstance(action, DataInAction):
                self.data_in_bytes += action.nbytes

    def bind(self, actions: tuple, chip_mask: int) -> "WaveformSegment":
        """A fresh segment of this one's shape — kind, duration, label
        and burst sizes shared, not yet emitted — carrying ``actions``
        (this segment's offsets and burst sizes, the caller's address
        bytes and DMA handles) for ``chip_mask``."""
        segment = object.__new__(WaveformSegment)  # no __init__: see above
        segment.kind = self.kind
        segment.duration_ns = self.duration_ns
        segment.actions = actions
        segment.chip_mask = chip_mask
        segment.label = self.label
        segment.emitted_at = None
        segment.data_out_bytes = self.data_out_bytes
        segment.data_in_bytes = self.data_in_bytes
        return segment

    def targets(self, channel_width: int) -> list[int]:
        """LUN positions selected by the chip mask."""
        return [i for i in range(channel_width) if self.chip_mask >> i & 1]

    def describe(self) -> str:
        body = "; ".join(action.describe() for _, action in self.actions)
        return f"[{self.kind.value} {self.duration_ns}ns] {body or self.label}"

    # -- edge rendering (logic-analyzer fidelity) ------------------------

    def render_edges(self, timing: TimingSet, interface: DataInterface) -> list[Edge]:
        """Expand the segment into per-pin transitions.

        The rendering follows the latch waveform of the paper's Fig. 2:
        CE# asserted for the segment, CLE/ALE framing each latch cycle,
        WE# pulsing per cycle, and DQ carrying the latched byte.  Data
        bursts are summarized by DQS toggling bookends (rendering every
        DQS edge of a 16 KiB burst would be wasteful and adds nothing).
        """
        edges: list[Edge] = [Edge(0, Pin.CE, 0)]
        cycle = timing.latch_cycle_ns()
        for offset, action in self.actions:
            t = offset
            if isinstance(action, CommandLatch):
                edges.append(Edge(t, Pin.CLE, 1))
                edges.append(Edge(t + timing.tCALS, Pin.WE, 0))
                edges.append(Edge(t + timing.tCALS, Pin.DQ, action.opcode))
                edges.append(Edge(t + timing.tCALS + timing.tWP, Pin.WE, 1))
                edges.append(Edge(t + cycle, Pin.CLE, 0))
            elif isinstance(action, AddressLatch):
                edges.append(Edge(t, Pin.ALE, 1))
                for i, byte in enumerate(action.address_bytes):
                    base = t + i * cycle
                    edges.append(Edge(base + timing.tCALS, Pin.WE, 0))
                    edges.append(Edge(base + timing.tCALS, Pin.DQ, byte))
                    edges.append(Edge(base + timing.tCALS + timing.tWP, Pin.WE, 1))
                edges.append(Edge(t + len(action.address_bytes) * cycle, Pin.ALE, 0))
            elif isinstance(action, (DataOutAction, DataInAction)):
                burst = interface.transfer_ns(action.nbytes)
                edges.append(Edge(t, Pin.DQS, 1))
                if isinstance(action, DataOutAction):
                    edges.append(Edge(t, Pin.RE, 0))
                    edges.append(Edge(t + burst, Pin.RE, 1))
                edges.append(Edge(t + burst, Pin.DQS, 0))
            elif isinstance(action, IdleWait):
                pass  # no pin motion; time simply elapses
        edges.append(Edge(self.duration_ns, Pin.CE, 1))
        edges.sort(key=lambda e: (e.t, e.pin.value))
        return edges
