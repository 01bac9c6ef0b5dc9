"""The shared channel bus.

The channel is the contended resource at the heart of the paper: LUNs
share it, segments monopolize it for their duration, and everything the
schedulers do is about keeping it busy.  This model provides:

* FIFO-fair arbitration (a :class:`~repro.sim.Mutex`) — the bus master
  (an executor or a hardware controller) acquires, transmits segments,
  and releases;
* transmission: timestamping a segment, handing its decoded actions to
  the chip-enabled LUNs, applying the PHY reliability check to data
  bursts, and holding the bus for the segment's duration;
* an event tap for the logic analyzer; and
* busy-time accounting for utilization metrics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.bus.phy import ChannelPhy
from repro.config.specs import FIDELITIES, FidelityError
from repro.flash.lun import Lun
from repro.onfi.datamodes import DataInterface, NVDDR2_200
from repro.onfi.signals import SegmentKind, WaveformSegment
from repro.onfi.timing import TimingSet, timing_for_mode
from repro.sim import Simulator, Timeout
from repro.sim.sync import Mutex

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.transaction import Transaction


@dataclass
class ChannelStats:
    """Aggregate channel accounting."""

    segments: int = 0
    busy_ns: int = 0
    data_bytes_out: int = 0
    data_bytes_in: int = 0
    per_kind: Counter[str] = field(default_factory=Counter)


class Channel:
    """One flash channel wiring a controller to its LUNs."""

    def __init__(
        self,
        sim: Simulator,
        luns: list[Lun],
        interface: DataInterface = NVDDR2_200,
        phy: Optional[ChannelPhy] = None,
        perfect_phy: bool = True,
        name: str = "ch0",
        fidelity: str = "waveform",
    ):
        if not luns:
            raise ValueError("a channel needs at least one LUN")
        if fidelity not in FIDELITIES:
            raise ValueError(
                f"unknown fidelity {fidelity!r} (expected one of {FIDELITIES})")
        # Read by waveform observers (taps, bus-level sanitizers): under
        # "tlm" the template runner moves ops without segments.
        self.fidelity = fidelity
        self.sim = sim
        self.name = name
        self.luns = luns
        self.interface = interface
        self.timing: TimingSet = timing_for_mode(interface.name)
        self.mutex = Mutex(sim)
        self.stats = ChannelStats()
        # chip mask -> selected LUN positions, for this channel's width.
        self._targets: dict[int, tuple[int, ...]] = {}
        self._taps: list[Callable[[int, WaveformSegment], None]] = []
        self._san_bus = None  # BusSanitizer when attached (repro.sanitize)
        self._fault_hook = None  # FaultInjector when attached (repro.faults)
        if phy is not None:
            self.phy = phy
        else:
            self.phy = ChannelPhy(len(luns), seed=7)
            if perfect_phy:
                # Default channels come pre-calibrated so functional tests
                # exercise clean data paths; calibration tests supply a
                # skewed PHY explicitly.
                for position in range(len(luns)):
                    self.phy.set_trim(position, -self.phy.offsets[position])

    # -- configuration ---------------------------------------------------

    def set_interface(self, interface: DataInterface) -> None:
        """Retarget the channel's data mode (boot sequences do this)."""
        self.interface = interface
        self.timing = timing_for_mode(interface.name)

    def add_tap(self, tap: Callable[[int, WaveformSegment], None]) -> None:
        """Register a probe called with (time_ns, segment) per transmission.

        Taps observe per-segment bus traffic, which templated ops never
        put on the bus — registering one on a TLM channel fails fast
        rather than silently missing their events.
        """
        if self.fidelity != "waveform":
            raise FidelityError(
                "bus taps sample per-segment waveforms; this channel runs "
                f"the '{self.fidelity}' tier — rebuild the stack with "
                "fidelity='waveform' to attach probes"
            )
        self._taps.append(tap)

    @property
    def width(self) -> int:
        return len(self.luns)

    # -- arbitration ------------------------------------------------------

    def acquire(self, owner=None) -> Generator:
        yield from self.mutex.acquire(owner)

    def release(self) -> None:
        if self._san_bus is not None:
            self._san_bus.on_release(self.sim.now)
        self.mutex.release()

    # -- transmission -------------------------------------------------------

    def transmit(self, segment: WaveformSegment) -> Generator:
        """Drive one segment onto the bus (caller must hold the mutex)
        and hold the bus for ``segment.duration_ns``."""
        if not self.mutex.locked:
            raise RuntimeError("transmit without owning the channel")
        self.drive(segment)
        if segment.duration_ns:
            yield Timeout(segment.duration_ns)

    def run_transaction(self, txn: "Transaction") -> Generator:
        """A prepared transaction's segments, back to back: the
        executor's inner loop, and a transaction's only kernel steps
        (one bus hold per segment)."""
        mutex = self.mutex
        drive = self.drive
        for segment in txn.segments:
            if not mutex.locked:
                raise RuntimeError("transmit without owning the channel")
            drive(segment)
            if segment.duration_ns:
                yield Timeout(segment.duration_ns)

    def drive(self, segment: WaveformSegment) -> None:
        """Put one segment on the bus at the kernel's ``now``: stamp it,
        account for it, show it to every observer and hand its actions
        to the selected dies, which schedule each at its offset.  The
        caller holds the bus for ``segment.duration_ns``.

        This is where :class:`ChannelStats` is booked, for the
        controller and the hardware baselines alike, from the segment's
        plain fields: no action is inspected here unless an NV-DDR
        burst meets an uncalibrated PHY.
        """
        now = self.sim.now
        segment.emitted_at = now
        kind = segment.kind
        stats = self.stats
        stats.segments += 1
        stats.busy_ns += segment.duration_ns
        stats.per_kind[kind._value_] += 1
        stats.data_bytes_out += segment.data_out_bytes
        stats.data_bytes_in += segment.data_in_bytes
        tracer = self.sim._tracer
        if tracer is not None:
            # One span per segment on this channel's track: the bus
            # occupancy picture Figs. 10-12 reason about.
            tracer.complete(
                "channel", f"channel/{self.name}", kind._value_,
                now, segment.duration_ns,
                {"chip_mask": segment.chip_mask, "label": segment.label},
            )
        for tap in self._taps:
            tap(now, segment)
        if self._san_bus is not None:
            self._san_bus.on_transmit(now, segment, self.mutex.owner)
        try:
            targets = self._targets[segment.chip_mask]
        except KeyError:
            targets = self._targets[segment.chip_mask] = tuple(
                segment.targets(len(self.luns)))
        if not targets and kind is not SegmentKind.TIMER:
            raise ValueError(f"segment {segment.describe()} selects no LUN")
        # SDR is slow enough that trace-length skew never leaves the
        # sampling eye — which is why packages can always boot in it.
        if self.interface.ddr and (kind is SegmentKind.DATA_OUT
                                   or kind is SegmentKind.DATA_IN):
            self._apply_phy(segment, targets)
        if self._fault_hook is not None:
            self._fault_hook.on_transmit(now, segment, targets)
        for position in targets:
            self.luns[position].deliver_segment(segment)

    def _apply_phy(self, segment: WaveformSegment, targets: tuple) -> None:
        """An NV-DDR data burst: garble it if a selected die's PHY
        position is not trimmed into the sampling eye."""
        unreliable = [p for p in targets if not self.phy.data_reliable(p)]
        if not unreliable:
            return
        for offset, action in segment.actions:
            handle = getattr(action, "dma_handle", None)
            if handle is not None:
                handle.corrupt_seed = (segment.emitted_at or 0) ^ offset ^ 0xDEAD

    # -- reporting ------------------------------------------------------------

    def utilization(self, elapsed_ns: Optional[int] = None) -> float:
        """Fraction of wall time the bus carried a segment."""
        elapsed = elapsed_ns if elapsed_ns is not None else self.sim.now
        if elapsed <= 0:
            return 0.0
        return min(self.stats.busy_ns / elapsed, 1.0)

    def describe(self) -> str:
        return (
            f"Channel[{self.interface.name}] {self.width} LUNs, "
            f"{self.stats.segments} segments, util={self.utilization():.2%}"
        )
