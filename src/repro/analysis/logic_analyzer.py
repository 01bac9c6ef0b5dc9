"""Channel logic analyzer.

The paper connects a Keysight 16862A to the flash pins "to forego any
software timestamping probes that could inject some variance" — in
simulation the tap is exact by construction.  The analyzer records
every transmitted segment with its decoded actions and offers the
derived measurements Fig. 11 needs: READ STATUS polling periods and
per-operation phase timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bus.channel import Channel
from repro.onfi.commands import CMD, opcode_name
from repro.onfi.signals import (
    AddressLatch,
    CommandLatch,
    DataInAction,
    DataOutAction,
    WaveformSegment,
)


@dataclass(frozen=True)
class AnalyzerEvent:
    """One decoded channel event."""

    time_ns: int
    kind: str            # "cmd" | "addr" | "data_out" | "data_in" | "wait" | "rb"
    detail: str
    opcode: Optional[int]
    chip_mask: int
    duration_ns: int     # wire time of data bursts; 0 for latches/edges

    @property
    def end_ns(self) -> int:
        return self.time_ns + self.duration_ns


@dataclass
class PollingSummary:
    """READ STATUS polling-period statistics for one capture."""

    periods_ns: list[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.periods_ns)

    @property
    def mean_ns(self) -> float:
        return sum(self.periods_ns) / len(self.periods_ns) if self.periods_ns else 0.0

    @property
    def max_ns(self) -> int:
        return max(self.periods_ns, default=0)

    @property
    def min_ns(self) -> int:
        return min(self.periods_ns, default=0)


class LogicAnalyzer:
    """Tap a channel and record decoded events.

    Pass a :class:`repro.obs.Tracer` (or attach one to the simulator
    with ``sim.set_tracer``) and every decoded pin-level event is also
    mirrored into the trace on an ``analyzer/<channel>`` track — with
    the *same* integer-ns timestamps as the kernel's own spans, so a
    Perfetto view lines the capture up against ops, CPU time, and
    segment occupancy exactly.
    """

    def __init__(self, channel: Channel, tracer=None, capture_rb: bool = False):
        self.channel = channel
        self.tracer = tracer  # explicit override; else the sim's tracer
        self.events: list[AnalyzerEvent] = []
        self.segments: list[WaveformSegment] = []
        self._armed = True
        channel.add_tap(self._on_segment)
        if capture_rb:
            # Probe the R/B# pin of every LUN.  Edge events are recorded
            # when the pin toggles, so — unlike segment events, whose
            # action offsets are known at transmit time — they can land
            # out of order in ``events``; consumers that need a timeline
            # (the timing checker) sort by time_ns first.
            for lun in channel.luns:
                lun.rb_taps.append(self._on_rb)

    # -- capture control --------------------------------------------------

    def arm(self) -> None:
        self._armed = True

    def halt(self) -> None:
        self._armed = False

    def clear(self) -> None:
        self.events.clear()
        self.segments.clear()

    def _on_segment(self, time_ns: int, segment: WaveformSegment) -> None:
        if not self._armed:
            return
        self.segments.append(segment)
        first_event = len(self.events)
        for offset, action in segment.actions:
            t = time_ns + offset
            if isinstance(action, CommandLatch):
                self.events.append(AnalyzerEvent(
                    t, "cmd", opcode_name(action.opcode), action.opcode,
                    segment.chip_mask, 0,
                ))
            elif isinstance(action, AddressLatch):
                detail = ",".join(f"{b:02X}" for b in action.address_bytes)
                self.events.append(AnalyzerEvent(
                    t, "addr", detail, None, segment.chip_mask, 0,
                ))
            elif isinstance(action, DataOutAction):
                self.events.append(AnalyzerEvent(
                    t, "data_out", f"{action.nbytes}B", None,
                    segment.chip_mask,
                    self.channel.interface.transfer_ns(action.nbytes),
                ))
            elif isinstance(action, DataInAction):
                self.events.append(AnalyzerEvent(
                    t, "data_in", f"{action.nbytes}B", None,
                    segment.chip_mask,
                    self.channel.interface.transfer_ns(action.nbytes),
                ))
            else:
                self.events.append(AnalyzerEvent(
                    t, "wait", action.describe(), None, segment.chip_mask, 0,
                ))
        tracer = self.tracer if self.tracer is not None \
            else self.channel.sim._tracer
        if tracer is not None:
            track = f"analyzer/{self.channel.name}"
            for event in self.events[first_event:]:
                tracer.instant(
                    "analyzer", track, f"{event.kind}:{event.detail}",
                    event.time_ns, {"chip_mask": event.chip_mask},
                )

    def _on_rb(self, lun, busy: bool) -> None:
        if not self._armed:
            return
        self.events.append(AnalyzerEvent(
            lun.sim.now, "rb", "busy" if busy else "ready", None,
            1 << lun.position, 0,
        ))

    # -- derived measurements --------------------------------------------

    def command_times(self, opcode: int, chip_mask: Optional[int] = None) -> list[int]:
        """Timestamps of every latch of ``opcode`` (optionally one chip)."""
        return [
            event.time_ns
            for event in self.events
            if event.kind == "cmd" and event.opcode == opcode
            and (chip_mask is None or event.chip_mask & chip_mask)
        ]

    def polling_summary(self, chip_mask: Optional[int] = None) -> PollingSummary:
        """Gaps between consecutive READ STATUS latches (Fig. 11).

        Periods are computed *within* each operation: a non-status
        command latch (a new READ preamble, a column change) closes the
        current polling train, so inter-operation gaps — which include
        data transfers — never pollute the figure.
        """
        summary = PollingSummary()
        previous_poll: Optional[int] = None
        for event in self.events:
            if event.kind != "cmd":
                continue
            if chip_mask is not None and not event.chip_mask & chip_mask:
                continue
            if event.opcode in (CMD.READ_STATUS, CMD.READ_STATUS_ENHANCED):
                if previous_poll is not None:
                    summary.periods_ns.append(event.time_ns - previous_poll)
                previous_poll = event.time_ns
            else:
                previous_poll = None  # a different command breaks the train
        return summary

    def operation_phases(self, chip_mask: int = 0b1) -> list[tuple[str, int]]:
        """(phase-name, time) milestones of READs on one chip —
        the annotated screenshot view of Fig. 11."""
        phases = []
        for event in self.events:
            if not event.chip_mask & chip_mask:
                continue
            if event.opcode == CMD.READ_1ST:
                phases.append(("READ cmd+addr", event.time_ns))
            elif event.opcode == CMD.READ_STATUS:
                phases.append(("READ STATUS poll", event.time_ns))
            elif event.opcode == CMD.CHANGE_READ_COL_1ST:
                phases.append(("CHANGE READ COLUMN", event.time_ns))
            elif event.kind == "data_out" and not event.detail.startswith("1B"):
                phases.append(("data transfer", event.time_ns))
        return phases

    @property
    def captured_span_ns(self) -> int:
        if not self.events:
            return 0
        return self.events[-1].time_ns - self.events[0].time_ns

    # -- export ------------------------------------------------------------

    def to_tracer(self, tracer) -> int:
        """Replay the finished capture into ``tracer`` (post-hoc merge).

        Timestamps are the capture's own integer-ns values, so the
        replay lands in perfect alignment with any kernel-side spans
        already in the tracer.  Returns the number of events emitted.
        """
        track = f"analyzer/{self.channel.name}"
        for event in self.events:
            tracer.instant(
                "analyzer", track, f"{event.kind}:{event.detail}",
                event.time_ns, {"chip_mask": event.chip_mask},
            )
        return len(self.events)
