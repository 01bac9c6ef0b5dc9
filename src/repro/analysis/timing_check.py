"""ONFI protocol/timing linter over logic-analyzer captures.

Controllers are validated on real rigs by staring at scope traces; the
simulated equivalent is automated.  Given a capture, the checker
verifies per-LUN ONFI sequencing and inter-event timing.  Which opcodes
carry an address, owe tWB or arm (or disarm) a data source is read from
the opcode table in :mod:`repro.onfi.protocol`; the minimum gaps are the
rows of its ``TIMING_RULES``, evaluated here over integer nanoseconds:

* **tWB** — a status poll waits tWB after a confirm (the LUN needs that
  long to drop R/B#);
* **tWHR** — a data-out burst directly following a command latch waits
  WE# high to RE# low (the status-read turnaround);
* **tRR** — a multi-byte data-out burst after an R/B# ready edge
  (captures taken with ``LogicAnalyzer(capture_rb=True)``);
* **tRHW** — a command latch directly following a data-out burst waits
  RE# high to WE# low, measured from the burst's end;
* **tCCS** — a CHANGE READ COLUMN confirm is separated from the
  following data-out burst.

Sequencing rules: address latches immediately follow an address-bearing
command, a confirm is not chained straight onto one without its
address, and data-out bursts only occur while a data source is armed
(RESET disarms it).

The checker runs over *decoded events*, so it validates any controller
on the channel — BABOL or the hardware baselines — which is how the
test suite proves all three emit legal ONFI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.logic_analyzer import AnalyzerEvent, LogicAnalyzer
from repro.onfi.commands import opcode_name
from repro.onfi.protocol import (
    ANCHOR_EVENTS,
    DISARM,
    OPCODES,
    TIMING_RULES,
    burst_events,
    due_rules,
    latch_events,
)
from repro.onfi.timing import TimingSet


def _burst_bytes(event: AnalyzerEvent) -> int:
    """Byte count of a data event (detail is rendered as '<N>B')."""
    detail = event.detail
    if detail.endswith("B") and detail[:-1].isdigit():
        return int(detail[:-1])
    return 0


@dataclass(frozen=True)
class TimingViolation:
    """One detected protocol/timing problem."""

    time_ns: int
    lun_mask: int
    rule: str
    detail: str

    def describe(self) -> str:
        return f"t={self.time_ns}ns mask=0b{self.lun_mask:b} [{self.rule}] {self.detail}"

    def to_finding(self, component: str = ""):
        """This violation as a TCK-namespaced diagnostics Finding."""
        from repro.analysis.diagnostics import Finding

        rule_id = _RULE_IDS.get(self.rule, "TCK000")
        return Finding(
            rule=rule_id,
            severity="error",
            message=f"[{self.rule}] {self.detail}",
            component=component or f"lun_mask=0b{self.lun_mask:b}",
            time_ns=self.time_ns,
        )


#: Stable diagnostics rule ids: the sequencing rules, then one per
#: timing-rule row.
_RULE_IDS = {
    "confirm-without-address": "TCK001",
    "orphan-address": "TCK003",
    "unarmed-data-out": "TCK004",
    **{rule.param: rule.runtime_id for rule in TIMING_RULES},
}


@dataclass
class _LunTrack:
    awaiting_address: Optional[int] = None  # opcode expecting address next
    data_armed: bool = False
    # Nanosecond of the latest occurrence of each timing-rule anchor
    # event (data_out: the burst's end; ready: the R/B# rising edge).
    anchors: dict = field(default_factory=dict)
    # Previous wire event (cmd/addr/data) for adjacency rules; R/B#
    # edges and idle waits do not count as wire activity.
    prev_kind: Optional[str] = None


class TimingChecker:
    """Validate a capture against the ONFI rules above."""

    def __init__(self, timing: TimingSet, lun_count: int = 16):
        self.timing = timing
        self.lun_count = lun_count
        self.violations: list[TimingViolation] = []
        self._tracks = [_LunTrack() for _ in range(lun_count)]

    # -- entry points ------------------------------------------------------

    def check_analyzer(self, analyzer: LogicAnalyzer) -> list[TimingViolation]:
        return self.check_events(analyzer.events)

    def check_events(self, events: list[AnalyzerEvent]) -> list[TimingViolation]:
        # R/B# edge events are recorded when the pin toggles, while
        # segment events are recorded at transmit time with future
        # offsets — so a capture that includes both is not globally
        # time-ordered.  A stable sort restores the pin-level timeline
        # (and is a no-op for segment-only captures).
        for event in sorted(events, key=lambda e: e.time_ns):
            for lun in range(self.lun_count):
                if event.chip_mask >> lun & 1:
                    self._feed(lun, event)
        return self.violations

    # -- per-LUN state machine ------------------------------------------------

    def _flag(self, event: AnalyzerEvent, rule: str, detail: str) -> None:
        self.violations.append(
            TimingViolation(
                time_ns=event.time_ns, lun_mask=event.chip_mask,
                rule=rule, detail=detail,
            )
        )

    def _feed(self, lun: int, event: AnalyzerEvent) -> None:
        track = self._tracks[lun]
        if event.kind == "cmd":
            self._on_command(track, event)
        elif event.kind == "addr":
            self._on_address(track, event)
        elif event.kind == "data_out":
            self._on_data_out(track, event)
        elif event.kind == "data_in":
            track.awaiting_address = None
        elif event.kind == "rb":
            # R/B# edges inform tRR but are not wire activity: they must
            # not disturb the cmd/data adjacency the turnaround rules use.
            if event.detail == "ready":
                track.anchors["ready"] = event.time_ns
            else:
                track.anchors.pop("ready", None)
            return
        if event.kind in ("cmd", "addr", "data_out", "data_in"):
            track.prev_kind = event.kind

    def _check_gaps(self, track: _LunTrack, event: AnalyzerEvent,
                    events: tuple, subject: str) -> None:
        """The runtime evaluator of the timing-rule list: flag every rule
        triggered by ``events`` whose anchor is closer than its
        parameter, then stamp the anchors this wire event sets."""
        for rule in due_rules(events, track.prev_kind, track.anchors):
            gap = event.time_ns - track.anchors[rule.anchor]
            limit = getattr(self.timing, rule.param)
            if gap < limit:
                self._flag(
                    event, rule.param,
                    f"{subject} {gap}ns after {rule.anchor_text} "
                    f"({rule.param}={limit}ns)",
                )
            if rule.consumed:
                del track.anchors[rule.anchor]
        for name in ANCHOR_EVENTS.intersection(events):
            track.anchors[name] = event.end_ns

    def _on_command(self, track: _LunTrack, event: AnalyzerEvent) -> None:
        opcode = event.opcode
        row = OPCODES.get(opcode)
        name = opcode_name(opcode) if opcode is not None else "cmd"
        self._check_gaps(track, event, latch_events(row), f"{name} latched")
        if row is None:
            return

        if track.awaiting_address is not None and row.owes_twb:
            # A second command before the address is legal only for
            # multi-latch preambles that embed vendor prefixes; an
            # address-bearing command chained straight into a confirm
            # without any address is not.
            self._flag(
                event, "confirm-without-address",
                f"{name} follows {opcode_name(track.awaiting_address)} "
                f"with no address latch",
            )
        track.awaiting_address = opcode if row.addr_format is not None else None
        if row.arms is not None:
            track.data_armed = row.arms != DISARM

    def _on_address(self, track: _LunTrack, event: AnalyzerEvent) -> None:
        if track.awaiting_address is None:
            self._flag(
                event, "orphan-address",
                f"address latch [{event.detail}] with no pending command",
            )
        track.awaiting_address = None

    def _on_data_out(self, track: _LunTrack, event: AnalyzerEvent) -> None:
        if not track.data_armed:
            self._flag(
                event, "unarmed-data-out",
                f"data burst {event.detail} with no arming command",
            )
        self._check_gaps(track, event, burst_events(_burst_bytes(event)),
                         "data out")

    # -- reporting --------------------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.violations

    def report(self) -> str:
        if self.clean:
            return "timing check: clean"
        lines = [f"timing check: {len(self.violations)} violation(s)"]
        lines.extend("  " + v.describe() for v in self.violations[:20])
        return "\n".join(lines)
