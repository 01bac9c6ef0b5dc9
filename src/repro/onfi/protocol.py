"""The ONFI die protocol, as data: one opcode table, one timing-rule list.

How a die reacts to a command cycle is decided here and nowhere else.
Every opcode the die model accepts has exactly one :class:`OpcodeRow`;
the consumers differ only in *how* they read it:

* :class:`repro.flash.lun.Lun` **executes** a row — array I/O,
  completions, fault and sanitizer hooks stay in the model;
* :mod:`repro.analysis.opver` **abstract-interprets** the same row over
  intervals, so the static verifier cannot drift from the model;
* the capture checker (:mod:`repro.analysis.timing_check`), the linter
  (:mod:`repro.analysis.op_lint`), the C/A writer µFSM and the flash
  sanitizer read single columns (``wait_after``, ``arms``,
  ``addr_format``, ``effect``).

Each row follows the ``ISSUE -> CORE_BUSY -> END`` shape of per-op NAND
models: the latch (``effect``), the busy window it opens
(:class:`BusySpec`, priced from ``VendorProfile.timing``), and what is
readable at the end (``arms``/``arm_at``).  An opcode with no row is
unsupported: the die raises and the verifier reports OPV104.

:data:`TIMING_RULES` lists the five inter-event minimum gaps
(tWB/tWHR/tRR/tRHW/tCCS).  The static evaluator (OPV201-205, interval
gaps) and the runtime evaluator (TCK002/005-008, integer gaps) both
loop over it (:func:`due_rules`); the events they exchange are named
by :func:`latch_events` and :func:`burst_events`.

The table is a module constant and is not vendor-overridable: per-part
differences are ``VendorProfile.supports_*``, ``timing`` and
``timing_overrides``.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.onfi.commands import CMD, CommandClass, opcode_name


class Effect(str, enum.Enum):
    """What latching the opcode does to the die automaton.

    A ``str`` mix-in so members hash in C: the die model keys its
    handler table on them once per command latch.
    """

    LATCH = "latch"                  # first cycle: wait for an address
    CONFIRM = "confirm"              # start the array op on the latched row
    MP_QUEUE = "mp_queue"            # queue this plane, short tDBSY busy
    CACHE_CONFIRM = "cache_confirm"  # array works behind a usable interface
    CACHE_END = "cache_end"          # last cache page: no further fetch
    ARM = "arm"                      # data source readable, back to idle
    STATUS = "status"
    RESET = "reset"
    SUSPEND = "suspend"
    RESUME = "resume"
    PSLC_ENTER = "pslc_enter"
    PSLC_EXIT = "pslc_exit"


@dataclass(frozen=True)
class BusySpec:
    """A busy window an opcode opens (the CORE_BUSY phase).

    ``kind`` is the string the fault injector's ``on_busy`` hook and the
    diagnostics see.  ``timing`` names the ``VendorProfile.timing``
    attribute holding the mean duration; ``jittered`` windows vary by
    the vendor's bounded uniform jitter and are scaled by the
    ``CellModeProfile`` attribute ``scale`` while pSLC is active.
    ``opens_on`` is the cycle that starts the window: the command
    itself, the end of its address phase, or its data-in burst.
    ``holds_rb`` is False for cache windows, which only drop ARDY.
    """

    kind: str
    timing: str
    jittered: bool = False
    scale: Optional[str] = None
    suspendable: bool = False
    holds_rb: bool = True
    opens_on: str = "command"  # "command" | "address" | "data_in"

    def bounds(self, timing, cell_profile=None) -> tuple:
        """``(low, high)`` nanoseconds of this window for a
        ``VendorTiming``; ``cell_profile`` is the active non-native
        ``CellModeProfile``, if any.  The die model samples inside the
        bounds, the verifier carries them as an interval."""
        mean_ns = getattr(timing, self.timing)
        if not self.jittered:
            return mean_ns, mean_ns
        scale = 1.0
        if cell_profile is not None and self.scale is not None:
            scale = getattr(cell_profile, self.scale)
        base = mean_ns * scale
        return base * (1.0 - timing.jitter), base * (1.0 + timing.jitter)


#: ``OpcodeRow.arms`` value that *disarms* the data source.
DISARM = "none"


@dataclass(frozen=True)
class OpcodeRow:
    """One opcode's complete protocol behaviour.

    ``addr_format`` is the address the opcode expects next
    (``full``/``row``/``col``/``one``) or None.  ``arms`` is the data
    source a following data-out burst streams (None leaves the current
    one alone, :data:`DISARM` clears it), taken ``"now"`` — at the
    command, or at the end of its address phase for a LATCH row — or
    at ``"busy_end"``.  ``wait_after`` names the ``TimingSet`` wait the
    C/A writer owes when the opcode ends a latch vector: ``tWB`` after
    a confirm that drops R/B#, ``tWHR`` before a directly following
    data-out.  ``requires`` names the ``VendorProfile`` capability flag
    the opcode needs.
    """

    opcode: int
    cls: CommandClass
    effect: Effect
    legal_while_busy: bool = False
    addr_format: Optional[str] = None
    busy: Optional[BusySpec] = None
    arms: Optional[str] = None
    arm_at: str = "now"  # "now" | "busy_end"
    wait_after: Optional[str] = None
    requires: Optional[str] = None
    name: str = field(init=False)  # the CMD constant's name

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", opcode_name(self.opcode))

    @property
    def owes_twb(self) -> bool:
        """A confirm after which the die drops R/B# within tWB."""
        return self.wait_after == "tWB"

    @property
    def readable_now(self) -> bool:
        """Arms a source a burst may stream without waiting out a busy."""
        return self.arms not in (None, DISARM) and self.arm_at == "now"


_READ = BusySpec("read", "t_read_ns", jittered=True, scale="read_time_scale")
_PROGRAM = BusySpec("program", "t_prog_ns", jittered=True,
                    scale="program_time_scale", suspendable=True)
_ERASE = BusySpec("erase", "t_bers_ns", jittered=True, suspendable=True)
_PLANE_QUEUE = BusySpec("dummy", "t_dbsy_ns")

_C = CommandClass
_E = Effect

_ROWS = (
    # --- reads ---------------------------------------------------------
    OpcodeRow(CMD.READ_1ST, _C.READ, _E.LATCH, addr_format="full"),
    OpcodeRow(CMD.READ_2ND, _C.READ_CONFIRM, _E.CONFIRM, busy=_READ,
              arms="register", arm_at="busy_end", wait_after="tWB"),
    OpcodeRow(CMD.MP_READ_2ND, _C.READ_CONFIRM, _E.MP_QUEUE,
              busy=_PLANE_QUEUE, wait_after="tWB"),
    OpcodeRow(CMD.READ_CACHE_SEQ, _C.CACHE_READ_CONFIRM, _E.CACHE_CONFIRM,
              busy=dataclasses.replace(_READ, holds_rb=False),
              arms="register", wait_after="tWB"),
    OpcodeRow(CMD.READ_CACHE_END, _C.CACHE_READ_END, _E.CACHE_END,
              arms="register", wait_after="tWB"),
    OpcodeRow(CMD.CHANGE_READ_COL_1ST, _C.CHANGE_READ_COLUMN, _E.LATCH,
              addr_format="col"),
    # Enhanced variant: a full address selects the plane register.
    OpcodeRow(CMD.CHANGE_READ_COL_ENH_1ST, _C.CHANGE_READ_COLUMN, _E.LATCH,
              addr_format="full"),
    OpcodeRow(CMD.CHANGE_READ_COL_2ND, _C.CHANGE_READ_COLUMN, _E.ARM,
              arms="register"),
    # --- status: legal while busy, must not disturb the busy machine ----
    OpcodeRow(CMD.READ_STATUS, _C.STATUS, _E.STATUS, legal_while_busy=True,
              arms="status", wait_after="tWHR"),
    # Carries a row address (die select on multi-LUN packages).
    OpcodeRow(CMD.READ_STATUS_ENHANCED, _C.STATUS, _E.STATUS,
              legal_while_busy=True, addr_format="row", arms="status",
              wait_after="tWHR"),
    # --- programs --------------------------------------------------------
    OpcodeRow(CMD.PROGRAM_1ST, _C.PROGRAM, _E.LATCH, addr_format="full"),
    OpcodeRow(CMD.PROGRAM_2ND, _C.PROGRAM_CONFIRM, _E.CONFIRM,
              busy=_PROGRAM, wait_after="tWB"),
    OpcodeRow(CMD.MP_PROGRAM_2ND, _C.PROGRAM_CONFIRM, _E.MP_QUEUE,
              busy=_PLANE_QUEUE, wait_after="tWB"),
    OpcodeRow(CMD.CACHE_PROGRAM_2ND, _C.CACHE_PROGRAM_CONFIRM,
              _E.CACHE_CONFIRM,
              busy=dataclasses.replace(_PROGRAM, holds_rb=False,
                                       suspendable=False),
              wait_after="tWB"),
    OpcodeRow(CMD.CHANGE_WRITE_COL, _C.CHANGE_WRITE_COLUMN, _E.LATCH,
              addr_format="col"),
    # --- erase -----------------------------------------------------------
    OpcodeRow(CMD.ERASE_1ST, _C.ERASE, _E.LATCH, addr_format="row"),
    OpcodeRow(CMD.ERASE_2ND, _C.ERASE_CONFIRM, _E.CONFIRM, busy=_ERASE,
              wait_after="tWB"),
    OpcodeRow(CMD.MP_ERASE_2ND, _C.ERASE_CONFIRM, _E.MP_QUEUE,
              busy=_PLANE_QUEUE, wait_after="tWB"),
    # --- identification / configuration: effect follows the address ------
    OpcodeRow(CMD.READ_ID, _C.IDENT, _E.LATCH, addr_format="one",
              arms="id", wait_after="tWHR"),
    OpcodeRow(CMD.READ_PARAMETER_PAGE, _C.IDENT, _E.LATCH, addr_format="one",
              busy=BusySpec("param", "t_param_read_ns", opens_on="address"),
              arms="param_page", arm_at="busy_end"),
    OpcodeRow(CMD.SET_FEATURES, _C.FEATURES, _E.LATCH, addr_format="one",
              busy=BusySpec("feature", "t_feat_ns", opens_on="data_in")),
    OpcodeRow(CMD.GET_FEATURES, _C.FEATURES, _E.LATCH, addr_format="one",
              busy=BusySpec("feature", "t_feat_ns", opens_on="address"),
              arms="feature", arm_at="busy_end"),
    # --- resets: abort whatever runs, disarm, go busy for tRST -----------
    *(OpcodeRow(opcode, _C.RESET, _E.RESET, legal_while_busy=True,
                busy=BusySpec("reset", "t_reset_ns"), arms=DISARM,
                wait_after="tWB")
      for opcode in (CMD.RESET, CMD.SYNCHRONOUS_RESET, CMD.RESET_LUN)),
    # --- vendor-specific (modeled) ----------------------------------------
    OpcodeRow(CMD.VENDOR_PSLC_ENTER, _C.VENDOR, _E.PSLC_ENTER,
              requires="supports_pslc"),
    OpcodeRow(CMD.VENDOR_PSLC_EXIT, _C.VENDOR, _E.PSLC_EXIT),
    OpcodeRow(CMD.VENDOR_SUSPEND, _C.VENDOR, _E.SUSPEND,
              legal_while_busy=True, requires="supports_suspend"),
    # The reopened window keeps the suspended operation's kind; this
    # spec only prices the penalty added to its remaining time.
    OpcodeRow(CMD.VENDOR_RESUME, _C.VENDOR, _E.RESUME,
              busy=BusySpec("resume", "t_resume_ns"),
              requires="supports_suspend"),
)

#: opcode byte -> row.  READ UNIQUE ID (0xED) deliberately has none.
OPCODES: dict[int, OpcodeRow] = {row.opcode: row for row in _ROWS}

STATUS_OPCODES = frozenset(
    op for op, row in OPCODES.items() if row.effect is Effect.STATUS)


# ---------------------------------------------------------------------------
# Timing rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimingRule:
    """A minimum gap between an anchor event and a trigger event.

    Events are the strings produced by :func:`latch_events` and
    :func:`burst_events`, plus ``"ready"`` (the R/B# rising edge).  An
    ``adjacent`` rule applies only when the anchor is the wire event
    directly preceding the trigger; a ``consumed`` anchor is cleared by
    the first trigger that tests it.  The ``data_out`` anchor is the
    *end* of the burst.
    """

    param: str          # TimingSet field (also the rule's name)
    anchor: str
    trigger: str
    adjacent: bool
    consumed: bool
    static_id: str
    runtime_id: str
    anchor_text: str
    hint: str = ""


TIMING_RULES = (
    TimingRule("tWB", "confirm", "status", False, False,
               "OPV201", "TCK002", "the confirm",
               "give the die tWB to drop R/B# before polling it"),
    TimingRule("tWHR", "cmd", "data_out", True, False,
               "OPV202", "TCK006", "the command latch",
               "insert TimerWait(param='tWHR') (the C/A writer only pads "
               "status/ID latches)"),
    TimingRule("tRR", "ready", "page_data_out", False, True,
               "OPV203", "TCK007", "R/B# ready"),
    TimingRule("tRHW", "data_out", "cmd", True, False,
               "OPV204", "TCK008", "data out",
               "give the RE#-to-WE# turnaround time after a burst"),
    TimingRule("tCCS", "column_confirm", "data_out", False, True,
               "OPV205", "TCK005", "CHANGE READ COLUMN",
               "insert TimerWait(param='tCCS') between E0 and the burst"),
)

ANCHOR_EVENTS = frozenset(rule.anchor for rule in TIMING_RULES)


def due_rules(events: tuple, prev_wire: Optional[str], anchors: dict):
    """The rules a wire event raising ``events`` must honour: triggered
    by one of them, anchored (``anchors`` maps anchor event -> when) and,
    for adjacency rules, directly preceded by the anchor on the wire.
    The caller measures the gap and drops a ``consumed`` anchor."""
    for rule in TIMING_RULES:
        if (rule.trigger in events and rule.anchor in anchors
                and (not rule.adjacent or prev_wire == rule.anchor)):
            yield rule


def latch_events(row: Optional[OpcodeRow]) -> tuple[str, ...]:
    """Timing events a command latch of ``row`` raises (row may be None
    for an opcode outside the table)."""
    events = ["cmd"]
    if row is not None:
        if row.owes_twb:
            events.append("confirm")
        if row.effect is Effect.STATUS:
            events.append("status")
        if row.effect is Effect.ARM:
            events.append("column_confirm")
    return tuple(events)


def burst_events(nbytes: int) -> tuple[str, ...]:
    """Timing events the start of a data-out burst raises.  Single-byte
    bursts are status reads, paced by tWHR rather than tRR."""
    return ("data_out", "page_data_out") if nbytes > 1 else ("data_out",)
