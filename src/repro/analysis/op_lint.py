"""Static linter for op programs.

Because operations are data (:mod:`repro.core.opir`), ONFI-protocol
discipline can be checked *before* a program ever touches a simulator:
the linter walks the node tree of a built :class:`OpProgram` and flags
sequencing mistakes that would otherwise surface as timing-checker
violations (or silent data corruption) at run time.

Rules
-----
* **OPL001** — tCCS ordering: a column-change latch sequence
  (``05h``/``06h``/``E0h``) must be separated from the data-out burst
  that follows it by a ``TimerWait(param="tCCS")`` in the same
  transaction.
* **OPL002** — tADL ordering: a data-in burst immediately following a
  command/address latch sequence that ends in an address must set
  ``after_address=True`` so the Data Writer inserts tADL.
* **OPL003** — unterminated busy: a confirm-class opcode (read/program/
  erase confirm, reset) drops R/B#; the program must later poll status,
  arbitrate with ``SelectFirstReady``, or own the wait with a timer or
  soft sleep.  Cache-read confirms may instead stream the cache
  register out directly.  Polls themselves must be bounded
  (``max_polls``/``max_rounds`` positive) and name a known condition.
* **OPL004** — channel-hold audit: an explicit ``TimerWait(ns=...)``
  above :data:`CHANNEL_HOLD_THRESHOLD_NS` occupies the shared channel
  for a macroscopic time and must carry a non-empty ``reason``.
* **OPL005** — a transaction must carry at least one segment (the
  executor rejects empty transactions at dispatch time).
* **OPL006** — a DMA handle must be declared (``DeclareHandle``)
  before a ``DataXfer`` references it.
* **OPL007** — a ``TimerWait`` must specify exactly one of ``ns`` or
  ``param``, and ``param`` must name a real timing-set parameter.
* **OPL008** — a ``PollStatus`` with an explicit pacing period must not
  poll faster than the vendor's minimum status-poll interval (an
  explicit ``period_ns=0`` hammers the channel with back-to-back
  polls).  Requires vendor timing; pass ``timing=`` to
  :func:`lint_program` or use the library sweep.
* **OPL009** — dead IR: a step node no execution can reach (code after
  a ``Return``, the body of a ``Loop(count=0)``, a ``Branch`` arm
  pruned by a constant predicate).  Built on the shared control-flow
  graph pass (:mod:`repro.analysis.cfg`); warning severity, since dead
  nodes are inert rather than hazardous.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Iterator, Optional

from repro.core.opir.nodes import (
    Branch,
    DataXfer,
    DeclareHandle,
    HandleRef,
    LatchSeq,
    Loop,
    OpProgram,
    PollStatus,
    SelectFirstReady,
    SoftSleep,
    TimerWait,
    Txn,
    UNPACED_POLL_PERIOD_NS,
    effective_poll_period,
)
from repro.onfi.commands import CommandClass
from repro.onfi.protocol import OPCODES, OpcodeRow
from repro.onfi.timing import TimingSet

# A timer that parks the channel for longer than this must say why.
CHANNEL_HOLD_THRESHOLD_NS = 1_000

_TIMING_PARAMS = frozenset(f.name for f in dataclasses.fields(TimingSet))

# OPL003 reads the protocol table: a row that owes tWB is a confirm
# that starts a busy period the program must terminate.  Confirms that
# also leave a source readable at once (the cache-read pair) may
# instead be discharged by streaming the cache register out while the
# array fetches the next page.
_COLUMN_CHANGE = frozenset(
    opcode for opcode, row in OPCODES.items()
    if row.cls is CommandClass.CHANGE_READ_COLUMN)


@dataclasses.dataclass(frozen=True)
class LintFinding:
    """One linter diagnosis, anchored to a node path in the program."""

    rule: str
    severity: str  # "error" | "warning"
    program: str
    where: str
    message: str

    def __str__(self) -> str:
        return (f"{self.severity.upper()} {self.rule} "
                f"{self.program} @ {self.where}: {self.message}")

    def to_finding(self):
        """This lint result as a diagnostics Finding (OPL namespace)."""
        from repro.analysis.diagnostics import Finding

        return Finding(
            rule=self.rule,
            severity=self.severity,
            message=self.message,
            component=f"{self.program} @ {self.where}",
        )


def _iter_steps(nodes: Iterable, prefix: str) -> Iterator[tuple[str, object]]:
    """Flatten step nodes in program order (Branch arms and Loop bodies
    inline — a static approximation of execution order)."""
    for index, node in enumerate(nodes):
        path = f"{prefix}[{index}]"
        yield path, node
        if isinstance(node, Branch):
            yield from _iter_steps(node.then, f"{path}.then")
            yield from _iter_steps(node.orelse, f"{path}.orelse")
        elif isinstance(node, Loop):
            yield from _iter_steps(node.body, f"{path}.body")


def _last_command(segment: LatchSeq) -> Optional[int]:
    opcode = None
    for latch in segment.latches:
        if latch.kind == "cmd":
            opcode = int(latch.value)
        else:
            opcode = None
    return opcode


def _has_column_change(segment: LatchSeq) -> bool:
    return any(latch.kind == "cmd" and int(latch.value) in _COLUMN_CHANGE
               for latch in segment.latches)


def _ends_with_address(segment: LatchSeq) -> bool:
    return bool(segment.latches) and segment.latches[-1].kind == "addr"


def _lint_txn(program: str, path: str, txn: Txn,
              declared: set, findings: list) -> Optional[OpcodeRow]:
    """Per-transaction segment checks; returns the protocol-table row of
    this transaction's final command latch (if any)."""

    def report(rule: str, where: str, message: str) -> None:
        findings.append(LintFinding(rule, "error", program, where, message))

    if not txn.segments:
        report("OPL005", path, "transaction has no segments — the executor "
               "rejects empty transactions")
        return None

    pending_column_change = False   # column change awaiting its tCCS
    previous = None                 # previous segment node
    last_confirm: Optional[OpcodeRow] = None
    for index, segment in enumerate(txn.segments):
        where = f"{path}.segments[{index}]"
        if isinstance(segment, LatchSeq):
            if not segment.latches:
                report("OPL005", where, "latch sequence is empty")
            if _has_column_change(segment):
                pending_column_change = True
            opcode = _last_command(segment)
            if opcode is not None:
                last_confirm = OPCODES.get(opcode)
        elif isinstance(segment, TimerWait):
            _lint_timer(program, where, segment, findings)
            if segment.param == "tCCS":
                pending_column_change = False
        elif isinstance(segment, DataXfer):
            if isinstance(segment.handle, HandleRef) \
                    and segment.handle.name not in declared:
                report("OPL006", where,
                       f"handle {segment.handle.name!r} transferred before "
                       f"DeclareHandle")
            if segment.direction == "out" and pending_column_change:
                report("OPL001", where,
                       "data-out after a column change without an "
                       "intervening TimerWait(param='tCCS')")
            if segment.direction == "in" and not segment.after_address \
                    and isinstance(previous, LatchSeq) \
                    and _ends_with_address(previous):
                report("OPL002", where,
                       "data-in directly after an address latch must set "
                       "after_address=True (tADL)")
        previous = segment
    return last_confirm


def _lint_timer(program: str, where: str, node: TimerWait,
                findings: list) -> None:
    if (node.ns is None) == (node.param is None):
        findings.append(LintFinding(
            "OPL007", "error", program, where,
            "TimerWait needs exactly one of ns= or param="))
        return
    if node.param is not None and node.param not in _TIMING_PARAMS:
        findings.append(LintFinding(
            "OPL007", "error", program, where,
            f"unknown timing parameter {node.param!r} "
            f"(known: {sorted(_TIMING_PARAMS)})"))
    if node.param is None:
        dynamic = not isinstance(node.ns, int)
        if (dynamic or node.ns > CHANNEL_HOLD_THRESHOLD_NS) and not node.reason:
            findings.append(LintFinding(
                "OPL004", "error", program, where,
                f"explicit channel hold "
                f"({'dynamic' if dynamic else f'{node.ns} ns'} > "
                f"{CHANNEL_HOLD_THRESHOLD_NS} ns) needs a reason="))


def lint_program(program: OpProgram, timing=None) -> list[LintFinding]:
    """All findings for one built program (empty list == clean).

    ``timing`` is a vendor :class:`~repro.flash.vendors.VendorTiming`;
    when given, poll pacing is checked against its minimum poll
    interval (OPL008).
    """
    findings: list[LintFinding] = []
    declared: set = set()
    # (path, row) of the most recent confirm not yet terminated.
    pending: Optional[tuple[str, OpcodeRow]] = None

    for path, node in _iter_steps(program.nodes, "nodes"):
        if isinstance(node, DeclareHandle):
            declared.add(node.name)
        elif isinstance(node, Txn):
            if pending is not None and pending[1].readable_now \
                    and any(isinstance(s, DataXfer) for s in node.segments):
                pending = None  # cache register streamed out
            confirm = _lint_txn(program.name, path, node, declared, findings)
            if confirm is not None and confirm.owes_twb:
                pending = (path, confirm)
        elif isinstance(node, PollStatus):
            if node.until not in ("ready", "array_ready"):
                findings.append(LintFinding(
                    "OPL003", "error", program.name, path,
                    f"unknown poll condition {node.until!r}"))
            if not isinstance(node.max_polls, int) or node.max_polls <= 0:
                findings.append(LintFinding(
                    "OPL003", "error", program.name, path,
                    "poll must be bounded (max_polls > 0)"))
            period = getattr(node, "period_ns", None)
            # None means "unpaced by design" and is not flagged; an
            # explicit period is resolved through the same fallback the
            # interpreter uses, so lint and runtime cannot disagree on
            # what a period of 0/None actually does.
            if timing is not None and period is not None \
                    and effective_poll_period(period) < timing.t_poll_min_ns:
                effective = effective_poll_period(period)
                findings.append(LintFinding(
                    "OPL008", "warning", program.name, path,
                    f"poll period {effective} ns is below the vendor minimum "
                    f"poll interval ({timing.t_poll_min_ns} ns)"
                    + (" — back-to-back polls monopolize the channel"
                       if effective == UNPACED_POLL_PERIOD_NS else "")))
            pending = None
        elif isinstance(node, SelectFirstReady):
            if not isinstance(node.max_rounds, int) or node.max_rounds <= 0:
                findings.append(LintFinding(
                    "OPL003", "error", program.name, path,
                    "gang poll must be bounded (max_rounds > 0)"))
            pending = None
        elif isinstance(node, SoftSleep):
            pending = None
        elif node.__class__.__name__ == "CallOp":
            pending = None  # library ops terminate their own busy periods

    if pending is not None:
        findings.append(LintFinding(
            "OPL003", "error", program.name, pending[0],
            f"{pending[1].cls.value} confirm is never followed by a status "
            f"poll, timer, or sleep — the busy period is unterminated"))

    # OPL009 — dead IR, from the shared control-flow graph.
    from repro.analysis.cfg import build_cfg

    for vertex in build_cfg(program).unreachable():
        findings.append(LintFinding(
            "OPL009", "warning", program.name, vertex.path,
            f"{type(vertex.step).__name__} is unreachable — no execution "
            f"path leads here (dead code after a Return, a zero-trip "
            f"loop body, or a constant-predicate branch arm)"))
    return findings


# ---------------------------------------------------------------------------
# Whole-library sweep
# ---------------------------------------------------------------------------


def sample_kwargs(vendor) -> dict[str, dict]:
    """Representative build kwargs for every built-in op, sized to the
    vendor's geometry — what the CLI/CI sweep feeds each builder."""
    from repro.onfi.features import FeatureAddress
    from repro.onfi.geometry import AddressCodec, PhysicalAddress

    codec = AddressCodec(vendor.geometry)
    page = vendor.geometry.full_page_size
    addr0 = PhysicalAddress(block=2, page=0)
    # blocks 2 and 3 land on distinct planes for any planes >= 2 (the
    # codec maps block -> plane as block % planes).
    plane_addrs = tuple(
        PhysicalAddress(block=2 + index, page=0)
        for index in range(min(2, vendor.geometry.planes))
    )
    timing = vendor.timing
    return {
        "read_status": {},
        "read_status_enhanced": {
            "row_address_bytes": codec.encode_row(codec.row_address(addr0)),
        },
        "read_page": {"codec": codec, "address": addr0, "dram_address": 0},
        "full_page_read": {"codec": codec, "address": addr0, "dram_address": 0},
        "partial_read": {
            "codec": codec,
            "address": PhysicalAddress(block=2, page=0, column=256),
            "dram_address": 0, "length": 128,
        },
        "read_page_timed_wait": {
            "codec": codec, "address": addr0, "dram_address": 0,
            "wait_ns": int(timing.t_read_ns * 1.3),
        },
        "program_page": {
            "codec": codec, "address": PhysicalAddress(block=4, page=0),
            "dram_address": 0,
        },
        "partial_program": {
            "codec": codec, "address": PhysicalAddress(block=4, page=1),
            "chunks": ((0, 0, 128), (512, 0, 128)),
        },
        "erase_block": {"codec": codec, "block": 5},
        "pslc_read": {"codec": codec, "address": addr0, "dram_address": 0},
        "pslc_program": {
            "codec": codec, "address": PhysicalAddress(block=6, page=0),
            "dram_address": 0,
        },
        "pslc_erase": {"codec": codec, "block": 7},
        "set_features": {
            "feature_address": int(FeatureAddress.IO_DRIVE_STRENGTH),
            "params": (1, 0, 0, 0), "feat_busy_ns": timing.t_feat_ns,
        },
        "get_features": {
            "feature_address": int(FeatureAddress.IO_DRIVE_STRENGTH),
            "feat_busy_ns": timing.t_feat_ns,
        },
        "read_id": {},
        "read_parameter_page": {"param_busy_ns": timing.t_param_read_ns},
        "reset": {},
        "cache_read_sequential": {
            "codec": codec, "start": PhysicalAddress(block=8, page=0),
            "dram_addresses": (0, page),
        },
        "cache_program": {
            "codec": codec,
            "pages": ((PhysicalAddress(block=9, page=0), 0),
                      (PhysicalAddress(block=9, page=1), 0)),
        },
        "multiplane_read": {
            "codec": codec, "addresses": plane_addrs,
            "dram_addresses": tuple(page * i for i in range(len(plane_addrs))),
        },
        "multiplane_program": {
            "codec": codec,
            "pages": tuple((PhysicalAddress(block=10 + i, page=0), 0)
                           for i in range(len(plane_addrs))),
        },
        "paired_program": {
            "codec": codec,
            "pages": tuple((PhysicalAddress(block=12 + i, page=0), 0)
                           for i in range(len(plane_addrs))),
        },
        # A chain step after a first one (continues its loaded pages),
        # and the end of that chain.
        "program_chain_step": {
            "codec": codec,
            "pages": tuple((PhysicalAddress(block=14 + i, page=0), 0)
                           for i in range(len(plane_addrs))),
            "finished": tuple((PhysicalAddress(block=12 + i, page=0), 0)
                              for i in range(len(plane_addrs))),
        },
        "program_chain_end": {
            "codec": codec,
            "pages": tuple((PhysicalAddress(block=12 + i, page=0), 0)
                           for i in range(len(plane_addrs))),
        },
        "multiplane_erase": {"codec": codec, "blocks": (10, 11)},
        "paired_erase": {"codec": codec, "blocks": (12, 13)},
        "gang_read": {
            "codec": codec, "address": addr0, "positions": (0, 1),
            "dram_address": 0,
        },
        "read_with_retry": {"codec": codec, "address": addr0,
                            "dram_address": 0},
        "suspend": {},
        "resume": {},
        "erase_with_preemptive_read": {
            "codec": codec, "erase_block": 12, "read_address": addr0,
            "dram_address": 0,
            "suspend_after_ns": timing.t_bers_ns // 2,
        },
    }


@dataclasses.dataclass(frozen=True)
class LintCoverage:
    """What the library sweep actually linted vs. what is registered.

    A builder silently dropped from :func:`sample_kwargs` would
    otherwise vanish from the sweep without failing anything; CI gates
    on :attr:`complete`.
    """

    registered: tuple[str, ...]
    linted: tuple[str, ...]
    skipped: tuple[str, ...]
    vendors: int

    @property
    def complete(self) -> bool:
        return not self.skipped

    def describe(self) -> str:
        line = (f"coverage: {len(self.linted)}/{len(self.registered)} "
                f"registered programs linted across {self.vendors} vendor(s)")
        if self.skipped:
            line += f"; skipped: {', '.join(self.skipped)}"
        return line


def lint_library(
    vendors: Optional[Iterable] = None,
    kwargs_for: Callable[[object], dict] = sample_kwargs,
) -> tuple[list[LintFinding], LintCoverage]:
    """Build and lint every registered op for every vendor profile
    (honouring each vendor's ``op_overrides``), with coverage."""
    from repro.core.opir.registry import list_ops, resolve_builder
    from repro.flash.vendors import VENDOR_PROFILES

    if vendors is None:
        vendors = list(VENDOR_PROFILES.values())
    else:
        vendors = list(vendors)
    findings: list[LintFinding] = []
    registered_names: set[str] = set(list_ops())
    linted: set[str] = set()
    skipped: set[str] = set()
    for vendor in vendors:
        samples = kwargs_for(vendor)
        # Stock library plus any programs this vendor registers only
        # through op_overrides / with_op_override — an override-only op
        # must not escape the sweep.
        names = list(list_ops())
        for name, _builder in getattr(vendor, "op_overrides", ()) or ():
            if name not in names:
                names.append(name)
        registered_names.update(names)
        for name in names:
            if name not in samples:
                skipped.add(name)
                findings.append(LintFinding(
                    "OPL000", "warning", name, "-",
                    f"no sample kwargs for {name!r}; not linted for "
                    f"{vendor.name}"))
                continue
            builder = resolve_builder(name, vendor)
            findings.extend(
                lint_program(builder(**samples[name]), timing=vendor.timing)
            )
            linted.add(name)
    coverage = LintCoverage(
        registered=tuple(sorted(registered_names)),
        linted=tuple(sorted(linted)),
        skipped=tuple(sorted(skipped)),
        vendors=len(vendors),
    )
    return findings, coverage


def lint_all(
    vendors: Optional[Iterable] = None,
    kwargs_for: Callable[[object], dict] = sample_kwargs,
) -> list[LintFinding]:
    """Flat-findings variant of :func:`lint_library` (kept for callers
    that do not need coverage)."""
    return lint_library(vendors, kwargs_for)[0]
