"""Static op-IR verifier: ahead-of-time proofs over every program path.

The sanitizers (SAN2xx/3xx/4xx) and the logic-analyzer timing checker
(TCK) only see hazards on paths a workload happens to exercise, at
waveform fidelity.  This module promotes those runtime checks to
static proofs: it abstract-interprets a built
:class:`~repro.core.opir.nodes.OpProgram` against the ONFI die
protocol in :mod:`repro.onfi.protocol` — the very opcode rows
:class:`repro.flash.lun.Lun` executes, here read over an interval
timing domain, and the very timing-rule list the capture checker
(:mod:`repro.analysis.timing_check`) evaluates over integers — so a
protocol or timing bug is reported before anything runs, over *all*
paths, not just observed traces.

Rule namespaces (OPV — INTERNALS §13 has the full catalogue):

* **OPV1xx** — protocol automaton (static SAN2xx): OPV101 command
  latched while array-busy, OPV102 data-out with no proven data
  source, OPV103 static chip-select selecting zero/multiple dies,
  OPV104 cycle-grammar violations (orphan address, confirm without a
  full address, cache read without a prior read, unsuspendable
  suspend, a confirm a suspended erase refuses: another ERASE, or a
  READ/PROGRAM/ERASE of its own block).
* **OPV2xx** — interval timing vs. the vendor-tightened
  :meth:`~repro.flash.vendors.VendorProfile.timing_set`: OPV201 tWB,
  OPV202 tWHR, OPV203 tRR, OPV204 tRHW, OPV205 tCCS, OPV206 minimum
  poll period.
* **OPV3xx** — liveness proofs: OPV301 a poll loop that provably
  exhausts its budget before the die can be ready, OPV302 a path
  whose array time provably blows the watchdog budget.
* **OPV4xx** — DMA/register def-use dataflow (static SAN3xx): OPV401
  transfer direction vs. handle source, OPV402 transfer byte count
  vs. minted window, OPV403 register read before any definition,
  OPV404 handle use not dominated by its declaration.
* **OPV5xx** — TLM templatability: OPV501 explains (info severity)
  each reason :func:`~repro.core.fastops.template_blockers` finds in
  the program's lowering for the TLM tier running it on the generic
  runtime instead of as a template.

Abstract domains
----------------
Time is tracked with closed intervals ``[lo, hi]`` (``hi`` may be
``inf``).  Within a transaction, offsets come from the *real* µFSM
emitters, so intra-segment timing is exact; between steps the verifier
assumes an arbitrary software gap ``[0, inf)`` and a ``SoftSleep(ns)``
guarantees at least ``ns``.  Array-busy windows carry the vendor's
jitter bounds; a window is *proven elapsed* only when its remaining
interval's upper bound reaches zero.  Branches fork the state and
join by interval hull / set intersection; loops run their (static)
trip count.  All checks fire only on *proven* violations — the stock
27-op library verifies clean for every vendor profile and NV-DDR2
mode, which the test suite pins.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.analysis.cfg import const_pred
from repro.core.opir.compile import resolve_timer_ns
from repro.core.opir.nodes import (
    Branch,
    BreakIf,
    CallOp,
    DataXfer,
    DeclareHandle,
    E,
    HandleRef,
    LatchSeq,
    Loop,
    OpProgram,
    PollStatus,
    Reg,
    Return,
    SelectFirstReady,
    SetReg,
    SoftSleep,
    TimerWait,
    Txn,
    effective_poll_period,
)
from repro.core.ufsm.base import UfsmBank
from repro.dram import DmaHandle
from repro.flash.cell import CellMode, profile_for
from repro.onfi.commands import CMD, CommandClass, opcode_name
from repro.onfi.datamodes import interface_by_name
from repro.onfi.protocol import (
    ANCHOR_EVENTS,
    OPCODES,
    STATUS_OPCODES,
    BusySpec,
    Effect,
    OpcodeRow,
    burst_events,
    due_rules,
    latch_events,
)

INF = float("inf")

#: Per-poll-round CPU/dispatch allowance granted when proving that a
#: poll budget cannot outlast a busy window (OPV301).  Generous on
#: purpose: the proof must hold for any realistic scheduler.
POLL_CPU_ALLOWANCE_NS = 10_000

#: The two NV-DDR2 interface modes the library ships against.
DEFAULT_MODES = ("NV-DDR2-100", "NV-DDR2-200")


# ---------------------------------------------------------------------------
# Interval arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Iv:
    """A closed interval of nanoseconds; ``hi`` may be infinite."""

    lo: float
    hi: float

    @staticmethod
    def exact(ns: float) -> "Iv":
        return Iv(ns, ns)

    @staticmethod
    def at_least(ns: float) -> "Iv":
        return Iv(ns, INF)

    def __add__(self, other: "Iv") -> "Iv":
        return Iv(self.lo + other.lo, self.hi + other.hi)

    def minus(self, other: "Iv") -> "Iv":
        """Interval difference ``self - other`` (independent bounds)."""
        return Iv(self.lo - other.hi, self.hi - other.lo)

    def hull(self, other: "Iv") -> "Iv":
        return Iv(min(self.lo, other.lo), max(self.hi, other.hi))

    def describe(self) -> str:
        hi = "inf" if self.hi == INF else f"{self.hi:.0f}"
        return f"[{self.lo:.0f}, {hi}]ns"


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class VerifyFinding:
    """One verifier diagnosis, anchored to a node path."""

    rule: str
    severity: str  # "error" | "warning" | "info"
    program: str
    where: str
    message: str
    hint: str = ""

    def __str__(self) -> str:
        return (f"{self.severity.upper()} {self.rule} "
                f"{self.program} @ {self.where}: {self.message}")

    def to_finding(self):
        """This result as a diagnostics Finding (OPV namespace)."""
        from repro.analysis.diagnostics import Finding

        return Finding(
            rule=self.rule,
            severity=self.severity,
            message=self.message,
            component=f"{self.program} @ {self.where}",
            hint=self.hint,
        )


# ---------------------------------------------------------------------------
# Abstract die + timing state
# ---------------------------------------------------------------------------


@dataclass
class _Busy:
    kind: str          # a BusySpec.kind, or "unknown" after a join
    remaining: Iv
    started_at: str = ""  # node path of the confirm, for messages
    suspendable: bool = True  # may be: only a proven no is flagged
    blocks: Optional[frozenset] = None  # an erase's blocks, when known


@dataclass
class _State:
    """The abstract state of one (conflated) target die plus the
    dataflow environment of the interpreter."""

    busy: Optional[_Busy] = None
    cache_busy: Optional[Iv] = None      # cache-read array fetch remaining
    cache_prog: Optional[Iv] = None      # cache-program array work remaining
    suspended: Optional[_Busy] = None
    # The program has latched a command: the die state is its own from
    # here, so a suspend/resume can no longer act on a caller's op.
    owned: bool = False
    pending_arm: Optional[str] = None    # source armed when busy completes
    pending_loads: bool = False          # ...and the page register fills

    armed: str = "none"   # none|status|register|feature|id|param|unknown
    register_loaded: str = "no"  # no|yes|maybe
    phase: str = "idle"   # idle|await_addr|await_confirm
    pending: Optional[OpcodeRow] = None  # row awaiting its address/data
    have_row: bool = False
    # The block of the latched row address, and those of the planes
    # queued for the next confirm (None: not known on every path).
    row_block: Optional[int] = None
    queued: Optional[tuple] = ()
    status_addr_pending: bool = False
    pslc: bool = False

    # Timing trackers: time since each timing-rule anchor event (absent
    # = no anchor / arbitrarily long ago).  "data_out" counts from the
    # burst's end, so it is transiently negative inside the segment
    # that carries the burst.
    since: dict = field(default_factory=dict)
    prev_wire: Optional[str] = None      # cmd|addr|data_out|data_in

    # Dataflow environment.
    regs_def: set = field(default_factory=set)
    regs_maybe: set = field(default_factory=set)
    handles: dict = field(default_factory=dict)        # definitely declared
    handles_maybe: dict = field(default_factory=dict)  # declared on some path
    terminated: bool = False

    def clone(self) -> "_State":
        twin = _State(**{f.name: getattr(self, f.name)
                         for f in dataclasses.fields(self)})
        twin.since = dict(self.since)
        twin.regs_def = set(self.regs_def)
        twin.regs_maybe = set(self.regs_maybe)
        twin.handles = dict(self.handles)
        twin.handles_maybe = dict(self.handles_maybe)
        if self.busy is not None:
            twin.busy = dataclasses.replace(self.busy)
        if self.suspended is not None:
            twin.suspended = dataclasses.replace(self.suspended)
        return twin

    # -- time ---------------------------------------------------------

    def advance(self, dt: Iv) -> None:
        """Let ``dt`` nanoseconds elapse (no wire activity)."""
        self.since = {name: gap + dt for name, gap in self.since.items()}
        if self.busy is not None:
            remaining = self.busy.remaining.minus(dt)
            if remaining.hi <= 0:
                # Proven complete: the ready edge landed somewhere in
                # [-hi, -lo] nanoseconds ago.
                self.since["ready"] = Iv(max(0.0, -remaining.hi),
                                         max(0.0, -remaining.lo))
                self._complete_busy()
            else:
                self.busy.remaining = remaining
        if self.cache_busy is not None:
            remaining = self.cache_busy.minus(dt)
            self.cache_busy = None if remaining.hi <= 0 else remaining
        if self.cache_prog is not None:
            remaining = self.cache_prog.minus(dt)
            self.cache_prog = None if remaining.hi <= 0 else remaining
        # A suspended operation's array clock is stopped: no change.

    def _complete_busy(self) -> None:
        self.busy = None
        if self.pending_arm is not None:
            self.armed = self.pending_arm
            if self.pending_loads:
                self.register_loaded = "yes"
            self.pending_arm = None
            self.pending_loads = False

    # -- join (Branch merge / loop exits) -----------------------------

    @staticmethod
    def _join_iv(a: Optional[Iv], b: Optional[Iv]) -> Optional[Iv]:
        # None means "arbitrarily long ago" — joining keeps the
        # tighter anchor so minimum-gap checks stay sound: the check
        # applies on the path where the anchor exists.
        if a is None:
            return b if b is None else Iv(b.lo, INF)
        if b is None:
            return Iv(a.lo, INF)
        return a.hull(b)

    @staticmethod
    def join(a: "_State", b: "_State") -> "_State":
        if a.terminated:
            return b
        if b.terminated:
            return a
        out = a.clone()
        # Busy windows: keep the pessimistic union.
        if a.busy is None and b.busy is None:
            out.busy = None
        else:
            busys = [s.busy for s in (a, b) if s.busy is not None]
            kind = busys[0].kind if all(x.kind == busys[0].kind
                                        for x in busys) else "unknown"
            remaining = busys[0].remaining
            for extra in busys[1:]:
                remaining = remaining.hull(extra.remaining)
            if len(busys) == 1:
                # The other path is already idle: may-busy at most.
                remaining = Iv(min(remaining.lo, 0.0), remaining.hi)
            out.busy = _Busy(kind, remaining, busys[0].started_at,
                             any(x.suspendable for x in busys))
        for name in ("cache_busy", "cache_prog"):
            iva, ivb = getattr(a, name), getattr(b, name)
            if iva is None and ivb is None:
                setattr(out, name, None)
            else:
                merged = iva if iva is not None else ivb
                if iva is not None and ivb is not None:
                    merged = iva.hull(ivb)
                else:
                    merged = Iv(min(merged.lo, 0.0), merged.hi)
                setattr(out, name, merged)
        if a.suspended is None and b.suspended is None:
            out.suspended = None
        elif a.suspended is not None and b.suspended is not None:
            kind = (a.suspended.kind if a.suspended.kind == b.suspended.kind
                    else "unknown")
            blocks = None
            if a.suspended.blocks is not None \
                    and b.suspended.blocks is not None:
                blocks = a.suspended.blocks & b.suspended.blocks  # both paths
            out.suspended = _Busy(
                kind, a.suspended.remaining.hull(b.suspended.remaining),
                suspendable=(a.suspended.suspendable
                             or b.suspended.suspendable), blocks=blocks)
        else:
            present = a.suspended or b.suspended
            out.suspended = _Busy("unknown", Iv(0, present.remaining.hi))
        out.owned = a.owned and b.owned
        out.pending_arm = (a.pending_arm if a.pending_arm == b.pending_arm
                           else a.pending_arm or b.pending_arm)
        out.pending_loads = a.pending_loads or b.pending_loads
        out.armed = a.armed if a.armed == b.armed else "unknown"
        out.register_loaded = (a.register_loaded
                               if a.register_loaded == b.register_loaded
                               else "maybe")
        out.phase = a.phase if a.phase == b.phase else "idle"
        out.pending = a.pending if a.pending is b.pending else None
        out.have_row = a.have_row and b.have_row
        out.row_block = a.row_block if a.row_block == b.row_block else None
        out.queued = a.queued if a.queued == b.queued else None
        out.status_addr_pending = False
        out.pslc = a.pslc or b.pslc
        out.since = {name: _State._join_iv(a.since.get(name),
                                           b.since.get(name))
                     for name in {**a.since, **b.since}}
        out.prev_wire = a.prev_wire if a.prev_wire == b.prev_wire else None
        out.regs_def = a.regs_def & b.regs_def
        out.regs_maybe = a.regs_maybe | b.regs_maybe
        out.handles = {k: v for k, v in a.handles.items()
                       if k in b.handles}
        out.handles_maybe = {**a.handles_maybe, **b.handles_maybe}
        out.terminated = False
        return out


# ---------------------------------------------------------------------------
# Expression reads (OPV403 support)
# ---------------------------------------------------------------------------


def _reg_reads(value, out: set) -> None:
    if isinstance(value, Reg):
        out.add(value.name)
    elif isinstance(value, E):
        args = value.args[1:] if value.op == "hook" else value.args
        for arg in args:
            _reg_reads(arg, out)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _reg_reads(item, out)


def _has_dynamic(value) -> bool:
    if isinstance(value, (Reg, HandleRef, E)):
        return True
    if isinstance(value, (tuple, list)):
        return any(_has_dynamic(item) for item in value)
    return False


# ---------------------------------------------------------------------------
# The verifier
# ---------------------------------------------------------------------------


class _Verifier:
    def __init__(self, program: OpProgram, vendor, mode: str,
                 luns: Optional[int], watchdog_ns: Optional[int]):
        self.program = program
        self.vendor = vendor
        self.mode = mode
        self.bank = UfsmBank(interface_by_name(mode))
        # Checks run against the vendor-tightened timing set; segment
        # layout comes from the mode's own timing (what the emitters
        # guarantee on the wire).
        self.req = vendor.timing_set(mode) if vendor is not None \
            else self.bank.ca_writer.timing
        self.luns = luns if luns is not None \
            else getattr(vendor, "luns_per_channel", 8)
        if watchdog_ns is None:
            from repro.core.recovery import Watchdog

            watchdog_ns = Watchdog.for_vendor(vendor).budget_ns
        self.watchdog_ns = watchdog_ns
        self.findings: list[VerifyFinding] = []
        self._poll_round_ns = self._status_round_ns()

    # -- plumbing -----------------------------------------------------

    def flag(self, rule: str, severity: str, where: str, message: str,
             hint: str = "") -> None:
        self.findings.append(VerifyFinding(
            rule=rule, severity=severity, program=self.program.name,
            where=where, message=message, hint=hint))

    def _status_round_ns(self) -> int:
        from repro.core.ufsm.ca_writer import cmd as cmd_latch

        latch = self.bank.ca_writer.emit([cmd_latch(CMD.READ_STATUS)])
        data = self.bank.data_reader.emit(1, DmaHandle(None, 0, 1))
        return latch.duration_ns + data.duration_ns

    def _window(self, spec: BusySpec, st: _State) -> Iv:
        """A busy window as an interval: the bounds the die model
        samples inside, scaled by the active cell mode."""
        return Iv(*spec.bounds(
            self.vendor.timing,
            profile_for(CellMode.PSLC) if st.pslc else None))

    # -- entry --------------------------------------------------------

    def run(self) -> list[VerifyFinding]:
        state = _State()
        if self.program.continues:
            # The op before it on the die left a PROGRAM loaded,
            # awaiting its confirm (OpProgram.continues).
            state.pending = OPCODES[CMD.PROGRAM_1ST]
            state.phase = "await_confirm"
            state.have_row = True
            state.register_loaded = "yes"
            state.owned = True
        self._exec_nodes(self.program.nodes, "nodes", state, depth=0)
        self._plan_findings()
        return self.findings

    def _plan_findings(self) -> None:
        """OPV501: name each reason the TLM tier runs this program on
        the generic runtime instead of as a template — the runner's own
        step check (:func:`~repro.core.fastops.template_blockers`), on
        this program's lowering against the verifier's bank (a pure
        wrapper's callee's, which is the shape the runner runs)."""
        from repro.core.fastops import template_blockers
        from repro.core.opir.registry import program_shape

        try:
            lowered = program_shape(self.bank, self.vendor, self.program)[0]
            prefix = ""
            if lowered.alias is not None:
                lowered = lowered.alias[1]
                prefix = f"nodes[0].{lowered.program.name}."
            blockers = template_blockers(self.bank, self.vendor, lowered)
        except Exception as exc:  # defensive: never crash the verifier
            self.flag("OPV501", "info", "nodes",
                      f"plan analysis failed: {exc}")
            return
        for where, reason in blockers:
            self.flag(
                "OPV501", "info", prefix + where,
                f"not TLM-templatable: {reason}",
                hint="the program runs on the generic runtime, which is "
                     "exact; this is informational, not a defect",
            )

    # -- step walk ----------------------------------------------------

    def _exec_nodes(self, nodes, prefix: str, st: _State, depth: int) -> None:
        for index, node in enumerate(nodes):
            if st.terminated:
                return  # OPL009 reports the dead tail
            self._exec_one(node, f"{prefix}[{index}]", st, depth)

    def _exec_one(self, node, path: str, st: _State, depth: int) -> None:
        """Dispatch one step node at an explicit path."""
        if isinstance(node, Txn):
            self._exec_txn(node, path, st)
        elif isinstance(node, DeclareHandle):
            st.handles[node.name] = node
            st.handles_maybe[node.name] = node
        elif isinstance(node, PollStatus):
            self._exec_poll(node, path, st)
        elif isinstance(node, SoftSleep):
            self._check_reads(node.ns, path, st)
            if isinstance(node.ns, int):
                st.advance(Iv.at_least(node.ns))
            else:
                st.advance(Iv(0, INF))
        elif isinstance(node, SetReg):
            self._check_reads(node.expr, path, st)
            st.regs_def.add(node.name)
            st.regs_maybe.add(node.name)
        elif isinstance(node, CallOp):
            self._exec_call(node, path, st, depth)
        elif isinstance(node, Branch):
            self._exec_branch(node, path, st, depth)
        elif isinstance(node, Loop):
            self._exec_loop(node, path, st, depth)
        elif isinstance(node, BreakIf):
            # Loop-aware handling lives in _exec_body_with_breaks; a
            # stray BreakIf outside a loop only defines its registers.
            self._check_reads(node.pred, path, st)
            for name, expr in node.sets:
                self._check_reads(expr, path, st)
                st.regs_maybe.add(name)
        elif isinstance(node, SelectFirstReady):
            self._exec_select(node, path, st)
        elif isinstance(node, Return):
            self._check_reads(node.expr, path, st)
            st.terminated = True

    def _exec_branch(self, node: Branch, path: str, st: _State,
                     depth: int) -> None:
        self._check_reads(node.pred, path, st)
        taken = const_pred(node.pred)
        if taken is True:
            self._exec_nodes(node.then, f"{path}.then", st, depth)
            return
        if taken is False:
            self._exec_nodes(node.orelse, f"{path}.orelse", st, depth)
            return
        then_state = st.clone()
        else_state = st.clone()
        self._exec_nodes(node.then, f"{path}.then", then_state, depth)
        self._exec_nodes(node.orelse, f"{path}.orelse", else_state, depth)
        merged = _State.join(then_state, else_state)
        if then_state.terminated and else_state.terminated:
            merged.terminated = True
        self._copy_into(st, merged)

    def _exec_loop(self, node: Loop, path: str, st: _State,
                   depth: int) -> None:
        if node.count <= 0:
            return
        st.regs_def.add(node.var)
        st.regs_maybe.add(node.var)
        exits: list[_State] = []
        for _ in range(node.count):
            self._exec_body_with_breaks(node.body, f"{path}.body", st,
                                        depth, exits)
            if st.terminated:
                break
        merged = st
        for snapshot in exits:
            merged = _State.join(merged, snapshot)
        self._copy_into(st, merged)

    def _exec_body_with_breaks(self, nodes, prefix: str, st: _State,
                               depth: int, exits: list) -> None:
        """One loop-body iteration, collecting BreakIf exit snapshots."""
        for index, node in enumerate(nodes):
            if st.terminated:
                return
            path = f"{prefix}[{index}]"
            if isinstance(node, BreakIf):
                self._check_reads(node.pred, path, st)
                snapshot = st.clone()
                for name, expr in node.sets:
                    snapshot.regs_def.add(name)
                    snapshot.regs_maybe.add(name)
                exits.append(snapshot)
                for name, _ in node.sets:
                    st.regs_maybe.add(name)
            else:
                self._exec_one(node, path, st, depth)

    @staticmethod
    def _copy_into(dst: _State, src: _State) -> None:
        if dst is src:
            return
        for f in dataclasses.fields(_State):
            setattr(dst, f.name, getattr(src, f.name))

    # -- dataflow -----------------------------------------------------

    def _check_reads(self, value, where: str, st: _State) -> None:
        reads: set = set()
        _reg_reads(value, reads)
        for name in sorted(reads):
            if name not in st.regs_maybe:
                self.flag(
                    "OPV403", "warning", where,
                    f"register {name!r} is read but never assigned on any "
                    f"path to this point — the interpreter yields None",
                    hint="SetReg the register (even to None) before "
                         "reading it, or drop the read",
                )
                st.regs_maybe.add(name)  # report once per register

    def _check_handle(self, node: DataXfer, where: str, st: _State) -> None:
        handle = node.handle
        if not isinstance(handle, HandleRef):
            return
        name = handle.name
        decl = st.handles_maybe.get(name)
        if decl is None:
            self.flag(
                "OPV404", "error", where,
                f"handle {name!r} is transferred but no execution path "
                f"declares it — the interpreter raises KeyError",
                hint="DeclareHandle must dominate every DataXfer that "
                     "references the handle",
            )
            return
        if name not in st.handles:
            self.flag(
                "OPV404", "warning", where,
                f"handle {name!r} is only declared on some paths to this "
                f"transfer",
            )
        source = decl.source
        if node.direction == "out" and source not in ("from_flash", "capture"):
            self.flag(
                "OPV401", "error", where,
                f"data-out burst sinks into handle {name!r} minted with "
                f"source={source!r} — a {source} window is never staged "
                f"for capture (the memory sanitizer flags this as an "
                f"unstaged DMA read at run time)",
                hint="mint data-out destinations with 'from_flash' or "
                     "'capture'",
            )
        if node.direction == "in" and source not in ("to_flash", "inline"):
            self.flag(
                "OPV401", "error", where,
                f"data-in burst sources from handle {name!r} minted with "
                f"source={source!r} — its DRAM window was never written "
                f"(SAN301 at run time)",
                hint="mint data-in sources with 'to_flash' or 'inline'",
            )
        declared = decl.nbytes or (len(decl.data)
                                   if source == "inline" else 0)
        if declared and node.nbytes != declared:
            self.flag(
                "OPV402", "error", where,
                f"transfer moves {node.nbytes} B but handle {name!r} was "
                f"minted for {declared} B (SAN303 at run time)",
                hint="size the DeclareHandle window to the burst",
            )

    # -- chip select --------------------------------------------------

    def _check_mask(self, mask, where: str, what: str) -> None:
        if mask is None:
            return  # the operation's single target die
        if not isinstance(mask, int):
            return  # runtime-computed mask (gang winner)
        selected = bin(mask & ((1 << self.luns) - 1)).count("1")
        if selected == 1:
            return
        if selected == 0:
            self.flag(
                "OPV103", "error", where,
                f"{what} addressed to a deselected die (chip_mask="
                f"0b{mask:b} selects nothing on a {self.luns}-LUN "
                f"channel) — DQ would float (SAN203 at run time)",
                hint="set chip_mask to exactly one populated LUN position",
            )
        else:
            self.flag(
                "OPV103", "error", where,
                f"{what} with {selected} dies selected (chip_mask="
                f"0b{mask:b}) — multiple dies would drive DQ "
                f"simultaneously (SAN203 at run time)",
                hint="broadcast is legal for command/address latches "
                     "only; read data from one die at a time",
            )

    # -- transactions -------------------------------------------------

    def _exec_txn(self, node: Txn, path: str, st: _State) -> None:
        st.advance(Iv(0, INF))  # software gap before dispatch
        for index, segment in enumerate(node.segments):
            where = f"{path}.segments[{index}]"
            if isinstance(segment, LatchSeq):
                self._exec_latchseq(segment, where, st)
            elif isinstance(segment, TimerWait):
                self._exec_timer(segment, where, st)
            elif isinstance(segment, DataXfer):
                self._exec_xfer(segment, where, st)

    def _exec_latchseq(self, seg: LatchSeq, where: str, st: _State) -> None:
        if not seg.latches:
            return  # OPL005 reports it
        is_status = any(latch.kind == "cmd"
                        and int(latch.value) in STATUS_OPCODES
                        for latch in seg.latches)
        if is_status and not seg.via_chip_control:
            self._check_mask(seg.chip_mask, where, "status poll")
        try:
            emitted = self.bank.ca_writer.emit(list(seg.latches))
        except Exception as exc:
            self.flag("OPV104", "error", where, f"unlowerable latch "
                      f"sequence: {exc}")
            return
        cursor = 0
        for offset, action in emitted.actions:
            st.advance(Iv.exact(offset - cursor))
            cursor = offset
            kind = type(action).__name__
            if kind == "CommandLatch":
                self._on_command(action.opcode, where, st)
            elif kind == "AddressLatch":
                self._on_address(action.address_bytes, where, st)
        st.advance(Iv.exact(emitted.duration_ns - cursor))

    def _exec_timer(self, seg: TimerWait, where: str, st: _State) -> None:
        try:
            ns = resolve_timer_ns(self.bank, seg)
        except Exception:
            return  # OPL007 reports it
        if isinstance(ns, int):
            st.advance(Iv.exact(ns))
        else:
            st.advance(Iv(0, INF))

    def _exec_xfer(self, seg: DataXfer, where: str, st: _State) -> None:
        if not isinstance(seg.nbytes, int) or seg.nbytes <= 0:
            return
        if seg.direction == "out":
            self._check_mask(seg.chip_mask, where, "data-out burst")
            emitted = self.bank.data_reader.emit(
                seg.nbytes, DmaHandle(None, 0, seg.nbytes))
        elif seg.direction == "in":
            emitted = self.bank.data_writer.emit(
                seg.nbytes, DmaHandle(None, 0, seg.nbytes),
                after_address=seg.after_address)
        else:
            return
        self._check_handle(seg, where, st)
        offset, _action = emitted.actions[0]
        st.advance(Iv.exact(offset))
        wire_ns = self.bank.interface.transfer_ns(seg.nbytes)
        if seg.direction == "out":
            self._on_data_out(seg.nbytes, Iv.exact(-wire_ns), where, st)
        else:
            self._on_data_in(seg.nbytes, where, st)
        st.prev_wire = "data_out" if seg.direction == "out" else "data_in"
        st.advance(Iv.exact(emitted.duration_ns - offset))

    # -- the ONFI automaton: repro.onfi.protocol rows, read abstractly --

    def _check_gaps(self, events: tuple, subject: str, where: str,
                    st: _State, stamp: Iv = Iv.exact(0)) -> None:
        """The static evaluator of the timing-rule list: flag every rule
        triggered by ``events`` whose anchor can be closer than its
        parameter, then restart the anchors this wire event sets
        (``stamp`` is how long ago the event's anchoring edge is)."""
        for rule in due_rules(events, st.prev_wire, st.since):
            gap = st.since[rule.anchor]
            limit = getattr(self.req, rule.param)
            if gap.lo < limit:
                self.flag(
                    rule.static_id, "error", where,
                    f"{subject} can follow {rule.anchor_text} by "
                    f"{gap.describe()} ({rule.param}={limit} ns)",
                    hint=rule.hint,
                )
            if rule.consumed:
                del st.since[rule.anchor]
        for name in events:
            if name in ANCHOR_EVENTS:
                st.since[name] = stamp

    def _on_command(self, opcode: int, where: str, st: _State) -> None:
        row = OPCODES.get(opcode)
        name = opcode_name(opcode)
        self._check_gaps(latch_events(row), name, where, st)

        # OPV101 — command while array-busy (SAN201).
        if st.busy is not None and (row is None or not row.legal_while_busy):
            certainty = ("always busy" if st.busy.remaining.lo > 0
                         else "may still be busy")
            self.flag(
                "OPV101", "error", where,
                f"opcode {name} latches while the "
                f"{st.busy.kind} operation {certainty} "
                f"(remaining {st.busy.remaining.describe()}) — SAN201 / "
                f"LunProtocolError at run time",
                hint="poll READ STATUS until RDY (or suspend the "
                     "operation) before the next command",
            )
        if row is None:
            self.flag("OPV104", "error", where,
                      f"unsupported opcode 0x{opcode:02X} — the die "
                      f"model raises LunProtocolError")
        elif row.requires is not None and not getattr(
                self.vendor, row.requires, True):
            self.flag("OPV104", "error", where,
                      f"{self.vendor.name} has no {name} opcode")
        else:
            self._EFFECTS[row.effect](self, row, where, st)
        st.owned = True
        st.prev_wire = "cmd"

    def _open_busy(self, row: OpcodeRow, where: str, st: _State) -> None:
        """The row's R/B#-holding window opens; the source it arms at
        busy end is pending and the die will come back idle."""
        spec = row.busy
        st.busy = _Busy(spec.kind, self._window(spec, st), where,
                        spec.suspendable)
        deferred = row.arm_at == "busy_end"
        st.pending_arm = row.arms if deferred else None
        st.pending_loads = deferred and row.arms == "register"
        st.phase = "idle"
        st.since.pop("ready", None)

    # One handler per protocol-table effect (the die model has the
    # concrete twin of each).

    def _latch(self, row: OpcodeRow, where: str, st: _State) -> None:
        st.pending = row
        st.phase = "await_addr"

    def _status(self, row: OpcodeRow, where: str, st: _State) -> None:
        st.armed = row.arms
        st.status_addr_pending = row.addr_format is not None

    def _arm_now(self, row: OpcodeRow, where: str, st: _State) -> None:
        st.armed = row.arms
        st.phase = "idle"

    def _set_pslc(self, row: OpcodeRow, where: str, st: _State) -> None:
        st.pslc = row.effect is Effect.PSLC_ENTER

    def _reset(self, row: OpcodeRow, where: str, st: _State) -> None:
        st.suspended = None
        st.queued = ()
        st.cache_prog = None
        st.cache_busy = None
        st.armed = row.arms
        st.pslc = False
        self._open_busy(row, where, st)

    def _suspend(self, row: OpcodeRow, where: str, st: _State) -> None:
        busy = st.busy
        if busy is None and st.suspended is None and not st.owned:
            # The program's first latch: a caller-owned program/erase
            # may be in flight (the stock ``suspend`` op run alone).
            st.suspended = _Busy("unknown", Iv(0, INF), where)
        elif busy is not None and busy.suspendable:
            st.suspended = busy
            st.busy = None
        else:
            running = (f"runs a non-suspendable {busy.kind} operation"
                       if busy is not None else
                       "is already suspended" if st.suspended is not None
                       else "is idle")
            self.flag(
                "OPV104", "error", where,
                f"suspend latches while the die {running} — "
                f"LunProtocolError at run time",
                hint="only program/erase array times are suspendable",
            )

    def _resume(self, row: OpcodeRow, where: str, st: _State) -> None:
        if st.suspended is not None:
            st.busy = dataclasses.replace(
                st.suspended, started_at=where,
                remaining=st.suspended.remaining + self._window(row.busy, st))
            st.suspended = None
        elif st.owned:
            self.flag(
                "OPV104", "error", where,
                "resume latches with nothing suspended — "
                "LunProtocolError at run time",
                hint="resume only what this op suspended",
            )
        # else: the program's first latch resumes a caller's suspension.

    def _require_row(self, st: _State, where: str) -> bool:
        if st.phase != "await_confirm" or not st.have_row:
            self.flag(
                "OPV104", "error", where,
                "confirm latched without a full address — "
                "LunProtocolError / TCK001 at run time",
                hint="issue the command, the full row address, then the "
                     "confirm cycle",
            )
            return False
        return True

    def _suspension_takes(self, row: OpcodeRow, where: str,
                          st: _State) -> None:
        """What a suspended erase cannot take (the die raises): another
        ERASE, or a READ, PROGRAM or ERASE of a block it erases."""
        erase = st.suspended
        if erase is None or erase.kind != "erase":
            return
        if row.cls is CommandClass.ERASE_CONFIRM:
            why = "while an erase is suspended"
        elif erase.blocks is not None and st.row_block in erase.blocks:
            why = f"to block {st.row_block}, which the suspended erase targets"
        else:
            return
        self.flag("OPV104", "error", where,
                  f"{row.name} confirm latches {why} — LunProtocolError at "
                  f"run time",
                  hint="RESUME the erase and let it finish first")

    def _confirm(self, row: OpcodeRow, where: str, st: _State) -> None:
        """The latched row address becomes (or joins) an array operation."""
        if not self._require_row(st, where):
            return
        self._suspension_takes(row, where, st)
        blocks = None
        if st.queued is not None and st.row_block is not None:
            blocks = frozenset(st.queued + (st.row_block,))
        st.queued = ()
        if row.busy.kind == "program" and st.cache_prog is not None:
            self.flag(
                "OPV101", "error", where,
                f"{row.name} confirms a program while a cache "
                f"program is still in the array "
                f"(remaining {st.cache_prog.describe()})",
                hint="poll ARDY before confirming the next cache page",
            )
        if row.busy.holds_rb:
            self._open_busy(row, where, st)
            if row.busy.kind == "erase":
                st.busy.blocks = blocks
        else:  # cache program: the array works behind a usable interface
            st.cache_prog = self._window(row.busy, st)
            st.phase = "idle"

    def _queue_plane(self, row: OpcodeRow, where: str, st: _State) -> None:
        """A multi-plane queue cycle: the row joins the queue behind a
        short R/B#-holding busy (tDBSY); a cache program still in the
        array stays there (ARDY stays low)."""
        if self._require_row(st, where):
            self._suspension_takes(row, where, st)
            st.queued = None if st.queued is None or st.row_block is None \
                else st.queued + (st.row_block,)
            self._open_busy(row, where, st)

    def _cache_confirm(self, row: OpcodeRow, where: str, st: _State) -> None:
        if row.busy.kind == "read":
            self._cache_read(row, where, st)
        else:
            self._confirm(row, where, st)

    def _cache_read(self, row: OpcodeRow, where: str, st: _State) -> None:
        if not st.have_row:
            self.flag(
                "OPV104", "error", where,
                "cache read confirm without a prior page read — "
                "LunProtocolError at run time",
                hint="issue a full PAGE READ before READ CACHE",
            )
        if st.register_loaded == "no":
            self.flag(
                "OPV102", "error", where,
                "cache read flips an empty page register — the first tR "
                "never completed on this path (SAN202 at run time)",
                hint="poll RDY after the initial PAGE READ confirm",
            )
        elif st.register_loaded == "maybe":
            self.flag(
                "OPV102", "warning", where,
                "cache read may flip an empty page register on some paths",
            )
        st.armed = row.arms
        st.register_loaded = "yes"
        if row.effect is not Effect.CACHE_END:
            st.cache_busy = self._window(row.busy, st)

    _EFFECTS = {
        Effect.LATCH: _latch,
        Effect.CONFIRM: _confirm,
        Effect.MP_QUEUE: _queue_plane,
        Effect.CACHE_CONFIRM: _cache_confirm,
        Effect.CACHE_END: _cache_read,
        Effect.ARM: _arm_now,
        Effect.STATUS: _status,
        Effect.RESET: _reset,
        Effect.SUSPEND: _suspend,
        Effect.RESUME: _resume,
        Effect.PSLC_ENTER: _set_pslc,
        Effect.PSLC_EXIT: _set_pslc,
    }

    def _block_of(self, address_bytes, fmt: str) -> Optional[int]:
        """The block a ``full`` or ``row`` address names (None without a
        vendor geometry)."""
        geometry = getattr(self.vendor, "geometry", None)
        if geometry is None:
            return None
        row = tuple(address_bytes)[geometry.col_cycles if fmt == "full"
                                   else 0:]
        return int.from_bytes(bytes(row), "little") // geometry.pages_per_block

    def _on_address(self, address_bytes, where: str, st: _State) -> None:
        st.prev_wire = "addr"
        if st.status_addr_pending:
            st.status_addr_pending = False
            return
        row = st.pending
        if st.phase != "await_addr" or row is None:
            self.flag(
                "OPV104", "error", where,
                f"address latch ({len(tuple(address_bytes))} cycle(s)) "
                f"with no pending address-bearing command — "
                f"LunProtocolError / TCK003 at run time",
                hint="latch the command the address belongs to first",
            )
            return
        if row.addr_format in ("full", "row"):
            st.have_row = True
            st.row_block = self._block_of(address_bytes, row.addr_format)
        st.phase = "await_confirm"
        # Rows whose effect happens right after the address phase.
        if row.busy is not None and row.busy.opens_on == "address":
            self._open_busy(row, where, st)
        elif row.arms is not None:
            st.armed = row.arms
            st.phase = "idle"
        elif row.addr_format == "col" and not st.have_row:
            st.phase = "idle"  # a column move with nothing to confirm

    def _on_data_out(self, nbytes: int, burst_end: Iv, where: str,
                     st: _State) -> None:
        # Arming discipline (static SAN202).
        if st.armed == "status":
            pass  # status is readable at any time, busy included
        elif st.pending_arm is not None and st.busy is not None:
            certainty = ("before" if st.busy.remaining.lo > 0
                         else "possibly before")
            self.flag(
                "OPV102", "error", where,
                f"data-out burst streams the {st.pending_arm} source "
                f"{certainty} the {st.busy.kind} array time elapses "
                f"(remaining {st.busy.remaining.describe()}) — SAN202 at "
                f"run time",
                hint="poll READ STATUS (or wait past the worst-case "
                     "array time) before streaming data out",
            )
        elif st.armed == "none":
            self.flag(
                "OPV102", "error", where,
                "data-out burst with no data source armed on any path "
                "(SAN202 at run time)",
                hint="arm a source first: status/ID read, E0 column "
                     "confirm, or a completed array read",
            )
        elif st.armed == "register" and st.register_loaded == "no":
            self.flag(
                "OPV102", "error", where,
                "data-out burst reads an empty page register — no array "
                "read completed on this path (SAN202 at run time)",
            )
        elif st.armed == "register" and st.register_loaded == "maybe":
            self.flag(
                "OPV102", "warning", where,
                "data-out burst may read an empty page register on some "
                "paths",
            )
        self._check_gaps(burst_events(nbytes), "data-out", where, st,
                         stamp=burst_end)

    def _on_data_in(self, nbytes: int, where: str, st: _State) -> None:
        row = st.pending
        if (row is not None and row.busy is not None
                and row.busy.opens_on == "data_in"):
            self._open_busy(row, where, st)  # SET FEATURES
            return
        # Program load path: the page register fills.
        st.register_loaded = "yes"

    # -- polls, gang selection, calls ---------------------------------

    def _exec_poll(self, node: PollStatus, path: str, st: _State) -> None:
        # The liveness proofs (OPV3xx) run against the busy window as it
        # stands when the previous step hands off — the interpreter
        # enters the loop immediately, so the pre-gap lower bound is the
        # honest "the die still needs at least this much" figure.  The
        # unbounded software gap is applied afterwards, before the
        # success semantics.
        self._check_mask(node.chip_mask, path, "status poll")
        period = effective_poll_period(
            node.period_ns if isinstance(node.period_ns, int)
            or node.period_ns is None else None)
        round_ns = self._poll_round_ns + period

        # OPV206 — effective sampling interval vs. the vendor minimum.
        t_poll_min = getattr(self.vendor.timing, "t_poll_min_ns", 0)
        if round_ns < t_poll_min:
            self.flag(
                "OPV206", "warning", path,
                f"effective poll interval {round_ns} ns (one status round "
                f"trip + period {period} ns) is below the vendor minimum "
                f"poll interval ({t_poll_min} ns)",
                hint="raise period_ns so the die's status path is not "
                     "hammered",
            )

        waiting = st.busy
        if node.until == "array_ready":
            # ARDY waits for the array too: a cache op still working
            # behind a queue cycle's tDBSY outlasts it.
            for pending in (st.cache_busy, st.cache_prog):
                if pending is not None and (
                        waiting is None
                        or pending.lo > waiting.remaining.lo):
                    waiting = _Busy("cache", pending, path)
                    break
        if waiting is not None:
            remaining = waiting.remaining
            max_polls = node.max_polls if isinstance(node.max_polls, int) \
                else 0
            # OPV301 — the budget provably cannot outlast the array time.
            budget_ns = max_polls * (round_ns + POLL_CPU_ALLOWANCE_NS)
            if remaining.lo > 0 and budget_ns < remaining.lo:
                self.flag(
                    "OPV301", "error", path,
                    f"poll budget provably exhausts: {max_polls} poll(s) "
                    f"cover at most {budget_ns:.0f} ns (with a "
                    f"{POLL_CPU_ALLOWANCE_NS} ns/round allowance) but the "
                    f"{waiting.kind} operation needs at least "
                    f"{remaining.lo:.0f} ns — RuntimeError / SAN402 at "
                    f"run time",
                    hint="raise max_polls or pace the loop with "
                         "period_ns",
                )
            # OPV302 — the wait provably blows the watchdog budget.
            if remaining.lo >= self.watchdog_ns:
                self.flag(
                    "OPV302", "error", path,
                    f"the {waiting.kind} operation needs at least "
                    f"{remaining.lo:.0f} ns — past the watchdog budget "
                    f"({self.watchdog_ns} ns); OpTimeout is guaranteed",
                )
            if (period >= self.watchdog_ns
                    and remaining.lo > 0):
                self.flag(
                    "OPV302", "error", path,
                    f"poll period {period} ns meets the watchdog budget "
                    f"({self.watchdog_ns} ns) while the die is busy — "
                    f"the first sleep alone can trip OpTimeout",
                )

        # Success semantics: at least one round trip elapses, then the
        # polled condition holds.
        st.advance(Iv.at_least(self._poll_round_ns))
        st._complete_busy()
        if node.until == "array_ready":
            st.cache_busy = None
            st.cache_prog = None
        st.since["ready"] = Iv(0, INF)
        st.armed = "status"  # the final sample latched READ STATUS
        if node.dest:
            st.regs_def.add(node.dest)
            st.regs_maybe.add(node.dest)

    def _exec_select(self, node: SelectFirstReady, path: str,
                     st: _State) -> None:
        st.advance(Iv(0, INF))
        for position in node.positions:
            if not isinstance(position, int) or position < 0 \
                    or position >= self.luns:
                self.flag(
                    "OPV103", "error", path,
                    f"gang poll position {position!r} is outside the "
                    f"{self.luns}-LUN channel",
                )
        st.advance(Iv.at_least(self._poll_round_ns))
        st._complete_busy()
        st.since["ready"] = Iv(0, INF)
        st.armed = "status"
        st.regs_def.update((node.dest_pos, node.dest_mask))
        st.regs_maybe.update((node.dest_pos, node.dest_mask))

    def _exec_call(self, node: CallOp, path: str, st: _State,
                   depth: int) -> None:
        for _name, value in node.kwargs:
            self._check_reads(value, path, st)
        if node.dest:
            st.regs_def.add(node.dest)
            st.regs_maybe.add(node.dest)
        if depth >= 8:
            self.flag("OPV501", "info", path,
                      "call depth exceeds 8 — callee not analyzed")
            self._havoc(st)
            return
        if any(_has_dynamic(value) for _name, value in node.kwargs):
            # The callee's shape depends on runtime registers; its die
            # effects are unknowable here.  Every callee is verified
            # standalone by the library sweep, so only the composition
            # goes unchecked.
            self._havoc(st)
            return
        from repro.core.opir.registry import resolve_builder

        try:
            callee = resolve_builder(node.op, self.vendor)(**dict(node.kwargs))
        except Exception as exc:
            self.flag("OPV501", "info", path,
                      f"callee {node.op!r} not buildable here: {exc}")
            self._havoc(st)
            return
        # The callee shares the die and the clock but gets a fresh
        # interpreter environment (registers/handles), exactly like
        # run_program does.
        saved = (st.regs_def, st.regs_maybe, st.handles, st.handles_maybe,
                 st.terminated)
        st.regs_def, st.regs_maybe = set(), set()
        st.handles, st.handles_maybe = {}, {}
        st.terminated = False
        self._exec_nodes(callee.nodes, f"{path}.{node.op}", st, depth + 1)
        st.regs_def, st.regs_maybe, st.handles, st.handles_maybe, \
            st.terminated = saved

    def _havoc(self, st: _State) -> None:
        """Forget everything a skipped callee could have changed."""
        st.owned = False  # it may have left an op suspended
        st.busy = None
        st.cache_busy = None
        st.cache_prog = None
        st.pending_arm = None
        st.pending_loads = False
        st.armed = "unknown"
        st.register_loaded = "maybe"
        st.phase = "idle"
        st.pending = None
        st.status_addr_pending = False
        st.since = {}
        st.prev_wire = None


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def verify_program(
    program: OpProgram,
    vendor,
    mode: str = "NV-DDR2-200",
    luns: Optional[int] = None,
    watchdog_ns: Optional[int] = None,
) -> list[VerifyFinding]:
    """All OPV findings for one built program (empty list == clean)."""
    verifier = _Verifier(program, vendor, mode, luns, watchdog_ns)
    return verifier.run()


def verify_op(name: str, vendor, mode: str = "NV-DDR2-200",
              luns: Optional[int] = None, **kwargs) -> list[VerifyFinding]:
    """Build the program for ``name`` (honouring vendor overrides) and
    verify it."""
    from repro.core.opir.registry import resolve_builder

    program = resolve_builder(name, vendor)(**kwargs)
    return verify_program(program, vendor, mode=mode, luns=luns)


@dataclasses.dataclass(frozen=True)
class VerifyCoverage:
    """What the library sweep actually verified vs. what is registered
    (stock programs plus every vendor ``op_overrides`` name)."""

    registered: tuple[str, ...]
    verified: tuple[str, ...]
    skipped: tuple[str, ...]
    vendors: int
    modes: tuple[str, ...]

    @property
    def complete(self) -> bool:
        return not self.skipped

    def describe(self) -> str:
        line = (f"coverage: {len(self.verified)}/{len(self.registered)} "
                f"registered programs verified across {self.vendors} "
                f"vendor(s) x {len(self.modes)} mode(s)")
        if self.skipped:
            line += f"; skipped: {', '.join(self.skipped)}"
        return line


def _vendor_op_names(vendor) -> list[str]:
    """Stock program names plus this vendor's override registrations."""
    from repro.core.opir.registry import list_ops

    names = list(list_ops())
    for name, _builder in getattr(vendor, "op_overrides", ()) or ():
        if name not in names:
            names.append(name)
    return names


def verify_library(
    vendors: Optional[Iterable] = None,
    modes: Iterable[str] = DEFAULT_MODES,
    kwargs_for: Optional[Callable[[object], dict]] = None,
) -> tuple[list[VerifyFinding], VerifyCoverage]:
    """Build and verify every registered op — including programs
    registered only through ``VendorProfile.op_overrides`` — for every
    vendor profile and data mode, with coverage accounting."""
    from repro.flash.vendors import VENDOR_PROFILES

    if kwargs_for is None:
        from repro.analysis.op_lint import sample_kwargs

        kwargs_for = sample_kwargs
    if vendors is None:
        vendors = list(VENDOR_PROFILES.values())
    else:
        vendors = list(vendors)
    modes = tuple(modes)
    findings: list[VerifyFinding] = []
    registered: set[str] = set()
    verified: set[str] = set()
    skipped: set[str] = set()
    for vendor in vendors:
        samples = kwargs_for(vendor)
        names = _vendor_op_names(vendor)
        registered.update(names)
        for name in names:
            if name not in samples:
                skipped.add(name)
                findings.append(VerifyFinding(
                    "OPV000", "warning", name, "-",
                    f"no sample kwargs for {name!r}; not verified for "
                    f"{vendor.name}"))
                continue
            from repro.core.opir.registry import resolve_builder

            program = resolve_builder(name, vendor)(**samples[name])
            for mode in modes:
                findings.extend(verify_program(program, vendor, mode=mode))
            verified.add(name)
    coverage = VerifyCoverage(
        registered=tuple(sorted(registered)),
        verified=tuple(sorted(verified)),
        skipped=tuple(sorted(skipped)),
        vendors=len(vendors),
        modes=modes,
    )
    return findings, coverage
