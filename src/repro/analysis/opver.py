"""Static op-IR verifier: ahead-of-time proofs over every program path.

The sanitizers (SAN2xx/3xx/4xx) and the logic-analyzer timing checker
(TCK) only see hazards on paths a workload happens to exercise, at
waveform fidelity.  This module promotes those runtime checks to
static proofs: it abstract-interprets a built
:class:`~repro.core.opir.nodes.OpProgram` against an ONFI die
automaton (mirroring :mod:`repro.flash.lun`) with an interval timing
domain (mirroring :mod:`repro.analysis.timing_check`), so a protocol
or timing bug is reported before anything runs — over *all* paths,
not just observed traces.

Rule namespaces (OPV — INTERNALS §13 has the full catalogue):

* **OPV1xx** — protocol automaton (static SAN2xx): OPV101 command
  latched while array-busy, OPV102 data-out with no proven data
  source, OPV103 static chip-select selecting zero/multiple dies,
  OPV104 cycle-grammar violations (orphan address, confirm without a
  full address, cache read without a prior read, unsuspendable
  suspend).
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
  each reason :func:`~repro.core.opir.summarize.plan_fingerprint`
  gives for the TLM tier running the program on the generic runtime
  instead of as a template.

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
from repro.onfi.commands import CMD, CommandClass, classify_opcode, opcode_name
from repro.onfi.datamodes import interface_by_name

INF = float("inf")

#: Per-poll-round CPU/dispatch allowance granted when proving that a
#: poll budget cannot outlast a busy window (OPV301).  Generous on
#: purpose: the proof must hold for any realistic scheduler.
POLL_CPU_ALLOWANCE_NS = 10_000

#: The two NV-DDR2 interface modes the library ships against.
DEFAULT_MODES = ("NV-DDR2-100", "NV-DDR2-200")

_CONFIRM_CLASSES = {
    CommandClass.READ_CONFIRM,
    CommandClass.CACHE_READ_CONFIRM,
    CommandClass.CACHE_READ_END,
    CommandClass.PROGRAM_CONFIRM,
    CommandClass.CACHE_PROGRAM_CONFIRM,
    CommandClass.ERASE_CONFIRM,
    CommandClass.RESET,
}

_SUSPENDABLE_KINDS = {"program", "erase", "unknown"}


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
    kind: str          # "read"|"program"|"erase"|"feature"|"reset"|"param"|"dummy"|"unknown"
    remaining: Iv
    started_at: str = ""  # node path of the confirm, for messages


@dataclass
class _State:
    """The abstract state of one (conflated) target die plus the
    dataflow environment of the interpreter."""

    busy: Optional[_Busy] = None
    cache_busy: Optional[Iv] = None      # cache-read array fetch remaining
    cache_prog: Optional[Iv] = None      # cache-program array work remaining
    suspended: Optional[_Busy] = None
    pending_arm: Optional[str] = None    # source armed when busy completes
    pending_loads: bool = False          # ...and the page register fills

    armed: str = "none"   # none|status|register|feature|id|param|unknown
    register_loaded: str = "no"  # no|yes|maybe
    phase: str = "idle"   # idle|await_addr|await_confirm
    pending_opcode: Optional[int] = None
    addr_format: str = "full"
    have_row: bool = False
    status_addr_pending: bool = False
    pslc: bool = False

    # Timing trackers: time since an anchor event (None = no anchor /
    # arbitrarily long ago).  since_data_end may be transiently
    # negative inside the segment that carries the burst.
    since_confirm: Optional[Iv] = None
    since_ccol: Optional[Iv] = None
    since_cmd: Optional[Iv] = None
    since_data_end: Optional[Iv] = None
    ready_gap: Optional[Iv] = None
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
        twin.regs_def = set(self.regs_def)
        twin.regs_maybe = set(self.regs_maybe)
        twin.handles = dict(self.handles)
        twin.handles_maybe = dict(self.handles_maybe)
        if self.busy is not None:
            twin.busy = _Busy(self.busy.kind, self.busy.remaining,
                              self.busy.started_at)
        if self.suspended is not None:
            twin.suspended = _Busy(self.suspended.kind,
                                   self.suspended.remaining,
                                   self.suspended.started_at)
        return twin

    # -- time ---------------------------------------------------------

    def advance(self, dt: Iv) -> None:
        """Let ``dt`` nanoseconds elapse (no wire activity)."""
        for name in ("since_confirm", "since_ccol", "since_cmd",
                     "since_data_end", "ready_gap"):
            anchor = getattr(self, name)
            if anchor is not None:
                setattr(self, name, anchor + dt)
        if self.busy is not None:
            remaining = self.busy.remaining.minus(dt)
            if remaining.hi <= 0:
                # Proven complete: the ready edge landed somewhere in
                # [-hi, -lo] nanoseconds ago.
                self.ready_gap = Iv(max(0.0, -remaining.hi),
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
            out.busy = _Busy(kind, remaining, busys[0].started_at)
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
            out.suspended = _Busy(
                kind, a.suspended.remaining.hull(b.suspended.remaining))
        else:
            present = a.suspended or b.suspended
            out.suspended = _Busy("unknown", Iv(0, present.remaining.hi))
        out.pending_arm = (a.pending_arm if a.pending_arm == b.pending_arm
                           else a.pending_arm or b.pending_arm)
        out.pending_loads = a.pending_loads or b.pending_loads
        out.armed = a.armed if a.armed == b.armed else "unknown"
        out.register_loaded = (a.register_loaded
                               if a.register_loaded == b.register_loaded
                               else "maybe")
        out.phase = a.phase if a.phase == b.phase else "idle"
        out.pending_opcode = (a.pending_opcode
                              if a.pending_opcode == b.pending_opcode else None)
        out.have_row = a.have_row and b.have_row
        out.status_addr_pending = False
        out.pslc = a.pslc or b.pslc
        for name in ("since_confirm", "since_ccol", "since_cmd",
                     "since_data_end", "ready_gap"):
            setattr(out, name,
                    _State._join_iv(getattr(a, name), getattr(b, name)))
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
        self.inexact = False
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

    def _jittered(self, mean_ns: float, scale: float = 1.0) -> Iv:
        jitter = self.vendor.timing.jitter if self.vendor is not None else 0.0
        base = mean_ns * scale
        return Iv(base * (1.0 - jitter), base * (1.0 + jitter))

    def _read_iv(self, st: _State) -> Iv:
        scale = 1.0
        if st.pslc:
            from repro.flash.cell import CellMode, profile_for

            scale = profile_for(CellMode.PSLC).read_time_scale
        return self._jittered(self.vendor.timing.t_read_ns, scale)

    def _prog_iv(self, st: _State) -> Iv:
        scale = 1.0
        if st.pslc:
            from repro.flash.cell import CellMode, profile_for

            scale = profile_for(CellMode.PSLC).program_time_scale
        return self._jittered(self.vendor.timing.t_prog_ns, scale)

    # -- entry --------------------------------------------------------

    def run(self) -> list[VerifyFinding]:
        state = _State()
        self._exec_nodes(self.program.nodes, "nodes", state, depth=0)
        self._plan_findings()
        return self.findings

    def _plan_findings(self) -> None:
        """OPV501: name each reason the TLM tier runs this program on
        the generic runtime instead of as a template."""
        from repro.core.opir.summarize import plan_fingerprint

        try:
            _, blockers = plan_fingerprint(self.program, self.vendor)
        except Exception as exc:  # defensive: never crash the verifier
            self.flag("OPV501", "info", "nodes",
                      f"plan analysis failed: {exc}")
            return
        for where, reason in blockers:
            self.flag(
                "OPV501", "info", where,
                f"not TLM-templatable: {reason}",
                hint="the program runs on the generic runtime, which is "
                     "exact; this is informational, not a defect",
            )

    # -- step walk ----------------------------------------------------

    def _exec_nodes(self, nodes, prefix: str, st: _State, depth: int) -> None:
        for index, node in enumerate(nodes):
            if st.terminated:
                return  # OPL009 reports the dead tail
            path = f"{prefix}[{index}]"
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
                    self.inexact = True
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
                # Loop-aware handling lives in _exec_loop; a stray
                # BreakIf outside a loop only defines its registers.
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
                self.inexact = True
            else:
                self._exec_one(node, path, st, depth)

    def _exec_one(self, node, path: str, st: _State, depth: int) -> None:
        """Dispatch one step node at an explicit path."""
        prefix, _, _ = path.rpartition("[")
        # Reuse _exec_nodes' dispatch for a single node by faking a
        # one-element sequence rooted at the node's own path.
        saved = node
        if isinstance(saved, Txn):
            self._exec_txn(saved, path, st)
        elif isinstance(saved, DeclareHandle):
            st.handles[saved.name] = saved
            st.handles_maybe[saved.name] = saved
        elif isinstance(saved, PollStatus):
            self._exec_poll(saved, path, st)
        elif isinstance(saved, SoftSleep):
            self._check_reads(saved.ns, path, st)
            if isinstance(saved.ns, int):
                st.advance(Iv.at_least(saved.ns))
            else:
                self.inexact = True
                st.advance(Iv(0, INF))
        elif isinstance(saved, SetReg):
            self._check_reads(saved.expr, path, st)
            st.regs_def.add(saved.name)
            st.regs_maybe.add(saved.name)
        elif isinstance(saved, CallOp):
            self._exec_call(saved, path, st, depth)
        elif isinstance(saved, Branch):
            self._exec_branch(saved, path, st, depth)
        elif isinstance(saved, Loop):
            self._exec_loop(saved, path, st, depth)
        elif isinstance(saved, SelectFirstReady):
            self._exec_select(saved, path, st)
        elif isinstance(saved, Return):
            self._check_reads(saved.expr, path, st)
            st.terminated = True

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
            self.inexact = True  # runtime-computed mask (gang winner)
            return
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
        if seg.via_chip_control:
            self.inexact = True  # broadcast conflates the replica dies
        is_status = any(latch.kind == "cmd" and int(latch.value) in
                        (CMD.READ_STATUS, CMD.READ_STATUS_ENHANCED)
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
            self.inexact = True
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
            self._on_data_out(seg.nbytes, where, st)
            st.since_data_end = Iv.exact(-wire_ns)
        else:
            self._on_data_in(seg.nbytes, where, st)
        st.prev_wire = "data_out" if seg.direction == "out" else "data_in"
        st.advance(Iv.exact(emitted.duration_ns - offset))

    # -- the ONFI automaton (mirrors repro.flash.lun) ------------------

    def _on_command(self, opcode: int, where: str, st: _State) -> None:
        cls = classify_opcode(opcode)

        # OPV204 — tRHW turnaround after a data-out burst.
        if (st.prev_wire == "data_out" and st.since_data_end is not None
                and st.since_data_end.lo < self.req.tRHW):
            self.flag(
                "OPV204", "error", where,
                f"{opcode_name(opcode)} can latch "
                f"{st.since_data_end.describe()} after a data-out burst "
                f"(tRHW={self.req.tRHW} ns)",
                hint="give the RE#-to-WE# turnaround time after a burst",
            )

        # OPV101 — command while array-busy (SAN201).
        if (st.busy is not None
                and cls not in (CommandClass.STATUS, CommandClass.RESET)
                and opcode != CMD.VENDOR_SUSPEND):
            certainty = ("always busy" if st.busy.remaining.lo > 0
                         else "may still be busy")
            self.flag(
                "OPV101", "error", where,
                f"opcode {opcode_name(opcode)} latches while the "
                f"{st.busy.kind} operation {certainty} "
                f"(remaining {st.busy.remaining.describe()}) — SAN201 / "
                f"LunProtocolError at run time",
                hint="poll READ STATUS until RDY (or suspend the "
                     "operation) before the next command",
            )
        if (st.cache_prog is not None
                and cls in (CommandClass.PROGRAM_CONFIRM,
                            CommandClass.CACHE_PROGRAM_CONFIRM)):
            self.flag(
                "OPV101", "error", where,
                f"{opcode_name(opcode)} confirms a program while a cache "
                f"program is still in the array "
                f"(remaining {st.cache_prog.describe()})",
                hint="poll ARDY before confirming the next cache page",
            )

        # OPV201 — tWB before a status poll after a confirm.
        if (cls is CommandClass.STATUS and st.since_confirm is not None
                and st.since_confirm.lo < self.req.tWB):
            self.flag(
                "OPV201", "error", where,
                f"status poll can follow the confirm by "
                f"{st.since_confirm.describe()} (tWB={self.req.tWB} ns)",
            )

        # State machine (mirror of Lun._on_command).
        if cls is CommandClass.STATUS:
            st.armed = "status"
            st.status_addr_pending = opcode == CMD.READ_STATUS_ENHANCED
        elif cls is CommandClass.RESET:
            st.busy = _Busy(
                "reset", Iv.exact(self.vendor.timing.t_reset_ns), where)
            st.pending_arm = None
            st.pending_loads = False
            st.suspended = None
            st.cache_prog = None
            st.cache_busy = None
            st.armed = "none"
            st.pslc = False
            st.phase = "idle"
            st.since_confirm = Iv.exact(0)
        elif opcode == CMD.VENDOR_SUSPEND:
            self._do_suspend(where, st)
        elif opcode == CMD.VENDOR_RESUME:
            if st.suspended is not None:
                st.busy = _Busy(
                    st.suspended.kind,
                    st.suspended.remaining
                    + Iv.exact(self.vendor.timing.t_resume_ns),
                    where)
                st.suspended = None
            # else: resuming an externally suspended op — unknowable.
        elif opcode == CMD.VENDOR_PSLC_ENTER:
            if not getattr(self.vendor, "supports_pslc", True):
                self.flag("OPV104", "error", where,
                          f"{self.vendor.name} has no pSLC opcode")
            st.pslc = True
        elif opcode == CMD.VENDOR_PSLC_EXIT:
            st.pslc = False
        elif cls is CommandClass.READ:
            st.pending_opcode = opcode
            st.addr_format = "full"
            st.phase = "await_addr"
        elif cls is CommandClass.READ_CONFIRM:
            self._confirm(st, where, "read",
                          queue=(opcode == CMD.MP_READ_2ND))
        elif cls in (CommandClass.CACHE_READ_CONFIRM,
                     CommandClass.CACHE_READ_END):
            self._confirm_cache_read(
                st, where, final=(cls is CommandClass.CACHE_READ_END))
        elif cls is CommandClass.CHANGE_READ_COLUMN:
            if opcode == CMD.CHANGE_READ_COL_1ST:
                st.pending_opcode = opcode
                st.addr_format = "col"
                st.phase = "await_addr"
            elif opcode == CMD.CHANGE_READ_COL_ENH_1ST:
                st.pending_opcode = opcode
                st.addr_format = "full"
                st.phase = "await_addr"
            else:  # 0xE0 confirm: the register becomes readable
                st.armed = "register"
                st.phase = "idle"
                st.since_ccol = Iv.exact(0)
        elif cls is CommandClass.PROGRAM:
            st.pending_opcode = opcode
            st.addr_format = "full"
            st.phase = "await_addr"
        elif cls is CommandClass.PROGRAM_CONFIRM:
            self._confirm(st, where, "program",
                          queue=(opcode == CMD.MP_PROGRAM_2ND))
        elif cls is CommandClass.CACHE_PROGRAM_CONFIRM:
            if self._require_row(st, where):
                st.cache_prog = self._prog_iv(st)
                st.phase = "idle"
        elif cls is CommandClass.CHANGE_WRITE_COLUMN:
            st.pending_opcode = opcode
            st.addr_format = "col"
            st.phase = "await_addr"
        elif cls is CommandClass.ERASE:
            st.pending_opcode = opcode
            st.addr_format = "row"
            st.phase = "await_addr"
        elif cls is CommandClass.ERASE_CONFIRM:
            self._confirm(st, where, "erase",
                          queue=(opcode == CMD.MP_ERASE_2ND))
        elif cls is CommandClass.IDENT:
            st.pending_opcode = opcode
            st.addr_format = "one"
            st.phase = "await_addr"
        elif cls is CommandClass.FEATURES:
            st.pending_opcode = opcode
            st.addr_format = "one"
            st.phase = "await_addr"
        else:
            self.flag("OPV104", "error", where,
                      f"unsupported opcode 0x{opcode:02X} — the die "
                      f"model raises LunProtocolError")

        if cls in _CONFIRM_CLASSES:
            st.since_confirm = Iv.exact(0)
        st.prev_wire = "cmd"
        st.since_cmd = Iv.exact(0)

    def _do_suspend(self, where: str, st: _State) -> None:
        if not getattr(self.vendor, "supports_suspend", True):
            self.flag("OPV104", "error", where,
                      f"{self.vendor.name} has no suspend opcode")
            return
        if st.busy is not None:
            if st.busy.kind in _SUSPENDABLE_KINDS:
                st.suspended = st.busy
                st.busy = None
            else:
                self.flag(
                    "OPV104", "error", where,
                    f"suspend latches while the die runs a "
                    f"non-suspendable {st.busy.kind} operation — "
                    f"LunProtocolError at run time",
                    hint="only program/erase array times are suspendable",
                )
        else:
            # Called in isolation: a caller-owned program/erase may be
            # in flight (the composed preemptive-erase idiom).
            st.suspended = _Busy("unknown", Iv(0, INF), where)
            self.inexact = True

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

    def _confirm(self, st: _State, where: str, kind: str,
                 queue: bool) -> None:
        if not self._require_row(st, where):
            return
        if queue:
            st.busy = _Busy(
                "dummy", Iv.exact(self.vendor.timing.t_dbsy_ns), where)
            st.phase = "idle"
            return
        if kind == "read":
            st.busy = _Busy("read", self._read_iv(st), where)
            st.pending_arm = "register"
            st.pending_loads = True
        elif kind == "program":
            st.busy = _Busy("program", self._prog_iv(st), where)
        else:
            st.busy = _Busy(
                "erase", self._jittered(self.vendor.timing.t_bers_ns), where)
        st.phase = "idle"

    def _confirm_cache_read(self, st: _State, where: str,
                            final: bool) -> None:
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
        st.armed = "register"
        st.register_loaded = "yes"
        if not final:
            st.cache_busy = self._read_iv(st)

    def _on_address(self, address_bytes, where: str, st: _State) -> None:
        if st.status_addr_pending:
            st.status_addr_pending = False
            st.prev_wire = "addr"
            return
        if st.phase != "await_addr" or st.pending_opcode is None:
            self.flag(
                "OPV104", "error", where,
                f"address latch ({len(tuple(address_bytes))} cycle(s)) "
                f"with no pending address-bearing command — "
                f"LunProtocolError / TCK003 at run time",
                hint="latch the command the address belongs to first",
            )
            st.prev_wire = "addr"
            return
        opcode = st.pending_opcode
        if st.addr_format in ("full", "row"):
            st.have_row = True
        st.phase = "await_confirm"
        if opcode == CMD.GET_FEATURES:
            st.busy = _Busy(
                "feature", Iv.exact(self.vendor.timing.t_feat_ns), where)
            st.pending_arm = "feature"
            st.pending_loads = False
        elif opcode == CMD.READ_ID:
            st.armed = "id"
            st.phase = "idle"
        elif opcode == CMD.READ_PARAMETER_PAGE:
            st.busy = _Busy(
                "param", Iv.exact(self.vendor.timing.t_param_read_ns), where)
            st.pending_arm = "param"
            st.pending_loads = False
        elif opcode == CMD.CHANGE_WRITE_COL:
            st.phase = "await_confirm" if st.have_row else "idle"
        st.prev_wire = "addr"

    def _on_data_out(self, nbytes: int, where: str, st: _State) -> None:
        # Arming discipline (SAN202 mirror).
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

        # OPV202 — tWHR when the burst directly follows a command latch.
        if (st.prev_wire == "cmd" and st.since_cmd is not None
                and st.since_cmd.lo < self.req.tWHR):
            self.flag(
                "OPV202", "error", where,
                f"data-out can start {st.since_cmd.describe()} after the "
                f"command latch (tWHR={self.req.tWHR} ns)",
                hint="insert TimerWait(param='tWHR') (the C/A writer "
                     "only pads status/ID latches)",
            )
        # OPV203 — tRR after the R/B# ready edge (multi-byte bursts).
        if nbytes > 1 and st.ready_gap is not None:
            if st.ready_gap.lo < self.req.tRR:
                self.flag(
                    "OPV203", "error", where,
                    f"data-out can start {st.ready_gap.describe()} after "
                    f"R/B# ready (tRR={self.req.tRR} ns)",
                )
            st.ready_gap = None
        # OPV205 — tCCS after a column-change confirm.
        if st.since_ccol is not None:
            if st.since_ccol.lo < self.req.tCCS:
                self.flag(
                    "OPV205", "error", where,
                    f"burst can start {st.since_ccol.describe()} after "
                    f"CHANGE READ COLUMN (tCCS={self.req.tCCS} ns)",
                    hint="insert TimerWait(param='tCCS') between E0 and "
                         "the burst",
                )
            st.since_ccol = None

    def _on_data_in(self, nbytes: int, where: str, st: _State) -> None:
        if st.pending_opcode == CMD.SET_FEATURES:
            st.busy = _Busy(
                "feature", Iv.exact(self.vendor.timing.t_feat_ns), where)
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
        if node.until == "array_ready" and waiting is None:
            for pending in (st.cache_busy, st.cache_prog):
                if pending is not None:
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
        st.ready_gap = Iv(0, INF)
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
        st.ready_gap = Iv(0, INF)
        st.armed = "status"
        st.regs_def.update((node.dest_pos, node.dest_mask))
        st.regs_maybe.update((node.dest_pos, node.dest_mask))
        self.inexact = True  # which replica wins is data-dependent

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
            self.inexact = True
            self._havoc(st)
            return
        from repro.core.opir.registry import _cached_program, _resolved_builder

        kwargs = dict(node.kwargs)
        try:
            builder = _resolved_builder(node.op, self.vendor)
            callee = _cached_program(builder, kwargs)
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
        st.busy = None
        st.cache_busy = None
        st.cache_prog = None
        st.pending_arm = None
        st.pending_loads = False
        st.armed = "unknown"
        st.register_loaded = "maybe"
        st.phase = "idle"
        st.pending_opcode = None
        st.status_addr_pending = False
        st.since_confirm = None
        st.since_ccol = None
        st.since_cmd = None
        st.since_data_end = None
        st.ready_gap = None
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
