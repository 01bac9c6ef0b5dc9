"""LUN (Logical Unit) behavioural state machine.

A LUN consumes the decoded actions of waveform segments addressed to it
(chip-enable selected) and reacts the way an ONFI-compliant die does:
latching commands and addresses, going busy for the array times of its
vendor profile, exposing a status register, and moving data between the
flash array, its page/cache registers, and the controller's DMA handles.

What each opcode does is not decided here: ``_on_command`` looks the
opcode up once in :data:`repro.onfi.protocol.OPCODES` and *executes* the
row — its effect, the busy window it opens, the data source it arms.
This module owns the concrete side effects (array I/O, completions,
fault and sanitizer hooks) and the raises.

There are two ways in, and one definition of what the die does.  The
pin-level entry (``deliver_segment`` -> ``_process`` -> ``_on_command``
...) takes decoded waveform actions one at a time: every op on the
segment-accurate path, on both fidelity tiers, uses it.  The
*transaction-level* entry takes what a TLM template folded once per
shape: :meth:`Lun.apply_transaction` applies a whole transaction's
die ops in one call, with each command latch pre-resolved by
:func:`die_latch` to ``(opcode, row, effect handler)``, and
:meth:`Lun.status_round_trip` is the READ STATUS latch plus its 1-byte
sample.  Both compose the *same* per-effect handlers in the same order
at the same logical nanoseconds, so die state, RNG draws, fault-hook
sites and completion times cannot differ between the entries
(``tests/test_die_transactions.py`` drives twin dies through both).

The model enforces protocol legality: a command latched while the LUN is
array-busy (unless its row says ``legal_while_busy``) raises
:class:`LunProtocolError`, which is how tests prove the controllers
never violate ONFI sequencing.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Optional

import numpy as np

from repro.flash.array import FlashArray
from repro.flash.cell import CellMode, profile_for
from repro.flash.vendors import VendorProfile
from repro.onfi.commands import CMD, CommandClass, opcode_name
from repro.onfi.features import FeatureStore
from repro.onfi.geometry import AddressCodec, PhysicalAddress
from repro.onfi.protocol import OPCODES, BusySpec, Effect, OpcodeRow
from repro.onfi.signals import (
    Action,
    AddressLatch,
    CommandLatch,
    DataInAction,
    DataOutAction,
    IdleWait,
    WaveformSegment,
)
from repro.onfi.status import StatusBits, StatusRegister
from repro.sim import Simulator
from repro.sim.sync import Trigger


class LunProtocolError(RuntimeError):
    """An ONFI sequencing violation by the controller under test."""


class LunState(enum.Enum):
    IDLE = "idle"
    AWAIT_ADDRESS = "await_address"
    AWAIT_CONFIRM = "await_confirm"
    ARRAY_BUSY = "array_busy"
    CACHE_BUSY = "cache_busy"
    SUSPENDED = "suspended"


class _DataSource(enum.Enum):
    NONE = "none"
    STATUS = "status"
    REGISTER = "register"
    FEATURE = "feature"
    ID = "id"
    PARAM_PAGE = "param_page"


#: ``OpcodeRow.arms`` string -> data source (subscripted, not called:
#: the status poll path arms a source on every latch).
_SOURCES = {source.value: source for source in _DataSource}

#: READ STATUS's row, for :meth:`Lun.status_round_trip`.
_READ_STATUS = OPCODES[CMD.READ_STATUS]

#: The status bits a poll waits on, as plain ints (:meth:`Lun.ready_at`).
_RDY = int(StatusBits.RDY)
_ARDY = int(StatusBits.ARDY)


# Die ops of a folded transaction (``Lun.apply_transaction``), tagged by
# their first element; ``offset`` is relative to the transaction start:
#   (DIE_CMD, offset, opcode, row, handler)   see :func:`die_latch`
#   (DIE_ADDR, offset, operand slot)
#   (DIE_DATA_OUT, offset, nbytes, handle name)
#   (DIE_DATA_IN, offset, nbytes, handle name, column)
DIE_CMD, DIE_ADDR, DIE_DATA_OUT, DIE_DATA_IN = range(4)


def die_latch(offset: int, opcode: int) -> tuple:
    """A command latch resolved once, for :meth:`Lun.apply_transaction`.

    What does not depend on the die is proved here: the opcode has a
    row and the row needs no vendor capability, so its effect handler
    may be called directly.  Otherwise ``handler`` is None and every
    latch goes through ``Lun._on_command`` (which raises for an unknown
    opcode and tests ``requires`` against the die's own profile).  What
    does depend on the die — busy vs. ``legal_while_busy`` — is still
    checked per latch.
    """
    row = OPCODES.get(opcode)
    static = row is not None and row.requires is None
    return (DIE_CMD, offset, opcode, row,
            Lun._EFFECTS[row.effect] if static else None)


class _Burst:
    """Stand-in for a :class:`DataOutAction` / :class:`DataInAction` on
    the transaction-level entry — the burst handlers only read
    ``nbytes``, ``dma_handle`` and (data-in) ``column``, so one mutable
    shim per die replaces an allocation per burst.  Safe because set
    and use happen inside one ``apply_transaction`` step."""

    __slots__ = ("nbytes", "column", "dma_handle")


class _PendingCompletion:
    """A deferred die-side completion (busy end, cache hand-off).

    Wraps the kernel event so the TLM tier can *catch up*: when a later
    segment's logical action time passes this completion, the LUN fires
    it early — at its recorded nanosecond — instead of waiting for real
    kernel time to reach it.  Duck-types the event surface the LUN's
    suspend/reset paths rely on (``pending``, ``cancel``), so the
    waveform tier behaves exactly as before the wrapper existed.

    ``order`` is the creation sequence number: it reproduces the kernel
    heap's FIFO tie-break when a completion and a die action land on
    the same nanosecond (completions scheduled *before* the current
    segment's actions win the tie; ones scheduled during it lose).

    ``event`` is the kernel handle while the completion is pending and
    ``None`` once it has fired or been cancelled: the handle's callback
    is this record's bound method, so keeping it past that point would
    leave a record <-> event cycle for the cycle collector per op.
    """

    __slots__ = ("lun", "time", "order", "fn", "event")

    def __init__(self, lun: "Lun", time_ns: int, order: int, fn):
        self.lun = lun
        self.time = time_ns
        self.order = order
        self.fn = fn
        self.event = lun.sim.schedule(time_ns - lun.sim.now, self._on_event)

    @property
    def pending(self) -> bool:
        return self.event is not None

    def cancel(self) -> None:
        event = self.event
        if event is None:
            return
        self.event = None
        event.cancel()
        self.lun._pending_completions.remove(self)

    def _on_event(self) -> None:
        self.event = None
        self.lun._pending_completions.remove(self)
        self.fn()

    def fire_early(self) -> None:
        """Catch-up: run at the recorded logical time (TLM only)."""
        event = self.event
        if event is None:
            return
        self.event = None
        event.cancel()
        self.lun._pending_completions.remove(self)
        self.lun._action_time = self.time
        self.fn()


class Lun:
    """One logical unit of a flash package."""

    def __init__(
        self,
        sim: Simulator,
        profile: VendorProfile,
        position: int = 0,
        seed: int = 0,
        track_data: bool = True,
    ):
        self.sim = sim
        self.profile = profile
        self.position = position
        self.geometry = profile.geometry
        self.codec = AddressCodec(self.geometry)
        self.array = FlashArray(
            self.geometry,
            native_mode=profile.native_cell_mode,
            endurance_cycles=profile.endurance_cycles,
            track_data=track_data,
            seed=seed,
            factory_bad_rate=profile.factory_bad_rate,
        )
        self.status = StatusRegister()
        self.features = FeatureStore()
        self.rb_trigger = Trigger(sim)  # fires on busy->ready transitions
        self.rb_taps: list = []  # probes called with (lun, busy) on R/B# edges
        self._san_flash = None      # FlashSanitizer when attached
        self._san_liveness = None   # LivenessSanitizer when attached
        self._fault_hook = None     # FaultInjector when attached (repro.faults)
        self._rng = np.random.default_rng(seed ^ 0x5A5A)

        self.state = LunState.IDLE
        self._pending: Optional[OpcodeRow] = None  # row awaiting address/data
        self._data_source = _DataSource.NONE
        self._column = 0
        self._row_addr: Optional[PhysicalAddress] = None
        self._one_addr = 0  # single-cycle address (feature / ID area)
        self._status_addr_pending = False
        self._cache_program_active = False

        planes = self.geometry.planes
        self._page_register: list[Optional[np.ndarray]] = [None] * planes
        self._cache_register: list[Optional[np.ndarray]] = [None] * planes
        self._active_plane = 0
        self._mp_queue: list[PhysicalAddress] = []
        self._cache_next_row: Optional[PhysicalAddress] = None

        # Logical clock (TLM templates).  While a folded transaction is
        # applied in one call, die actions run at logical times computed
        # from segment offsets; _now() reads this instead of sim.now so
        # timestamps (array aging, busy deadlines) are identical to the
        # waveform path.  None means "real time".
        self._action_time: Optional[int] = None
        self._pending_completions: list[_PendingCompletion] = []
        self._completion_seq = 0
        self._burst = _Burst()

        # Array operations in flight (confirmed, not yet committed):
        # dicts of {kind, targets, begun}.  A power cut consults this to
        # tear partially-programmed pages and mark interrupted erases.
        self.inflight_ops: list[dict] = []

        self._pslc_override = False
        self._busy_spec: Optional[BusySpec] = None
        self._busy_event = None
        self._busy_until = 0
        self._busy_finish = None
        self._suspend_remaining = 0
        self._suspend_pending = False
        self._suspended_spec: Optional[BusySpec] = None
        self._suspended_finish = None
        # The blocks a suspended erase targets (None: no erase is).
        self._suspended_blocks: Optional[frozenset] = None
        self._sets_status = True
        # A CACHE PROGRAM's array completion while it is pending: its
        # tPROG holds no busy window, so a RESET cancels it here.
        self._cache_event: Optional[_PendingCompletion] = None

        # Statistics exposed to the analysis layer.
        self.op_counts: Counter[str] = Counter()  # latches, by opcode name
        self.busy_ns_total = 0
        self.reads_completed = 0
        self.programs_completed = 0
        self.erases_completed = 0

    # ------------------------------------------------------------------
    # Segment delivery (called by the channel model)
    # ------------------------------------------------------------------

    def deliver_segment(self, segment: WaveformSegment) -> None:
        """Waveform delivery: process each decoded action at its offset.
        A latch offset is a modelled delay, so each action is one kernel
        entry — uncancellable and carrying the action itself, so neither
        an ``Event`` nor a closure is allocated to hold it."""
        wake_after = self.sim._wake_after
        process = self._process
        for offset, action in segment.actions:
            wake_after(offset, process, action)

    def deliver_segment_inline(self, segment: WaveformSegment,
                               base_ns: int) -> None:
        """Inline delivery: run each action now, at its logical nanosecond.

        No tier drives segments this way: it is the pin-level reference
        ``tests/test_die_transactions.py`` holds :meth:`apply_transaction`
        to, action by action, on twin dies.  ``base_ns`` is the
        segment's logical start (the transaction's start plus preceding
        segment durations).  Before each action, pending completions
        whose recorded time precedes it fire early
        ("catch-up"), so ordering against busy windows — intra-
        transaction timer waits spanning tFEAT, status samples racing
        tR — matches the waveform tier exactly.

        When no completion is pending at segment start the catch-up
        scan is skipped entirely: a completion scheduled *by* this
        segment's own actions carries ``order >= epoch``, which the
        scan would never fire early anyway.
        """
        if not self._pending_completions:
            try:
                for offset, action in segment.actions:
                    self._action_time = base_ns + offset
                    self._process(action)
            finally:
                self._action_time = None
            return
        epoch = self._completion_seq
        try:
            for offset, action in segment.actions:
                at = base_ns + offset
                self._run_due_completions(at, epoch)
                self._action_time = at
                self._process(action)
        finally:
            self._action_time = None

    # ------------------------------------------------------------------
    # Transaction-level entry (called by the TLM template runner)
    # ------------------------------------------------------------------

    def apply_transaction(self, segs: tuple, base_ns: int, operands: tuple,
                          handles: dict) -> None:
        """Apply one folded transaction: ``segs`` holds, per segment,
        its die ops (see ``DIE_*``), with offsets from ``base_ns``.

        A composition of the same handlers inline delivery reaches, in
        the same order at the same logical nanoseconds; only the
        segment objects and the per-latch table lookups are gone.
        Catch-up is per *segment*, as in :meth:`deliver_segment_inline`:
        skipped when nothing is pending at the segment's start, else
        with that start's epoch breaking exact-time ties.
        """
        pending = self._pending_completions
        try:
            for ops in segs:
                catch_up = True if pending else False
                epoch = self._completion_seq
                for op in ops:
                    at = base_ns + op[1]
                    if catch_up:
                        self._run_due_completions(at, epoch)
                    self._action_time = at
                    tag = op[0]
                    if tag == DIE_CMD:
                        row = op[3]
                        handler = op[4]
                        if handler is None or (
                                self.state is LunState.ARRAY_BUSY
                                and not row.legal_while_busy):
                            self._on_command(op[2])  # raises, or `requires`
                        else:
                            self.op_counts[row.name] += 1
                            handler(self, row)
                    elif tag == DIE_ADDR:
                        self._on_address(operands[op[2]])
                    else:
                        burst = self._burst
                        burst.nbytes = op[2]
                        burst.dma_handle = handles[op[3]]
                        if tag == DIE_DATA_OUT:
                            self._on_data_out(burst)
                        else:
                            burst.column = op[4]
                            self._on_data_in(burst)
        finally:
            self._action_time = None

    def status_round_trip(self, cmd_ns: int, sample_ns: int) -> int:
        """READ STATUS latched at ``cmd_ns`` and its status byte sampled
        at ``sample_ns``: the two segments of the stock ``read_status``
        shape (READ STATUS is legal while busy and needs no capability,
        so nothing is left to check per latch)."""
        pending = self._pending_completions
        try:
            if pending:
                self._run_due_completions(cmd_ns, self._completion_seq)
            self._action_time = cmd_ns
            self.op_counts[_READ_STATUS.name] += 1
            self._status(_READ_STATUS)
            if pending:
                self._run_due_completions(sample_ns, self._completion_seq)
            self._action_time = sample_ns
            if self._data_source is _DataSource.STATUS:
                # The 1-byte status burst, minus the array and handle.
                return self.status.value()
            # A completion between latch and burst re-armed the data
            # source; sample through the real produce path so the
            # (degenerate) byte matches inline delivery exactly.
            return int(self._produce_data(1)[0])
        finally:
            self._action_time = None

    def _now(self) -> int:
        """The die's clock: the logical action time while a template's
        transaction (or an inline segment) is applied, sim.now else."""
        at = self._action_time
        return at if at is not None else self.sim.now

    def _schedule_completion(self, duration: int, fn) -> _PendingCompletion:
        """Schedule ``fn`` at ``_now() + duration`` (kernel time), kept
        on the pending list so the TLM tier can catch it up early."""
        at = self._action_time
        if at is None:
            at = self.sim.now
        self._completion_seq += 1
        rec = _PendingCompletion(
            self, at + duration, self._completion_seq, fn)
        self._pending_completions.append(rec)
        return rec

    def _run_due_completions(self, at_ns: int, epoch: int) -> None:
        """Fire, in (time, order) order, every pending completion the
        waveform tier would have run before an action at ``at_ns``.

        A completion tied at ``at_ns`` fires first only when it was
        scheduled before the current segment started (order < epoch) —
        mirroring the kernel heap's FIFO tie-break.
        """
        while self._pending_completions:
            due = None
            for rec in self._pending_completions:
                if rec.time > at_ns or (rec.time == at_ns
                                        and rec.order >= epoch):
                    continue
                if due is None or (rec.time, rec.order) < (due.time, due.order):
                    due = rec
            if due is None:
                return
            due.fire_early()

    def ready_at(self, mask: int) -> Optional[int]:
        """When a READ STATUS would first show a bit of ``mask`` (RDY
        and/or ARDY, the bits a poll waits on) set: now if one already
        is, else the earliest pending die-side completion (the next
        instant the status can change), or None — a hung die, whose
        status nothing will change.

        A TLM template's ready-wait sleeps to it (:mod:`repro.core.fastops`),
        so it polls when the device would report ready: a queue cycle's
        RDY behind a CACHE PROGRAM still in the array is seen at once,
        not at the array's end.  A hung die (injected fault) makes the
        template re-poll at the minimum legal period instead.
        """
        status = self.status
        if status.rdy and mask & _RDY or status.ardy and mask & _ARDY:
            return self.sim.now
        earliest = None
        for rec in self._pending_completions:
            if earliest is None or rec.time < earliest:
                earliest = rec.time
        return earliest

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def is_busy(self) -> bool:
        """R/B# pin view: low (busy) while an array op is in flight."""
        return self.state in (LunState.ARRAY_BUSY,)

    def erasing_past(self, ns: int) -> bool:
        """Whether an erase is in flight and will still be at ``ns``.

        The check a controller makes as it transmits a SUSPEND that
        ends by ``ns``: the R/B# pin plus the erase's own deadline, so
        that no SUSPEND reaches a die the erase has already left.  A
        hung erase (no deadline) is never suspended."""
        spec = self._busy_spec
        return (self.state is LunState.ARRAY_BUSY and spec is not None
                and spec.kind == "erase" and self._busy_until > ns)

    @property
    def pslc_active(self) -> bool:
        return self._pslc_override or self.features.pslc_enabled

    def page_register_view(self, plane: int = 0) -> Optional[np.ndarray]:
        return self._page_register[plane]

    # ------------------------------------------------------------------
    # Action dispatch
    # ------------------------------------------------------------------

    #: Action class -> dispatch code (table dispatch on the exact class:
    #: the Action union is closed, its members are never subclassed).
    _ACTION_CODES = {CommandLatch: 0, AddressLatch: 1, DataOutAction: 2,
                     DataInAction: 3, IdleWait: 4}

    def _process(self, action: Action) -> None:
        try:
            code = self._ACTION_CODES[type(action)]
        except KeyError:  # pragma: no cover - guarded by the Action union
            raise LunProtocolError(f"unknown action {action!r}") from None
        if code == 0:
            self._on_command(action.opcode)
        elif code == 1:
            self._on_address(action.address_bytes)
        elif code == 2:
            self._on_data_out(action)
        elif code == 3:
            self._on_data_in(action)
        # code 4, IdleWait: pure time; nothing latched

    def _on_command(self, opcode: int) -> None:
        row = OPCODES.get(opcode)
        name = row.name if row is not None else opcode_name(opcode)
        self.op_counts[name] += 1

        if self.state is LunState.ARRAY_BUSY and (
            row is None or not row.legal_while_busy
        ):
            if self._san_flash is not None:
                self._san_flash.on_busy_violation(self, opcode)
            raise LunProtocolError(
                f"opcode {name} latched while LUN {self.position} is busy"
            )
        if row is None:
            raise LunProtocolError(f"unsupported opcode 0x{opcode:02X}")
        if row.requires is not None and not getattr(self.profile, row.requires):
            raise LunProtocolError(f"{self.profile.name} has no {name} opcode")
        self._EFFECTS[row.effect](self, row)

    # -- one handler per protocol-table effect -----------------------------

    def _latch(self, row: OpcodeRow) -> None:
        self._pending = row
        self.state = LunState.AWAIT_ADDRESS

    def _status(self, row: OpcodeRow) -> None:
        if self._san_liveness is not None:
            self._san_liveness.on_status_poll(self)
        self._data_source = _SOURCES[row.arms]
        # READ STATUS ENHANCED carries a row address (die select on
        # multi-LUN packages, and the plane whose FAIL it reports); it
        # is legal while the array is busy, so it must not disturb the
        # busy state machine.
        self._status_addr_pending = row.addr_format is not None
        self.status.plane = None

    def _arm_now(self, row: OpcodeRow) -> None:
        # 0xE0 confirm: register data now readable
        self._data_source = _SOURCES[row.arms]
        self.state = LunState.IDLE

    def _set_pslc(self, row: OpcodeRow) -> None:
        self._pslc_override = row.effect is Effect.PSLC_ENTER

    # ------------------------------------------------------------------
    # Address handling
    # ------------------------------------------------------------------

    def _on_address(self, address_bytes: tuple[int, ...]) -> None:
        if self._status_addr_pending:
            # Enhanced-status select: single-die positions ignore the
            # die bits; the row's plane picks the FAIL bit reported.
            self._status_addr_pending = False
            row_index = self.codec.decode_row(address_bytes)
            self.status.plane = self.codec.plane_of(PhysicalAddress(
                block=row_index // self.geometry.pages_per_block, page=0))
            return
        row = self._pending
        if self.state is not LunState.AWAIT_ADDRESS or row is None:
            raise LunProtocolError("address latched without a preceding command")

        fmt = row.addr_format
        if fmt == "full":
            addr = self.codec.decode(address_bytes)
            self._row_addr = addr
            self._column = addr.column
            self._active_plane = self.codec.plane_of(addr)
        elif fmt == "row":
            row_index = self.codec.decode_row(address_bytes)
            block, page = divmod(row_index, self.geometry.pages_per_block)
            self._row_addr = PhysicalAddress(block=block, page=page)
            self._active_plane = self.codec.plane_of(self._row_addr)
        elif fmt == "col":
            self._column = self.codec.decode_column(address_bytes)
        elif fmt == "one":
            self._one_addr = address_bytes[0]
        else:  # pragma: no cover
            raise LunProtocolError(f"bad address format {fmt}")

        self.state = LunState.AWAIT_CONFIRM
        # Rows whose effect happens right after the address phase.
        spec = row.busy
        if spec is not None and spec.opens_on == "address":
            source = _SOURCES[row.arms]
            self._begin_busy(spec, self._busy_ns(spec),
                             finish=lambda: self._arm(source))
        elif row.arms is not None:
            self._data_source = _SOURCES[row.arms]
            self.state = LunState.IDLE
        elif fmt == "col" and self._row_addr is None:
            # A column move with no row latched leaves nothing to confirm
            # (mid-program moves stay armed for the confirm cycle).
            self.state = LunState.IDLE

    def _arm(self, source: _DataSource) -> None:
        self._data_source = source

    # ------------------------------------------------------------------
    # Data movement
    # ------------------------------------------------------------------

    def _on_data_out(self, action: DataOutAction) -> None:
        data = self._produce_data(action.nbytes)
        if action.dma_handle is not None:
            action.dma_handle.deliver(data)

    def _produce_data(self, nbytes: int) -> np.ndarray:
        source = self._data_source
        if source is _DataSource.STATUS:
            return np.full(nbytes, self.status.value(), dtype=np.uint8)
        if source is _DataSource.REGISTER:
            register = self._page_register[self._active_plane]
            if register is None:
                if self._san_flash is not None:
                    self._san_flash.on_unarmed_read(
                        self, "data out with an empty page register"
                    )
                raise LunProtocolError("data out with an empty page register")
            end = min(self._column + nbytes, len(register))
            # A view is safe to hand out: DmaHandle.deliver copies
            # before the register can change again.
            chunk = register[self._column:end]
            if len(chunk) < nbytes:
                pad = np.full(nbytes - len(chunk), 0xFF, dtype=np.uint8)
                chunk = np.concatenate([chunk, pad])
            self._column = end
            return chunk
        if source is _DataSource.FEATURE:
            params = self.features.get(self._one_addr)
            return np.array(list(params)[:nbytes], dtype=np.uint8)
        if source is _DataSource.ID:
            return np.array(self.profile.id_bytes(self._one_addr)[:nbytes], dtype=np.uint8)
        if source is _DataSource.PARAM_PAGE:
            page = self.profile.parameter_page()
            reps = -(-nbytes // len(page))  # parameter page repeats per ONFI
            return np.tile(page, reps)[:nbytes]
        if self._san_flash is not None:
            self._san_flash.on_unarmed_read(
                self, "data out requested with no data source armed"
            )
        raise LunProtocolError("data out requested with no data source armed")

    def _on_data_in(self, action: DataInAction) -> None:
        pending = self._pending
        if (pending is not None and pending.busy is not None
                and pending.busy.opens_on == "data_in"):
            # SET FEATURES: four parameter bytes, then the feature busy.
            data = self._fetch(action, 4)
            params = tuple(int(b) for b in data[:4])
            finish = lambda: self.features.set(self._one_addr, params)  # noqa: E731
            if self._fault_hook is not None and self._fault_hook.on_set_features(
                self, self._one_addr, params
            ):
                # Injected FEATURE DROP: the die goes busy for tFEAT and
                # acknowledges, but the register write is silently lost.
                finish = None
            self._begin_busy(
                pending.busy, self._busy_ns(pending.busy), finish=finish
            )
            return
        # Program path: fill the page register at the given column.
        register = self._ensure_register(self._active_plane)
        data = self._fetch(action, action.nbytes)
        start = action.column or self._column
        end = min(start + len(data), len(register))
        register[start:end] = data[: end - start]
        self._column = end

    def _fetch(self, action: DataInAction, nbytes: int) -> np.ndarray:
        if action.dma_handle is None:
            raise LunProtocolError("data-in burst without a DMA source")
        data = action.dma_handle.fetch(nbytes)
        return np.asarray(data, dtype=np.uint8)

    def _ensure_register(self, plane: int) -> np.ndarray:
        if self._page_register[plane] is None:
            self._page_register[plane] = np.full(
                self.geometry.full_page_size, 0xFF, dtype=np.uint8
            )
        return self._page_register[plane]

    # ------------------------------------------------------------------
    # Array operations (confirm commands)
    # ------------------------------------------------------------------

    def _effective_mode(self) -> Optional[CellMode]:
        """The cell mode array operations run in right now.  Resolved
        once per confirm and handed to the pricing and to the array op
        it starts, so one confirm reads the feature store once."""
        return (CellMode.PSLC
                if self._pslc_override or self.features.pslc_enabled
                else None)

    def _busy_ns(self, spec: BusySpec,
                 mode: Optional[CellMode] = None) -> int:
        """Price a busy window from the vendor profile: exact, or
        sampled with bounded uniform jitter (tR is 'highly variable')
        inside the bounds the cell mode ``mode`` scales (only jittered
        windows have a mode-dependent price)."""
        low, high = spec.bounds(self.profile.timing,
                                profile_for(mode) if mode else None)
        if not spec.jittered:
            return low
        return max(int(self._rng.uniform(low, high)), 1)

    def _confirm(self, row: OpcodeRow) -> None:
        """The latched row address becomes an array operation, together
        with the planes queued before it."""
        addr = self._row_addr
        if addr is None or self.state is not LunState.AWAIT_CONFIRM:
            raise LunProtocolError("confirm latched without a full address")
        spec = row.busy
        if spec.kind == "program" and self._cache_program_active:
            raise LunProtocolError(
                "program confirm while a cache program is still in the array"
                " (poll ARDY first)"
            )
        if self._suspended_blocks is not None:
            self._refuse_in_suspension(row, addr)
        targets = self._mp_queue + [addr]
        self._mp_queue = []
        mode = self._effective_mode()
        self._ARRAY_OPS[spec.kind](self, spec, targets,
                                   self._busy_ns(spec, mode), mode)

    def _queue_plane(self, row: OpcodeRow) -> None:
        """Multi-plane queue cycle (0x11 / 0x32 / 0xD1): the latched row
        joins the planes the next confirm starts, after a short busy
        (tDBSY).  It is no array operation: FAIL and FAILC keep the last
        one's result, and behind a cache program still in the array ARDY
        stays low through it."""
        addr = self._row_addr
        if addr is None or self.state is not LunState.AWAIT_CONFIRM:
            raise LunProtocolError("confirm latched without a full address")
        if self._suspended_blocks is not None:
            self._refuse_in_suspension(row, addr)
        self._mp_queue.append(addr)
        self._begin_busy(row.busy, self._busy_ns(row.busy),
                         finish=self._queue_done, sets_status=False,
                         queue=True)

    def _refuse_in_suspension(self, row: OpcodeRow,
                              addr: PhysicalAddress) -> None:
        """What a suspended erase cannot take: another ERASE, or a READ,
        PROGRAM or ERASE of a block it erases."""
        if row.cls is CommandClass.ERASE_CONFIRM:
            why = "while an erase is suspended"
        elif addr.block in self._suspended_blocks:
            why = f"to block {addr.block}, which the suspended erase targets"
        else:
            return
        if self._san_flash is not None:
            self._san_flash.on_suspension_violation(self, row.opcode, why)
        raise LunProtocolError(
            f"opcode {row.name} latched on LUN {self.position} {why}")

    def _queue_done(self) -> None:
        status = self.status
        status.rdy = True
        status.ardy = not self._cache_program_active

    def _cache_confirm(self, row: OpcodeRow) -> None:
        if row.busy.kind == "read":
            self._confirm_cache_read(row)
        else:
            self._confirm(row)

    def _start_read(self, spec: BusySpec, targets: list, duration: int,
                    mode: Optional[CellMode]) -> None:
        # ``mode`` priced tR; the array senses in the mode that is
        # current when tR *ends*, so ``finish`` reads it again.
        def finish() -> None:
            for target in targets:
                plane = self.codec.plane_of(target)
                self._page_register[plane] = self.array.load_page(
                    target,
                    now_ns=self._now(),
                    read_retry_level=self.features.read_retry_level,
                    cell_mode_override=self._effective_mode(),
                )
            self._active_plane = self.codec.plane_of(targets[-1])
            self._column = targets[-1].column
            self._data_source = _DataSource.REGISTER
            self.reads_completed += len(targets)

        self._begin_busy(spec, duration, finish=finish)

    def _confirm_cache_read(self, row: OpcodeRow) -> None:
        """READ CACHE SEQUENTIAL / END (interleaves tR with transfers)."""
        if self._row_addr is None:
            raise LunProtocolError("cache read without a prior page read")
        plane = self._active_plane
        register = self._page_register[plane]
        if register is None:
            if self._san_flash is not None:
                self._san_flash.on_unarmed_read(
                    self, "cache read before the first tR completed"
                )
            raise LunProtocolError("cache read before the first tR completed")
        # Move current page data to the cache register; it is immediately
        # readable while the array fetches the next sequential page.
        self._cache_register[plane] = register
        next_row = self._next_sequential(self._row_addr)
        if row.effect is Effect.CACHE_END or next_row is None:
            self._data_source = _DataSource.REGISTER
            self._page_register[plane] = self._cache_register[plane]
            self._column = 0
            return
        self._row_addr = next_row
        duration = self._busy_ns(row.busy, self._effective_mode())
        self.status.begin_cache_phase()
        self.state = LunState.CACHE_BUSY

        def finish() -> None:
            self._page_register[plane] = self.array.load_page(
                next_row,
                now_ns=self._now(),
                read_retry_level=self.features.read_retry_level,
                cell_mode_override=self._effective_mode(),
            )
            self.reads_completed += 1

        # Cache-busy does not hold RDY low; serve data from the cache reg.
        self._data_source = _DataSource.REGISTER
        swap = self._cache_register[plane]
        self._page_register[plane], self._cache_register[plane] = swap, None
        self._column = 0
        self._schedule_completion(duration, lambda: self._cache_finish(finish))

    def _cache_finish(self, finish) -> None:
        finish()
        if self.state is LunState.CACHE_BUSY:
            self.state = LunState.IDLE
            self.status.finish_operation()
            self.rb_trigger.fire(self)
            self._notify_rb(False)

    def _next_sequential(self, addr: PhysicalAddress) -> Optional[PhysicalAddress]:
        if addr.page + 1 < self.geometry.pages_per_block:
            return PhysicalAddress(block=addr.block, page=addr.page + 1)
        return None

    def _start_program(self, spec: BusySpec, targets: list, duration: int,
                       mode: Optional[CellMode]) -> None:
        # Each target with a snapshot of its plane's page register.
        staged = []
        for target in targets:
            plane = self.codec.plane_of(target)
            staged.append((target, self._ensure_register(plane).copy()))
        inflight = {"kind": "program", "targets": list(targets),
                    "begun": self._now()}
        self.inflight_ops.append(inflight)

        def finish() -> None:
            if inflight in self.inflight_ops:
                self.inflight_ops.remove(inflight)
            # Injected PROGRAM FAIL (the blocks the hook names): those
            # pages never commit and their planes raise the ONFI FAIL
            # bit, exactly like a grown-bad page refusing to verify.
            # FAIL is kept per plane.
            hit = None
            if self._fault_hook is not None:
                hit = self._fault_hook.on_program(self, targets)
            failed = 0
            for target, register in staged:
                if (hit and target.block in hit) or \
                        not self.array.program(
                            target, register, now_ns=self._now(),
                            cell_mode=mode, begun_ns=inflight["begun"]):
                    failed |= 1 << self.codec.plane_of(target)
            self.programs_completed += len(targets)
            self.status.finish_operation(failed)

        if not spec.holds_rb:
            # Cache program: the array works in the background while the
            # interface stays usable (RDY without ARDY), so the next
            # page's data can stream in during tPROG.  Its tPROG is a
            # busy the fault hook may stretch or hang, as a PROGRAM's.
            if self._fault_hook is not None:
                duration = self._fault_hook.on_busy(self, spec.kind, duration)
            self._cache_program_active = True
            self.status.begin_operation()
            self.status.begin_cache_phase()
            self.state = LunState.IDLE
            if duration is None:
                # Injected hang: no completion, ARDY stays low until a
                # RESET aborts the program (it never commits).
                return
            self.busy_ns_total += duration

            def cache_done() -> None:
                self._cache_event = None
                self._cache_program_active = False
                finish()
                if self.state is LunState.ARRAY_BUSY:
                    # A plane's queue cycle (tDBSY) still holds the die;
                    # its end raises RDY and ARDY.
                    self.status.rdy = self.status.ardy = False
                    return
                self.rb_trigger.fire(self)
                self._notify_rb(False)

            self._cache_event = self._schedule_completion(duration,
                                                          cache_done)
        else:
            self._begin_busy(spec, duration, finish=finish, sets_status=False)

    def _start_erase(self, spec: BusySpec, targets: list, duration: int,
                     mode: Optional[CellMode]) -> None:
        inflight = {"kind": "erase", "targets": list(targets),
                    "begun": self._now()}
        self.inflight_ops.append(inflight)

        def finish() -> None:
            if inflight in self.inflight_ops:
                self.inflight_ops.remove(inflight)
            failed = 0
            if self._fault_hook is not None and self._fault_hook.on_erase(
                self, targets
            ):
                for target in targets:
                    failed |= 1 << self.codec.plane_of(target)
            else:
                for target in targets:
                    if not self.array.erase(target.block, cell_mode=mode,
                                            now_ns=self._now(),
                                            begun_ns=inflight["begun"]):
                        failed |= 1 << self.codec.plane_of(target)
            self.erases_completed += len(targets)
            self.status.finish_operation(failed)

        self._begin_busy(spec, duration, finish=finish, sets_status=False)

    _ARRAY_OPS = {"read": _start_read, "program": _start_program,
                  "erase": _start_erase}

    # ------------------------------------------------------------------
    # Busy machinery, reset, suspend/resume
    # ------------------------------------------------------------------

    def _begin_busy(
        self,
        spec: BusySpec,
        duration: int,
        finish=None,
        sets_status: bool = True,
        queue: bool = False,
    ) -> None:
        if self._fault_hook is not None:
            duration = self._fault_hook.on_busy(self, spec.kind, duration)
        if queue:  # FAIL and FAILC keep the last array op's result
            self.status.rdy = self.status.ardy = False
        else:
            self.status.begin_operation()
        self.state = LunState.ARRAY_BUSY
        self._busy_spec = spec
        self._busy_finish = finish
        self._sets_status = sets_status
        if duration is None:
            # Injected die hang: R/B# stays low forever.  No completion
            # is scheduled; only a RESET (legal while busy) cancels the
            # operation — which never committed — and revives the die.
            self._busy_until = -1
            self._busy_event = None
        else:
            self.busy_ns_total += duration
            self._busy_event = rec = self._schedule_completion(
                duration, self._finish_busy)
            self._busy_until = rec.time
        if self._san_liveness is not None or self.rb_taps:
            self._notify_rb(True)

    def _notify_rb(self, busy: bool) -> None:
        """R/B# pin edge: reset liveness poll budget, feed analyzer taps.
        The two per-operation sites (``_begin_busy``, ``_finish_busy``)
        enter it only when one of the two exists."""
        if self._san_liveness is not None:
            self._san_liveness.on_progress(self)
        for tap in self.rb_taps:
            tap(self, busy)

    def _finish_busy(self) -> None:
        finish, self._busy_finish = self._busy_finish, None
        self._busy_spec = None
        self._busy_event = None
        # A nested operation during a suspension returns the LUN to its
        # suspended state, not to idle.
        self.state = LunState.SUSPENDED if self._suspend_pending else LunState.IDLE
        if finish is not None:
            finish()
        if self._sets_status:
            self.status.finish_operation()
        elif self.status.rdy is False:
            # finish() forgot to settle status; settle it defensively.
            self.status.finish_operation()
        self.rb_trigger.fire(self)
        if self._san_liveness is not None or self.rb_taps:
            self._notify_rb(False)

    def _do_reset(self, row: OpcodeRow) -> None:
        if self._busy_event is not None and self._busy_event.pending:
            self._busy_event.cancel()
        if self._cache_event is not None:  # a CACHE PROGRAM in the array
            self._cache_event.cancel()
            self._cache_event = None
        self._busy_finish = None
        self.inflight_ops.clear()  # aborted ops never reached the array
        self._mp_queue = []
        self._pslc_override = False
        self._data_source = _SOURCES[row.arms]
        self._suspend_remaining = 0
        self._suspend_pending = False
        self._suspended_blocks = None
        self._cache_program_active = False
        self.status.suspended = False
        self._begin_busy(row.busy, self._busy_ns(row.busy))

    def _do_suspend(self, row: OpcodeRow) -> None:
        if self.state is not LunState.ARRAY_BUSY or not self._busy_spec.suspendable:
            raise LunProtocolError("suspend latched with no suspendable operation")
        if self._busy_event is not None:  # a hung busy has no event
            self._busy_event.cancel()
        self._suspend_remaining = max(self._busy_until - self._now(), 0)
        self._suspended_spec = spec = self._busy_spec
        self._suspended_finish = self._busy_finish
        self._suspend_pending = True
        if spec.kind == "erase":
            self._suspended_blocks = frozenset(
                target.block for op in self.inflight_ops
                if op["kind"] == "erase" for target in op["targets"])
        self._busy_spec = None
        self._busy_finish = None
        self.state = LunState.SUSPENDED
        self.status.rdy = True
        self.status.ardy = True
        self.status.suspended = True
        self.rb_trigger.fire(self)
        self._notify_rb(False)

    def _do_resume(self, row: OpcodeRow) -> None:
        if not self._suspend_pending or self.state is LunState.ARRAY_BUSY:
            raise LunProtocolError("resume latched while not suspended")
        self.status.suspended = False
        self._suspend_pending = False
        self._suspended_blocks = None
        remaining = self._suspend_remaining + self._busy_ns(row.busy)
        finish = self._suspended_finish
        self._suspend_remaining = 0
        self._begin_busy(self._suspended_spec, remaining, finish=finish,
                         sets_status=False)

    #: The single definition of die behaviour, per protocol-table effect:
    #: ``_on_command`` dispatches on it per latch, ``die_latch``
    #: resolves it once per shape for ``apply_transaction``.
    _EFFECTS = {
        Effect.LATCH: _latch,
        Effect.CONFIRM: _confirm,
        Effect.MP_QUEUE: _queue_plane,
        Effect.CACHE_CONFIRM: _cache_confirm,
        Effect.CACHE_END: _confirm_cache_read,
        Effect.ARM: _arm_now,
        Effect.STATUS: _status,
        Effect.RESET: _do_reset,
        Effect.SUSPEND: _do_suspend,
        Effect.RESUME: _do_resume,
        Effect.PSLC_ENTER: _set_pslc,
        Effect.PSLC_EXIT: _set_pslc,
    }

    def describe(self) -> str:
        return (
            f"LUN{self.position} [{self.profile.name}] state={self.state.value} "
            f"reads={self.reads_completed} programs={self.programs_completed} "
            f"erases={self.erases_completed}"
        )
