"""The fault injector: attaches a campaign to live component models.

Follows the sanitizer idiom exactly: every component carries a nullable
``_fault_hook`` attribute guarded by one ``is not None`` check, so a
stack without an injector attached pays zero overhead and behaves
byte-for-byte like the seed.  :meth:`FaultInjector.attach` installs the
hook on every LUN and on the channel; :meth:`detach` restores ``None``.

Hook surface (called by the models):

* ``on_program(lun, targets) -> frozenset`` — force the ONFI FAIL bit
  (``program_fail`` / armed ``grown_bad_block``) on the returned blocks
  only (empty: none), so a multi-plane program fails on the faulted
  plane alone;
* ``on_erase(lun, targets) -> bool`` — same for ERASE;
* ``on_busy(lun, kind, duration) -> Optional[int]`` — stretch a busy
  (``stuck_busy`` with ``stretch``) or hang it by returning ``None``
  (``stuck_busy`` / ``die_hang``);
* ``on_set_features(lun, addr, params) -> bool`` — drop the write
  (``feature_drop``);
* ``on_transmit(now, segment, targets)`` — garble data bursts through
  the DMA-handle corruption path (``transfer_corrupt``).

All randomness comes from one generator seeded with the campaign seed,
so a campaign replays identically against an identical workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.faults.plan import _STUCK_BUSY_KINDS, FaultCampaign, FaultKind, FaultSpec
from repro.faults.power import PowerLossError
from repro.onfi.signals import SegmentKind


@dataclass(frozen=True)
class InjectionRecord:
    """One fault that actually fired."""

    kind: FaultKind
    lun: int
    time_ns: int
    block: Optional[int] = None
    detail: str = ""

    def as_dict(self) -> dict:
        data = {"kind": self.kind.value, "lun": self.lun, "time_ns": self.time_ns}
        if self.block is not None:
            data["block"] = self.block
        if self.detail:
            data["detail"] = self.detail
        return data


# Data bursts below this size are control traffic (status bytes,
# feature records, READ ID), not payload — transfer_corrupt skips them.
_MIN_CORRUPT_BYTES = 16


class _Armed:
    __slots__ = ("spec", "remaining", "fired", "event")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.remaining = spec.count  # None = unlimited
        self.fired = 0
        self.event = None  # power_cut: the armed kernel blackout event


class FaultInjector:
    """Attaches one campaign's specs to a controller stack."""

    def __init__(self, campaign: FaultCampaign,
                 kinds: Optional[Iterable[FaultKind]] = None):
        campaign.validate()
        self.campaign = campaign
        wanted = None if kinds is None else set(kinds)
        self._armed = [
            _Armed(spec) for spec in campaign.faults
            if wanted is None or spec.kind in wanted
        ]
        self._rng = np.random.default_rng(campaign.seed)
        self.records: list[InjectionRecord] = []
        self._counters: dict[tuple[int, str], int] = {}
        self._luns: list = []
        self._channels: list = []

    # -- lifecycle ------------------------------------------------------

    def attach(self, controller) -> "FaultInjector":
        """Install the hook on every LUN (and the channel, if any) of a
        controller-shaped object."""
        for lun in controller.luns:
            lun._fault_hook = self
            self._luns.append(lun)
        channel = getattr(controller, "channel", None)
        if channel is not None:
            channel._fault_hook = self
            self._channels.append(channel)
        self._arm_timed_power_cuts(controller)
        return self

    def _arm_timed_power_cuts(self, controller) -> None:
        """Pure-time power cuts arm at attach: the array freeze must be
        in place before any TLM transaction can pre-commit state past
        the cut, and the blackout event fires at the exact nanosecond
        (before anything else scheduled there)."""
        for armed in self._armed:
            spec = armed.spec
            if spec.kind is not FaultKind.POWER_CUT:
                continue
            if not self._is_timed_cut(spec):
                continue  # opportunistic trigger: handled in on_busy
            for lun in controller.luns:
                lun.array.set_power_fail(spec.after_ns)
            if armed.event is None and controller.luns:
                sim = controller.luns[0].sim
                if spec.after_ns > sim.now:
                    armed.event = sim.schedule(
                        spec.after_ns - sim.now,
                        lambda a=armed, ns=spec.after_ns: self._blackout(a, ns),
                    )

    @staticmethod
    def _is_timed_cut(spec: FaultSpec) -> bool:
        return (spec.after_ns > 0 and spec.after_op == 0
                and spec.probability >= 1.0)

    def _blackout(self, armed: _Armed, cut_ns: int) -> None:
        if armed.remaining == 0:
            return
        self._fire(armed, armed.spec.lun if armed.spec.lun is not None else -1,
                   cut_ns, detail="power lost (timed cut)")
        raise PowerLossError(cut_ns)

    def detach(self) -> None:
        """Restore every hook to ``None`` (zero overhead again)."""
        for lun in self._luns:
            lun._fault_hook = None
            lun.array.set_power_fail(None)
        for channel in self._channels:
            channel._fault_hook = None
        self._luns.clear()
        self._channels.clear()
        # Cancel any blackout event still pending in the kernel — an
        # orphaned one would raise PowerLossError into whatever runs on
        # this simulator after the injector is gone.
        for armed in self._armed:
            if armed.event is not None:
                armed.event.cancel()
                armed.event = None

    # -- reporting ------------------------------------------------------

    def fires_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.kind.value] = counts.get(record.kind.value, 0) + 1
        return counts

    # -- hook surface ---------------------------------------------------

    def on_program(self, lun, targets) -> frozenset:
        """The blocks whose pages fail this program (empty: none) —
        the one the fault names, or the lowest one targeted."""
        now = lun.sim.now
        opps = self._bump(lun.position, "program")
        blocks = {t.block for t in targets}
        for armed in self._armed:
            kind = armed.spec.kind
            if kind is FaultKind.PROGRAM_FAIL:
                if self._eligible(armed, lun.position, blocks, now, opps):
                    block = armed.spec.block
                    if block is None:
                        block = min(blocks)
                    self._fire(armed, lun.position, now, block=block)
                    return frozenset((block,))
            elif kind is FaultKind.GROWN_BAD_BLOCK:
                if armed.spec.block in blocks and self._worn(lun, armed.spec) \
                        and self._eligible(armed, lun.position, blocks, now, opps):
                    self._fire(armed, lun.position, now, block=armed.spec.block,
                               detail="program past P/E threshold")
                    return frozenset((armed.spec.block,))
        return frozenset()

    def on_erase(self, lun, targets) -> bool:
        now = lun.sim.now
        opps = self._bump(lun.position, "erase")
        blocks = {t.block for t in targets}
        for armed in self._armed:
            kind = armed.spec.kind
            if kind is FaultKind.ERASE_FAIL:
                if self._eligible(armed, lun.position, blocks, now, opps):
                    self._fire(armed, lun.position, now, block=min(blocks))
                    return True
            elif kind is FaultKind.GROWN_BAD_BLOCK:
                if armed.spec.block in blocks and self._worn(lun, armed.spec) \
                        and self._eligible(armed, lun.position, blocks, now, opps):
                    self._fire(armed, lun.position, now, block=armed.spec.block,
                               detail="erase past P/E threshold")
                    return True
        return False

    def on_busy(self, lun, busy_kind: str, duration: int) -> Optional[int]:
        now = lun.sim.now
        opps = self._bump(lun.position, "busy")
        for armed in self._armed:
            # Opportunistic power cut (op-count or probability trigger):
            # the cut lands at the busy's logical start, so the op being
            # confirmed never begins and the world ends.  (Pure-time cuts
            # are armed as a kernel event at attach instead.)
            if armed.spec.kind is FaultKind.POWER_CUT \
                    and not self._is_timed_cut(armed.spec) \
                    and self._eligible(armed, lun.position, None, now, opps):
                cut_ns = lun._now()
                for target in self._luns:
                    target.array.set_power_fail(cut_ns)
                self._fire(armed, lun.position, cut_ns,
                           detail=f"power lost before {busy_kind} busy")
                raise PowerLossError(cut_ns)
        for armed in self._armed:
            if armed.spec.kind is not FaultKind.DIE_HANG:
                continue
            if self._eligible(armed, lun.position, None, now, opps):
                self._fire(armed, lun.position, now,
                           detail=f"{busy_kind} busy hangs (die dead)")
                return None
        if busy_kind in _STUCK_BUSY_KINDS:
            for armed in self._armed:
                if armed.spec.kind is not FaultKind.STUCK_BUSY:
                    continue
                if self._eligible(armed, lun.position, None, now, opps):
                    stretch = armed.spec.stretch
                    if stretch > 0:
                        stretched = max(int(duration * stretch), duration)
                        self._fire(armed, lun.position, now,
                                   detail=f"{busy_kind} busy stretched "
                                          f"{stretch:g}x to {stretched} ns")
                        return stretched
                    self._fire(armed, lun.position, now,
                               detail=f"{busy_kind} busy stuck (R/B# held low)")
                    return None
        return duration

    def on_set_features(self, lun, feature_addr: int, params) -> bool:
        now = lun.sim.now
        opps = self._bump(lun.position, "features")
        for armed in self._armed:
            if armed.spec.kind is not FaultKind.FEATURE_DROP:
                continue
            if self._eligible(armed, lun.position, None, now, opps):
                self._fire(armed, lun.position, now,
                           detail=f"SET FEATURES 0x{feature_addr:02X} dropped")
                return True
        return False

    def on_transmit(self, now: int, segment, targets) -> None:
        if segment.kind not in (SegmentKind.DATA_OUT, SegmentKind.DATA_IN):
            return
        # Only payload bursts are fair game: status/feature/ID reads are
        # a few control bytes, and garbling a status byte would fake a
        # ready bit rather than model a data-path upset.
        handles = [
            handle
            for _, action in segment.actions
            if getattr(action, "nbytes", 0) >= _MIN_CORRUPT_BYTES
            and (handle := getattr(action, "dma_handle", None)) is not None
        ]
        if not handles:
            return
        outbound = segment.kind is SegmentKind.DATA_OUT
        for position in targets:
            opps = self._bump(position, "data_out" if outbound else "data_in")
            for armed in self._armed:
                if armed.spec.kind is not FaultKind.TRANSFER_CORRUPT:
                    continue
                if armed.spec.direction == "out" and not outbound:
                    continue
                if armed.spec.direction == "in" and outbound:
                    continue
                if not self._eligible(armed, position, None, now, opps):
                    continue
                for handle in handles:
                    handle.corrupt_seed = int(self._rng.integers(1, 2**31))
                self._fire(armed, position, now,
                           detail=f"{segment.kind.value} garbled "
                                  f"({len(handles)} burst(s))")
                break

    # -- matching -------------------------------------------------------

    def _bump(self, lun_position: int, stream: str) -> int:
        key = (lun_position, stream)
        self._counters[key] = self._counters.get(key, 0) + 1
        return self._counters[key]

    def _eligible(self, armed: _Armed, lun_position: int,
                  blocks: Optional[set], now: int, opportunity: int) -> bool:
        spec = armed.spec
        if armed.remaining == 0:
            return False
        if spec.lun is not None and spec.lun != lun_position:
            return False
        if spec.block is not None and blocks is not None \
                and spec.block not in blocks:
            return False
        if now < spec.after_ns:
            return False
        if opportunity <= spec.after_op:
            return False
        if spec.probability < 1.0 \
                and float(self._rng.random()) >= spec.probability:
            return False
        return True

    @staticmethod
    def _worn(lun, spec: FaultSpec) -> bool:
        return lun.array.block(spec.block).erase_count >= spec.pe_threshold

    def _fire(self, armed: _Armed, lun_position: int, now: int,
              block: Optional[int] = None, detail: str = "") -> None:
        if armed.remaining is not None:
            armed.remaining -= 1
        armed.fired += 1
        self.records.append(InjectionRecord(
            kind=armed.spec.kind, lun=lun_position, time_ns=now,
            block=block, detail=detail,
        ))
