"""Pluggable execution backends: the fidelity tier seam.

BABOL's claims live at two altitudes.  Segment-level bus occupancy
(Figs. 8-11) needs every latch cycle and data burst on the simulated
bus at its exact nanosecond — that is the *waveform* tier, the model
this repository has always run.  End-to-end throughput at scale
(Fig. 12) only needs aggregate timing: when a transaction starts, how
long it holds the channel, and when each die goes ready.  The *tlm*
(transaction-level) tier keeps the behavioural model — data payloads,
status bits, faults, FTL state — bit-identical while collapsing each
transaction's bus traffic into a single kernel event, so scale-out
workloads run an order of magnitude more simulated ops per wall-second.

The seam is deliberately narrow: a backend owns exactly two generators,

* ``transmit(channel, segment)`` — one segment on the bus (the hardware
  baselines drive this directly), and
* ``run_transaction(channel, txn)`` — a whole prepared transaction (the
  executor's inner loop);

everything else (arbitration, scheduling, op programs, the dies) is
shared.  :class:`WaveformBackend` puts each segment on the bus
(``Channel.drive``) and holds it for the segment's duration,
byte-for-byte the historical per-segment path — golden traces do not move.
:class:`TLMBackend` performs the same bookkeeping at *logical* times
computed from segment offsets, delivers die actions inline, and yields
one :class:`~repro.sim.Timeout` for the whole transaction.

Timing equality is exact for operations that nothing suspends: the
TLM tier lands every die action, busy completion, and status sample on
the same nanosecond the waveform tier would (see ``flash/lun.py`` for
the logical-clock machinery and ``core/ops/base.py`` for the poll
fast-forward that preserves the polling grid).  An erase that a host
read suspends, and that read, keep their data and status and finish
within about one poll period of the other tier: the waveform tier
notices the read at its next poll round.  Under contention the tiers
may diverge by scheduling noise — which is why the perf baseline
records its fidelity per cell and only compares like with like.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.onfi.signals import WaveformSegment
from repro.sim import Timeout

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.bus.channel import Channel
    from repro.core.transaction import Transaction


class FidelityError(RuntimeError):
    """A component that needs waveform fidelity met a TLM channel.

    Raised *at attach time* (sanitizer/analyzer construction, tap
    registration) so a run can never silently miss the events it was
    asked to observe.
    """


class ExecutionBackend:
    """Contract between the shared behavioural model and a timing engine.

    ``waveform``
        True when per-segment bus traffic is simulated — observers that
        sample the bus (logic analyzer, bus sanitizer, taps) require it.
    ``poll_fast_forward``
        True when the ops layer may skip redundant status polls by
        sleeping to the die-ready grid point (see ``_poll_status``).
    """

    name: str = "abstract"
    waveform: bool = True
    poll_fast_forward: bool = False

    def transmit(self, channel: "Channel",
                 segment: WaveformSegment) -> Generator:
        raise NotImplementedError

    def run_transaction(self, channel: "Channel",
                        txn: "Transaction") -> Generator:
        raise NotImplementedError

    def describe(self) -> str:
        return f"{type(self).__name__}({self.name})"


class WaveformBackend(ExecutionBackend):
    """The segment-accurate tier: the historical simulation, unchanged.

    Every segment occupies the bus for its duration in real simulated
    time; dies receive actions via per-offset kernel events.  Golden
    traces produced through this backend are byte-identical to the
    pre-seam simulator.
    """

    name = "waveform"
    waveform = True
    poll_fast_forward = False

    def transmit(self, channel: "Channel",
                 segment: WaveformSegment) -> Generator:
        channel.drive(segment)
        if segment.duration_ns:
            yield Timeout(segment.duration_ns)

    def run_transaction(self, channel: "Channel",
                        txn: "Transaction") -> Generator:
        # channel.transmit per segment, from this one frame: the only
        # kernel steps of a transaction are its segments' bus holds.
        mutex = channel.mutex
        drive = channel.drive
        for segment in txn.segments:
            if not mutex.locked:
                raise RuntimeError("transmit without owning the channel")
            drive(segment)
            if segment.duration_ns:
                yield Timeout(segment.duration_ns)


class TLMBackend(ExecutionBackend):
    """The transaction-level tier: one kernel event per transaction.

    The full channel bookkeeping (stats, tracer spans, PHY reliability,
    fault hooks, die delivery) still happens per segment — but at
    *logical* times computed by accumulating segment durations, inside
    a single generator step.  The only kernel event is the final
    ``Timeout`` covering the whole transaction, so the bus mutex is
    held for exactly the same simulated nanoseconds as the waveform
    tier while the host does orders of magnitude less event-loop work.

    Die-side deferred work (busy completions, cache hand-offs) is
    scheduled at real kernel time as usual; when a later segment's
    logical action time passes a pending completion, the die fires it
    early ("catch-up") so intra-transaction timer waits that span a
    busy window observe the same before/after ordering as waveform.
    """

    name = "tlm"
    waveform = False
    poll_fast_forward = True

    def transmit(self, channel: "Channel",
                 segment: WaveformSegment) -> Generator:
        channel.drive(segment, channel.sim.now)
        if segment.duration_ns:
            yield Timeout(segment.duration_ns)

    def run_transaction(self, channel: "Channel",
                        txn: "Transaction") -> Generator:
        sim = channel.sim
        base = sim.now
        at = base
        for segment in txn.segments:
            if not channel.mutex.locked:
                raise RuntimeError("transmit without owning the channel")
            channel.drive(segment, at)
            at += segment.duration_ns
        if at > base:
            yield Timeout(at - base)


FIDELITIES = ("waveform", "tlm")


def resolve_backend(fidelity) -> ExecutionBackend:
    """Map a ``stack.fidelity`` name (or an already-built backend) to an
    :class:`ExecutionBackend` instance."""
    if isinstance(fidelity, ExecutionBackend):
        return fidelity
    if fidelity == "waveform":
        return WaveformBackend()
    if fidelity == "tlm":
        return TLMBackend()
    raise ValueError(
        f"unknown fidelity {fidelity!r} (expected one of {FIDELITIES})"
    )
