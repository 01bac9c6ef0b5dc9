"""Fidelity tiers: the names ``stack.fidelity`` accepts, and the error
raised when an observer needs the tier that is not running.

BABOL's claims live at two altitudes.  Segment-level bus occupancy
(Figs. 8-11) needs every latch cycle and data burst on the simulated
bus at its exact nanosecond — that is the *waveform* tier, the model
this repository has always run.  End-to-end throughput at scale
(Fig. 12) only needs aggregate timing, so the *tlm* tier adds one
thing: the template runner (:mod:`repro.core.fastops`), which runs an
untraced data-plane op from a schedule compiled once per shape, with
identical data, status bits, die state and faults.  Every op the
runner does not take (traced, fault-injected, watchdog-bounded,
control flow, or submitted without ``_plan``) runs the generic runtime
on the segment-accurate path, the same code the waveform tier runs —
so ``fidelity`` means "templates on or off", and the generic path is
exact on both tiers, suspended ops included.
"""

from __future__ import annotations


class FidelityError(RuntimeError):
    """A component that needs waveform fidelity met a TLM channel.

    Raised *at attach time* (sanitizer/analyzer construction, tap
    registration) so a run can never silently miss the events it was
    asked to observe.
    """


FIDELITIES = ("waveform", "tlm")
