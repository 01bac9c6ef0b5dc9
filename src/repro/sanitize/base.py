"""Sanitizer base class, registry, and attachment plumbing.

A sanitizer is a TSan/ASan-style runtime checker for the simulated
controller: it attaches low-overhead hooks to the component models
(channel, LUNs, DRAM, kernel) and reports hazards as ``SAN###``
:class:`~repro.analysis.diagnostics.Finding` records.  The hooks follow
the tracer idiom — components carry a ``None`` attribute that every
call site guards with a single ``is not None`` check, so a simulation
without sanitizers pays one attribute load per hook point.

Attachment targets are duck-typed: anything exposing the component
attributes a sanitizer needs (``channel``, ``luns``, ``dram``, ``sim``,
``env``) can be sanitized — the BABOL controller and both hardware
baselines all qualify.

Custom sanitizers register with :func:`register_sanitizer` (INTERNALS
§9 shows a worked example) and are then selectable by name everywhere
built-ins are: ``ControllerConfig(sanitizers=...)``, ``stack.sanitizers``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from repro.analysis.diagnostics import DiagnosticReport, Finding
from repro.config.specs import FidelityError


class Sanitizer:
    """Base class: finding plumbing plus the attach contract."""

    #: Registry name; subclasses override.
    name = "base"

    #: True when the sanitizer samples per-segment bus traffic and is
    #: therefore meaningless under the TLM tier (whose templates run ops
    #: without putting their segments on the bus).  Attachment to a TLM
    #: stack fails fast with a FidelityError instead of silently
    #: missing every event it was asked to observe.
    requires_waveform = False

    def __init__(self) -> None:
        self.report: Optional[DiagnosticReport] = None
        self.sim = None

    # -- subclass contract ---------------------------------------------

    def attach(self, target, report: DiagnosticReport) -> None:
        """Install hooks on ``target``'s components.  Subclasses must
        call ``super().attach(target, report)`` first."""
        self.report = report
        self.sim = getattr(target, "sim", None)

    # -- finding helper ------------------------------------------------

    def emit(
        self,
        rule: str,
        message: str,
        *,
        severity: str = "error",
        component: str = "",
        time_ns: Optional[int] = None,
        hint: str = "",
    ) -> None:
        if time_ns is None and self.sim is not None:
            time_ns = self.sim.now
        self.report.add(Finding(
            rule=rule, severity=severity, message=message,
            component=component, time_ns=time_ns, hint=hint,
        ))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SANITIZER_REGISTRY: dict[str, Callable[[], Sanitizer]] = {}


def register_sanitizer(name: str, factory: Callable[[], Sanitizer]) -> None:
    """Register a sanitizer factory under ``name`` (latest wins)."""
    SANITIZER_REGISTRY[name] = factory


def _register_builtins() -> None:
    # Imported lazily to avoid import cycles at package init.
    from repro.sanitize.bus import BusSanitizer
    from repro.sanitize.flash import FlashSanitizer
    from repro.sanitize.liveness import LivenessSanitizer
    from repro.sanitize.memory import MemorySanitizer

    for cls in (BusSanitizer, FlashSanitizer, MemorySanitizer,
                LivenessSanitizer):
        SANITIZER_REGISTRY.setdefault(cls.name, cls)


SanitizerSpec = Union[str, Iterable[str], None]


def resolve_names(spec: SanitizerSpec) -> tuple[str, ...]:
    """Normalize a sanitizer selection to a tuple of registry names.

    Accepts ``"all"``, a comma-separated string, or an iterable of
    names; ``None``/empty selects nothing.
    """
    if spec is None:
        return ()
    _register_builtins()
    if isinstance(spec, str):
        names = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        names = list(spec)
    if names == ["all"]:
        names = ["bus", "flash", "memory", "liveness"]
        names += [n for n in SANITIZER_REGISTRY if n not in names]
    unknown = [n for n in names if n not in SANITIZER_REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown sanitizer(s) {unknown}; known: {sorted(SANITIZER_REGISTRY)}"
        )
    return tuple(names)


def attach_sanitizers(
    target,
    spec: SanitizerSpec = "all",
    report: Optional[DiagnosticReport] = None,
) -> tuple[Sanitizer, ...]:
    """Instantiate and attach the selected sanitizers to ``target``.

    All attached sanitizers share ``report`` (created when omitted);
    read it back from any sanitizer's ``.report``.
    """
    shared = report if report is not None else DiagnosticReport()
    sanitizers = []
    for name in resolve_names(spec):
        sanitizer = SANITIZER_REGISTRY[name]()
        if (sanitizer.requires_waveform
                and target.channel.fidelity != "waveform"):
            raise FidelityError(
                f"sanitizer '{name}' samples per-segment bus traffic, "
                f"which the '{target.channel.fidelity}' tier's templates "
                f"do not put on the bus — "
                f"run with fidelity='waveform', or select only "
                f"transaction-safe sanitizers (e.g. 'memory,liveness')"
            )
        sanitizer.attach(target, shared)
        sanitizers.append(sanitizer)
    return tuple(sanitizers)
