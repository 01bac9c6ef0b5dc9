"""Runtime sanitizers for the simulated controller (SAN rule families).

Sanitizers are TSan/ASan-style observers that attach to a running
simulation through nullable hooks on the core components — a single
``is not None`` test per hook site, so an unsanitized run pays nothing.
Enable them with ``BabolController(..., sanitizers="all")`` or the
``repro sanitize`` CLI subcommand.
"""

from repro.sanitize.base import (
    SANITIZER_REGISTRY,
    Sanitizer,
    attach_sanitizers,
    register_sanitizer,
    resolve_names,
)
from repro.sanitize.bus import BusSanitizer
from repro.sanitize.flash import FlashSanitizer
from repro.sanitize.liveness import DEFAULT_MAX_STALLED_POLLS, LivenessSanitizer
from repro.sanitize.memory import MemorySanitizer
from repro.sanitize.runner import (
    SANITIZE_FIXED,
    run_all_sanitized,
    run_babol_sanitized,
    run_baseline_sanitized,
    sanitize_spec,
)

__all__ = [
    "SANITIZER_REGISTRY",
    "Sanitizer",
    "attach_sanitizers",
    "register_sanitizer",
    "resolve_names",
    "BusSanitizer",
    "FlashSanitizer",
    "MemorySanitizer",
    "LivenessSanitizer",
    "DEFAULT_MAX_STALLED_POLLS",
    "run_all_sanitized",
    "run_babol_sanitized",
    "run_baseline_sanitized",
    "SANITIZE_FIXED",
    "sanitize_spec",
]
