"""Runtime sanitizers for the simulated controller (SAN rule families).

Sanitizers are TSan/ASan-style observers that attach to a running
simulation through nullable hooks on the core components — a single
``is not None`` test per hook site, so an unsanitized run pays nothing.
Enable them with ``BabolController(..., sanitizers="all")`` or the
``repro sanitize`` CLI subcommand.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "SANITIZER_REGISTRY": "base",
    "Sanitizer": "base",
    "attach_sanitizers": "base",
    "register_sanitizer": "base",
    "resolve_names": "base",
    "BusSanitizer": "bus",
    "FlashSanitizer": "flash",
    "MemorySanitizer": "memory",
    "LivenessSanitizer": "liveness",
    "DEFAULT_MAX_STALLED_POLLS": "liveness",
    "run_all_sanitized": "runner",
    "run_babol_sanitized": "runner",
    "run_baseline_sanitized": "runner",
    "SANITIZE_FIXED": "runner",
    "sanitize_spec": "runner",
})
