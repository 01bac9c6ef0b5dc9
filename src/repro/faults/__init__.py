"""Deterministic fault injection and chaos campaigns.

Declarative :class:`FaultCampaign` plans (JSON round-trippable, seeded)
attach to live component models through the nullable-hook idiom — one
``is not None`` check per site, zero overhead and byte-identical
behavior when detached.  :func:`run_chaos` runs a campaign against the
BABOL stack and the hardware baselines and reports what was injected,
what recovered, and what it cost in tail latency.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "EXIT_INTERNAL": "chaos",
    "EXIT_OK": "chaos",
    "EXIT_UNRECOVERED": "chaos",
    "FTL_KINDS": "chaos",
    "OPS_KINDS": "chaos",
    "SPOR_KINDS": "chaos",
    "FaultCampaign": "plan",
    "FaultInjector": "injector",
    "FaultKind": "plan",
    "FaultPlanError": "plan",
    "FaultSpec": "plan",
    "InjectionRecord": "injector",
    "PowerCut": "power",
    "PowerLossError": "power",
    "RECOVERABLE_KINDS": "plan",
    "apply_power_cut": "power",
    "crash_state": "power",
    "default_campaign": "chaos",
    "restore_media": "power",
    "run_chaos": "chaos",
    "snapshot_media": "power",
    "unsafe_shutdown_ns": "power",
})
