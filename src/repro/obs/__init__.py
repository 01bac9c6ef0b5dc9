"""Observability: simulation-wide tracing, metrics, and exporters.

The paper's evaluation is a study of *where nanoseconds go* — which
waveform segments occupy the channel, where software latency inserts
gaps (Figs. 10-12).  This package is the reproduction's measurement
substrate:

* :class:`Tracer` — an append-only event recorder every layer of the
  stack emits into (kernel, channel, executor, CPU, runtime, ops,
  host).  Attach one with ``sim.set_tracer(tracer)``; every hook is a
  strict no-op behind a single ``if tracer is not None`` when absent.
* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` — pull-style metrics components register into,
  rendered to a JSON-able snapshot.
* :mod:`repro.obs.chrome` — Chrome ``trace_event`` JSON export (open in
  Perfetto / ``chrome://tracing``; one "thread" per channel/LUN/CPU
  track) plus a plain-text summary.
* :func:`traced_op` — the decorator that turns each ONFI operation in
  :mod:`repro.core.ops` into a named span.

Timestamps are simulated nanoseconds straight off the kernel clock, so
traces are bit-reproducible across runs with the same seed.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "ALL_CATEGORIES": "tracer",
    "DEFAULT_CATEGORIES": "tracer",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "SpanKind": "tracer",
    "TraceEvent": "tracer",
    "Tracer": "tracer",
    "chrome_trace_events": "chrome",
    "register_controller_metrics": "instrument",
    "register_ftl_health_metrics": "instrument",
    "register_recovery_metrics": "instrument",
    "register_reliability_metrics": "instrument",
    "register_scale_metrics": "instrument",
    "register_spor_metrics": "instrument",
    "render_text_summary": "chrome",
    "traced_op": "instrument",
    "write_chrome_trace": "chrome",
})
