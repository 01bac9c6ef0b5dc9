"""Measurement and reporting tools.

* :mod:`logic_analyzer` — the stand-in for the Keysight 16862A of
  Section VI-B: taps the channel, records every segment and decoded
  event with exact nanosecond timestamps, measures polling periods.
* :mod:`waveform_render` — ASCII timing diagrams (Figs. 2/9/11 style).
* :mod:`loc` — source-line counting for the Table II comparison.
* :mod:`op_lint` — static protocol linter for declarative op programs.
* :mod:`cfg` — control-flow graphs over op-IR nodes, the structural
  pass shared by the linter's dead-code rule and the verifier.
* :mod:`opver` — static op-IR verifier: abstract interpretation
  proving protocol, timing, and liveness properties over every path.
* :mod:`diagnostics` — the unified Finding/DiagnosticReport engine the
  linters and the runtime sanitizers (:mod:`repro.sanitize`) share.
* :mod:`area` — the structural FPGA area model behind Table III.
* :mod:`metrics` — shared throughput/latency summaries.

The names below load their submodule on first access
(:func:`repro._lazy.lazy_exports`): every simulation imports
:mod:`metrics`, and only the CLI's static checks and figures need the
verifier, the linter or the analyzer.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "EXIT_CLEAN": "diagnostics",
    "EXIT_FINDINGS": "diagnostics",
    "EXIT_INTERNAL": "diagnostics",
    "DiagnosticReport": "diagnostics",
    "Finding": "diagnostics",
    "TimingChecker": "timing_check",
    "TimingViolation": "timing_check",
    "AnalyzerEvent": "logic_analyzer",
    "LogicAnalyzer": "logic_analyzer",
    "render_segment": "waveform_render",
    "render_timeline": "waveform_render",
    "count_source_lines": "loc",
    "operation_loc_table": "loc",
    "LintCoverage": "op_lint",
    "LintFinding": "op_lint",
    "lint_all": "op_lint",
    "lint_library": "op_lint",
    "lint_program": "op_lint",
    "Cfg": "cfg",
    "CfgNode": "cfg",
    "build_cfg": "cfg",
    "VerifyCoverage": "opver",
    "VerifyFinding": "opver",
    "verify_library": "opver",
    "verify_op": "opver",
    "verify_program": "opver",
    "AreaEstimate": "area",
    "estimate_area": "area",
    "LatencyStats": "metrics",
    "summarize_latencies": "metrics",
})
