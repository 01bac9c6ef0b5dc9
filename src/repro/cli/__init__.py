"""The ``repro`` command-line interface.

:mod:`repro.cli.entry` assembles the parser and holds ``main``; one
module per subcommand group:

* :mod:`repro.cli.figures` — paper figures/tables (demo, table1,
  fig10, fig11, fig12, table2, table3)
* :mod:`repro.cli.tracecmd` — Chrome trace capture of a mixed workload
* :mod:`repro.cli.staticchecks` — op-lint / verify-ops static analysis
* :mod:`repro.cli.sanitizecmd` — runtime sanitizer sweeps
* :mod:`repro.cli.faultscmd` — chaos / crashfuzz fault campaigns
* :mod:`repro.cli.benchcmd` — bench-smoke / perf benchmark artifacts
* :mod:`repro.cli.speccmd` — spec validate / show / hash

Every stack-building subcommand resolves one
:class:`~repro.config.specs.ExperimentSpec` (``--set`` over ``--spec``
over its stock spec — see :func:`repro.cli.common.resolve_spec`), builds
what it runs from that spec, and embeds the resolved spec plus its
``spec_hash`` in whatever artifact it writes.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "build_parser": "entry",
    "main": "entry",
})
