"""Shared CLI plumbing: option groups, table rendering, tracing,
and the one spec-resolution path every stack-building subcommand uses.

Override precedence (highest wins)::

    --set KEY=VALUE  >  --spec FILE  >  the subcommand's stock spec

Without ``--spec``, the document starts as the subcommand's stock spec
(so ``repro demo`` still runs the exact demo it always did).  With
``--spec``, the file is resolved against the *global* spec defaults —
which is what makes ``repro spec hash FILE`` equal the ``spec_hash`` a
run of that file embeds in its artifacts.  Either way, a field the
subcommand fixes for itself (sets per phase, sweeps as an axis, never
reads) must keep its stock value: the resolved spec is the stack that
runs, or the run is refused.
"""

from __future__ import annotations

import copy

#: Fixed by every subcommand that drives one raw (FTL-less) channel.
RAW_CHANNEL = ("stack.channels", "stack.ftl")


def print_rows(headers, rows) -> None:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def make_tracer(args):
    """A Tracer when ``--trace`` was given, else None."""
    if not getattr(args, "trace", None):
        return None
    from repro.obs import Tracer

    return Tracer()


def write_trace_file(args, tracer, metrics=None, spec=None) -> None:
    if tracer is None:
        return
    from repro.obs import write_chrome_trace

    count = write_chrome_trace(args.trace, tracer, metrics=metrics, spec=spec)
    print(f"trace: {count} events -> {args.trace}")


# ----------------------------------------------------------------------
# Option groups
# ----------------------------------------------------------------------

def trace_opt(p) -> None:
    p.add_argument("--trace", metavar="OUT.json", default=None,
                   help="write a Chrome trace_event capture of the "
                        "run(s) (open in Perfetto)")


def spec_opts(p) -> None:
    """``--spec FILE`` + ``--set KEY=VALUE`` on a stack-building
    subcommand."""
    p.add_argument("--spec", metavar="FILE", default=None,
                   help="experiment spec (.json or .toml) to run "
                        "instead of the subcommand's stock spec")
    p.add_argument("--set", dest="overrides", action="append",
                   default=[], metavar="KEY=VALUE",
                   help="dotted spec override, e.g. "
                        "--set stack.vendor=micron (repeatable; applied "
                        "after --spec)")


# ----------------------------------------------------------------------
# Spec resolution
# ----------------------------------------------------------------------

def resolve_spec(args, stock: dict, fixed=()):
    """The :class:`~repro.config.specs.ExperimentSpec` one invocation
    describes: ``--set`` over ``--spec FILE`` over ``stock`` (the
    subcommand's stock spec document).

    ``fixed`` lists the dotted paths the subcommand fixes for itself; a
    resolved spec that differs from ``stock`` at one of them raises
    :class:`~repro.config.specs.SpecError` (exit 1) naming the path and
    the subcommand — whether it came from ``--set`` or from the file.
    """
    from repro.config import ExperimentSpec, SpecError, apply_overrides
    from repro.config.io import load_spec_dict

    source = args.spec
    document = load_spec_dict(source) if source else copy.deepcopy(stock)
    apply_overrides(document, args.overrides)
    try:
        spec = ExperimentSpec.from_dict(document)
        spec.refuse_fixed(ExperimentSpec.from_dict(stock), fixed,
                          args.command)
    except SpecError as exc:
        if source:
            raise SpecError(f"{source}: {exc}") from None
        raise
    return spec
