"""``repro sanitize`` — workloads under the runtime sanitizers."""

from __future__ import annotations

import json

from repro.cli.common import resolve_spec, spec_opts
from repro.config.specs import SpecError


def cmd_sanitize(args) -> int:
    """Run workloads (BABOL and, by default, both hardware baselines)
    under every runtime sanitizer plus the capture-time timing checker.
    Exit 0 clean / 1 findings / 2 internal error."""
    from repro import sanitize
    from repro.analysis.diagnostics import EXIT_INTERNAL

    spec = resolve_spec(args, sanitize.sanitize_spec().to_dict(),
                        sanitize.SANITIZE_FIXED)
    try:
        report = sanitize.run_all_sanitized(spec)
        if args.json:
            obj = json.loads(report.render_json())
            obj["spec"] = spec.resolved()
            obj["spec_hash"] = spec.spec_hash()
            with open(args.json, "w") as handle:
                handle.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
            print(f"sanitize: findings -> {args.json}")
        print(report.render_text(title="sanitize"))
    except SpecError:  # sized against the spec before anything ran
        raise
    except Exception as exc:  # the harness broke — not a finding
        print(f"sanitize: internal error: {exc!r}")
        return EXIT_INTERNAL
    return report.exit_code()


def add_parsers(sub) -> None:
    p = sub.add_parser("sanitize",
                       help="run workloads under the runtime sanitizers")
    p.add_argument("--json", metavar="OUT.json", default=None,
                   help="also write the findings report as JSON")
    spec_opts(p)
    p.set_defaults(func=cmd_sanitize)
