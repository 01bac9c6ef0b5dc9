"""``repro chaos`` / ``repro crashfuzz`` — fault-injection campaigns."""

from __future__ import annotations

import json

from repro.cli.common import resolve_spec, spec_opts
from repro.config.specs import SpecError


def cmd_chaos(args) -> int:
    """Run a seeded fault-injection campaign against BABOL (and, by
    default, both hardware baselines) and report what was injected,
    what recovered, and the added tail latency.  Exit 0 when every
    recoverable fault recovered, 1 when any did not, 2 when the chaos
    harness itself broke or a target's workload crashed with no fault
    to blame (``summary["crashed"]``)."""
    from repro.faults.chaos import (
        CHAOS_FIXED,
        EXIT_INTERNAL,
        chaos_spec,
        run_chaos,
    )

    spec = resolve_spec(args, chaos_spec().to_dict(), CHAOS_FIXED)
    try:
        report = run_chaos(spec)
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.json:
            with open(args.json, "w") as handle:
                handle.write(text + "\n")
            print(f"chaos: report -> {args.json}")
        summary = report["summary"]
        print(
            f"chaos[{report['campaign']['name']} seed={report['campaign']['seed']}]"
            f" injected={summary['injected_total']}"
            f" recovered={summary['recovered_total']}"
            f" unrecovered={summary['unrecovered_total']}"
            f" degraded_luns={summary['degraded_luns']}"
        )
        for key, count in sorted(summary["unrecovered"].items()):
            print(f"  UNRECOVERED {key}: {count}")
        for key, error in sorted(summary["crashed"].items()):
            print(f"  CRASHED {key}: {error}")
    except SpecError:  # sized against the spec before anything ran
        raise
    except Exception as exc:  # the harness broke — not a finding
        print(f"chaos: internal error: {exc!r}")
        return EXIT_INTERNAL
    return report["exit_code"]


def cmd_crashfuzz(args) -> int:
    """Crash-consistency fuzzing: a seeded workload through the
    queue-depth host engine, power killed at fuzzed nanoseconds, the
    media remounted, and every host-acked write verified readable with
    its acked contents.  Exit 0 when the contract held at every crash
    point, 1 on any violation, 2 when the harness itself broke."""
    from repro.analysis.crashfuzz import (
        CRASHFUZZ_FIXED,
        EXIT_INTERNAL,
        crashfuzz_spec,
        run_crashfuzz,
        summarize,
    )

    spec = resolve_spec(args, crashfuzz_spec().to_dict(), CRASHFUZZ_FIXED)
    try:
        report = run_crashfuzz(spec)
        if args.json:
            with open(args.json, "w") as handle:
                handle.write(json.dumps(report, indent=2, sort_keys=True)
                             + "\n")
            print(f"crashfuzz: report -> {args.json}")
        for line in summarize(report):
            print(line)
    except SpecError:  # sized against the spec before anything ran
        raise
    except Exception as exc:  # the harness broke — not a finding
        print(f"crashfuzz: internal error: {exc!r}")
        return EXIT_INTERNAL
    return report["exit_code"]


def add_parsers(sub) -> None:
    p = sub.add_parser("chaos",
                       help="seeded fault-injection campaign "
                            "(exit 0 recovered / 1 unrecovered / 2 internal)")
    p.add_argument("--json", default=None, help="write the full report here")
    spec_opts(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("crashfuzz",
                       help="crash-consistency fuzzing: power-cut at "
                            "fuzzed ns, remount, verify every acked "
                            "write (exit 0 clean / 1 violation / "
                            "2 internal)")
    p.add_argument("--json", default=None, help="write the full report here")
    spec_opts(p)
    p.set_defaults(func=cmd_crashfuzz)
