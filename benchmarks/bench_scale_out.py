"""Scale-out sweep — multi-channel array throughput vs channels × QD.

Beyond the paper's single-channel figures: one BABOL channel controller
per channel, LPNs striped round-robin by :class:`ShardedFtl`, and the
queue-depth host engine keeping every channel's queue pair full.  The
table shows simulated bandwidth scaling as channels grow (near-linear —
channels share nothing) and how queue depth trades bandwidth for tail
latency within a channel.

Script mode measures the fidelity tiers against each other::

    python benchmarks/bench_scale_out.py --fidelity=tlm

runs the 8ch x QD32 cell under both tiers and reports *sim-ops per
wall-second* (completed host commands divided by the wall-clock time of
the workload phase) for each, plus the TLM speedup.  Cells are run
paired and interleaved, keeping the best of ``--trials`` rounds, so the
ratio is stable against machine noise even though the absolute
wall-clock numbers are not.
"""

import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script mode: `python benchmarks/...`
    _root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_root / "src"))
    sys.path.insert(0, str(_root))

import dataclasses

import pytest

from repro.config import FtlSpec, StackSpec, build_stack
from repro.host import ScaleEngine, ScaleJob, run_scale_workload
from repro.host.hic import HostOpcode
from repro.sim import Simulator

from benchmarks.conftest import print_table

CHANNELS = [1, 2, 4, 8]
DEPTHS = [8, 32]
IOS = 192

# The fidelity comparison cell pinned by the acceptance criteria.
SPEEDUP_CHANNELS = 8
SPEEDUP_DEPTH = 32
SPEEDUP_IOS = 1920

#: The sweep's stack template; per-cell channels/fidelity are swept via
#: dataclasses.replace.
BASE_STACK = StackSpec(luns_per_channel=4, ftl=FtlSpec())


def run_cell(channels: int, depth: int, fidelity: str = "waveform",
             job: ScaleJob | None = None):
    sim = Simulator()
    _, ftl = build_stack(sim, dataclasses.replace(
        BASE_STACK, channels=channels, fidelity=fidelity))
    engine = ScaleEngine(sim, ftl, queue_depth=depth)
    return run_scale_workload(sim, engine, job or ScaleJob(io_count=IOS))


def run_experiment():
    return {
        (ch, qd): run_cell(ch, qd)
        for ch in CHANNELS
        for qd in DEPTHS
    }


@pytest.mark.benchmark(group="scale")
def test_scale_out_sweep(benchmark):
    data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    for qd in DEPTHS:
        base = data[(1, qd)].throughput_mb_s
        rows = []
        for ch in CHANNELS:
            result = data[(ch, qd)]
            rows.append([
                str(ch), f"{result.throughput_mb_s:.1f}",
                f"{result.iops:.0f}",
                f"{result.p99_latency_ns / 1000:.1f}",
                f"{result.throughput_mb_s / base:.2f}x",
            ])
        print_table(
            f"Scale-out: {IOS} sequential READs, 4 LUNs/channel, QD{qd}",
            ["channels", "MB/s (sim)", "IOPS", "p99 µs", "scaling"],
            rows,
        )

    benchmark.extra_info["qd32_scaling_1to4"] = round(
        data[(4, 32)].throughput_mb_s / data[(1, 32)].throughput_mb_s, 2)


# ---------------------------------------------------------------------------
# Fidelity-tier comparison (script mode)
# ---------------------------------------------------------------------------

#: The jobs timed in the comparison.  Sustained sequential writes are
#: the headline cell: long tPROG busy windows are where the waveform
#: tier pays per-segment simulation for every poll round while the TLM
#: tier sleeps straight to the die-ready nanosecond.  Random reads are
#: reported alongside as the conservative case — a read's wall cost is
#: dominated by the page-payload error injection both tiers share.
SPEEDUP_JOBS = (
    ("seq-write", ScaleJob(pattern="sequential", opcode=HostOpcode.WRITE,
                           io_count=SPEEDUP_IOS)),
    ("rand-read", ScaleJob(pattern="random", opcode=HostOpcode.READ,
                           io_count=SPEEDUP_IOS, seed=7)),
)


def _timed_cell(fidelity: str, job: ScaleJob,
                stack: StackSpec | None = None) -> tuple[float, object]:
    """(workload wall seconds, ScaleRunResult) for one cell."""
    sim = Simulator()
    _, ftl = build_stack(sim, dataclasses.replace(
        stack or BASE_STACK, channels=SPEEDUP_CHANNELS, fidelity=fidelity))
    engine = ScaleEngine(sim, ftl, queue_depth=SPEEDUP_DEPTH)
    t0 = time.perf_counter()
    result = run_scale_workload(sim, engine, job)
    return time.perf_counter() - t0, result


def run_fidelity_comparison(trials: int = 3, quiet: bool = False,
                            stack: StackSpec | None = None) -> dict:
    """Best-of-``trials`` paired comparison at 8ch x QD32.

    Returns ``{job_name: {"waveform": ops/s, "tlm": ops/s,
    "speedup": float, "commands": int}}``.
    """
    report = {}
    for name, job in SPEEDUP_JOBS:
        best = {"waveform": float("inf"), "tlm": float("inf")}
        results = {}
        for _ in range(max(trials, 1)):
            for fidelity in ("waveform", "tlm"):
                wall, result = _timed_cell(fidelity, job, stack=stack)
                best[fidelity] = min(best[fidelity], wall)
                results[fidelity] = result
        ops = {fid: results[fid].commands / best[fid] for fid in best}
        report[name] = {
            "waveform": ops["waveform"],
            "tlm": ops["tlm"],
            "speedup": ops["tlm"] / ops["waveform"],
            "commands": results["tlm"].commands,
        }
    if not quiet:
        rows = [
            [name,
             f"{cell['commands']}",
             f"{cell['waveform']:.0f}",
             f"{cell['tlm']:.0f}",
             f"{cell['speedup']:.1f}x"]
            for name, cell in report.items()
        ]
        print_table(
            f"Fidelity tiers at {SPEEDUP_CHANNELS}ch x QD{SPEEDUP_DEPTH} "
            f"(best of {trials}, workload phase)",
            ["job", "sim-ops", "waveform ops/wall-s", "tlm ops/wall-s",
             "tlm speedup"],
            rows,
        )
    return report


def _main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--fidelity", choices=("waveform", "tlm"), default=None,
        help="compare the fidelity tiers at 8ch x QD32 and report "
             "sim-ops/wall-second (the named tier is the subject; both "
             "tiers run so the speedup is paired)",
    )
    parser.add_argument("--trials", type=int, default=3,
                        help="paired rounds per cell; best is kept")
    parser.add_argument("--spec", metavar="FILE", default=None,
                        help="experiment spec whose stack section "
                             "replaces the built-in stack template "
                             "(channels/fidelity stay pinned to the "
                             "comparison cell)")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="dotted spec override, e.g. "
                             "--set stack.luns_per_channel=8")
    args = parser.parse_args(argv)

    if args.fidelity is None:
        parser.error("script mode needs --fidelity=waveform|tlm "
                     "(use pytest for the scaling sweep)")
    stack = None
    if args.spec or args.overrides:
        from repro.config import ExperimentSpec, apply_overrides
        from repro.config.io import load_spec_dict

        document = load_spec_dict(args.spec) if args.spec else {}
        apply_overrides(document, args.overrides)
        spec = ExperimentSpec.from_dict(document)
        stack = spec.stack
        if stack.ftl is None:
            stack = dataclasses.replace(stack, ftl=FtlSpec())
        print(f"spec: {spec.name} spec_hash={spec.spec_hash()}")
    report = run_fidelity_comparison(trials=args.trials, stack=stack)
    headline = report["seq-write"]["speedup"]
    print(f"\nheadline (seq-write) tlm speedup: {headline:.1f}x "
          f"{'(>= 10x: PASS)' if headline >= 10 else '(< 10x)'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
