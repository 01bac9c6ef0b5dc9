#!/usr/bin/env python3
"""End-to-end benchmark runner: four workloads, two clocks, per-layer ledger.

    python3 benchmarks/e2e/run.py                      # every workload
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --selfcheck          # A/A gate

One *round* is one fresh subprocess (``PYTHONHASHSEED=0``, one thread)
that builds the workload's stack, runs its command stream and checks the
outputs.  A run of a workload is one round under ``cProfile`` (the
traced round: call counts and per-layer self time) followed by untraced
rounds (the end-to-end host numbers), either ``--rounds`` of them or as
many as start within ``--seconds``.  See README.md for which clock each
metric uses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
DECLARATION = REPO_ROOT / "BENCHMARK.json"

MIN_ROUNDS = 3
DEFAULT_ROUNDS = 5
CHILD_TIMEOUT_S = 150
#: Share of profiled self time allowed outside the layer map.
MAX_UNMAPPED_SHARE = 0.01
#: End-to-end metrics that are exact per (commit, seed): an A/A run must
#: reproduce them to the last digit.
EXACT = ("host_pycalls_per_cmd", "sim_mb_s", "sim_lat_p50_us",
         "sim_lat_p99_us", "sim_waf")
#: Layer metrics on the host clock (besides every ``*.host_self_s`` and
#: ``*.host_share``); every other layer metric is exact.
HOST_CLOCK_LAYER_METRICS = ("ftl.spor.mount_host_s",
                            "sim.host_ns_per_schedule",
                            "bench.trace_overhead_x")

# Rounds import the program under test from the checkout's source tree.
sys.path.insert(0, str(REPO_ROOT / "src"))


# ----------------------------------------------------------------------
# One round (child process)
# ----------------------------------------------------------------------

def run_round(name: str, seed: int, scale: float, profiled: bool) -> dict:
    """Build, run and check one workload in this process."""
    import resource

    import layers
    import workloads

    workload = workloads.build(name, seed, scale)
    # CPU seconds since the process started: interpreter start-up,
    # imports, spec validation, stack build and prefill.
    setup_s = time.process_time()

    profile = None
    if profiled:
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
    cpu0 = time.process_time()
    try:
        workload.run()
    finally:
        timed_s = time.process_time() - cpu0
        if profile is not None:
            profile.disable()

    workload.check()
    sim = workload.sim_metrics()
    completed = sim.pop("completed")
    failed = min(workload.attempted,
                 workload.attempted - completed + len(workload.failures))
    result = {
        "attempted": workload.attempted,
        "completed": completed,
        "failed": failed,
        "failures": workload.failures[:20],
        "setup_s": setup_s,
        "timed_s": timed_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": sim,
        "counters": workload.layer_counters(),
    }
    if profile is not None:
        folded, functions = layers.fold(profile)
        result["layers"] = folded
        result["functions"] = [
            [_relative(row[0])] + row[1:] for row in functions]
    return result


def _relative(filename: str) -> str:
    try:
        return Path(filename).relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return filename


def run_child(name: str, seed: int, scale: float, profiled: bool) -> dict:
    """Spawn one round and parse the record it prints."""
    command = [sys.executable, str(Path(__file__).resolve()), "--round", name,
               "--seed", str(seed), "--scale", repr(scale)]
    if profiled:
        command.append("--profiled")
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(command, env=env, cwd=REPO_ROOT, text=True,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(
            f"round of {name} (seed {seed}) exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# A run: traced round + untraced rounds, folded into named metrics
# ----------------------------------------------------------------------

def collect(names: list, seed: int, scale: float, rounds: int,
            seconds: float | None) -> dict:
    """Run every workload's rounds, interleaved round-robin so a slow
    phase of the machine spreads over all workloads."""
    start = time.perf_counter()
    traced = {name: run_child(name, seed, scale, True) for name in names}
    untraced: dict = {name: [] for name in names}
    index = 0
    while (index < rounds if seconds is None else
           index < MIN_ROUNDS or time.perf_counter() - start < seconds):
        for name in names:
            untraced[name].append(run_child(name, seed, scale, False))
        index += 1
    return {name: summarize(traced[name], untraced[name]) for name in names}


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(traced: dict, untraced: list) -> dict:
    """Fold one workload's rounds into the declared metrics."""
    first = untraced[0]
    every = untraced + [traced]
    problems = []

    # The simulated machine must not depend on the round, nor on being
    # profiled: digest, statistics and every count-type counter agree.
    def exact_view(record: dict) -> dict:
        counters = {key: value for key, value in record["counters"].items()
                    if key not in HOST_CLOCK_LAYER_METRICS}
        return {"sim": record["sim"], "counters": counters}

    if any(exact_view(record) != exact_view(first) for record in every):
        problems.append("simulated results differ between rounds")
    for record in every:
        problems.extend(record["failures"])

    completed = first["completed"]
    rates = [r["completed"] / r["timed_s"] for r in untraced]
    timed = [r["timed_s"] for r in untraced]
    setups = [r["setup_s"] for r in untraced]
    rss = [r["peak_rss_mb"] for r in untraced]
    calls = sum(cell["calls"] for cell in traced["layers"].values())

    end_to_end = {
        "setup_s": statistics.median(setups),
        # Fastest, not median: on a shared box slow phases only ever
        # add time (README, "Measured noise").
        "host_cmds_per_s": max(rates),
        "host_pycalls_per_cmd": calls / completed if completed else math.inf,
        "host_peak_rss_mb": statistics.median(rss),
        "sim_mb_s": first["sim"]["sim_mb_s"],
        "sim_lat_p50_us": first["sim"]["sim_lat_p50_us"],
        "sim_lat_p99_us": first["sim"]["sim_lat_p99_us"],
        "sim_waf": first["sim"]["sim_waf"],
    }

    profiled_s = sum(cell["host_self_s"]
                     for cell in traced["layers"].values())
    unmapped = traced["layers"].pop("unmapped")
    if profiled_s and unmapped["host_self_s"] / profiled_s > MAX_UNMAPPED_SHARE:
        problems.append("more than 1 % of self time is outside the layer map")
    per_layer = {}
    for layer, cell in traced["layers"].items():
        per_layer[f"{layer}.calls"] = cell["calls"]
        per_layer[f"{layer}.host_self_s"] = cell["host_self_s"]
        per_layer[f"{layer}.host_share"] = (
            cell["host_self_s"] / profiled_s if profiled_s else 0.0)
    per_layer.update(first["counters"])
    schedules = sum(row[3] for row in traced["functions"]
                    if row[0].endswith("sim/kernel.py")
                    and row[2] == "schedule")
    per_layer["sim.schedules"] = schedules
    # The sim layer's share of an *untraced* round, per schedule() call.
    per_layer["sim.host_ns_per_schedule"] = (
        per_layer["sim.host_share"] * statistics.median(timed) * 1e9
        / schedules if schedules else 0.0)
    per_layer["bench.trace_overhead_x"] = (
        traced["timed_s"] / statistics.median(timed))

    return {
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "problems": problems,      # main() adds to these, then sets "correct"
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "sim_digest": first["sim"]["sim_digest"],
        "sim_lat_samples": first["sim"]["sim_lat_samples"],
        "rounds": len(untraced),
        "host_cmds_per_s_rounds": rates,
        "host_cmds_per_s_median": statistics.median(rates),
        "host_cmds_per_s_quartiles": _quartiles(rates),
        "setup_s_rounds": setups,
        "functions": traced["functions"],
    }


def check_declared(summary: dict, declaration: dict) -> list:
    """Every declared metric is reported, finite, and nothing else is."""
    problems = []
    for group in ("end_to_end", "per_layer"):
        declared = [metric["name"] for metric in declaration[group]]
        values = summary[group]
        if sorted(declared) != sorted(values):
            odd = sorted(set(declared) ^ set(values))
            problems.append(f"{group} names differ from BENCHMARK.json: {odd}")
        problems.extend(
            f"{name} is not finite" for name, value in values.items()
            if not math.isfinite(value))
    return problems


def print_summary(name: str, summary: dict, declaration: dict) -> None:
    print(f"== {name}: {summary['rounds']} untraced round(s) + 1 traced, "
          f"{summary['attempted']} commands attempted, "
          f"{summary['failed']} failed")
    print(f"sim_digest {summary['sim_digest']}  "
          f"(latency samples per round: {summary['sim_lat_samples']})")
    for group in ("end_to_end", "per_layer"):
        for metric in declaration[group]:
            value = summary[group].get(metric["name"])
            print(f"{metric['name']:<40} {value!r:>24} {metric['unit']}")
    for problem in summary["problems"]:
        print(f"PROBLEM: {problem}")


def contract_line(summary: dict, declaration: dict, trace: int) -> str:
    """The last line of a single-workload run."""
    group = "per_layer" if trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declaration[group]}
    metrics = {name: {"value": value, "unit": units.get(name, "")}
               for name, value in summary[group].items()}
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# Records and the A/A gate
# ----------------------------------------------------------------------

def _git_head() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              text=True, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def write_record(path: str, summaries: dict, args) -> None:
    import workloads

    record = {
        "seed": args.seed,
        "scale": args.scale,
        "git_head": _git_head(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {
            name: dict(summary,
                       **workloads.describe(name, args.seed, args.scale))
            for name, summary in summaries.items()
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


def selfcheck(first: dict, second: dict, declaration: dict) -> bool:
    """Two sets of the same code must agree within the declared bounds,
    and exactly on everything that is a count or a simulated value."""
    ok = True
    for name in first:
        a_run, b_run = first[name], second[name]
        for metric in declaration["end_to_end"]:
            key = metric["name"]
            a, b = a_run["end_to_end"][key], b_run["end_to_end"][key]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            limit = 0.0 if key in EXACT else metric["bound"]
            passed = a == b if key in EXACT else worse <= limit
            ok &= passed
            print(f"{name:<22} {key:<22} {a!r:>22} {b!r:>22} "
                  f"{worse:+9.4f} (limit {limit}) "
                  f"{'PASS' if passed else 'FAIL'}")
        exact = [key for key in a_run["per_layer"]
                 if not key.endswith((".host_self_s", ".host_share"))
                 and key not in HOST_CLOCK_LAYER_METRICS]
        moved = [key for key in exact
                 if a_run["per_layer"][key] != b_run["per_layer"][key]]
        same = a_run["sim_digest"] == b_run["sim_digest"] and not moved
        ok &= same
        print(f"{name:<22} sim_digest + {len(exact)} exact layer counts "
              f"{'PASS' if same else 'FAIL ' + ', '.join(moved)}")
    return ok


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="untraced rounds per workload")
    parser.add_argument("--seconds", type=float,
                        help="start untraced rounds for this long instead "
                             "of counting --rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="last line carries end-to-end (0) or "
                             "per-layer (1) metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="stream length multiplier (smoke tests)")
    parser.add_argument("--out", help="write the full JSON record here")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets and compare them (A/A gate)")
    parser.add_argument("--round", help=argparse.SUPPRESS)
    parser.add_argument("--profiled", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.round:
        print(json.dumps(run_round(args.round, args.seed, args.scale,
                                   args.profiled)))
        return 0

    declaration = json.loads(DECLARATION.read_text(encoding="utf-8"))
    names = [workload["name"] for workload in declaration["workloads"]]
    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(names)}")
        names = [args.workload]

    def one_set() -> dict:
        summaries = collect(names, args.seed, args.scale, args.rounds,
                            args.seconds)
        for name, summary in summaries.items():
            summary["problems"] += check_declared(summary, declaration)
            summary["correct"] = (not summary["problems"]
                                  and summary["failed"] == 0)
            print_summary(name, summary, declaration)
        return summaries

    summaries = one_set()
    ok = all(summary["correct"] for summary in summaries.values())
    if args.selfcheck:
        second = one_set()
        ok &= all(summary["correct"] for summary in second.values())
        ok &= selfcheck(summaries, second, declaration)
    if args.out:
        write_record(args.out, summaries, args)
    if args.workload:
        print(contract_line(summaries[args.workload], declaration, args.trace))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
