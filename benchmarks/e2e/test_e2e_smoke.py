"""Smoke test of the end-to-end benchmark (not part of tier-1).

    python -m pytest benchmarks/e2e -q

Each workload runs one untraced round plus the traced round at 1/20 of
its stream length.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
DECLARATION = json.loads(
    (RUN.parents[2] / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in DECLARATION["workloads"]]


def run_once(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--rounds", "1", "--scale", "0.05", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    result["stdout"] = done.stdout
    return result


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    """(workload, end-to-end run, per-layer run): two separate processes."""
    return (request.param, run_once(request.param, 0),
            run_once(request.param, 1))


def test_every_declared_metric_is_reported_and_finite(runs):
    _, end_to_end, per_layer = runs
    for group, result in (("end_to_end", end_to_end),
                          ("per_layer", per_layer)):
        declared = {m["name"]: m["unit"] for m in DECLARATION[group]}
        assert set(result["metrics"]) == set(declared)
        for name, cell in result["metrics"].items():
            assert cell["unit"] == declared[name]
            assert math.isfinite(cell["value"]), name
            assert f"\n{name} " in result["stdout"], f"{name} not printed"
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1


def test_layer_shares_sum_to_one(runs):
    _, _, per_layer = runs
    shares = [cell["value"] for name, cell in per_layer["metrics"].items()
              if name.endswith(".host_share")]
    assert len(shares) == 22
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)


def test_call_count_repeats_exactly_across_processes(runs):
    _, first, second = runs
    # The two runs were separate process trees; the count is exact.
    again = second["stdout"].split("\nhost_pycalls_per_cmd ")[1].split()[0]
    assert float(again) == first["metrics"]["host_pycalls_per_cmd"]["value"]


def test_workload_signatures(runs):
    """The layer each workload exists to stress is the one it uses."""
    workload, _, per_layer = runs
    value = {name: cell["value"]
             for name, cell in per_layer["metrics"].items()}
    if workload == "randread_wave":
        assert value["core.fastops.ops_templated"] == 0
        assert value["core.executor.txns"] > 0
    elif workload == "seqwrite_tlm":
        assert value["core.fastops.template_ratio"] == 1.0
        assert value["ftl.gc_runs"] == 0
    elif workload == "mixed_gc_persist_tlm":
        assert value["ftl.persist.checkpoints"] > 0
        assert value["ftl.spor.lpns_recovered"] > 0
        assert value["ftl.spor.lost_acked_writes"] == 0
    else:
        assert value["baselines.hw_mb_s"] > 0
        assert 0 < value["core.softenv.hw_gap_pct"] < 15


def test_declaration_names_are_unique_and_bounded():
    names = [m["name"] for group in ("end_to_end", "per_layer")
             for m in DECLARATION[group]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in DECLARATION["end_to_end"])
    assert DECLARATION["paths"] == ["benchmarks/e2e"]
