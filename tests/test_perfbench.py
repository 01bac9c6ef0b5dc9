"""Tests for the perf sweep and the perf-regression gate, plus the
sorted-key guarantee every CLI JSON artifact carries."""

import copy
import json

from repro.analysis.perfbench import (
    cell_key,
    compare_reports,
    kernel_microbench,
    perf_spec,
    run_perf_sweep,
    run_scale_cell,
)
from repro.cli import main


def tiny_sweep(channel_counts=(1, 2), queue_depths=(4,), quick=False,
               io_count=24, **stack):
    spec = perf_spec(channel_counts, queue_depths, luns_per_channel=2,
                     io_count=io_count, **stack)
    return run_perf_sweep(spec, channel_counts, queue_depths, quick=quick,
                          microbench_events=200)


def assert_keys_sorted(obj, path="$"):
    if isinstance(obj, dict):
        assert list(obj) == sorted(obj), f"unsorted keys at {path}"
        for key, value in obj.items():
            assert_keys_sorted(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            assert_keys_sorted(value, f"{path}[{i}]")


# --- sweep ---------------------------------------------------------------


def test_scale_cell_reports_sim_and_host_numbers():
    cell = run_scale_cell(perf_spec(luns_per_channel=2, io_count=16), 1, 4)
    assert cell["commands"] == 16
    assert cell["throughput_mb_s"] > 0
    assert cell["host"]["dispatch_us_per_op"] >= 0
    assert set(cell["latency_us"]) == {"max", "mean", "p50", "p95", "p99"}


def test_sweep_has_cell_per_combination_and_scaling():
    report = tiny_sweep()
    assert set(report["cells"]) == {cell_key(1, 4), cell_key(2, 4)}
    assert "qd4_1to2" in report["scaling"]
    assert report["scaling"]["qd4_1to2"] > 1.0
    assert report["gates"]["dispatch_us_per_op_ceiling"] > 0


def test_quick_mode_keeps_corner_cells_comparable():
    full = tiny_sweep(channel_counts=(1, 2), queue_depths=(2, 4))
    quick = tiny_sweep(channel_counts=(1, 2), queue_depths=(2, 4), quick=True)
    assert quick["quick"] is True
    assert set(quick["cells"]) == {cell_key(1, 4), cell_key(2, 4)}
    assert set(quick["cells"]) <= set(full["cells"])
    # Identical parameters → identical simulated numbers.
    for key in quick["cells"]:
        assert (quick["cells"][key]["throughput_mb_s"]
                == full["cells"][key]["throughput_mb_s"])


def test_simulated_numbers_are_run_invariant():
    a, b = tiny_sweep(), tiny_sweep()
    for key in a["cells"]:
        for field in ("throughput_mb_s", "iops", "elapsed_ns", "latency_us",
                      "doorbells", "per_channel_commands"):
            assert a["cells"][key][field] == b["cells"][key][field]


def test_kernel_microbench_shape():
    bench = kernel_microbench(events=200, rounds=1)
    assert bench["timeout_ns_per_event"] > 0
    assert bench["trigger_ns_per_fire"] > 0


# --- the gate ------------------------------------------------------------


def test_gate_passes_on_identical_reports():
    report = tiny_sweep()
    assert compare_reports(copy.deepcopy(report), report) == []


def test_gate_fails_on_throughput_drift_beyond_tolerance():
    baseline = tiny_sweep()
    current = copy.deepcopy(baseline)
    key = cell_key(2, 4)
    current["cells"][key]["throughput_mb_s"] *= 0.8   # -20% > 10% tolerance
    problems = compare_reports(current, baseline)
    assert len(problems) == 1
    assert key in problems[0] and "drifted" in problems[0]


def test_gate_tolerates_drift_within_tolerance():
    baseline = tiny_sweep()
    current = copy.deepcopy(baseline)
    current["cells"][cell_key(2, 4)]["throughput_mb_s"] *= 1.05
    assert compare_reports(current, baseline) == []


def test_gate_fails_on_dispatch_ceiling_breach():
    baseline = tiny_sweep()
    current = copy.deepcopy(baseline)
    ceiling = baseline["gates"]["dispatch_us_per_op_ceiling"]
    current["cells"][cell_key(1, 4)]["host"]["dispatch_us_per_op"] = ceiling + 1
    problems = compare_reports(current, baseline)
    assert any("ceiling" in p for p in problems)


def test_gate_fails_on_kernel_ceiling_breach():
    baseline = tiny_sweep()
    current = copy.deepcopy(baseline)
    ceiling = baseline["gates"]["kernel_timeout_ns_ceiling"]
    assert ceiling > baseline["kernel"]["timeout_ns_per_event"]
    current["kernel"]["timeout_ns_per_event"] = ceiling + 1
    problems = compare_reports(current, baseline)
    assert len(problems) == 1 and "kernel" in problems[0]
    # A baseline recorded before the gate existed has no key: not checked.
    del baseline["gates"]["kernel_timeout_ns_ceiling"]
    assert compare_reports(current, baseline) == []


def test_gate_rejects_param_mismatch():
    baseline = tiny_sweep()
    current = tiny_sweep(io_count=12)
    problems = compare_reports(current, baseline)
    assert len(problems) == 1 and "params mismatch" in problems[0]


def test_gate_reports_no_comparable_cells():
    baseline = tiny_sweep()
    current = copy.deepcopy(baseline)
    current["cells"] = {"c9_qd9": baseline["cells"][cell_key(1, 4)]}
    assert any("no comparable cells" in p
               for p in compare_reports(current, baseline))


# --- fidelity tiers ------------------------------------------------------


def test_sweep_records_fidelity_per_cell():
    report = tiny_sweep(fidelity="tlm")
    assert report["schema"] == 3
    assert report["spec_hash"]
    assert report["spec"]["stack"]["fidelity"] == "tlm"
    assert all(cell["fidelity"] == "tlm"
               for cell in report["cells"].values())


def test_cells_surface_dispatch_counters_ungated():
    """Every cell records how many shapes its controllers lowered, TLM
    cells also how the template runner's submissions went — sorted keys,
    diagnostics only: the gate never reads them."""
    wave = tiny_sweep()
    tlm = tiny_sweep(fidelity="tlm")
    for report in (wave, tlm):
        for cell in report["cells"].values():
            assert_keys_sorted(cell.get("fastops", {}))
            # One lowering per shape and controller on either tier (the
            # op's and the status poll's), not one per command.
            assert cell["channels"] <= cell["host"]["shapes_lowered"] \
                <= 3 * cell["channels"] < cell["commands"]
    assert all("fastops" not in cell for cell in wave["cells"].values())
    for cell in tlm["cells"].values():
        fast = cell["fastops"]
        assert fast["ops_planned"] >= cell["commands"]
        assert fast["ops_declined"] == 0
        # One compile per shape and controller, not one per command.
        assert 1 <= fast["shapes_compiled"] <= 2 * cell["channels"]
    changed = copy.deepcopy(tlm)
    for cell in changed["cells"].values():
        cell["host"]["shapes_lowered"] += 10_000
        cell["fastops"]["ops_declined"] += 10_000
    assert compare_reports(changed, tlm) == []


def test_gate_only_compares_cells_of_matching_fidelity():
    """A TLM run against a waveform baseline must not be gated on
    throughput — the tiers' aggregate timelines legitimately differ."""
    baseline = tiny_sweep()
    current = copy.deepcopy(baseline)
    for cell in current["cells"].values():
        cell["fidelity"] = "tlm"
        cell["throughput_mb_s"] *= 3.0   # would fail a naive comparison
    problems = compare_reports(current, baseline)
    assert problems == [
        "no comparable cells between current run and baseline "
        "(same cell key AND same fidelity tier)"
    ]


def test_gate_treats_schema1_baseline_cells_as_waveform():
    baseline = tiny_sweep()
    for cell in baseline["cells"].values():
        del cell["fidelity"]
    baseline["schema"] = 1
    assert compare_reports(tiny_sweep(), baseline) == []


# --- CLI -----------------------------------------------------------------


PERF_ARGS = ["perf", "--set", "stack.channels=2",
             "--set", "workload.queue_depth=4",
             "--set", "stack.luns_per_channel=2",
             "--set", "workload.io_count=24"]


def test_cli_perf_writes_report_and_table(tmp_path, capsys):
    out = tmp_path / "scale.json"
    assert main(PERF_ARGS + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["bench"] == "scale"
    text = capsys.readouterr().out
    assert "c2_qd4" in text and "scaling" in text


def test_cli_perf_check_green_then_red(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main(PERF_ARGS + ["--out", str(baseline)]) == 0
    assert main(PERF_ARGS + ["--check", str(baseline),
                             "--out", str(tmp_path / "cur.json")]) == 0
    assert "within tolerance" in capsys.readouterr().out

    perturbed = json.loads(baseline.read_text())
    perturbed["cells"]["c1_qd4"]["throughput_mb_s"] *= 1.25
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(perturbed))
    assert main(PERF_ARGS + ["--check", str(bad),
                             "--out", str(tmp_path / "cur2.json")]) == 1
    assert "PERF REGRESSION" in capsys.readouterr().out


def test_cli_perf_quick_subsets_full_baseline(tmp_path):
    assert main(PERF_ARGS + ["--quick",
                             "--out", str(tmp_path / "quick.json")]) == 0
    report = json.loads((tmp_path / "quick.json").read_text())
    assert set(report["cells"]) == {"c1_qd4", "c2_qd4"}


# --- artifact stability --------------------------------------------------


def test_perf_report_keys_sorted_recursively(tmp_path):
    out = tmp_path / "scale.json"
    main(PERF_ARGS + ["--out", str(out)])
    assert_keys_sorted(json.loads(out.read_text()))


def test_bench_smoke_report_keys_sorted(tmp_path):
    out = tmp_path / "smoke.json"
    assert main(["bench-smoke", "--set", "workload.io_count=2",
                 "--out", str(out)]) == 0
    assert_keys_sorted(json.loads(out.read_text()))


def test_chaos_report_keys_sorted(tmp_path):
    out = tmp_path / "chaos.json"
    assert main(["chaos", "--set", "campaign.baselines=false",
                 "--json", str(out)]) in (0, 1)
    assert_keys_sorted(json.loads(out.read_text()))


def test_sorted_reports_are_byte_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(PERF_ARGS + ["--out", str(a)])
    main(PERF_ARGS + ["--out", str(b)])
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    # Wall-clock fields differ run to run; the simulated payload and the
    # serialized shape must not.
    for report in (ra, rb):
        report.pop("kernel")
        for cell in report["cells"].values():
            cell.pop("host")
        report["gates"].pop("dispatch_us_per_op_ceiling")
        report["gates"].pop("kernel_timeout_ns_ceiling")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
