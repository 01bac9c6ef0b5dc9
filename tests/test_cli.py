"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_table1_prints_vendors(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "hynix" in out and "toshiba" in out and "micron" in out
    assert "100 us" in out


def test_demo_runs(capsys):
    assert main(["demo", "--set", "stack.luns_per_channel=2",
                 "--set", "stack.runtime=rtos"]) == 0
    out = capsys.readouterr().out
    assert "roundtrip" in out


def test_fig10_cell(capsys):
    assert main(["fig10", "--set", "stack.vendor=micron",
                 "--set", "stack.luns_per_channel=2",
                 "--set", "stack.interface_mt=200",
                 "--freq-mhz", "1000"]) == 0
    out = capsys.readouterr().out
    assert "HW baseline" in out and "rtos" in out and "coroutine" in out


def test_fig11_summary(capsys):
    assert main(["fig11", "--set", "workload.io_count=3"]) == 0
    out = capsys.readouterr().out
    assert "polls" in out and "period" in out


def test_fig12_single_way(capsys):
    assert main(["fig12", "--ways", "1",
                 "--set", "workload.pattern=random"]) == 0
    out = capsys.readouterr().out
    assert "Cosmos+" in out and "BABOL-RTOS" in out


def test_table2_loc(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "READ" in out and "BABOL" in out


def test_table3_area(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "BRAM" in out


def test_unknown_vendor_rejected(capsys):
    assert main(["fig11", "--set", "stack.vendor=samsung"]) == 1
    assert "samsung" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--vendor", "--luns", "--runtime",
                                  "--sanitize", "--fidelity", "--seed"])
def test_legacy_flags_are_gone(flag):
    # One way to say it: a spec field is set with --set, nothing else.
    with pytest.raises(SystemExit):
        main(["demo", flag, "x"])


# -- diagnostics exit codes (0 clean / 1 findings / 2 internal) ------------


def test_demo_with_sanitizers_stays_clean(capsys):
    assert main(["demo", "--set", "stack.luns_per_channel=2",
                 "--set", "stack.sanitizers=all"]) == 0
    out = capsys.readouterr().out
    assert "roundtrip" in out


def test_sanitize_subcommand_clean_run(capsys):
    assert main(["sanitize", "--set", "stack.vendor=micron",
                 "--set", "stack.luns_per_channel=2",
                 "--set", "workload.io_count=4"]) == 0
    out = capsys.readouterr().out
    assert "sanitize: 0 finding(s)" in out


def test_sanitize_writes_json_findings(tmp_path, capsys):
    import json

    out_path = tmp_path / "findings.json"
    assert main(["sanitize", "--set", "stack.vendor=micron",
                 "--set", "stack.luns_per_channel=2",
                 "--set", "workload.io_count=3",
                 "--set", "campaign.baselines=false",
                 "--json", str(out_path)]) == 0
    obj = json.loads(out_path.read_text())
    assert obj["schema"] == 1
    assert obj["findings"] == []


def test_sanitize_internal_error_exits_two(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("harness exploded")

    monkeypatch.setattr("repro.sanitize.run_all_sanitized", broken)
    assert main(["sanitize", "--set", "stack.luns_per_channel=2"]) == 2
    assert "internal error" in capsys.readouterr().out


def test_sanitize_findings_exit_one(monkeypatch, capsys):
    from repro.analysis.diagnostics import DiagnosticReport, Finding

    def found(*args, **kwargs):
        return DiagnosticReport([Finding(rule="SAN101", severity="error",
                                         message="injected")])

    monkeypatch.setattr("repro.sanitize.run_all_sanitized", found)
    assert main(["sanitize", "--set", "stack.luns_per_channel=2"]) == 1
    assert "SAN101" in capsys.readouterr().out


def test_op_lint_internal_error_exits_two(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("linter exploded")

    monkeypatch.setattr("repro.analysis.lint_library", broken)
    assert main(["op-lint"]) == 2
    assert "internal error" in capsys.readouterr().out


def test_unknown_sanitizer_name_is_rejected(capsys):
    # Spec validation failures are usage errors: exit 1 with the rule's
    # message, not a traceback.
    assert main(["demo", "--set", "stack.luns_per_channel=2",
                 "--set", "stack.sanitizers=tsan"]) == 1
    assert "unknown sanitizer" in capsys.readouterr().out
