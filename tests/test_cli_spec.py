"""The --spec/--set surface of the CLI and the ``repro spec`` tools."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import ExperimentSpec, load_spec

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"
EXAMPLE_SPECS = sorted(str(p) for p in SPEC_DIR.iterdir())


# --- repro spec ----------------------------------------------------------


def test_examples_directory_is_populated():
    assert len(EXAMPLE_SPECS) >= 4


@pytest.mark.parametrize("path", EXAMPLE_SPECS)
def test_every_example_spec_validates(path):
    spec = load_spec(path)
    assert spec.name
    assert spec.description  # curated examples explain themselves


def test_spec_validate_command(capsys):
    assert main(["spec", "validate", *EXAMPLE_SPECS]) == 0
    out = capsys.readouterr().out
    assert out.count("ok   ") == len(EXAMPLE_SPECS)


def test_spec_validate_flags_bad_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"stack": {"channels": 0}}')
    good = str(SPEC_DIR / "default-1ch-waveform.json")
    assert main(["spec", "validate", good, str(bad)]) == 1
    out = capsys.readouterr().out
    assert "ok   " in out and "FAIL" in out and "channels" in out


def test_spec_show_resolved_materializes_defaults(capsys):
    path = str(SPEC_DIR / "default-1ch-waveform.json")
    assert main(["spec", "show", path, "--resolved"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["stack"]["vendor"] == "hynix"
    assert document["stack"]["channels"] == 1
    assert document["workload"]["queue_depth"] == 32
    # The resolved document is itself a valid spec with the same hash.
    spec = ExperimentSpec.from_dict(document)
    assert spec.spec_hash() == load_spec(path).spec_hash()


def test_spec_hash_command_matches_library(capsys):
    path = str(SPEC_DIR / "crashfuzz-mix.json")
    assert main(["spec", "hash", path]) == 0
    assert capsys.readouterr().out.strip() == load_spec(path).spec_hash()


# --- --spec / --set on stack-building subcommands ------------------------


def test_bench_smoke_embeds_hash_of_its_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "smoke.json"
    spec_path.write_text(json.dumps({
        "name": "smoke-from-file",
        "stack": {"luns_per_channel": 1},
        "workload": {"io_count": 2},
    }))
    out = tmp_path / "BENCH.json"
    assert main(["bench-smoke", "--spec", str(spec_path),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    # The acceptance check: what the artifact embeds IS the file's hash.
    assert payload["spec_hash"] == load_spec(str(spec_path)).spec_hash()
    assert payload["spec"]["name"] == "smoke-from-file"
    assert payload["fig11"]["coroutine"]["reads"] == 2


def test_set_overrides_beat_spec_file(tmp_path):
    spec_path = tmp_path / "smoke.json"
    spec_path.write_text(json.dumps({
        "stack": {"luns_per_channel": 1},
        "workload": {"io_count": 2},
    }))
    out = tmp_path / "BENCH.json"
    assert main(["bench-smoke", "--spec", str(spec_path),
                 "--set", "workload.io_count=3",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["spec"]["workload"]["io_count"] == 3


def test_spec_file_replaces_the_stock_spec_and_later_set_wins(tmp_path):
    # Two layers: a file is resolved against the global defaults, not
    # merged over the subcommand's stock spec (stock io_count is 4) ...
    spec_path = tmp_path / "smoke.json"
    spec_path.write_text(json.dumps({"stack": {"luns_per_channel": 1}}))
    file_out = tmp_path / "file.json"
    assert main(["bench-smoke", "--spec", str(spec_path),
                 "--set", "workload.io_count=2",
                 "--out", str(file_out)]) == 0
    spec = json.loads(file_out.read_text())["spec"]
    assert spec["name"] == "experiment" and spec["workload"]["io_count"] == 2
    # ... and --set applies in order, last one wins.
    both_out = tmp_path / "both.json"
    assert main(["bench-smoke", "--spec", str(spec_path),
                 "--set", "workload.io_count=4",
                 "--set", "workload.io_count=3",
                 "--out", str(both_out)]) == 0
    assert json.loads(both_out.read_text())[
        "spec"]["workload"]["io_count"] == 3


def test_bad_spec_file_is_a_usage_error(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    for document, named in (
            ('{"stack": {"vendor": "acme"}}', "acme"),
            # A field the FTL no longer has: GC runs whenever a LUN is
            # down to its reserve block.
            ('{"stack": {"ftl": {"gc_free_threshold": 2}}}',
             "gc_free_threshold")):
        spec_path.write_text(document)
        assert main(["bench-smoke", "--spec", str(spec_path)]) == 1
        out = capsys.readouterr().out
        assert "spec error" in out and named in out


# A spec saved as UTF-16 (it starts with b"\xff\xfe"): found by hand at
# 08fb7bd, where every entry point died with a bare UnicodeDecodeError.
NOT_UTF8 = {
    suffix: str(Path(__file__).parent / "fixtures" / f"not_utf8_spec.{suffix}")
    for suffix in ("json", "toml")}


@pytest.mark.parametrize("suffix", sorted(NOT_UTF8))
@pytest.mark.parametrize("argv", (
    ["spec", "validate"], ["spec", "show"], ["spec", "hash"],
    ["bench-smoke", "--spec"], ["chaos", "--spec"], ["crashfuzz", "--spec"],
    ["perf", "--quick", "--spec"], ["trace", "--spec"],
), ids=lambda argv: argv[0] + "-" + argv[1].lstrip("-"))
def test_a_non_utf8_spec_file_is_a_usage_error(argv, suffix, capsys):
    path = NOT_UTF8[suffix]
    assert Path(path).read_bytes().startswith(b"\xff\xfe")
    assert main([*argv, path]) == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert path in text and "not UTF-8" in text
    assert "Traceback" not in text


def test_one_page_blocks_under_a_persistent_ftl_fail_at_parse_time(capsys):
    """Validated, then died mid-run with exit 2 at 08fb7bd."""
    assert main(["crashfuzz", "--spec", str(SPEC_DIR / "crashfuzz-mix.json"),
                 "--set", "stack.geometry.pages_per_block=1"]) == 1
    out = capsys.readouterr().out
    assert "spec error" in out and "pages_per_block" in out
    assert "internal error" not in out


@pytest.mark.parametrize("stack, message", (
    ({"geometry": {"spare_size": 16}},
     "stack.geometry.spare_size must be >= 24"),
    ({"track_data": False}, "stack.track_data must be true"),
    # The benchmark's mixed_gc_persist_tlm stack with this sizing died
    # mid-run at full prefill with ``FtlError: LUN 0 out of free blocks``.
    ({"ftl": {"overprovision_blocks": 3}},
     "stack.ftl.overprovision_blocks=3 leaves 1 spare block(s) beyond "
     "the 2-block meta ring on LUN 0; background GC needs 2"),
), ids=("spare-below-oob-record", "no-track-data", "no-gc-reserve"))
@pytest.mark.parametrize("argv", (["spec", "validate"], ["crashfuzz", "--spec"]),
                         ids=lambda argv: argv[0])
def test_persistence_needs_fail_at_parse_time(stack, message, argv, tmp_path,
                                              capsys):
    """Both validated, then ``crashfuzz --spec`` exited 2 with an
    ``FtlError`` from the persistence layer's constructor."""
    document = json.loads((SPEC_DIR / "crashfuzz-mix.json").read_text())
    for key, value in stack.items():
        if isinstance(value, dict):
            document["stack"][key].update(value)
        else:
            document["stack"][key] = value
    path = tmp_path / "persist.json"
    path.write_text(json.dumps(document))
    assert main([*argv, str(path)]) == 1
    out = capsys.readouterr().out
    assert message in out
    assert "internal error" not in out and "FtlError" not in out


def test_chaos_runs_from_example_spec(tmp_path, capsys):
    report_path = tmp_path / "chaos.json"
    code = main(["chaos", "--spec", str(SPEC_DIR / "chaos-campaign.json"),
                 "--set", "campaign.baselines=false",
                 "--json", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == 2
    assert report["spec"]["campaign"]["baselines"] is False
    # Embedded hash covers the *overridden* spec, not the file.
    embedded = ExperimentSpec.from_dict(report["spec"])
    assert report["spec_hash"] == embedded.spec_hash()


def test_crashfuzz_runs_from_example_spec(tmp_path):
    report_path = tmp_path / "fuzz.json"
    code = main(["crashfuzz",
                 "--spec", str(SPEC_DIR / "crashfuzz-mix.json"),
                 "--set", "campaign.crash_seeds=1",
                 "--set", "campaign.crash_points=2",
                 "--set", "workload.io_count=60",
                 "--json", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == 2
    assert report["seeds"] == 1
    assert report["points"] == 2
    assert report["spec_hash"]


def test_perf_quick_and_full_share_spec_hash(tmp_path):
    quick_out = tmp_path / "quick.json"
    full_out = tmp_path / "full.json"
    args = ["perf", "--channels", "1", "--qd", "4",
            "--set", "stack.channels=2", "--set", "workload.queue_depth=4",
            "--set", "stack.luns_per_channel=2",
            "--set", "workload.io_count=16"]
    assert main(args + ["--quick", "--out", str(quick_out)]) == 0
    assert main(args + ["--out", str(full_out)]) == 0
    quick = json.loads(quick_out.read_text())
    full = json.loads(full_out.read_text())
    assert quick["spec_hash"] == full["spec_hash"]
    assert quick["schema"] == 3


def test_trace_artifact_embeds_spec(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "--set", "workload.io_count=4",
                 "--set", "stack.luns_per_channel=2",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["otherData"]["spec"]["workload"]["io_count"] == 4
    assert payload["otherData"]["spec_hash"]


def test_sanitize_report_embeds_spec(tmp_path, capsys):
    out = tmp_path / "sanitize.json"
    assert main(["sanitize", "--set", "stack.luns_per_channel=2",
                 "--set", "workload.io_count=6",
                 "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["spec_hash"]
    assert payload["spec"]["workload"]["io_count"] == 6


def test_figures_accept_spec_overrides(capsys):
    assert main(["fig11", "--set", "workload.io_count=2"]) == 0
    out = capsys.readouterr().out
    assert "polling" in out.lower() or "rtos" in out.lower()


# --- stack.dram_size too small for what a harness stages -----------------
# At d304518 each of these died mid-run: a ValueError / AllocationError
# traceback (exit 1) or "internal error: AllocationError(...)" (exit 2).

HYNIX_PAGE = 16384 + 2048
CHAOS_PAGE = 2048 + 64
FTL_STAGING = 48 * 1024 * 1024  # FtlSpec.gc_staging_base
CRASH = ["--set", "campaign.crash_seeds=1", "--set", "campaign.crash_points=2"]

# (argv, smallest accepted stack.dram_size, who needs it)
DRAM_FLOORS = {
    "demo": (["demo"], 2 * HYNIX_PAGE, "demo"),
    "trace": (["trace"], 5 * HYNIX_PAGE, "mixed-op workload"),
    "sanitize": (["sanitize"], 5 * HYNIX_PAGE, "mixed-op workload"),
    "fig10": (["fig10", "--freq-mhz", "1000"],
              (8 * 14 - 1) * 32768 + HYNIX_PAGE, "read-throughput harness"),
    "fig11": (["fig11"], HYNIX_PAGE, "one page incl. spare"),
    "bench-smoke": (["bench-smoke"], HYNIX_PAGE, "one page incl. spare"),
    "fig12": (["fig12", "--ways", "1"], FTL_STAGING + 3 * HYNIX_PAGE,
              "gc_staging_base"),
    "perf": (["perf", "--quick"], FTL_STAGING + 3 * HYNIX_PAGE,
             "gc_staging_base"),
    "chaos": (["chaos", "--set", "campaign.baselines=false"],
              FTL_STAGING + 3 * CHAOS_PAGE, "gc_staging_base"),
    "crashfuzz": (["crashfuzz", *CRASH], FTL_STAGING + 3 * CHAOS_PAGE,
                  "gc_staging_base"),
}


@pytest.mark.parametrize("name", sorted(DRAM_FLOORS))
def test_a_dram_too_small_for_the_harness_is_a_spec_error(name, capsys,
                                                          tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)  # trace / bench-smoke write their default --out
    argv, floor, who = DRAM_FLOORS[name]
    for size in (1024, floor - 1):
        assert main([*argv, "--set", f"stack.dram_size={size}"]) == 1
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert "spec error" in text and f"stack.dram_size={size}" in text
        assert "Traceback" not in text and "internal error" not in text
    assert who in text and f"needs {floor} bytes" in text
    # ... and the smallest accepted size runs clean.
    assert main([*argv, "--set", f"stack.dram_size={floor}"]) == 0
    assert "spec error" not in capsys.readouterr().out


# --- DRAM regions that overlapped silently -------------------------------
# Each is a parse-time spec error naming the field; the smallest accepted
# value runs clean.  On the crashfuzz stack (2 LUNs x 10 blocks of 2112 B,
# 8 host slots of 32 KiB from 0) the GC slots take 42240 bytes below
# stack.ftl.gc_staging_base and the host pool ends at 7 x 32768 + 2112.

GC_SLOTS_CRASH = 2 * 10 * CHAOS_PAGE
POOL_END_CRASH = 7 * 32768 + CHAOS_PAGE

# (extra --set overrides, the refused value, its smallest accepted value,
#  what the message says)
DRAM_OVERLAPS = {
    "gc-slots-below-zero": (
        ["workload.dram_base=65536"], "stack.ftl.gc_staging_base",
        GC_SLOTS_CRASH, f"need {GC_SLOTS_CRASH} bytes"),
    "gc-slots-over-host-pool": (
        [], "stack.ftl.gc_staging_base", POOL_END_CRASH + GC_SLOTS_CRASH,
        f"overlaps the host slot pool [0, {POOL_END_CRASH})"),
    "stride-below-a-page": (
        [], "workload.dram_stride", CHAOS_PAGE,
        f"smaller than a full page ({CHAOS_PAGE} bytes"),
}


@pytest.mark.parametrize("name", sorted(DRAM_OVERLAPS))
def test_an_overlapping_dram_layout_is_a_spec_error(name, capsys):
    extra, path, smallest, why = DRAM_OVERLAPS[name]
    argv = ["crashfuzz", *CRASH,
            *[arg for value in extra for arg in ("--set", value)]]
    assert main([*argv, "--set", f"{path}={smallest - 1}"]) == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert f"spec error: {path}={smallest - 1}" in text and why in text
    assert "Traceback" not in text and "internal error" not in text
    assert main([*argv, "--set", f"{path}={smallest}"]) == 0
    assert "spec error" not in capsys.readouterr().out
