"""A run is what its spec says.

Three contracts, each of which failed before the harnesses were moved
onto the spec factory:

* **one path** — stacks are constructed in ``repro.config.build`` and
  nowhere else (an AST scan of ``src/repro``);
* **honoured or refused** — a spec field either reaches the factory
  (and moves a simulated number) or is declared fixed by the harness
  and refused with a :class:`SpecError` naming it — never ignored
  under a changed ``spec_hash``;
* **same stock runs** — every subcommand's stock spec hashes as it did
  when the legacy flags still existed.
"""

import ast
import copy
import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis.crashfuzz import (
    CRASHFUZZ_FIXED,
    crashfuzz_spec,
    run_crashfuzz,
)
from repro.analysis.perfbench import (
    PERF_FIXED,
    perf_spec,
    run_perf_sweep,
    run_scale_cell,
)
from repro.cli import benchcmd, figures, main, tracecmd
from repro.config import ExperimentSpec, SpecError, apply_overrides
from repro.faults.chaos import CHAOS_FIXED, chaos_spec, run_chaos
from repro.sanitize import (
    SANITIZE_FIXED,
    run_all_sanitized,
    sanitize_spec,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


# --- one path --------------------------------------------------------------

CONSTRUCTORS = {"BabolController", "SyncHwController", "AsyncHwController",
                "ShardedFtl", "ScaleEngine"}
#: Where a constructor call is legitimate: the factory, and two
#: components (not harnesses) that are themselves built of components.
#: ``None`` allows the whole file, a name only that function.
ALLOWED = {"config/build.py": None, "core/storage.py": None,
           "ftl/spor.py": "mount_sharded"}


class _ConstructorCalls(ast.NodeVisitor):
    def __init__(self):
        self.functions: list = []
        self.found: list = []   # (constructor, enclosing function, line)

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in CONSTRUCTORS:
            self.found.append(
                (name, self.functions[0] if self.functions else None,
                 node.lineno))
        self.generic_visit(node)


def test_stacks_are_constructed_only_by_the_factory():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        visitor = _ConstructorCalls()
        visitor.visit(ast.parse(path.read_text()))
        for name, function, line in visitor.found:
            if rel in ALLOWED and ALLOWED[rel] in (None, function):
                continue
            offenders.append(f"{rel}:{line} {name}(...) in {function}()")
    assert not offenders, "\n".join(offenders)


# --- honoured: a changed stack field moves a simulated number --------------


def _body(report: dict) -> dict:
    """An artifact minus its spec echo and the host-clock fields."""
    return {key: value for key, value in report.items()
            if key not in ("spec", "spec_hash", "host")}


RUNS = {
    "crashfuzz": (crashfuzz_spec(seeds=1, points=2, ios=60), run_crashfuzz),
    "chaos": (chaos_spec(baselines=False, fidelity="tlm"), run_chaos),
    "perf-cell": (perf_spec(fidelity="tlm", io_count=48),
                  lambda spec: run_scale_cell(spec, 1, 8)),
}
HONOURED = {"runtime": "rtos", "cpu_freq_hz": 150_000_000,
            "interface_mt": 100}


@pytest.fixture(scope="module")
def stock_bodies():
    return {name: _body(run(spec)) for name, (spec, run) in RUNS.items()}


@pytest.mark.parametrize("field", sorted(HONOURED))
@pytest.mark.parametrize("harness", sorted(RUNS))
def test_changed_stack_field_changes_the_artifact(harness, field,
                                                  stock_bodies):
    stock, run = RUNS[harness]
    changed = dataclasses.replace(stock, stack=dataclasses.replace(
        stock.stack, **{field: HONOURED[field]}))
    assert changed.spec_hash() != stock.spec_hash()
    assert _body(run(changed)) != stock_bodies[harness]


def test_timing_overrides_reach_the_one_harness_with_a_timing_checker():
    """``timing_overrides`` are requirements the capture-time checker
    reads — the emitters pad to the ONFI mode, so no simulated number
    can move: sanitize honours them (TCK findings), the harnesses
    without a checker refuse them."""
    spec = sanitize_spec(luns=2, ops=6, baselines=False)
    assert run_all_sanitized(spec).clean
    tightened = dataclasses.replace(spec, stack=dataclasses.replace(
        spec.stack, timing_overrides=(("tWHR", 400),)))
    rules = {f.rule for f in run_all_sanitized(tightened).findings}
    assert rules == {"TCK006"}
    for name, (stock, run) in RUNS.items():
        changed = dataclasses.replace(stock, stack=dataclasses.replace(
            stock.stack, timing_overrides=(("tWHR", 400),)))
        run = run_perf_sweep if name == "perf-cell" else run
        with pytest.raises(SpecError, match="stack.timing_overrides"):
            run(changed)


def test_sanitize_stack_reaches_the_factory_unchanged(monkeypatch):
    """The sanitize artifact carries no simulated number, so pin the
    construction instead: what reaches the factory is ``spec.stack``
    outside the paths the harness declares fixed."""
    from repro.config import build

    seen = []

    def spy(real):
        def wrapper(sim, stack, *args, **kwargs):
            seen.append(stack)
            return real(sim, stack, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(build, "build_controllers",
                        spy(build.build_controllers))
    monkeypatch.setattr(build, "build_baseline", spy(build.build_baseline))
    spec = sanitize_spec(vendor="micron", luns=3, ops=4, runtime="rtos")
    spec = dataclasses.replace(spec, stack=dataclasses.replace(
        spec.stack, cpu_freq_hz=400_000_000, interface_mt=100, seed=3,
        noiseless=True, watchdog=True, dram_size=32 * 1024 * 1024,
        factory_bad_rate=0.0, timing_overrides=(("tRR", 1),)))
    assert run_all_sanitized(spec).clean
    babol, sync, asynchronous = seen
    fixed = dict(sanitizers=("all",), track_data=False)
    assert babol == dataclasses.replace(spec.stack, **fixed)
    # The baselines run on at most two of the spec's LUNs.
    assert sync == asynchronous == dataclasses.replace(
        spec.stack, luns_per_channel=2, **fixed)


# --- refused: every declared-fixed path, through CLI and library -----------

SUBCOMMANDS = {
    "demo": (figures.DEMO_BASE, figures.DEMO_FIXED),
    "fig10": (figures.FIG10_BASE, figures.FIG10_FIXED),
    "fig11": (figures.FIG11_BASE, figures.FIG11_FIXED),
    "fig12": (figures.FIG12_BASE, figures.FIG12_FIXED),
    "trace": (tracecmd.TRACE_BASE, tracecmd.TRACE_FIXED),
    "bench-smoke": (benchcmd.BENCH_SMOKE_BASE, benchcmd.BENCH_SMOKE_FIXED),
    "chaos": (chaos_spec().to_dict(), CHAOS_FIXED),
    "crashfuzz": (crashfuzz_spec().to_dict(), CRASHFUZZ_FIXED),
    "sanitize": (sanitize_spec().to_dict(), SANITIZE_FIXED),
    "perf": (perf_spec().to_dict(), PERF_FIXED),
}
LIBRARY = {"chaos": run_chaos, "crashfuzz": run_crashfuzz,
           "sanitize": run_all_sanitized, "perf": run_perf_sweep}

#: A valid value that differs from every stock spec's, per path; paths
#: not listed hold a bool or an int (flipped / incremented).
DIFFERENT = {
    "stack.seed": 5,
    "stack.runtime": "rtos",
    "stack.fidelity": "tlm",
    "stack.sanitizers": ["memory"],
    "stack.timing_overrides": {"tWHR": 400},
    "stack.ftl": {"blocks_per_lun": 9},
    "stack.ftl.prefill_pages": 3,
    "workload": {"io_count": 7},
    "workload.mix": "write",
    "workload.pattern": "random",
    "campaign": {"seed": 9},
}


def _override(stock: dict, path: str) -> str:
    """A ``--set`` expression moving ``path`` off its stock value."""
    value = ExperimentSpec.from_dict(stock).resolved()
    for key in path.split("."):
        value = value.get(key) if isinstance(value, dict) else None
    if path in DIFFERENT:
        different = DIFFERENT[path]
    elif isinstance(value, bool):
        different = not value
    else:
        different = value + 1
    assert different != value, path
    return f"{path}={json.dumps(different)}"


@pytest.mark.parametrize("command, path", [
    (command, path) for command, (_, fixed) in sorted(SUBCOMMANDS.items())
    for path in fixed])
def test_declared_fixed_path_is_refused(command, path, capsys):
    stock, _ = SUBCOMMANDS[command]
    override = _override(stock, path)
    assert main([command, "--set", override]) == 1
    out = capsys.readouterr().out
    assert "spec error" in out and path in out and f"`{command}`" in out
    if command in LIBRARY:
        spec = ExperimentSpec.from_dict(
            apply_overrides(copy.deepcopy(stock), [override]))
        with pytest.raises(SpecError, match=path):
            LIBRARY[command](spec)


def test_fixed_path_in_a_spec_file_is_refused_too(tmp_path, capsys):
    spec_file = tmp_path / "chaos8.json"
    document = chaos_spec().to_dict()
    document["stack"]["luns_per_channel"] = 8
    spec_file.write_text(json.dumps(document))
    assert main(["chaos", "--spec", str(spec_file)]) == 1
    out = capsys.readouterr().out
    assert "stack.luns_per_channel" in out and str(spec_file) in out


def test_stock_specs_hash_as_they_did_with_the_legacy_flags():
    hashes = {command: ExperimentSpec.from_dict(stock).spec_hash()
              for command, (stock, _) in SUBCOMMANDS.items()}
    assert hashes == {
        "demo": "b9df215064df7b4c",
        "fig10": "7ca033929f7349dc",
        "fig11": "8605bf5c7c543116",
        "fig12": "5bb6c37b25e610c5",
        "trace": "7680248de4009e33",
        "bench-smoke": "aace2c5b383c38d4",
        "chaos": "95306d65a13baf7d",
        "crashfuzz": "6850678b335b7fde",
        "sanitize": "8b2b6d9371ade36b",
        "perf": "3cb35c96e622adb0",
    }


@pytest.mark.parametrize("baseline", sorted(
    path.name for path in REPO.glob("BENCH_scale*.json")))
def test_a_committed_baseline_hashes_as_its_own_spec(baseline):
    """A hand-edited baseline fails here, not only as "spec_hash
    mismatch" in the perf gate."""
    data = json.loads((REPO / baseline).read_text())
    assert ExperimentSpec.from_dict(data["spec"]).spec_hash() == \
        data["spec_hash"]


# --- the two reproducers that motivated this, as regressions ---------------


def _cli_report(tmp_path, argv) -> dict:
    out = tmp_path / "report.json"
    assert main(argv + ["--json", str(out)]) == 0
    return json.loads(out.read_text())


def test_crashfuzz_overrides_change_the_results_or_are_refused(tmp_path):
    """Was: byte-identical ``results`` under two different hashes."""
    base = ["crashfuzz", "--set", "campaign.crash_seeds=1",
            "--set", "campaign.crash_points=3",
            "--set", "workload.io_count=120"]
    stock = _cli_report(tmp_path, base)
    for override in ("stack.runtime=rtos", "stack.interface_mt=100",
                     "stack.cpu_freq_hz=150000000"):
        report = _cli_report(tmp_path, base + ["--set", override])
        assert report["spec_hash"] != stock["spec_hash"]
        assert report["results"] != stock["results"], override
    assert main(base + ["--set", "stack.ftl.prefill_pages=3"]) == 1
    # workload.doorbell_batch=4 is the default: same spec, same hash.
    assert stock == _cli_report(
        tmp_path, base + ["--set", "workload.doorbell_batch=4"])


def test_chaos_overrides_change_the_targets_or_are_refused(tmp_path):
    """Was: ``chaos --no-baselines --fidelity tlm`` ignored
    ``stack.runtime / luns_per_channel / cpu_freq_hz / watchdog /
    seed`` under a changed hash."""
    base = ["chaos", "--set", "campaign.baselines=false",
            "--set", "stack.fidelity=tlm"]
    stock = _cli_report(tmp_path, base)
    for override in ("stack.runtime=rtos", "stack.cpu_freq_hz=150000000"):
        report = _cli_report(tmp_path, base + ["--set", override])
        assert report["spec_hash"] != stock["spec_hash"]
        assert report["targets"] != stock["targets"], override
    for override in ("stack.luns_per_channel=8", "stack.watchdog=true",
                     "stack.seed=5"):
        assert main(base + ["--set", override]) == 1
