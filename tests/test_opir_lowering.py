"""The op-program lowering, held to the commit before it existed.

``tests/fixtures/opir_lowering_digests.json`` was recorded on the parent
commit (9fcf3d4, the node-walking interpreter) by running this file as a
script there (programs added since were recorded as they came, every
earlier entry unchanged): for every registered program x the four
vendor profiles x {first run, a second run at another address} — a
program chain's step or end after the chain's first step — it holds a
digest of the
dispatched transaction stream — (kind, label, [segment kind, duration,
actions, chip mask, label]) — interleaved with the environment commands
the op yielded, the result and the final clock.  The lowered executor
must reproduce every one: a first run lowers the shape, the second binds
new operands to it.

    PYTHONPATH=src python -m tests.test_opir_lowering --record
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import numpy as np
import pytest

import repro.core.ops as ops
import repro.core.opir.compile as compile_module
import repro.core.opir.registry as registry
from repro.analysis.op_lint import sample_kwargs
from repro.core import BabolController, ControllerConfig
from repro.core.opir.nodes import SoftSleep
from repro.core.opir.programs import read_page_program
from repro.core.opir.registry import list_ops
from repro.dram import DmaHandle
from repro.flash.errors import ErrorModelConfig
from repro.flash.vendors import HYNIX_V7, VENDOR_PROFILES
from repro.obs import Tracer
from repro.onfi.datamodes import NVDDR2_100, NVDDR2_200, SDR_MODE0
from repro.onfi.geometry import PhysicalAddress
from repro.onfi.signals import SegmentKind
from repro.sim import Simulator, Timeout

from tests.helpers import TEST_PROFILE, chain_prelude, count_builds

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "opir_lowering_digests.json"
PROFILES = dict(VENDOR_PROFILES, test=TEST_PROFILE)
RUNS = ("first", "elsewhere")


def _controller(vendor, **config):
    sim = Simulator()
    settings = dict(vendor=vendor, lun_count=2, runtime="rtos",
                    track_data=False, seed=6)
    controller = BabolController(sim, ControllerConfig(**{**settings, **config}))
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    return sim, controller


def _normalize(value):
    if isinstance(value, DmaHandle):
        return ("dma", value.address, value.nbytes)
    if isinstance(value, np.ndarray):
        return ("bytes", value.tobytes().hex())
    if isinstance(value, (tuple, list)):
        return [_normalize(item) for item in value]
    return value


def _action(action):
    handle = getattr(action, "dma_handle", None)
    return action.describe() + (f" -> {handle.address}" if handle else "")


def _elsewhere(value, key=""):
    """The same call at another address: blocks +2 (plane-preserving),
    page +1, DRAM targets one window up."""
    if isinstance(value, PhysicalAddress):
        return PhysicalAddress(value.block + 2, value.page + 1, value.column)
    if isinstance(value, (tuple, list)) and key in (
            "pages", "addresses", "blocks", "dram_addresses"):
        return type(value)(_elsewhere(item, key) for item in value)
    if isinstance(value, int) and key in ("block", "erase_block", "blocks"):
        return value + 2
    if isinstance(value, int) and key in ("dram_address", "dram_addresses"):
        return value + 65536
    return value


def _retry_validator():
    calls = []

    def validate(handle):
        calls.append(handle)
        return len(calls) % 3 == 0  # reject two levels, accept the third

    return validate


def capture(controller, sim, name, kwargs):
    """One op's observable footprint, as a JSON-able event list."""
    log = []
    push = controller.executor.push

    def recording_push(txn):
        log.append(["txn", txn.kind.value, txn.label, [
            [seg.kind.value, seg.duration_ns,
             [[offset, _action(action)] for offset, action in seg.actions],
             seg.chip_mask, seg.label] for seg in txn.segments]])
        push(txn)

    def driver(ctx):
        # A program chain's step or end continues the chain's first step.
        for prelude, prelude_kwargs in chain_prelude(name, kwargs):
            yield from getattr(ops, f"{prelude}_op")(ctx, **prelude_kwargs)
        gen = getattr(ops, f"{name}_op")(ctx, **kwargs)
        value = None
        while True:
            try:
                command = gen.send(value)
            except StopIteration as stop:
                return stop.value
            log.append(["env", type(command).__name__,
                        getattr(command, "ns", None)])
            value = yield command

    controller.executor.push = recording_push
    try:
        result = controller.run_to_completion(controller.submit(driver, 0))
        log.append(["result", _normalize(result), sim.now])
    except Exception as exc:  # noqa: BLE001 - part of the footprint
        log.append(["error", type(exc).__name__, str(exc), sim.now])
    finally:
        controller.executor.push = push
    return log


def streams(profile, name):
    """{run: event list} for one program under one vendor profile."""
    vendor = PROFILES[profile]
    sim, controller = _controller(vendor)
    kwargs = dict(sample_kwargs(vendor)[name])
    if name == "read_with_retry":
        kwargs.update(validate=_retry_validator(), max_levels=5)
    out = {"first": capture(controller, sim, name, kwargs)}
    if out["first"][-1][0] == "result":
        moved = {key: _elsewhere(value, key) for key, value in kwargs.items()}
        out["elsewhere"] = capture(controller, sim, name, moved)
    return out


def digest(events) -> str:
    return hashlib.sha256(json.dumps(events).encode()).hexdigest()


def trace_digest(tmp_path) -> str:
    from repro.cli.entry import main

    out = tmp_path / "trace.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["trace", "--set", "stack.vendor=hynix",
                     "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def record() -> None:
    import tempfile

    table = {}
    for profile in sorted(PROFILES):
        for name in list_ops():
            for run, events in streams(profile, name).items():
                table[f"{profile}/{name}/{run}"] = digest(events)
    with tempfile.TemporaryDirectory() as tmp:
        table["trace --vendor hynix"] = trace_digest(pathlib.Path(tmp))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table)} digests -> {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    record()
    raise SystemExit(0)

PARENT = json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("name", list_ops())
def test_lowered_stream_equals_the_parents(name, profile):
    """Every registered program — hook programs (``read_with_retry`` with
    ``validate``), Loop/BreakIf/Branch, the SelectFirstReady gang poll and
    its Chip Control segment included — on a first run and on a memo hit
    at another address."""
    got = streams(profile, name)
    recorded = [run for run in RUNS if f"{profile}/{name}/{run}" in PARENT]
    assert list(got) == recorded
    for run in recorded:
        assert digest(got[run]) == PARENT[f"{profile}/{name}/{run}"], run


def test_the_sweep_reaches_every_step_kind():
    """The digests above would hold vacuously for a step kind no swept
    program lowers to."""
    sim, controller = _controller(TEST_PROFILE)
    bank = controller.ufsm
    seen = set()
    for name in list_ops():
        kwargs = sample_kwargs(TEST_PROFILE)[name]
        program = registry.resolve_builder(name)(**kwargs)
        lowered, _ = compile_module.lower(bank, program)
        seen.update(step[0] for step in lowered.steps)
        seen.update("via" for step in lowered.steps
                    if step[0] == compile_module.TXN
                    for recipe in step[3] if recipe[7])
    assert seen == set(range(11)) | {"via"}
    assert bank.ca_writer.emissions == 0  # lowering drives no bus


# --- seeded mutations: each must move a digest ------------------------------


def _drop_timer_wait(lowered, operands):
    lowered.steps = tuple(
        step[:3] + (tuple(recipe for recipe in step[3]
                          if recipe[1] is not SegmentKind.TIMER),)
        if step[0] == compile_module.TXN else step for step in lowered.steps)
    return lowered, operands


def _swap_operand_slots(lowered, operands):
    return lowered, operands[::-1]


def _return_before_poll(lowered, operands):
    steps = list(lowered.steps)
    tags = [step[0] for step in steps]
    at = tags.index(compile_module.POLL)
    steps.insert(at, steps.pop(tags.index(compile_module.RETURN)))
    lowered.steps = tuple(steps)
    return lowered, operands


@pytest.mark.parametrize("mutation,name", [
    (_drop_timer_wait, "read_page"),
    (_swap_operand_slots, "read_page_timed_wait"),
    (_return_before_poll, "program_page"),
], ids=["dropped-timer-wait", "swapped-operand-slots", "return-before-poll"])
def test_a_seeded_lowering_mutation_moves_the_digest(monkeypatch, mutation,
                                                     name):
    real = compile_module.lower

    def mutated(bank, program):
        shape = real(bank, program)
        return mutation(*shape) if program.name == name else shape

    monkeypatch.setattr(registry, "lower", mutated)
    assert digest(streams("test", name)["first"]) != PARENT[f"test/{name}/first"]
    monkeypatch.setattr(registry, "lower", real)
    assert digest(streams("test", name)["first"]) == PARENT[f"test/{name}/first"]


# --- composition, overrides, spans ------------------------------------------


def _slow_read_page(**kwargs):
    """An undeclared vendor override of ``read_page``."""
    program = read_page_program(**kwargs)
    return type(program)(program.name, (SoftSleep(700),) + program.nodes)


@pytest.mark.parametrize("override", [False, True], ids=["stock", "override"])
def test_wrapper_resolves_its_callee_and_nests_its_span(override):
    vendor = TEST_PROFILE.with_op_override("read_page", _slow_read_page) \
        if override else TEST_PROFILE
    tracer = Tracer()
    sim, controller = _controller(vendor)
    sim.set_tracer(tracer)
    kwargs = dict(codec=controller.codec, address=PhysicalAddress(3, 1),
                  dram_address=0)
    log = capture(controller, sim, "full_page_read", kwargs)
    slept = [event[2] for event in log if event[:2] == ["env", "EnvSleep"]]
    assert slept == ([700] if override else [])
    spans = {e.name: e for e in tracer.events
             if e.cat == "op" and e.name != "read_status_op"}
    assert sorted(spans) == ["full_page_read_op", "read_page_op"]
    outer, inner = spans["full_page_read_op"], spans["read_page_op"]
    assert outer.track == inner.track == "op/lun0"
    assert outer.ts <= inner.ts
    assert inner.ts + inner.value <= outer.ts + outer.value == log[-1][-1]
    # A pure wrapper around a declared callee is its callee's shape; around
    # an undeclared override it is pinned to the override's own instance.
    wrapper = registry.resolve_builder("full_page_read")
    shape = controller.ufsm.lowered[wrapper, wrapper.plan(**kwargs)[0]]
    assert (shape is registry.PINNED) == override


def test_a_traced_run_is_byte_identical_to_the_parents(tmp_path):
    assert trace_digest(tmp_path) == PARENT["trace --vendor hynix"]


# --- traffic and memo lifetime ----------------------------------------------


def test_one_lowering_per_shape_per_controller(monkeypatch):
    """4-way waveform: 200 reads at distinct addresses and 200 programs
    (status-heavy: each polls through tPROG) lower four shapes — the
    read, the program, the paired program (queued programs on blocks of
    distinct planes pair), the status poll — and build nothing else."""
    builds = count_builds(monkeypatch)
    sim, controller = _controller(TEST_PROFILE, lun_count=4)
    bank = controller.ufsm
    geometry = TEST_PROFILE.geometry
    tasks = []
    for index in range(200):
        lun, block, page = index % 4, 2 + index // 64, index // 4 % 16
        tasks.append(controller.program_page(lun, block, page, 0))
        tasks.append(controller.read_page(
            lun, block + 8, page, geometry.full_page_size))
    for task in tasks:
        controller.run_to_completion(task)
    assert controller.programs_paired > 0
    assert bank.shapes_lowered == 4
    declared = {builder.program_name for builder, _ in bank.lowered
                if hasattr(builder, "plan")}
    assert declared == {"program_page", "paired_program", "full_page_read",
                        "read_page"}
    assert len(bank.lowered) == 5  # + read_status, beside its instance
    assert len(builds) <= len(bank.lowered)  # built only on a memo miss


@pytest.mark.parametrize("fidelity", ["waveform", "tlm"])
def test_shape_memo_does_not_survive_a_data_mode_change(fidelity):
    """A data-plane op submitted after ``boot()``/``set_interface`` must
    be priced in the new mode (the TLM template memo replayed the old
    mode's segment durations before the memo moved onto the bank)."""

    def program(controller):
        busy = controller.channel.stats.busy_ns
        task = controller.program_page(0, 4, controller.env.tasks_completed, 0)
        assert controller.run_to_completion(task)
        return controller.channel.stats.busy_ns - busy

    _, booted = _controller(TEST_PROFILE, interface=NVDDR2_100,
                            fidelity=fidelity)
    slow = program(booted)
    booted.channel.set_interface(NVDDR2_200)
    booted.ufsm.retarget(NVDDR2_200)
    _, native = _controller(TEST_PROFILE, interface=NVDDR2_200,
                            fidelity=fidelity)
    assert program(booted) == program(native) < slow


@pytest.mark.parametrize("fidelity", ["waveform", "tlm"])
def test_a_suspension_is_priced_in_the_current_data_mode(fidelity):
    """An erase that a host read suspends, after a data-mode change: the
    SUSPEND and RESUME latches take the new mode's time (the TLM runner
    kept its first fold of them, and replayed SDR's 190 ns latches for
    NV-DDR2-200's 50 ns: 94 265 ns of bus time where 93 985 ns is due)."""

    def suspended_erase(sim, controller, block):
        busy = controller.channel.stats.busy_ns
        suspends = controller.luns[0].op_counts["VENDOR_SUSPEND"]
        tasks = []

        def driver():
            tasks.append(controller.erase_block(0, block, priority=2))
            yield Timeout(500_000)
            tasks.append(controller.read_page(0, 1, 0, 0, priority=0))

        sim.spawn(driver(), name="driver")
        sim.run()
        assert all(task.error is None for task in tasks)
        assert controller.luns[0].op_counts["VENDOR_SUSPEND"] == suspends + 1
        return controller.channel.stats.busy_ns - busy

    sim, booted = _controller(HYNIX_V7, lun_count=1, interface=SDR_MODE0,
                              fidelity=fidelity)
    slow = suspended_erase(sim, booted, 4)
    booted.channel.set_interface(NVDDR2_200)
    booted.ufsm.retarget(NVDDR2_200)
    sim_native, native = _controller(HYNIX_V7, lun_count=1,
                                     interface=NVDDR2_200, fidelity=fidelity)
    suspended_erase(sim_native, native, 4)  # the same jitter draws
    assert suspended_erase(sim, booted, 5) \
        == suspended_erase(sim_native, native, 5) < slow
