"""The ``plan`` declarations of the data-plane builders, tested not trusted.

A builder that declares ``plan(**kwargs) -> (shape_key, operands)``
(``op_program(..., plan=)``) is run on either tier without its program
being built: both trust the shape key to pick the lowered shape (and
the TLM runner its template) and the operands to be the program's
leaves.  This file holds that contract against the lowering itself —
build the program, ``lower()`` it, read its structure and leaves off —
for every declaring builder under every in-tree vendor profile, and
pins what the runner's traffic looks like because of it: one build,
one step check, one compile per shape.
"""

import dataclasses
import functools
import inspect
import random

import pytest

import repro.core.fastops as fastops
from repro.config.build import build_stack
from repro.config.specs import FtlSpec, StackSpec
from repro.core import BabolController, ControllerConfig
from repro.core.opir.compile import lower
from repro.core.opir.nodes import PollStatus, SoftSleep, wrapper_callee
from repro.core.opir.programs import (
    erase_block_program,
    program_page_program,
    read_page_program,
    read_status_enhanced_program,
)
from repro.core.opir.registry import _BUILDERS, list_ops, resolve_builder
from repro.core.ufsm.base import UfsmBank
from repro.flash.vendors import VENDOR_PROFILES
from repro.host import ScaleEngine, ScaleJob, run_scale_workload
from repro.host.hic import HostOpcode
from repro.onfi.datamodes import NVDDR2_200
from repro.onfi.geometry import AddressCodec, PhysicalAddress
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE, count_builds

DRAWS = 40
PROFILES = dict(VENDOR_PROFILES, test=TEST_PROFILE)
DECLARED = [name for name in list_ops() if hasattr(_BUILDERS[name], "plan")]


def test_the_eight_plan_wrapper_builders_declare():
    assert DECLARED == sorted([
        "read_page", "full_page_read", "partial_read", "program_page",
        "erase_block", "pslc_read", "pslc_program", "pslc_erase",
        "multiplane_read", "multiplane_program", "multiplane_erase",
        "paired_program", "paired_erase", "program_chain_step",
        "program_chain_end"])


def _plane_blocks(rng, geometry):
    """One block on each of 1..planes distinct planes, in a random
    order (the multi-plane builders' structural variation is the count)."""
    planes = rng.sample(range(geometry.planes),
                        rng.randint(1, geometry.planes))
    return [rng.randrange(geometry.blocks_per_plane) * geometry.planes + p
            for p in planes]


def _draws(name, vendor, seed):
    """Seeded kwargs for one declaring builder: block, page and DRAM
    target everywhere, plus every structural variation its signature
    admits — ``length`` (absent, None, sub-page), a non-zero column, and
    the plane count of a multi-plane ``pages`` / ``blocks`` /
    ``addresses`` (and of a chain step's ``finished``)."""
    rng = random.Random(seed)
    geometry = vendor.geometry
    codec = AddressCodec(geometry)
    params = inspect.signature(_BUILDERS[name]).parameters
    for index in range(DRAWS):
        block = rng.randrange(geometry.blocks_per_lun)
        if "block" in params:
            yield {"codec": codec, "block": block}
            continue
        if "blocks" in params:
            yield {"codec": codec, "blocks": tuple(_plane_blocks(rng, geometry))}
            continue
        if "pages" in params or "addresses" in params:
            addresses = tuple(
                PhysicalAddress(b, rng.randrange(geometry.pages_per_block),
                                rng.choice((0, 0, 16, 512)))
                for b in _plane_blocks(rng, geometry))
            drams = tuple(rng.randrange(0, 1 << 20, 64) for _ in addresses)
            if "finished" in params and index % 2:
                # a chain step behind a pair of another plane count
                done = tuple(
                    (PhysicalAddress(b, rng.randrange(geometry.pages_per_block)),
                     rng.randrange(0, 1 << 20, 64))
                    for b in _plane_blocks(rng, geometry))
                yield {"codec": codec, "pages": tuple(zip(addresses, drams)),
                       "finished": done}
            elif "pages" in params:
                yield {"codec": codec, "pages": tuple(zip(addresses, drams))}
            else:
                yield {"codec": codec, "addresses": addresses,
                       "dram_addresses": drams}
            continue
        column = rng.choice((0, 0, 16, 512, geometry.page_size - 64))
        kwargs = {
            "codec": codec,
            "address": PhysicalAddress(
                block, rng.randrange(geometry.pages_per_block), column),
            "dram_address": rng.randrange(0, 1 << 20, 64),
        }
        if "length" in params:
            length = rng.choice((None, 64, 512, geometry.page_size))
            if params["length"].default is inspect.Parameter.empty:
                kwargs["length"] = length or 64
            elif index % 3:
                kwargs["length"] = length
        yield kwargs


def _structure(value):
    """Lowered steps as comparable data: a lowered expression (a
    ``lower_expr`` lambda) by its code and constants, everything else
    (recipes, µFSMs, poll loops, mints) as it is."""
    if isinstance(value, tuple):
        return tuple(_structure(item) for item in value)
    code = getattr(value, "__code__", None)
    if code is not None and "consts" in value.__globals__:
        return (code.co_code, code.co_consts, code.co_names,
                repr(value.__globals__["consts"]))
    return value


def _reference(name, vendor, kwargs, bank):
    """(structure, leaves) of the built program's lowering — a pure
    wrapper's callee's, which is the shape both tiers run for it."""
    program = _BUILDERS[name](**kwargs)
    callee = wrapper_callee(program)
    if callee is not None:
        program = resolve_builder(callee[0], vendor)(**callee[1])
    lowered, leaves = lower(bank, program)
    return _structure(lowered.steps), leaves


def check_declaration(name, vendor, seed=0):
    """The differential: declared operands are the lowering's leaves,
    and the shape key decides the lowered structure."""
    plan = _BUILDERS[name].plan
    bank = UfsmBank(NVDDR2_200)
    by_key = {}
    for kwargs in _draws(name, vendor, seed):
        shape_key, operands = plan(**kwargs)
        structure, leaves = _reference(name, vendor, kwargs, bank)
        assert operands == leaves, (name, kwargs)
        assert by_key.setdefault(shape_key, structure) == structure, \
            (name, shape_key)
    return by_key


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("name", DECLARED)
def test_declared_plan_matches_the_built_program(name, profile):
    by_key = check_declaration(name, PROFILES[profile],
                               seed=DECLARED.index(name))
    # Equal key => equal structure held above; the draws must also
    # have produced every structural variation, or it held vacuously
    # (and a key finer than the structure would compile duplicates).
    structures = set(by_key.values())
    assert len(structures) == len(by_key)
    if "length" in inspect.signature(_BUILDERS[name]).parameters:
        assert len(structures) >= 3, name


@pytest.mark.parametrize("name", DECLARED)
def test_plan_raises_what_the_builder_raises(name):
    """Bad operands must still reach the generic path's error: ``plan``
    raises exactly what building (the callee, for a wrapper) raises."""
    geometry = TEST_PROFILE.geometry
    good = next(_draws(name, TEST_PROFILE, 1))
    far = PhysicalAddress(geometry.blocks_per_lun, 0)
    if "block" in good:
        bad = [{"block": geometry.blocks_per_lun}, {"block": -1}]
    elif "blocks" in good:
        bad = [{"blocks": ()}, {"blocks": (4, 6)},
               {"blocks": (geometry.blocks_per_lun,)}]
    elif "pages" in good:
        bad = [{"pages": ()}, {"pages": ((PhysicalAddress(4, 0), 0),
                                         (PhysicalAddress(6, 1), 0))},
               {"pages": ((far, 0),)}]
    elif "addresses" in good:
        bad = [{"addresses": (), "dram_addresses": ()},
               {"addresses": (PhysicalAddress(4, 0),), "dram_addresses": ()},
               {"addresses": (PhysicalAddress(4, 0), PhysicalAddress(6, 0)),
                "dram_addresses": (0, 0)},
               {"addresses": (far,), "dram_addresses": (0,)}]
    else:
        bad = [{"address": PhysicalAddress(geometry.blocks_per_lun, 0)},
               {"address": PhysicalAddress(0, geometry.pages_per_block)},
               {"address": PhysicalAddress(0, 0, geometry.full_page_size)},
               {"address": PhysicalAddress(-1, 0)}]
        if name == "partial_read":
            bad += [{"length": 0}, {"length": -4}]

    def build(**kwargs):
        callee = wrapper_callee(_BUILDERS[name](**kwargs))
        if callee is not None:
            _BUILDERS[callee[0]](**callee[1])

    def outcome(fn, kwargs):
        try:
            fn(**kwargs)
        except Exception as exc:
            return type(exc), str(exc)
        return None

    outcomes = [(outcome(build, dict(good, **change)),
                 outcome(_BUILDERS[name].plan, dict(good, **change)))
                for change in bad]
    assert all(built == planned for built, planned in outcomes), outcomes
    # full_page_read drops the column, so not every case raises there.
    assert sum(built is not None for built, _ in outcomes) >= 2


def test_differential_catches_a_broken_declaration(monkeypatch):
    """Mutation check: a key that forgets the burst size, and operands
    in the wrong order, both fail the differential."""
    stock = program_page_program.plan

    def forgets_nbytes(**kwargs):
        key, operands = stock(**kwargs)
        return key[1:], operands

    def swaps_operands(**kwargs):
        key, operands = stock(**kwargs)
        return key, operands[::-1]

    for broken in (forgets_nbytes, swaps_operands):
        monkeypatch.setattr(program_page_program, "plan", broken)
        with pytest.raises(AssertionError):
            check_declaration("program_page", TEST_PROFILE)
    monkeypatch.setattr(program_page_program, "plan", stock)
    check_declaration("program_page", TEST_PROFILE)


def test_runner_checks_the_first_instance_of_a_shape(monkeypatch):
    """The runner's own guard: wrong declared operands stop the first
    submission of the shape instead of driving the die with them."""
    stock = program_page_program.plan
    monkeypatch.setattr(
        program_page_program, "plan",
        lambda **kwargs: (stock(**kwargs)[0], stock(**kwargs)[1][::-1]))
    controller = BabolController(Simulator(), ControllerConfig(
        vendor=TEST_PROFILE, lun_count=1, fidelity="tlm"))
    with pytest.raises(AssertionError, match="declared operands"):
        controller.program_page(0, 4, 0, 0)


# ---------------------------------------------------------------------------
# Traffic: what the declarations buy, counted
# ---------------------------------------------------------------------------


@pytest.fixture
def walks(monkeypatch):
    """Count the runner's step checks, by the checked shape's program."""
    calls = []
    real = fastops.template_blockers

    def counting(bank, vendor, lowered):
        calls.append(lowered.program.name)
        return real(bank, vendor, lowered)

    monkeypatch.setattr(fastops, "template_blockers", counting)
    return calls


def test_one_build_walk_and_compile_per_shape(walks, monkeypatch):
    builds = count_builds(monkeypatch)
    sim = Simulator()
    controllers, ftl = build_stack(
        sim, StackSpec(channels=2, luns_per_channel=2, ftl=FtlSpec(),
                       fidelity="tlm"), profile=TEST_PROFILE)
    engine = ScaleEngine(sim, ftl, queue_depth=8)
    run_scale_workload(sim, engine, ScaleJob(
        pattern="sequential", opcode=HostOpcode.WRITE, io_count=320,
        working_set_pages=320))
    run_scale_workload(sim, engine, ScaleJob(
        pattern="random", opcode=HostOpcode.READ, io_count=640, seed=5))

    fast = [c.fast_ops for c in controllers]
    planned = sum(f.ops_planned for f in fast)
    compiled = sum(f.shapes_compiled for f in fast)
    assert planned >= 960 and all(f.ops_declined == 0 for f in fast)
    assert all(f.ops_templated == f.ops_planned for f in fast)
    # program_page + paired_program + the program chain's first step,
    # step and end + full_page_read (+ erase_block and paired_erase if
    # GC ran), once per controller — not once per address or pair.  A
    # controller whose GC erase a write or read suspended also folds the
    # suspend and resume shapes, once each.
    suspends = walks.count("suspend")
    assert walks.count("resume") == suspends <= len(controllers)
    assert 12 <= compiled - 2 * suspends <= 16
    assert all(c.programs_paired for c in controllers)
    assert len(walks) == compiled
    # A builder runs only when the shape memo misses: a wrapper builds
    # itself and its callee, each one entry.
    assert len(builds) <= sum(len(c.ufsm.lowered) for c in controllers)


def _undeclared_program_page(**kwargs):
    return program_page_program(**kwargs)


def _run_ops(vendor):
    sim = Simulator()
    controller = BabolController(sim, ControllerConfig(
        vendor=vendor, lun_count=2, fidelity="tlm"))
    tasks = [controller.program_page(i % 2, 3 + i // 4, i % 4, 4096 * i)
             for i in range(12)]
    for task in tasks:
        controller.run_to_completion(task)
    tasks += [controller.read_page(i % 2, 3 + i // 4, i % 4, 4096 * i)
              for i in range(12)]
    for task in tasks[12:]:
        controller.run_to_completion(task)
    return [task.finished_at for task in tasks], controller


# Completion times of _run_ops with program_page overridden by an
# undeclared builder, recorded on the parent commit (b1330f6).
PARENT_TIMELINE = [
    258665, 258960, 517330, 517625, 775995, 776290, 1034660, 1034955,
    1293325, 1293620, 1551990, 1552285, 1650395, 1661835, 1748505, 1759945,
    1846615, 1858055, 1944725, 1956165, 2042835, 2054275, 2140945, 2152385]

# The same run with the stock program_page, which pairs each LUN's
# queued programs on distinct planes: the pairs (tasks 2/4, 3/5, 6/8,
# 7/9) finish together, one tPROG for two, and each LUN's second pair,
# queued when its first is admitted, chains behind it (its pages load
# during the first pair's tPROG).  Re-recorded when the template's
# ready-wait started to poll at once on a status bit already set
# (``Lun.ready_at``): the chained pair's second page no longer waits
# for the tPROG ahead to end, so tasks 2/4 end at 540 650 ns (552 165
# before) and 6-9 at 745 045 ns (763 985).
#
# The waveform run of the same _run_ops ends tasks 2/4 at 655 640 ns and
# 6-9 at 926 885 ns.  TLM ends earlier than waveform, by more than
# before, because it still models no CPU time and no poll grid (ROADMAP
# item 1): the die-side order of latches now matches waveform's, the
# absolute times do not.
PAIRED_TIMELINE = [
    258665, 258960, 540650, 551875, 540650, 551875, 745045, 756270,
    745045, 756270, 992785, 1004010, 1102120, 1113560, 1200230, 1211670,
    1298340, 1309780, 1396450, 1407890, 1494560, 1506000, 1592670, 1604110]


def test_undeclared_override_is_templated_on_the_reference_plan(walks):
    vendor = TEST_PROFILE.with_op_override(
        "program_page", _undeclared_program_page)
    timeline, controller = _run_ops(vendor)
    fast = controller.fast_ops
    assert timeline == PARENT_TIMELINE
    assert (fast.ops_planned, fast.ops_declined) == (24, 0)
    # The undeclared override is lowered, checked and folded once per
    # distinct kwargs: twelve programs, twelve shapes.  The declared
    # full_page_read is its callee read_page's shape: one more.
    assert walks.count("program_page") == 12
    assert walks.count("read_page") == 1
    assert fast.shapes_compiled == 13
    # An override keeps its own PROGRAM, so nothing pairs above.  The
    # stock builder pairs each LUN's queued programs on distinct planes
    # (blocks 3 and 5 against block 4): one tPROG for two, four times.
    timeline, controller = _run_ops(TEST_PROFILE)
    assert controller.programs_paired == 4
    assert controller.fast_ops.ops_declined == 0
    assert timeline == PAIRED_TIMELINE


def _read_page_slow_on_odd_blocks(**kwargs):
    """An override whose *structure* depends on an operand the stock
    shape key leaves out."""
    program = read_page_program(**kwargs)
    if kwargs["address"].block % 2:
        program = type(program)(
            program.name, (SoftSleep(1000),) + program.nodes)
    return program


def test_wrapper_around_an_undeclared_override_takes_the_reference_plan():
    """``full_page_read`` declares a plan, but it stands for the stock
    ``read_page``.  With ``read_page`` overridden by a builder that
    declares none, the wrapper's declaration is not trusted: the wrapper
    is the override's shape per kwargs, so each block gets its own
    template (odd blocks a slower one), as when the override is
    submitted by name."""
    vendor = TEST_PROFILE.with_op_override(
        "read_page", _read_page_slow_on_odd_blocks)

    def run(method, *extra):
        controller = BabolController(Simulator(), ControllerConfig(
            vendor=vendor, lun_count=1, fidelity="tlm"))
        done = []
        for block in (2, 3, 4, 5):
            task = getattr(controller, method)(0, block, 0, 0, *extra)
            controller.run_to_completion(task)
            done.append(task.finished_at)
        return done, controller.fast_ops

    via_wrapper, fast = run("read_page")           # -> full_page_read
    assert (fast.ops_planned, fast.shapes_compiled) == (4, 4)
    by_name, _ = run("read_page", 0, TEST_PROFILE.geometry.full_page_size)
    assert via_wrapper == by_name
    laps = [b - a for a, b in zip([0] + via_wrapper, via_wrapper)]
    assert laps[1] - laps[0] == 1000 and laps[3] - laps[2] == 1000


def _erase_polling_ardy_twice(**kwargs):
    """A straight-line override whose poll waits for ARDY on a budget
    of two round trips."""
    program = erase_block_program(**kwargs)
    return type(program)(program.name, tuple(
        dataclasses.replace(node, until="array_ready", max_polls=2)
        if isinstance(node, PollStatus) else node for node in program.nodes))


class _HangsErases:
    """LUN-side fault hook: an erase's busy window never ends."""

    def on_busy(self, lun, kind, duration):
        return None if kind == "erase" else duration

    def on_erase(self, lun, targets):  # pragma: no cover - never completes
        return False


@pytest.mark.parametrize("observed", [False, True],
                         ids=["template", "generic"])
def test_poll_budget_error_names_the_poll_on_both_paths(observed):
    """An exhausted poll budget raises the generic loop's text — which
    names *which* poll ran out — whether the op ran as a template or,
    with a tracer attached, through ``_poll_status``."""
    from repro.obs import Tracer

    sim = Simulator()
    controller = BabolController(sim, ControllerConfig(
        vendor=TEST_PROFILE.with_op_override(
            "erase_block", _erase_polling_ardy_twice),
        lun_count=1, fidelity="tlm"))
    controller.luns[0]._fault_hook = _HangsErases()
    if observed:
        sim.set_tracer(Tracer())
    task = controller.erase_block(0, 5)
    fast = controller.fast_ops
    assert (fast.ops_planned, fast.ops_declined) == (
        (0, 1) if observed else (1, 0))
    with pytest.raises(
            RuntimeError,
            match="^array-ready poll budget exhausted — stuck LUN\\?$"):
        controller.run_to_completion(task)
    assert controller.luns[0].op_counts["READ_STATUS"] == 2


def test_template_polls_honour_a_read_status_override():
    """A vendor ``read_status`` that is not the stock round trip (here
    READ STATUS ENHANCED, 78h plus a row address) leaves a template
    nothing to poll with: the op takes the generic path, and TLM sends
    the die the waveform tier's polls and ends on its nanosecond."""
    vendor = TEST_PROFILE.with_op_override("read_status", functools.partial(
        read_status_enhanced_program, row_address_bytes=(0, 0, 0)))

    def run(fidelity):
        controller = BabolController(Simulator(), ControllerConfig(
            vendor=vendor, lun_count=1, fidelity=fidelity, runtime="rtos",
            seed=6))
        task = controller.read_page(0, 1, 0, 0)
        controller.run_to_completion(task)
        counts = {op: n for op, n in controller.luns[0].op_counts.items()
                  if n}
        return task.finished_at, counts, controller.fast_ops

    finished, counts, _ = run("waveform")
    assert counts["READ_STATUS_ENHANCED"] == 18
    assert "READ_STATUS" not in counts
    assert finished == 70865
    tlm_finished, tlm_counts, fast = run("tlm")
    assert (tlm_finished, tlm_counts) == (finished, counts)
    assert (fast.ops_planned, fast.ops_declined) == (0, 1)
