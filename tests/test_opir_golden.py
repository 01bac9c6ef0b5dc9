"""Golden equivalence: IR-compiled operations vs the frozen seed.

Every library operation runs twice — once through the frozen seed
generators (``tests/seed_ops``, a byte-for-byte copy of the pre-IR
library) and once through the IR-backed library — in two fresh
simulators with identical configuration and seed.  The two captures
must match exactly: every decoded channel event at the same nanosecond,
every raw segment (kind, chip mask, duration, actions), the final
simulated clock, and the operation's return value.
"""

import dataclasses

import numpy as np
import pytest

import tests.seed_ops as seed_ops
from repro.analysis import LogicAnalyzer
from repro.dram import DmaHandle
from repro.onfi.geometry import PhysicalAddress

from tests.helpers import TEST_PROFILE
from tests.test_ops_matrix import ADDR, MATRIX, make_controller


def _normalize(value):
    """Make results comparable across two separate runs."""
    if isinstance(value, DmaHandle):
        summary = ("dma", value.address, value.nbytes)
        if value.delivered is not None:
            summary += (value.delivered.tobytes(),)
        return summary
    if isinstance(value, np.ndarray):
        return ("bytes", value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_normalize(item) for item in value)
    return value


def _capture(op, kwargs_builder, runtime):
    """Run one op in a fresh controller; return its full observable
    footprint (events, segments, final clock, normalized result)."""
    sim, controller = make_controller(runtime)
    analyzer = LogicAnalyzer(controller.channel)
    task = controller.submit(op, 0, **kwargs_builder(controller))
    result = controller.run_to_completion(task)
    events = tuple(dataclasses.astuple(event) for event in analyzer.events)
    segments = tuple(
        (segment.kind.value, segment.chip_mask, segment.duration_ns,
         tuple((offset, action.describe()) for offset, action in segment.actions))
        for segment in analyzer.segments
    )
    return {
        "events": events,
        "segments": segments,
        "sim_ns": sim.now,
        "result": _normalize(result),
    }


def _assert_identical(name, runtime, seed_op, ir_op, kwargs_builder):
    golden = _capture(seed_op, kwargs_builder, runtime)
    actual = _capture(ir_op, kwargs_builder, runtime)
    assert actual["sim_ns"] == golden["sim_ns"], \
        f"{name} ({runtime}): final clock diverged"
    assert actual["events"] == golden["events"], \
        f"{name} ({runtime}): channel event stream diverged"
    assert actual["segments"] == golden["segments"], \
        f"{name} ({runtime}): raw segment stream diverged"
    assert actual["result"] == golden["result"], \
        f"{name} ({runtime}): result diverged"


def _retry_kwargs(controller):
    # A stateful validator: reject the first two attempts so the retry
    # loop walks read-retry levels 0 -> 2 (and restores afterwards).
    calls = {"count": 0}

    def validate(handle):
        calls["count"] += 1
        return calls["count"] >= 3

    return {"codec": controller.codec, "address": ADDR, "dram_address": 0,
            "max_levels": 5, "validate": validate}


EXTRA = [
    ("erase_with_preemptive_read", "erase_with_preemptive_read_op",
     lambda c: {"codec": c.codec, "erase_block": 12, "read_address": ADDR,
                "dram_address": 0,
                "suspend_after_ns": TEST_PROFILE.timing.t_bers_ns // 2}),
    ("read_with_retry", "read_with_retry_op", _retry_kwargs),
]

GOLDEN = [(name, op.__name__, build) for name, op, build in MATRIX] + EXTRA

# The coroutine runtime schedules identically for every op; a spread of
# representative shapes (poll loop, data-in, cache pipelining, gang
# arbitration, retry hooks) keeps the matrix fast without losing cover.
CORO_SUBSET = {"read_page", "program_page", "cache_program", "gang_read",
               "read_with_retry"}


@pytest.mark.parametrize("name,op_name,build_kwargs", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_ir_matches_seed_rtos(name, op_name, build_kwargs):
    import repro.core.ops as ir_ops

    _assert_identical(name, "rtos", getattr(seed_ops, op_name),
                      getattr(ir_ops, op_name), build_kwargs)


@pytest.mark.parametrize(
    "name,op_name,build_kwargs",
    [g for g in GOLDEN if g[0] in CORO_SUBSET],
    ids=[g[0] for g in GOLDEN if g[0] in CORO_SUBSET])
def test_ir_matches_seed_coroutine(name, op_name, build_kwargs):
    import repro.core.ops as ir_ops

    _assert_identical(name, "coroutine", getattr(seed_ops, op_name),
                      getattr(ir_ops, op_name), build_kwargs)


#: Library ops written after the seed was frozen: no pre-IR generator
#: exists to hold them against (their lowering is pinned by
#: tests/test_opir_lowering.py and their tiers by the equivalence matrix).
POST_SEED_OPS = {"paired_program_op", "paired_erase_op",
                 "program_chain_step_op", "program_chain_end_op"}


def test_seed_library_is_complete():
    """Every public seed op has an IR-backed counterpart (same names),
    and the IR library adds only the ops written after the freeze."""
    import repro.core.ops as ir_ops

    assert set(seed_ops.__all__) == set(ir_ops.__all__) - POST_SEED_OPS


def test_full_page_read_matches_seed_with_data_tracking():
    """One data-tracked run: delivered page bytes must match too."""
    import repro.core.ops as ir_ops
    from repro.core import BabolController, ControllerConfig
    from repro.flash.errors import ErrorModelConfig
    from repro.sim import Simulator

    def tracked(op):
        sim = Simulator()
        controller = BabolController(
            sim, ControllerConfig(vendor=TEST_PROFILE, lun_count=1,
                                  runtime="rtos", seed=9),
        )
        for lun in controller.luns:
            lun.array.error_model.config = ErrorModelConfig.noiseless()
        page = controller.codec.geometry.full_page_size
        payload = (np.arange(page) % 249).astype(np.uint8)
        controller.dram.write(0, payload)
        controller.run_to_completion(
            controller.submit(op[0], 0, codec=controller.codec,
                              address=PhysicalAddress(block=2, page=3),
                              dram_address=0))
        controller.run_to_completion(
            controller.submit(op[1], 0, codec=controller.codec,
                              address=PhysicalAddress(block=2, page=3),
                              dram_address=page))
        return controller.dram.read(page, page).tobytes(), sim.now

    seed_bytes, seed_ns = tracked((seed_ops.program_page_op,
                                   seed_ops.full_page_read_op))
    ir_bytes, ir_ns = tracked((ir_ops.program_page_op,
                               ir_ops.full_page_read_op))
    assert ir_ns == seed_ns
    assert ir_bytes == seed_bytes
