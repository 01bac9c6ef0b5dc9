"""A transmission binds a prepared segment (PR 24).

``run_lowered`` mints each segment from the validated prototype its
recipe keeps (``WaveformSegment.bind``) and ``Channel.drive`` books it
from plain fields.  Nothing may be lost against the constructor that
validates and the action walk that used to count: for every registered
op x the four vendor profiles x both NV-DDR2 modes x {first run, another
address}, every minted segment equals a constructor-built one, its byte
counts equal a recount over its actions, ``ChannelStats`` equals a
recount from the captured segments and the memoised chip-select targets
equal ``segment.targets(width)``.

(The *content* of the stream — kinds, durations, offsets, payloads,
masks, labels — is held to the pre-lowering interpreter by
``tests/test_opir_lowering.py``'s recorded digests.)
"""

import dataclasses
from collections import Counter

import pytest

import repro.core.ops as ops
from repro.analysis.op_lint import sample_kwargs
from repro.baselines import AsyncHwController, SyncHwController
from repro.bus.channel import ChannelStats
from repro.core.opir.compile import TXN, Recipe
from repro.core.opir.registry import list_ops
from repro.onfi.datamodes import NVDDR2_100, NVDDR2_200
from repro.onfi.signals import (
    CommandLatch,
    DataInAction,
    DataOutAction,
    SegmentKind,
    WaveformSegment,
)
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE
from tests.test_opir_lowering import (
    PROFILES,
    _controller,
    _elsewhere,
    _retry_validator,
)

MODES = {"nvddr2-100": NVDDR2_100, "nvddr2-200": NVDDR2_200}


def recount(segments) -> ChannelStats:
    """What ``ChannelStats.record`` used to compute, action by action."""
    stats = ChannelStats()
    for segment in segments:
        stats.segments += 1
        stats.busy_ns += segment.duration_ns
        stats.per_kind[segment.kind.value] += 1
        for _, action in segment.actions:
            if isinstance(action, DataOutAction):
                stats.data_bytes_out += action.nbytes
            elif isinstance(action, DataInAction):
                stats.data_bytes_in += action.nbytes
    return stats


def check_segments(channel, captured) -> None:
    assert captured
    for segment in captured:
        rebuilt = WaveformSegment(  # raises if __post_init__ objects
            segment.kind, segment.duration_ns, segment.actions,
            segment.chip_mask, segment.label)
        assert segment == rebuilt
        for field in dataclasses.fields(WaveformSegment):  # nothing unset
            getattr(segment, field.name)
        one = recount([segment])
        assert (segment.data_out_bytes, segment.data_in_bytes) == (
            one.data_bytes_out, one.data_bytes_in) == (
            rebuilt.data_out_bytes, rebuilt.data_in_bytes)
        assert channel._targets[segment.chip_mask] == tuple(
            segment.targets(channel.width))
    assert channel.stats == recount(captured)


def lowered_recipes(bank):
    """Every segment recipe in the bank's shape memo (whose entries are
    a ``Lowered`` or, for an undeclared builder, ``(Lowered, operands)``)."""
    for entry in bank.lowered.values():
        lowered = entry[0] if isinstance(entry, tuple) else entry
        for step in lowered.steps or ():
            if step[0] == TXN:
                yield from step[3]


def run_op(controller, name, kwargs):
    op = getattr(ops, f"{name}_op")
    try:
        controller.run_to_completion(
            controller.submit(lambda ctx: op(ctx, **kwargs), 0))
    except Exception:  # noqa: BLE001 - some sample ops end in an error
        return False
    return True


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("name", list_ops())
def test_every_minted_segment_is_what_the_constructor_would_build(
        name, profile, mode):
    vendor = PROFILES[profile]
    sim, controller = _controller(vendor, interface=MODES[mode])
    captured = []
    controller.channel.add_tap(lambda now, segment: captured.append(segment))
    kwargs = dict(sample_kwargs(vendor)[name])
    if name == "read_with_retry":
        kwargs.update(validate=_retry_validator(), max_levels=5)
    if run_op(controller, name, kwargs):
        first = len(captured)
        moved = {key: _elsewhere(value, key) for key, value in kwargs.items()}
        run_op(controller, name, moved)  # a memo hit binds new operands
        assert len(captured) > first
    check_segments(controller.channel, captured)
    assert all(segment.emitted_at is not None for segment in captured)
    # Every transmission is its own object: observers may keep them.
    assert len({id(segment) for segment in captured}) == len(captured)


def test_the_sweep_binds_a_gang_redirect_and_an_expression_mask():
    """The two chip-mask paths that are not "the op's target": a segment
    emitted with the default mask and redirected by Chip Control, and a
    mask computed from a register at run time."""
    sim, controller = _controller(TEST_PROFILE)
    captured = []
    controller.channel.add_tap(lambda now, segment: captured.append(segment))
    assert run_op(controller, "gang_read",
                  dict(sample_kwargs(TEST_PROFILE)["gang_read"]))
    recipes = list(lowered_recipes(controller.ufsm))
    assert any(recipe[7] for recipe in recipes)             # via Chip Control
    assert any(callable(recipe[5]) for recipe in recipes)   # lowered expr
    assert controller.ufsm.chip_control.emissions > 0
    masks = {segment.chip_mask for segment in captured}
    assert len(masks) > 1 and any(mask & (mask - 1) for mask in masks)
    check_segments(controller.channel, captured)


def test_a_bound_segment_shares_shape_and_nothing_else():
    actions = ((0, CommandLatch(0x70)), (40, DataOutAction(4, "first")))
    prototype = WaveformSegment(SegmentKind.DATA_OUT, 100, actions, 1, "burst")
    prototype.emitted_at = 77
    mine = ((0, CommandLatch(0x70)), (40, DataOutAction(4, "second")))
    bound = prototype.bind(mine, 0b100)
    assert bound == WaveformSegment(SegmentKind.DATA_OUT, 100, mine, 0b100,
                                    "burst")
    assert bound.emitted_at is None and bound.data_out_bytes == 4
    assert prototype.actions is actions and prototype.chip_mask == 1


def test_lowering_asserts_a_recipes_offsets_are_its_prototypes():
    prototype = WaveformSegment(
        SegmentKind.CMD_ADDR, 100,
        ((0, CommandLatch(0x00)), (25, CommandLatch(0x30))))
    good = Recipe(None, prototype, prototype.actions, (), None, False)
    assert good[1:3] == (SegmentKind.CMD_ADDR, 100)
    assert good.prototype is prototype
    moved = ((0, CommandLatch(0x00)), (26, CommandLatch(0x30)))
    with pytest.raises(AssertionError, match="offsets"):
        Recipe(None, prototype, moved, (), None, False)
    with pytest.raises(AssertionError, match="offsets"):
        Recipe(None, prototype, moved[:1], (), None, False)


def test_every_lowered_recipe_keeps_the_eight_slots_and_a_prototype():
    sim, controller = _controller(TEST_PROFILE)
    for name in list_ops():
        run_op(controller, name, dict(sample_kwargs(TEST_PROFILE)[name]))
    seen = 0
    for recipe in lowered_recipes(controller.ufsm):
        ufsm, kind, duration, actions, fills, mask, label, via = recipe
        prototype = recipe.prototype
        assert (kind, duration, label) == (
            prototype.kind, prototype.duration_ns, prototype.label)
        assert [entry[0] for entry in actions] == [
            offset for offset, _ in prototype.actions]
        assert prototype.emitted_at is None  # never driven itself
        seen += 1
    assert seen > 40


# --- one booking site: the TLM tier and the hardware baselines ---------------


class _Recorder:
    """Stands where a fault injector would: sees every driven segment
    and the targets ``drive`` resolved for it, on either tier."""

    def __init__(self):
        self.segments = []
        self.targets = []

    def on_transmit(self, now, segment, targets):
        self.segments.append(segment)
        self.targets.append(targets)


@pytest.mark.parametrize("fidelity", ["waveform", "tlm"])
def test_channel_stats_are_booked_in_drive_on_both_tiers(fidelity):
    sim, controller = _controller(TEST_PROFILE, fidelity=fidelity)
    recorder = controller.channel._fault_hook = _Recorder()
    tasks = [controller.program_page(0, 1, 0, 0),
             controller.read_page(1, 1, 0, 4096),
             controller.erase_block(0, 3)]
    for task in tasks:
        controller.run_to_completion(task)
    check_segments(controller.channel, recorder.segments)
    assert controller.channel.stats.data_bytes_in > 0
    assert controller.channel.stats.data_bytes_out > 0
    for segment, targets in zip(recorder.segments, recorder.targets):
        assert list(targets) == segment.targets(controller.channel.width)


@pytest.mark.parametrize("kind", [SyncHwController, AsyncHwController])
def test_channel_stats_are_booked_in_drive_for_the_baselines(kind):
    sim = Simulator()
    controller = kind(sim, vendor=TEST_PROFILE, lun_count=2, seed=3)
    captured = []
    controller.channel.add_tap(lambda now, segment: captured.append(segment))
    for task in (controller.program_page(0, 1, 0, 0),
                 controller.read_page(1, 1, 0, 4096),
                 controller.erase_block(0, 3)):
        controller.run_to_completion(task)
    check_segments(controller.channel, captured)
    assert Counter(s.kind.value for s in captured) == \
        controller.channel.stats.per_kind


def test_targets_are_memoised_per_channel_width():
    """One mask selects different dies on channels of different width:
    the memo belongs to the channel, not to the mask."""
    segments = {}
    for width in (2, 4):
        sim, controller = _controller(TEST_PROFILE, lun_count=width)
        channel = controller.channel
        segment = WaveformSegment(SegmentKind.TIMER, 10, (), 0b1111)
        assert channel.mutex.try_acquire("test")
        channel.drive(segment)
        channel.drive(segment)  # the second drive is a memo hit
        segments[width] = channel._targets[0b1111]
        assert channel.stats.segments == 2
    assert segments == {2: (0, 1), 4: (0, 1, 2, 3)}
