"""Tests for bad-block management: factory marks, grown bads, FTL
retirement and relocation."""

import dataclasses

import pytest

from repro.core import BabolController, ControllerConfig
from repro.flash.array import FlashArray
from repro.flash.errors import ErrorModelConfig
from repro.ftl import FtlConfig, PageMappedFtl
from repro.ftl.ftl import FtlError
from repro.onfi.geometry import PhysicalAddress
from repro.sim import Simulator

from tests.helpers import TEST_GEOMETRY, TEST_PROFILE, page_pattern


# --- array level -----------------------------------------------------------


def test_factory_bad_blocks_deterministic_per_seed():
    a = FlashArray(TEST_GEOMETRY, seed=3, factory_bad_rate=0.1)
    b = FlashArray(TEST_GEOMETRY, seed=3, factory_bad_rate=0.1)
    assert a.factory_bad_blocks == b.factory_bad_blocks
    assert len(a.factory_bad_blocks) == int(TEST_GEOMETRY.blocks_per_lun * 0.1)


def test_factory_bad_blocks_fail_operations():
    array = FlashArray(TEST_GEOMETRY, seed=3, factory_bad_rate=0.1)
    bad = next(iter(array.factory_bad_blocks))
    assert array.is_bad(bad)
    assert not array.erase(bad)
    assert not array.program(PhysicalAddress(block=bad, page=0), page_pattern())


def test_zero_rate_means_no_bad_blocks():
    array = FlashArray(TEST_GEOMETRY, seed=3)
    assert array.factory_bad_blocks == set()
    assert not array.is_bad(0)


def test_bad_rate_validation():
    with pytest.raises(ValueError):
        FlashArray(TEST_GEOMETRY, factory_bad_rate=1.5)


# --- FTL level --------------------------------------------------------------


def make_stack(factory_bad_rate=0.0, blocks_per_lun=8, overprovision=3,
               endurance=None):
    sim = Simulator()
    profile = dataclasses.replace(TEST_PROFILE,
                                  factory_bad_rate=factory_bad_rate,
                                  **({"endurance_cycles": endurance}
                                     if endurance else {}))
    controller = BabolController(
        sim,
        ControllerConfig(vendor=profile, lun_count=1, runtime="rtos",
                         track_data=False, seed=4),
    )
    controller.luns[0].array.error_model.config = ErrorModelConfig.noiseless()
    ftl = PageMappedFtl(
        sim, controller,
        FtlConfig(blocks_per_lun=blocks_per_lun,
                  overprovision_blocks=overprovision,
                  gc_staging_base=8 * 1024 * 1024),
    )
    return sim, controller, ftl


def test_ftl_scan_excludes_factory_bads():
    sim, controller, ftl = make_stack(factory_bad_rate=0.25)
    # Only the blocks the FTL manages matter (the array is larger).
    managed_bads = {
        b for b in controller.luns[0].array.factory_bad_blocks
        if b < ftl.config.blocks_per_lun
    }
    assert managed_bads
    assert all(b not in ftl._luns[0].free for b in managed_bads)
    assert set(ftl.retired_blocks) == {(0, b) for b in managed_bads}


def test_ftl_rejects_insufficient_good_blocks():
    with pytest.raises(FtlError, match="good blocks"):
        make_stack(factory_bad_rate=0.5, blocks_per_lun=8, overprovision=2)


def test_ftl_operates_normally_with_factory_bads():
    sim, controller, ftl = make_stack(factory_bad_rate=0.25, overprovision=4)

    def scenario():
        for lpn in range(ftl.logical_pages):
            yield from ftl.write(lpn, 0)
        yield from ftl.read(0, 65536)

    sim.run_process(scenario())
    ftl.map.check_invariants()
    # No mapped page lives in a factory-bad block.
    bads = controller.luns[0].array.factory_bad_blocks
    for lpn in range(ftl.logical_pages):
        entry = ftl.map.lookup(lpn)
        assert entry.block not in bads


@pytest.mark.slow_waveform
def test_grown_bad_block_retired_during_gc_churn():
    """Low endurance + heavy overwrite: blocks wear out mid-run; the
    FTL must retire them and keep serving writes."""
    sim, controller, ftl = make_stack(blocks_per_lun=8, overprovision=4,
                                      endurance=4)
    pages = ftl.pages_per_block
    wrote = {"count": 0}

    def churn():
        span = max(ftl.logical_pages // 2, 1)
        try:
            for i in range(40 * pages):
                yield from ftl.write(i % span, 0)
                wrote["count"] += 1
        except FtlError:
            pass  # end of life: pool exhausted — acceptable terminal state

    sim.run_process(churn())
    grown = [rb for rb in ftl.retired_blocks]
    assert grown, "expected at least one grown-bad retirement"
    assert wrote["count"] > 10 * pages  # survived well past first wear-outs
    ftl.map.check_invariants()
    # Every still-mapped page is NOT in a retired block.
    retired = set(ftl.retired_blocks)
    for lpn in range(ftl.logical_pages):
        entry = ftl.map.lookup(lpn)
        if entry is not None:
            assert (entry.lun, entry.block) not in retired


# --- valid-data shares from factory-good blocks -------------------------------


def _shares(bad_by_lun, blocks_per_lun=8, overprovision=2, luns=3):
    """An FTL over ``luns`` LUNs whose blocks in ``bad_by_lun[lun]`` are
    factory-bad; returns it."""
    sim = Simulator()
    controller = BabolController(sim, ControllerConfig(
        vendor=TEST_PROFILE, lun_count=luns, track_data=False))
    for lun, blocks in bad_by_lun.items():
        array = controller.luns[lun].array
        array.factory_bad_blocks = set(blocks)
        for block in blocks:
            array.block(block).worn_out = True
    return PageMappedFtl(sim, controller, FtlConfig(
        blocks_per_lun=blocks_per_lun, overprovision_blocks=overprovision))


def test_shares_are_the_configured_ones_without_defects():
    ftl = _shares({}, overprovision=4)
    pages = ftl.pages_per_block
    assert ftl._share == [4 * pages] * 3
    assert ftl.logical_pages == sum(ftl._share)


def test_a_defect_moves_share_to_a_lun_with_spare_blocks():
    """Four spare blocks each: one defect leaves three, above the
    two-block floor, so nothing moves; three defects leave one, and
    the missing block goes to the roomiest other LUN."""
    pages = _shares({}).pages_per_block
    ftl = _shares({1: [3]}, overprovision=4)
    assert ftl._share == [4 * pages] * 3
    ftl = _shares({1: [1, 3, 5]}, overprovision=4)
    assert ftl._share == [5 * pages, 3 * pages, 4 * pages]
    assert ftl.logical_pages == 12 * pages  # the capacity holds


def test_the_capacity_shrinks_only_past_the_spare_blocks():
    """Two spare blocks each (the floor): a defect has nowhere to go,
    so the capacity shrinks by it, and every LUN keeps two spares."""
    ftl = _shares({0: [2]})
    pages = ftl.pages_per_block
    assert ftl._share == [5 * pages, 6 * pages, 6 * pages]
    assert ftl.logical_pages == 17 * pages
    for lun, share in enumerate(ftl._share):
        assert len(ftl._luns[lun].free) * pages - share >= 2 * pages
