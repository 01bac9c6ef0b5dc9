"""Model-based FTL checking: random write/trim/overwrite sequences are
executed against the real stack and a trivial dict model; the mapping
layer must agree with the model and hold its invariants throughout."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BabolController, ControllerConfig
from repro.flash.errors import ErrorModelConfig
from repro.ftl import CostBenefitPolicy, FtlConfig, PageMappedFtl
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE

LOGICAL_SPAN = 24  # small span so GC pressure is frequent


def build(victim_policy=None):
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=2, runtime="rtos",
                         track_data=False, seed=8),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    ftl = PageMappedFtl(
        sim, controller,
        FtlConfig(blocks_per_lun=6, overprovision_blocks=2,
                  gc_staging_base=8 * 1024 * 1024),
        victim_policy=victim_policy,
    )
    return sim, ftl


operations = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, LOGICAL_SPAN - 1)),
        st.tuples(st.just("trim"), st.integers(0, LOGICAL_SPAN - 1)),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=30, deadline=None)
@given(operations)
def test_ftl_agrees_with_dict_model(ops):
    sim, ftl = build()
    model: dict[int, bool] = {}

    def scenario():
        for op, lpn in ops:
            if op == "write":
                yield from ftl.write(lpn, 0)
                model[lpn] = True
            else:
                ftl.trim(lpn)
                model.pop(lpn, None)
            ftl.map.check_invariants()
            ftl.check_invariants()

    sim.run_process(scenario())

    # Mapped set agrees with the model.
    assert ftl.map.mapped_count == len(model)
    for lpn in range(LOGICAL_SPAN):
        assert (ftl.map.lookup(lpn) is not None) == (lpn in model)

    # Physical sanity: no two LPNs share a physical page, every mapped
    # page is marked valid in its block's FTL bookkeeping.
    seen = set()
    for lpn in range(LOGICAL_SPAN):
        entry = ftl.map.lookup(lpn)
        if entry is None:
            continue
        assert entry not in seen
        seen.add(entry)
        info = ftl._info.get((entry.lun, entry.block))
        assert info is not None and entry.page in info.valid


@settings(max_examples=10, deadline=None)
@given(operations)
def test_ftl_model_holds_under_cost_benefit_gc(ops):
    sim, ftl = build(victim_policy=CostBenefitPolicy())
    model: dict[int, bool] = {}

    def scenario():
        for op, lpn in ops:
            if op == "write":
                yield from ftl.write(lpn, 0)
                model[lpn] = True
            else:
                ftl.trim(lpn)
                model.pop(lpn, None)

    sim.run_process(scenario())
    ftl.map.check_invariants()
    ftl.check_invariants()
    assert ftl.map.mapped_count == len(model)


@pytest.mark.slow_waveform
@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=20, max_size=80))
def test_ftl_hot_overwrites_never_lose_latest_write(lpns):
    """Overwrite churn on a tiny range: the final mapping for each LPN
    must be the most recent physical location (GC never resurrects)."""
    sim, ftl = build()
    last_entry = {}

    def scenario():
        for lpn in lpns:
            entry = yield from ftl.write(lpn, 0)
            last_entry[lpn] = entry

    sim.run_process(scenario())
    for lpn, entry in last_entry.items():
        current = ftl.map.lookup(lpn)
        assert current is not None
        # GC may have relocated it since, but never back to a stale page
        # of the same block that an earlier write used.
        info = ftl._info.get((current.lun, current.block))
        assert info is not None and current.page in info.valid
    ftl.map.check_invariants()
