"""Tests for the FTL: mapping, writes/reads, GC, wear accounting."""

import pytest

from repro.core import BabolController, ControllerConfig
from repro.flash.errors import ErrorModelConfig
from repro.ftl import (
    CostBenefitPolicy,
    FtlConfig,
    GreedyPolicy,
    MapEntry,
    PageMapTable,
    PageMappedFtl,
    WearTracker,
)
from repro.ftl.ftl import FtlError
from repro.sim import Simulator, Timeout

from tests.helpers import TEST_PROFILE


def make_ftl(lun_count=2, blocks_per_lun=6, overprovision=2, **ftl_kwargs):
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                         runtime="rtos", track_data=False, seed=3),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    ftl = PageMappedFtl(
        sim, controller,
        FtlConfig(blocks_per_lun=blocks_per_lun,
                  overprovision_blocks=overprovision,
                  gc_staging_base=8 * 1024 * 1024, **ftl_kwargs),
    )
    return sim, controller, ftl


def run(sim, gen):
    return sim.run_process(gen)


# --- map table -----------------------------------------------------------


def test_map_bind_lookup_roundtrip():
    table = PageMapTable(100)
    entry = MapEntry(lun=0, block=1, page=2)
    assert table.bind(5, entry) is None
    assert table.lookup(5) == entry
    assert table.owner_of(entry) == 5
    table.check_invariants()


def test_map_rebind_returns_old_entry():
    table = PageMapTable(100)
    first = MapEntry(0, 1, 2)
    second = MapEntry(0, 1, 3)
    table.bind(5, first)
    assert table.bind(5, second) == first
    assert table.owner_of(first) is None
    table.check_invariants()


def test_map_double_occupancy_rejected():
    table = PageMapTable(100)
    entry = MapEntry(0, 1, 2)
    table.bind(5, entry)
    with pytest.raises(ValueError):
        table.bind(6, entry)


def test_map_unbind_and_range_checks():
    table = PageMapTable(10)
    entry = MapEntry(0, 0, 0)
    table.bind(3, entry)
    assert table.unbind(3) == entry
    assert table.unbind(3) is None
    with pytest.raises(ValueError):
        table.lookup(10)


# --- wear tracker ----------------------------------------------------------


def test_wear_tracker_counts_and_imbalance():
    wear = WearTracker()
    for _ in range(4):
        wear.record_erase(0, 1)
    wear.record_erase(0, 2)
    assert wear.erase_count(0, 1) == 4
    assert wear.max_erase == 4
    assert wear.imbalance() > 1.0
    assert wear.should_level(threshold=1.5)
    assert wear.coldest_block() == (0, 2)


def test_wear_tracker_empty_defaults():
    wear = WearTracker()
    assert wear.max_erase == 0
    assert wear.imbalance() == 1.0
    assert not wear.should_level()
    assert wear.coldest_block() is None


# --- victim policies ------------------------------------------------------


class _FakeBlock:
    def __init__(self, valid, capacity=16, closed_at=0):
        self.valid_count = valid
        self.capacity = capacity
        self.closed_at_ns = closed_at


def test_greedy_picks_fewest_valid():
    blocks = [_FakeBlock(10), _FakeBlock(3), _FakeBlock(7)]
    assert GreedyPolicy().select(blocks, now_ns=100).valid_count == 3


def test_greedy_skips_full_blocks():
    blocks = [_FakeBlock(16)]
    assert GreedyPolicy().select(blocks, now_ns=0) is None


def test_cost_benefit_prefers_old_sparse_blocks():
    young_dense = _FakeBlock(12, closed_at=90)
    old_sparse = _FakeBlock(4, closed_at=0)
    choice = CostBenefitPolicy().select([young_dense, old_sparse], now_ns=100)
    assert choice is old_sparse


def test_cost_benefit_empty_block_is_infinite_benefit():
    empty = _FakeBlock(0, closed_at=50)
    dense = _FakeBlock(2, closed_at=0)
    assert CostBenefitPolicy().select([empty, dense], now_ns=100) is empty


# --- FTL I/O paths ---------------------------------------------------------


def test_write_then_read_maps_correctly():
    sim, controller, ftl = make_ftl()

    def scenario():
        entry = yield from ftl.write(0, dram_address=0)
        assert ftl.map.lookup(0) == entry
        read_entry = yield from ftl.read(0, dram_address=65536)
        assert read_entry == entry
        return True

    assert run(sim, scenario())
    assert ftl.host_writes == 1 and ftl.host_reads == 1


def test_read_unmapped_raises():
    sim, controller, ftl = make_ftl()

    def scenario():
        yield from ftl.read(0, 0)

    with pytest.raises(FtlError, match="unmapped"):
        run(sim, scenario())


def test_writes_stripe_across_luns():
    sim, controller, ftl = make_ftl(lun_count=2)

    def scenario():
        for lpn in range(4):
            yield from ftl.write(lpn, 0)

    run(sim, scenario())
    luns = {ftl.map.lookup(lpn).lun for lpn in range(4)}
    assert luns == {0, 1}


def test_overwrite_invalidates_old_page():
    sim, controller, ftl = make_ftl()

    def scenario():
        first = yield from ftl.write(0, 0)
        second = yield from ftl.write(0, 0)
        return first, second

    first, second = run(sim, scenario())
    assert first != second
    info = ftl._info[(first.lun, first.block)]
    assert first.page not in info.valid
    ftl.map.check_invariants()


def test_trim_unmaps_without_media_work():
    sim, controller, ftl = make_ftl()

    def scenario():
        yield from ftl.write(0, 0)

    run(sim, scenario())
    reads_before = controller.luns[0].reads_completed
    ftl.trim(0)
    assert ftl.map.lookup(0) is None
    assert controller.luns[0].reads_completed == reads_before


def test_prefill_populates_without_sim_time():
    sim, controller, ftl = make_ftl()
    ftl.prefill(32)
    assert sim.now == 0
    assert ftl.map.mapped_count == 32
    ftl.map.check_invariants()


def test_prefill_beyond_capacity_rejected():
    sim, controller, ftl = make_ftl()
    with pytest.raises(FtlError):
        ftl.prefill(ftl.logical_pages + 1)


def test_gc_reclaims_space_under_overwrite_pressure():
    sim, controller, ftl = make_ftl(lun_count=1, blocks_per_lun=4, overprovision=2)
    pages_per_block = ftl.pages_per_block

    def scenario():
        # Hammer a small logical range so invalidation builds up and GC
        # must reclaim blocks to keep the pool above threshold.
        span = pages_per_block  # half the logical space
        for i in range(4 * pages_per_block):
            yield from ftl.write(i % span, 0)

    run(sim, scenario())
    assert ftl.gc_runs > 0
    assert ftl.write_amplification >= 1.0
    assert ftl.wear.max_erase > 0
    ftl.map.check_invariants()


def test_gc_preserves_valid_data_mapping():
    sim, controller, ftl = make_ftl(lun_count=1, blocks_per_lun=4, overprovision=2)
    pages_per_block = ftl.pages_per_block

    cold_lpn = ftl.logical_pages - 1

    def scenario():
        yield from ftl.write(cold_lpn, 0)  # cold page that must survive GC
        for i in range(4 * pages_per_block):
            yield from ftl.write(i % pages_per_block, 0)

    run(sim, scenario())
    assert ftl.map.lookup(cold_lpn) is not None
    ftl.map.check_invariants()


def test_ftl_config_validation():
    with pytest.raises(ValueError):
        FtlConfig(blocks_per_lun=2, overprovision_blocks=4).validate()


def test_describe_reports_policy():
    sim, controller, ftl = make_ftl()
    assert "greedy" in ftl.describe()


# --- background collector --------------------------------------------------


def make_full_ftl(lun_count=1, blocks_per_lun=6, overprovision=3):
    """A TLM-tier FTL with every logical page prefilled, so victims
    carry many valid pages and collects take a while."""
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                         runtime="rtos", track_data=False, seed=3,
                         fidelity="tlm"),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    ftl = PageMappedFtl(
        sim, controller,
        FtlConfig(blocks_per_lun=blocks_per_lun,
                  overprovision_blocks=overprovision,
                  gc_staging_base=8 * 1024 * 1024),
    )
    ftl.prefill(ftl.logical_pages)
    return sim, ftl


def churn(sim, ftl, writers=4, writes_each=48):
    """``writers`` concurrent hosts overwriting the whole logical space."""
    def writer(k):
        for i in range(writes_each):
            yield from ftl.write((k * 5 + i * 7) % ftl.logical_pages, 0)

    for k in range(writers):
        sim.spawn(writer(k), name=f"writer{k}")
    sim.run()


def test_host_never_opens_a_luns_last_free_block():
    sim, ftl = make_full_ftl()
    free_at_open = {"active": [], "twin": []}
    open_active = ftl._active_block
    open_twin = ftl._open_beside

    def active_block(lun):
        if ftl._luns[lun].active is None:
            free_at_open["active"].append(len(ftl._luns[lun].free))
        return open_active(lun)

    def open_beside(lun, block):
        free = len(ftl._luns[lun].free)
        twin = open_twin(lun, block)
        if twin is not None:
            free_at_open["twin"].append(free)
        return twin

    ftl._active_block = active_block
    ftl._open_beside = open_beside
    churn(sim, ftl)
    assert ftl.gc_runs > 0 and ftl.gc_write_stalls > 0
    assert free_at_open["active"] and free_at_open["twin"]
    # The last free block is GC's reserve, for twins as for actives.
    assert min(free_at_open["active"] + free_at_open["twin"]) >= 2
    ftl.map.check_invariants()
    ftl.check_invariants()


def test_at_most_one_collect_per_lun_in_flight_level_wear_included():
    sim, ftl = make_full_ftl(lun_count=2)
    in_flight = {0: 0, 1: 0}
    peak = {0: 0, 1: 0}
    collect = ftl._collect

    def counted(victim, partner=None):
        in_flight[victim.lun] += 1
        peak[victim.lun] = max(peak[victim.lun], in_flight[victim.lun])
        try:
            yield from collect(victim, partner)
        finally:
            in_flight[victim.lun] -= 1

    ftl._collect = counted
    writers, writes_each = 6, 48
    leveled = []

    def leveler():
        # Any imbalance exceeds 0.5: level whenever the coldest block is
        # closed and idle, collector or not.
        while ftl.host_writes < writers * writes_each:
            yield Timeout(200_000)
            moved = yield from ftl.level_wear(threshold=0.5)
            leveled.append(moved)

    sim.spawn(leveler(), name="leveler")
    churn(sim, ftl, writers=writers, writes_each=writes_each)
    assert ftl.gc_runs > 0 and sum(leveled) > 0
    assert peak == {0: 1, 1: 1}
    assert not ftl._collecting
    ftl.check_invariants()


def test_nothing_reclaimable_raises_at_once_instead_of_waiting():
    sim, ftl = make_full_ftl(blocks_per_lun=4, overprovision=2)
    # Every closed page is valid (no victim); drop one of the two free
    # blocks as if retired, leaving only the reserve.
    ftl._luns[0].free.pop()
    # Nothing could ever free another block, so the write takes it.
    sim.run_process(ftl.write(0, 0))
    assert ftl.gc_write_stalls == 0 and not ftl._luns[0].free
    ftl._luns[0].active.write_ptr = ftl.pages_per_block  # fill it
    ftl._close(ftl._luns[0].active)
    now = sim.now

    def write_again():
        yield from ftl.write(1, 0)

    with pytest.raises(FtlError, match="out of free blocks"):
        sim.run_process(write_again())
    assert sim.now == now  # raised before any simulated time passed


def test_write_during_collect_completes_before_the_collect_ends():
    sim, ftl = make_full_ftl()
    spans = []
    collect = ftl._collect

    def timed(victim, partner=None):
        start = sim.now
        yield from collect(victim, partner)
        spans.append((start, sim.now))

    ftl._collect = timed

    def host():
        # Overwrite until a write finds the pool low and starts a collect.
        lpn = 0
        while not (spans or ftl._collecting):
            issued = sim.now
            yield from ftl.write(lpn, 0)
            lpn += 1
        return issued, sim.now

    issued, done = sim.run_process(host())
    start, end = spans[0]
    assert issued <= start and done < end  # the collect ran beside it
