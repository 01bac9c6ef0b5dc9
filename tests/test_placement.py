"""Tests for host-write placement: the per-LUN work ledger sends a write
to the LUN with the least outstanding die work, the rotor breaks ties,
and the valid-share cap keeps every LUN's data within what its GC can
make room for."""

import numpy as np
import pytest

from repro.baselines import AsyncHwController, SyncHwController
from repro.core import BabolController, ControllerConfig
from repro.flash.errors import ErrorModelConfig
from repro.ftl import FtlConfig, PageMappedFtl
from repro.obs import MetricsRegistry, register_ftl_health_metrics
from repro.sim import Simulator, Timeout

from tests.helpers import TEST_PROFILE

T_PROG = TEST_PROFILE.timing.t_prog_ns


def make_ftl(lun_count=2, blocks_per_lun=6, overprovision=2, **ftl_kwargs):
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                         runtime="rtos", track_data=True, seed=3,
                         fidelity="tlm"),
    )
    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()
    ftl = PageMappedFtl(
        sim, controller,
        FtlConfig(blocks_per_lun=blocks_per_lun,
                  overprovision_blocks=overprovision,
                  gc_staging_base=48 * 1024 * 1024, **ftl_kwargs),
    )
    return sim, controller, ftl


def spawn_writers(sim, ftl, streams):
    """One process per LPN stream; returns the map entries in
    completion order as ``(lpn, entry)``."""
    landed = []

    def writer(lpns):
        for lpn in lpns:
            entry = yield from ftl.write(lpn, 0)
            landed.append((lpn, entry))

    for k, lpns in enumerate(streams):
        sim.spawn(writer(lpns), name=f"writer{k}")
    return landed


def valid_pages(ftl):
    """Per-LUN count of pages in the blocks' valid sets."""
    counts = [0] * ftl.lun_count
    for info in ftl._info.values():
        counts[info.lun] += len(info.valid)
    return counts


# --- the ledger -----------------------------------------------------------


def test_uniform_load_reproduces_the_rotor_order():
    sim, _, ftl = make_ftl(lun_count=4)
    luns = [sim.run_process(ftl.write(lpn, 0)).lun for lpn in range(12)]
    assert luns == [lpn % 4 for lpn in range(12)]
    assert ftl.writes_off_rotor == 0

    # A burst of one write per LUN at the same instant loads every LUN
    # alike: each write still lands on the rotor's LUN.
    landed = spawn_writers(sim, ftl, [[12 + k] for k in range(4)])
    sim.run()
    assert sorted((lpn, e.lun) for lpn, e in landed) == [
        (12 + k, k) for k in range(4)]
    assert ftl.writes_off_rotor == 0
    ftl.check_invariants()


def test_a_lun_erasing_gets_no_write_while_an_idle_lun_exists():
    sim, controller, ftl = make_ftl(lun_count=2)
    block = ftl._luns[0].free[-1]  # a free block: erasing it loses nothing
    erased = []

    def eraser():
        yield from ftl._media(ftl._t_bers, controller.erase_block, 0, block)
        erased.append(sim.now)

    def host():
        yield Timeout(1)  # the erase is issued first
        landed = []
        for lpn in range(3):
            entry = yield from ftl.write(lpn, 0)
            landed.append((entry.lun, sim.now))
        return landed

    sim.spawn(eraser(), name="eraser")
    landed = sim.run_process(host())
    sim.run()
    assert all(done < erased[0] for _, done in landed)
    assert [lun for lun, _ in landed] == [1, 1, 1]
    assert ftl.writes_off_rotor >= 1  # the rotor named LUN 0 for some
    assert ftl._pending == [0, 0]
    # Idle again: the rotor decides.
    rotor = ftl._write_rotor % 2
    assert sim.run_process(ftl.write(3, 0)).lun == rotor


def test_every_media_op_leaves_the_ledger_empty_when_done():
    sim, _, ftl = make_ftl(lun_count=2, blocks_per_lun=6, overprovision=3)
    ftl.prefill(ftl.logical_pages)
    rng = np.random.default_rng(1)
    streams = [rng.integers(0, ftl.logical_pages, 40).tolist()
               for _ in range(4)]
    spawn_writers(sim, ftl, streams)
    sim.run()
    assert ftl.gc_runs > 0  # GC reads, programs and erases ran too
    for lpn in range(0, ftl.logical_pages, 7):
        sim.run_process(ftl.read(lpn, 0))
    assert ftl._pending == [0, 0]


def issue_at(sim, ftl, at_ns, lun, media):
    """Issue ``media`` — ``(cost, issue, *args)`` tuples — on ``lun`` at
    ``at_ns``, each through the ledger (``_media``) in its own process,
    in order."""
    def one(cost, issue, *args):
        yield Timeout(at_ns)
        yield from ftl._media(cost, issue, lun, *args)

    for cost, issue, *args in media:
        sim.spawn(one(cost, issue, *args), name=f"media-lun{lun}")


def write_at(sim, ftl, at_ns, lpn, rotor):
    """The LUN a host write of ``lpn`` issued at ``at_ns`` is placed on,
    with the rotor naming ``rotor``; also the ledger placement saw."""
    seen = {}

    def host():
        yield Timeout(at_ns - sim.now)
        seen["pending"] = list(ftl._pending)
        ftl._write_rotor = rotor
        entry = yield from ftl.write(lpn, 0)
        return entry.lun

    lun = sim.run_process(host())
    return lun, seen["pending"]


def test_a_write_joins_a_queued_program_waiting_for_its_plane_pair():
    sim, controller, ftl = make_ftl(lun_count=2)
    t_read = ftl._t_read
    # LUN 1: a read, then two programs on distinct planes, which pair
    # once the read is done.  LUN 0, later: one program running and one
    # on the other plane queued behind it, waiting for a partner.  The
    # first host page goes to block 0, plane 0.
    issue_at(sim, ftl, 0, 1, [(t_read, controller.read_page, 3, 0, 0),
                              (T_PROG, controller.program_page, 4, 0, 0),
                              (T_PROG, controller.program_page, 5, 0, 0)])
    issue_at(sim, ftl, 100_000, 0, [(T_PROG, controller.program_page, 4, 0, 0),
                                    (T_PROG, controller.program_page, 5, 0, 0)])
    sim.run(until=100_500)
    paired = controller.programs_paired
    assert paired == 1  # LUN 1's two programs
    # Today's ledger sees two tPROGs on each LUN and LUN 1's op running
    # longer; the rotor names LUN 1.  The queued program prices the new
    # page at no tPROG of its own on LUN 0.
    lun, pending = write_at(sim, ftl, 101_000, 0, rotor=1)
    assert pending == [2 * T_PROG, 2 * T_PROG]
    assert lun == 0
    sim.run()
    assert controller.programs_paired == paired + 1
    assert ftl._pending == [0, 0]


def test_a_write_goes_to_the_die_whose_running_op_is_nearly_done():
    sim, controller, ftl = make_ftl(lun_count=2)
    issue_at(sim, ftl, 0, 0, [(T_PROG, controller.program_page, 4, 0, 0)])
    issue_at(sim, ftl, 150_000, 1, [(T_PROG, controller.program_page, 4, 0, 0)])
    # One tPROG outstanding on each LUN; LUN 0's has run 180 µs, LUN
    # 1's 30 µs, and the rotor names LUN 1.
    lun, pending = write_at(sim, ftl, 180_000, 0, rotor=1)
    assert pending == [T_PROG, T_PROG]
    assert lun == 0
    sim.run()
    assert ftl._pending == [0, 0]


@pytest.mark.parametrize("baseline, expected", [
    ("sync", "120120120102102102102102102102102102102102102102102102120102"),
    ("async", "012012012012012012012012012012012012012012012012012012012012"),
])
def test_a_hardware_baseline_places_by_the_ledger_alone(baseline, expected):
    # No software environment, no credits: a fixed concurrent write
    # stream lands on the LUNs the bare ledger picks (the LUN of each
    # write, in completion order).
    sim = Simulator()
    cls = SyncHwController if baseline == "sync" else AsyncHwController
    controller = cls(sim, vendor=TEST_PROFILE, lun_count=3, seed=3)
    ftl = PageMappedFtl(sim, controller, FtlConfig(
        blocks_per_lun=6, overprovision_blocks=2,
        gc_staging_base=48 * 1024 * 1024))
    rng = np.random.default_rng(5)
    streams = [rng.integers(0, ftl.logical_pages // 2, 12).tolist()
               for _ in range(5)]
    landed = spawn_writers(sim, ftl, streams)
    sim.run()
    assert "".join(str(entry.lun) for _, entry in landed) == expected
    assert ftl._pending == [0, 0, 0]


# --- the valid-share cap ----------------------------------------------------


def test_the_cap_holds_under_random_overwrites():
    sim, _, ftl = make_ftl(lun_count=2, blocks_per_lun=6, overprovision=2)
    ftl.prefill(ftl.logical_pages)
    share = ftl._share
    assert sum(share) == ftl.logical_pages
    assert ftl._lun_valid == share  # full: every LUN at its share
    rng = np.random.default_rng(11)
    streams = [rng.integers(0, ftl.logical_pages, 150).tolist()
               for _ in range(8)]
    landed = spawn_writers(sim, ftl, streams)
    peaks = [0, 0]

    def monitor():
        while len(landed) < 8 * 150:
            yield Timeout(T_PROG // 4)
            for lun, count in enumerate(valid_pages(ftl)):
                peaks[lun] = max(peaks[lun], count)

    sim.spawn(monitor(), name="monitor")
    sim.run()
    assert len(landed) == 8 * 150 and ftl.gc_runs > 0
    assert all(peak <= cap for peak, cap in zip(peaks, share))
    # At the share, an overwrite stays on the LUN that holds the LPN.
    assert ftl.writes_off_rotor > 0
    ftl.check_invariants()
    ftl.map.check_invariants()


def test_a_new_lpn_waits_while_every_lun_is_at_its_share():
    sim, _, ftl = make_ftl(lun_count=2)
    ftl.prefill(ftl.logical_pages)
    trimmed = next(lpn for lpn in range(ftl.logical_pages)
                   if ftl.map.lookup(lpn).lun == 0)
    moved = next(lpn for lpn in range(ftl.logical_pages)
                 if ftl.map.lookup(lpn).lun == 1)
    ftl.trim(trimmed)  # LUN 0 is one page below its share
    ftl._write_rotor = 0
    # The overwrite takes LUN 0's free page (the rotor's, both idle);
    # the new LPN then finds both LUNs at their share and waits until
    # the overwrite lands and frees its old page on LUN 1.
    landed = spawn_writers(sim, ftl, [[moved], [trimmed]])
    sim.run()
    assert [(lpn, e.lun) for lpn, e in landed] == [(moved, 0), (trimmed, 1)]
    assert ftl._room.fire_count >= 1 and ftl._room_waits == 0
    ftl.check_invariants()


# --- the meta LUN ----------------------------------------------------------


def test_the_meta_lun_gets_fewer_host_writes_on_a_persistent_ftl():
    sim, controller, ftl = make_ftl(
        lun_count=2, blocks_per_lun=10, overprovision=4,
        checkpoint_interval=16, journal_flush_records=4, meta_blocks=2)
    ftl.prefill(ftl.logical_pages // 2)
    rng = np.random.default_rng(7)
    streams = [rng.integers(0, ftl.logical_pages // 2, 60).tolist()
               for _ in range(4)]
    spawn_writers(sim, ftl, streams)
    sim.run()
    by_lun = ftl.host_writes_by_lun
    assert sum(by_lun) == ftl.host_writes == 240
    assert by_lun[0] < by_lun[1]  # LUN 0 also carries the journal
    assert ftl.persist.journal_pages_written > 0
    ftl.check_invariants()

    registry = MetricsRegistry()
    register_ftl_health_metrics(registry, ftl, prefix="s0")
    health = registry.snapshot()["collected"]["s0.ftl_health"]
    assert health["host_writes_by_lun"] == by_lun
    assert health["writes_off_rotor"] == ftl.writes_off_rotor > 0
