"""The journal carries only what no data page carries, on both tiers.

No bind reaches the journal and an erase record forces no journal page:
the mount rebuilds the map from the data pages' OOB records, keeping a
checkpoint's entry only where its page's OOB record still names the
same (LPN, seq).  One ordering rule stands in for what the journal no
longer says: a trim's tombstone is durable before GC erases the newest
copy it invalidated.
"""

import numpy as np
import pytest

from repro.core import BabolController, ControllerConfig
from repro.flash.errors import ErrorModelConfig
from repro.ftl import FtlConfig, PageMappedFtl
from repro.ftl.persist import REC_ERASE

from tests.helpers import TEST_PROFILE, crash_after, read_back

PAGE = TEST_PROFILE.geometry.page_size
TIERS = ["waveform", "tlm"]
CONFIG = FtlConfig(blocks_per_lun=10, overprovision_blocks=4,
                   checkpoint_interval=1000, journal_flush_records=100,
                   meta_blocks=2, gc_staging_base=48 * 1024 * 1024)


def _controllers(fidelity):
    def make(sim):
        controller = BabolController(sim, ControllerConfig(
            vendor=TEST_PROFILE, lun_count=1, runtime="rtos",
            track_data=True, seed=3, fidelity=fidelity))
        for lun in controller.luns:
            lun.array.error_model.config = ErrorModelConfig.noiseless()
        return [controller]
    return make


def _ftl(sim, controllers):
    return PageMappedFtl(sim, controllers[0], CONFIG)


def _write(ftl, controller, lpn, fill):
    controller.dram.write(0, np.full(PAGE, fill, dtype=np.uint8))
    entry = yield from ftl.write(lpn, 0)
    return entry


def _collect(ftl, block):
    """Run GC on ``block`` (closed) alone, as the collector would."""
    info = ftl._info[(0, block)]
    ftl._luns[0].closed.remove(info)
    yield from ftl._collect(info)


def _record_erases(ftl):
    """Each GC erase's issue, as ``(block, durable_trims)`` then."""
    issued = []
    stock = ftl.controller.erase_block

    def erase_block(lun, block, **kwargs):
        issued.append((block, ftl.persist.durable_trims()))
        return stock(lun, block, **kwargs)

    ftl.controller.erase_block = erase_block
    return issued


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_block_reused_before_its_erase_record_commits(fidelity):
    """A checkpoint maps X to (B, 0); GC relocates X and erases B; B
    reopens and its page 0 takes Y; the cut comes before any journal
    page after the erase.  The mount must not trust the checkpoint's
    entry for X: page 0 of B now carries Y's OOB record."""
    x, y = 0, 40

    def scenario(sim, controllers, ftl):
        controller = controllers[0]
        home = yield from _write(ftl, controller, x, 11)
        for lpn in range(1, 31):  # close X's block; its twin is active
            yield from _write(ftl, controller, lpn, lpn + 11)
        yield from ftl.persist.checkpoint()
        assert [x, 0, home.block, home.page] == \
            ftl.persist.checkpoint_state["map"][0][:4]
        yield from _collect(ftl, home.block)
        moved = ftl.map.lookup(x)
        assert moved.block != home.block
        free = ftl._luns[0].free
        free.remove(home.block)
        free.appendleft(home.block)  # the next twin the host opens
        reused = yield from _write(ftl, controller, y, 99)
        return home, moved, reused

    crashed, (home, moved, reused), mounted, controllers = crash_after(
        _controllers(fidelity), _ftl, scenario)
    assert (reused.block, reused.page) == (home.block, home.page)
    persist = crashed.persist
    assert persist.journal_pages_written == 0
    assert [REC_ERASE, 0, home.block] in persist._buffer
    assert mounted.shards[0].map.lookup(x) == moved
    assert (read_back(mounted, controllers, x) == 11).all()
    assert (read_back(mounted, controllers, y) == 99).all()


@pytest.mark.parametrize("fidelity", TIERS)
def test_a_trim_is_durable_before_gc_erases_the_copy_it_undid(fidelity):
    """X is written at v1, then v2 (on the twin block), and trimmed with
    no FLUSH.  GC takes v2's block: its erase is issued only once the
    tombstone's journal page committed, and a cut right after that
    erase remounts X unmapped — never at v1, which is still on media."""
    x = 0

    def scenario(sim, controllers, ftl):
        controller = controllers[0]
        issued = _record_erases(ftl)
        v1 = yield from _write(ftl, controller, x, 1)
        v2 = yield from _write(ftl, controller, x, 2)
        for lpn in range(1, 32):  # close both blocks
            yield from _write(ftl, controller, lpn, lpn + 11)
        ftl.trim(x)
        persist = ftl.persist
        assert persist.journal_pages_written == 0
        yield from _collect(ftl, v2.block)
        return v1, v2, issued

    crashed, (v1, v2, issued), mounted, controllers = crash_after(
        _controllers(fidelity), _ftl, scenario)
    assert v1.block != v2.block
    persist = crashed.persist
    assert persist.journal_pages_written == 1
    assert persist.erases_after_trims == 1
    ((block, durable),) = issued
    assert block == v2.block and x in durable
    # v1's page is still programmed: only the tombstone keeps it dead.
    array = controllers[0].luns[0].array
    assert v1.page in array.block(v1.block).programmed
    assert not mounted.is_mapped(x)


@pytest.mark.parametrize("fidelity", TIERS)
def test_an_erase_with_no_trimmed_page_writes_no_journal_page(fidelity):
    """The control: a victim whose pages were only overwritten erases
    at once, and neither the erase nor its record writes a journal
    page."""
    def scenario(sim, controllers, ftl):
        controller = controllers[0]
        issued = _record_erases(ftl)
        v1 = yield from _write(ftl, controller, 0, 1)
        for lpn in range(1, 31):  # close v1's block
            yield from _write(ftl, controller, lpn, lpn + 11)
        yield from _write(ftl, controller, 0, 2)
        ftl.trim(5)  # a tombstone on the twin: not v1's block's business
        yield from _collect(ftl, v1.block)
        return v1, issued

    crashed, (v1, issued), mounted, controllers = crash_after(
        _controllers(fidelity), _ftl, scenario)
    persist = crashed.persist
    assert persist.journal_pages_written == 0
    assert persist.erases_after_trims == 0
    ((block, durable),) = issued
    assert block == v1.block and 5 not in durable
    assert (read_back(mounted, controllers, 0) == 2).all()
    assert (read_back(mounted, controllers, 6) == 17).all()
