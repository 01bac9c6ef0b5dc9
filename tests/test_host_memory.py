"""Host memory follows the media, not the command count.

* A write payload is consumed at submit: staged into the shard's DRAM,
  then released — the completion/ack ledger keeps command metadata only.
* Stored page images and committed OOB records are read-only, so a
  media image (power cut, remount) shares them instead of copying them.
* A finished operation leaves nothing to the cycle collector: no die
  completion record, kernel event or finished process in a cycle.
* Controller DRAM (and the memory sanitizer's shadow of it) is a private
  anonymous mapping kept off transparent huge pages, so it costs host
  memory only for the pages the model writes.
"""

import gc
import re
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.diagnostics import DiagnosticReport
from repro.config import build_experiment
from repro.config.specs import (
    ExperimentSpec,
    FtlSpec,
    GeometrySpec,
    StackSpec,
    WorkloadSpec,
)
from repro.core import BabolController, ControllerConfig
from repro.dram import DramBuffer
from repro.faults.power import restore_media, snapshot_media
from repro.flash.array import FlashArray
from repro.flash.oob import OobRecord, decode_oob, encode_oob
from repro.host import ScaleCommand
from repro.host.hic import HostOpcode
from repro.onfi.geometry import PhysicalAddress
from repro.sanitize import attach_sanitizers
from repro.sim import Simulator

from tests.helpers import TEST_GEOMETRY, TEST_PROFILE

# ---------------------------------------------------------------------------
# The payload is consumed at submit
# ---------------------------------------------------------------------------


def small_experiment():
    spec = ExperimentSpec(
        stack=StackSpec(
            channels=2, luns_per_channel=2, fidelity="tlm", track_data=True,
            noiseless=True, factory_bad_rate=0.0,
            geometry=GeometrySpec(page_size=2048, spare_size=64,
                                  pages_per_block=16, blocks_per_plane=16,
                                  planes=2),
            ftl=FtlSpec(blocks_per_lun=10, overprovision_blocks=4,
                        prefill_pages=0)),
        workload=WorkloadSpec(mix="write", queue_depth=4, doorbell_batch=1),
    )
    return build_experiment(spec, auto_dram=True)


def payload(lpn: int, nbytes: int) -> np.ndarray:
    return np.full(nbytes, (lpn * 37 + 11) % 251, dtype=np.uint8)


def test_a_write_payload_is_released_once_submit_returns():
    built = small_experiment()
    engine, page = built.engine, built.ftl.page_size
    commands, refs = [], []
    for lpn in range(4):  # one full queue pair per channel, no blocking
        data = payload(lpn, page)
        refs.append(weakref.ref(data))
        command = ScaleCommand(opcode=HostOpcode.WRITE, lpn=lpn, payload=data)
        del data
        engine.submit(command)
        commands.append(command)
        # Consumed: nothing holds the host buffer, the bytes are in DRAM.
        assert command.payload is None
        assert refs[-1]() is None
        dram = engine.shard(command.channel).controller.dram
        assert np.array_equal(dram.read(command.dram_address, page),
                              payload(lpn, page))
    built.sim.run_process(engine.drain())
    assert sorted(c.cid for p in engine.pairs for c in p.completions) == \
        [c.cid for c in commands]
    # ... and the media holds what the host wrote.
    for command in commands:
        built.sim.run_process(built.ftl.read(command.lpn, 0))
        dram = engine.shard(command.channel).controller.dram
        assert np.array_equal(dram.read(0, page), payload(command.lpn, page))


# ---------------------------------------------------------------------------
# Stored pages are read-only and shared by media images
# ---------------------------------------------------------------------------


def programmed_array() -> FlashArray:
    array = FlashArray(TEST_GEOMETRY, seed=3)
    for page in range(3):
        spare = encode_oob(OobRecord(kind=1, lpn=page, seq=page + 1),
                           TEST_GEOMETRY.spare_size)
        array.stage_oob(2, page, spare)
        array.program(PhysicalAddress(block=2, page=page),
                      np.full(TEST_GEOMETRY.page_size, page, dtype=np.uint8))
    return array


def test_stored_pages_and_oob_records_are_read_only():
    array = programmed_array()
    array.power_fail_ns = 10
    array.program(PhysicalAddress(block=3, page=0),
                  np.zeros(16, dtype=np.uint8), now_ns=20, begun_ns=5)
    block = array.block(2)
    stored = [block.pages[0], block.oob[0], array.read_oob(2, 0),
              array.block(3).pages[0]]  # ... the last one a torn page
    assert 0 in array.block(3).torn
    for image in stored:
        with pytest.raises(ValueError, match="read-only"):
            image[0] = 0x42
    # Readers get their own writable copies.
    address = PhysicalAddress(block=2, page=0)
    for copy in (array.load_page(address), array.pristine_page(address)):
        assert copy is not block.pages[0]
        copy[0] = 0x42
    assert block.pages[0][0] == 0


def test_the_array_keeps_its_own_copy_of_a_staged_record():
    array = FlashArray(TEST_GEOMETRY, seed=3)
    spare = encode_oob(OobRecord(kind=1, lpn=7, seq=1),
                       TEST_GEOMETRY.spare_size)
    array.stage_oob(1, 0, spare)
    spare[:] = 0  # the caller's buffer stays the caller's
    array.program(PhysicalAddress(block=1, page=0),
                  np.zeros(16, dtype=np.uint8))
    assert decode_oob(array.read_oob(1, 0)).lpn == 7


def test_a_media_image_shares_the_stored_pages():
    array = programmed_array()
    image = array.media_image()
    pages = image["blocks"][2]["pages"]
    oob = image["blocks"][2]["oob"]
    block = array.block(2)
    assert all(pages[p] is block.pages[p] for p in range(3))
    assert all(oob[p] is block.oob[p] for p in range(3))

    restored = FlashArray(TEST_GEOMETRY, seed=3)
    restored.restore_media(image)
    again = restored.block(2)
    assert all(again.pages[p] is pages[p] for p in range(3))
    assert all(again.oob[p] is oob[p] for p in range(3))
    # The containers are not shared: erasing the restored block, then
    # programming it again, leaves the image (and the source) intact.
    assert restored.erase(2)
    restored.program(PhysicalAddress(block=2, page=0),
                     np.full(TEST_GEOMETRY.page_size, 9, dtype=np.uint8))
    assert sorted(pages) == [0, 1, 2] and sorted(oob) == [0, 1, 2]
    assert pages[0][0] == 0 and block.pages[0] is pages[0]
    assert image["blocks"][2]["programmed"] == {0, 1, 2}


def test_a_remount_transplant_shares_pages_across_controllers():
    sims = [Simulator(), Simulator()]
    controllers = [BabolController(sim, ControllerConfig(
        vendor=TEST_PROFILE, lun_count=1, runtime="rtos", seed=4))
        for sim in sims]
    source = controllers[0]
    source.dram.write(0, np.full(TEST_GEOMETRY.full_page_size, 0x3C,
                                 dtype=np.uint8))
    assert source.run_to_completion(source.program_page(0, 1, 0, 0))
    restore_media(controllers[1:], snapshot_media(controllers[:1]))
    assert controllers[1].luns[0].array.block(1).pages[0] is \
        source.luns[0].array.block(1).pages[0]


# ---------------------------------------------------------------------------
# No per-op reference cycles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fidelity", ["waveform", "tlm"])
def test_finished_ops_leave_nothing_to_the_cycle_collector(fidelity):
    """At ea54689 every fired die completion left a record <-> event <->
    bound-method cycle (~4 unreachable objects per op), and every exit of
    a TLM template runner a finished process <-> ``_resume`` cycle."""
    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        controller = BabolController(sim, ControllerConfig(
            vendor=TEST_PROFILE, lun_count=2, runtime="rtos",
            fidelity=fidelity, seed=6))
        page = TEST_GEOMETRY.full_page_size
        controller.dram.write(0, np.full(page, 0x6D, dtype=np.uint8))
        for i in range(200):
            # Per LUN and block: 8 programs, 11 reads back, one erase.
            lun, step = i % 2, (i // 2) % 20
            block = 1 + i // 40
            if step < 8:
                task = controller.program_page(lun, block, step, 0)
            elif step < 19:
                task = controller.read_page(lun, block, step % 8, page)
            else:
                task = controller.erase_block(lun, block)
            controller.run_to_completion(task)
        if fidelity == "tlm":
            assert controller.fast_ops.ops_planned == 200
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        unreachable = {type(obj).__name__ for obj in gc.garbage}
        assert not unreachable & {"_PendingCompletion", "Event", "Process"}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


# ---------------------------------------------------------------------------
# DRAM costs host memory only where it is written
# ---------------------------------------------------------------------------

HUGE_PAGE = 2 << 20
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads /proc/self/smaps")


def smaps_entry(address: int) -> dict:
    """The ``/proc/self/smaps`` fields of the mapping holding ``address``."""
    entry = None
    with open("/proc/self/smaps", encoding="utf-8", errors="replace") as smaps:
        for line in smaps:
            span = re.match(r"([0-9a-f]+)-([0-9a-f]+) ", line)
            if span:
                if entry is not None:
                    break
                if int(span[1], 16) <= address < int(span[2], 16):
                    entry = {}
            elif entry is not None:
                key, _, value = line.partition(":")
                entry[key] = value.strip()
    assert entry is not None, f"no mapping holds {address:#x}"
    return entry


def stock_regions() -> dict:
    """A stock-sized DRAM buffer's storage and its sanitizer shadow."""
    dram = DramBuffer()
    attach_sanitizers(SimpleNamespace(dram=dram), "memory",
                      DiagnosticReport())
    return {"dram": dram.data, "shadow": dram._sanitizer._written}


def test_a_fresh_dram_buffer_reads_as_zeros():
    for array in stock_regions().values():
        assert array.flags.writeable and not array.any()


def test_dram_write_read_and_view_round_trip():
    dram = DramBuffer()
    data = np.arange(256, dtype=np.uint8)
    dram.write(dram.size - 256, data)
    assert np.array_equal(dram.read(dram.size - 256, 256), data)
    dram.view(4096, 3)[:] = (1, 2, 3)
    assert dram.read(4095, 5).tolist() == [0, 1, 2, 3, 0]


@linux_only
@pytest.mark.parametrize("region", ["dram", "shadow"])
def test_dram_is_a_private_mapping_without_huge_pages(region):
    """``nh`` (MADV_NOHUGEPAGE) and no ``sh``: ``mmap.mmap(-1, n)`` alone
    is MAP_SHARED, whose untouched pages cost memory when read."""
    array = stock_regions()[region]
    flags = smaps_entry(array.ctypes.data)["VmFlags"].split()
    assert "nh" in flags and "sh" not in flags


@linux_only
@pytest.mark.parametrize("region", ["dram", "shadow"])
def test_a_written_huge_page_span_stays_in_small_pages(region):
    array = stock_regions()[region]
    start = -array.ctypes.data % HUGE_PAGE
    array[start:start + HUGE_PAGE] = 1
    assert smaps_entry(array.ctypes.data + start)["AnonHugePages"] == "0 kB"
