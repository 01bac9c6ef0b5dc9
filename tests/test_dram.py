"""Unit tests for the DRAM buffer and DMA handles."""

import numpy as np
import pytest

from repro.dram import AllocationError, DmaHandle, DramBuffer


def test_alloc_is_bump_pointer_then_reuse():
    dram = DramBuffer(1024)
    a = dram.alloc(100)
    b = dram.alloc(100)
    assert a != b
    dram.free(a, 100)
    c = dram.alloc(80)  # fits in the freed region
    assert c == a


def test_alloc_exhaustion_raises():
    dram = DramBuffer(128)
    dram.alloc(100)
    with pytest.raises(AllocationError):
        dram.alloc(100)


def test_alloc_zero_rejected():
    with pytest.raises(AllocationError):
        DramBuffer(128).alloc(0)


def test_free_out_of_bounds_rejected():
    dram = DramBuffer(128)
    with pytest.raises(AllocationError):
        dram.free(120, 100)


def test_write_read_roundtrip():
    dram = DramBuffer(4096)
    data = np.arange(256, dtype=np.uint8)
    dram.write(100, data)
    np.testing.assert_array_equal(dram.read(100, 256), data)


def test_out_of_bounds_access_rejected():
    dram = DramBuffer(128)
    with pytest.raises(AllocationError):
        dram.read(100, 64)
    with pytest.raises(AllocationError):
        dram.write(-1, np.zeros(4, dtype=np.uint8))


def test_view_is_zero_copy():
    dram = DramBuffer(256)
    view = dram.view(0, 16)
    view[:] = 7
    assert (dram.read(0, 16) == 7).all()


def test_dma_handle_deliver_writes_dram():
    dram = DramBuffer(4096)
    handle = DmaHandle(dram, 512, 64)
    payload = np.full(64, 0x3C, dtype=np.uint8)
    handle.deliver(payload)
    np.testing.assert_array_equal(dram.read(512, 64), payload)
    assert handle.bytes_moved == 64


def test_dma_handle_deliver_truncates_to_window():
    handle = DmaHandle(None, 0, 16)
    handle.deliver(np.arange(32, dtype=np.uint8))
    assert len(handle.delivered) == 16


def test_dma_handle_fetch_reads_dram():
    dram = DramBuffer(4096)
    dram.write(0, np.arange(32, dtype=np.uint8))
    handle = DmaHandle(dram, 0, 32)
    np.testing.assert_array_equal(handle.fetch(32), np.arange(32, dtype=np.uint8))


def test_dma_handle_without_dram_fetches_zeros():
    handle = DmaHandle(None, 0, 8)
    assert (handle.fetch(8) == 0).all()


def test_corrupt_seed_garbles_delivery_deterministically():
    h1 = DmaHandle(None, 0, 64)
    h2 = DmaHandle(None, 0, 64)
    h1.corrupt_seed = 42
    h2.corrupt_seed = 42
    clean = np.zeros(64, dtype=np.uint8)
    h1.deliver(clean.copy())
    h2.deliver(clean.copy())
    assert (h1.delivered != 0).any()
    np.testing.assert_array_equal(h1.delivered, h2.delivered)
