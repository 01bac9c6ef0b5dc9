"""Multi-plane operations: one array time covers several planes.

ONFI multi-plane sequencing: each plane but the last is queued with its
queue-cycle confirm (0x32 / 0x11 / 0xD1, short tDBSY busy), the last
uses the normal confirm, and the array performs all queued planes
together.  Reads then select each plane's register with CHANGE READ
COLUMN ENHANCED (0x06 + full address + 0xE0) before transferring.
The unrolling lives in :mod:`repro.core.opir.programs`.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.core.opir.registry import run_op
from repro.core.softenv.base import OperationContext
from repro.onfi.geometry import AddressCodec, PhysicalAddress
from repro.obs.instrument import traced_op


@traced_op
def multiplane_read_op(
    ctx: OperationContext,
    codec: AddressCodec,
    addresses: Sequence[PhysicalAddress],
    dram_addresses: Sequence[int],
) -> Generator:
    """Read one page per plane in a single array time.

    Returns the DMA handles in the order of ``addresses``.
    """
    result = yield from run_op(
        ctx, "multiplane_read",
        codec=codec, addresses=tuple(addresses),
        dram_addresses=tuple(dram_addresses),
    )
    return result


@traced_op
def multiplane_program_op(
    ctx: OperationContext,
    codec: AddressCodec,
    pages: Sequence[tuple[PhysicalAddress, int]],
) -> Generator:
    """Program one page per plane in a single tPROG."""
    result = yield from run_op(
        ctx, "multiplane_program",
        codec=codec, pages=tuple(tuple(page) for page in pages),
    )
    return result


@traced_op
def paired_program_op(
    ctx: OperationContext,
    codec: AddressCodec,
    pages: Sequence[tuple[PhysicalAddress, int]],
) -> Generator:
    """Program one page per plane in a single tPROG, then read each
    page's pass/fail with READ STATUS ENHANCED: returns one bool per
    page, in the order of ``pages`` (the op a LUN's admission runs for
    two queued programs on distinct planes)."""
    result = yield from run_op(
        ctx, "paired_program",
        codec=codec, pages=tuple(tuple(page) for page in pages),
    )
    return result


@traced_op
def multiplane_erase_op(
    ctx: OperationContext,
    codec: AddressCodec,
    blocks: Sequence[int],
) -> Generator:
    """Erase one block per plane in a single tBERS."""
    result = yield from run_op(
        ctx, "multiplane_erase", codec=codec, blocks=tuple(blocks)
    )
    return result
