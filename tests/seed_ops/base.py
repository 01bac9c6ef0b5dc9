"""Shared building blocks for operations."""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.softenv.base import OperationContext
from repro.core.transaction import Transaction, TxnKind
from repro.core.ufsm.ca_writer import Latch
from repro.onfi.status import StatusRegister


def single_latch_txn(
    ctx: OperationContext,
    latches: list[Latch],
    kind: TxnKind = TxnKind.CMD_ADDR,
    chip_mask: Optional[int] = None,
    label: str = "",
) -> Transaction:
    """One transaction wrapping a single C/A Writer emission."""
    mask = chip_mask if chip_mask is not None else ctx.chip_mask
    txn = ctx.transaction(kind, label=label)
    txn.add_segment(ctx.ufsm.ca_writer.emit(latches, chip_mask=mask, label=label))
    return txn


def poll_until_ready(
    ctx: OperationContext,
    chip_mask: Optional[int] = None,
    max_polls: int = 100_000,
) -> Generator:
    """Poll READ STATUS until RDY (Algorithm 2, lines 7..9).

    Returns the final status byte.  Each iteration is a full software
    round trip — this loop is exactly what the Fig. 11 logic-analyzer
    experiment measures the period of.
    """
    from tests.seed_ops.status import read_status_op

    for _ in range(max_polls):
        status = yield from read_status_op(ctx, chip_mask=chip_mask)
        if StatusRegister.is_ready(status):
            return status
    raise RuntimeError("status poll budget exhausted — stuck LUN?")


def poll_until_array_ready(
    ctx: OperationContext,
    chip_mask: Optional[int] = None,
    max_polls: int = 100_000,
) -> Generator:
    """Poll until ARDY: cache operations' inner readiness."""
    from tests.seed_ops.status import read_status_op

    for _ in range(max_polls):
        status = yield from read_status_op(ctx, chip_mask=chip_mask)
        if StatusRegister.is_array_ready(status):
            return status
    raise RuntimeError("array-ready poll budget exhausted — stuck LUN?")
