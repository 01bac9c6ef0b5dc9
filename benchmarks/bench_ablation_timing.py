"""Ablation C — µFSM-fused preambles vs. per-latch segments.

Section IV-B assigns intra-segment timing to the µFSMs.  A naive
decomposition would emit one channel segment per latch cycle (one per
command byte, one per address phase), each paying its own chip-enable
setup/hold and arbitration.  The C/A Writer instead fuses a whole latch
vector into one segment.  This ablation measures what that fusion is
worth on the wire.
"""

import pytest

from repro.core.ops.base import poll_until_ready
from repro.core.transaction import TxnKind
from repro.core.ufsm.ca_writer import addr, cmd
from repro.flash import HYNIX_V7
from repro.onfi import NVDDR2_200
from repro.onfi.commands import CMD
from repro.onfi.geometry import PhysicalAddress

from benchmarks.conftest import build_babol, print_table

READS = 12


def fused_read_op(ctx, codec, address, dram_address):
    """Algorithm 2 as shipped: one fused preamble segment."""
    from repro.core.ops import read_page_op

    result = yield from read_page_op(ctx, codec=codec, address=address,
                                     dram_address=dram_address)
    return result


def per_latch_read_op(ctx, codec, address, dram_address):
    """The naive variant: every latch is its own segment/transaction."""
    bank = ctx.ufsm
    for latches in ([cmd(CMD.READ_1ST)], [addr(codec.encode(address))],
                    [cmd(CMD.READ_2ND)]):
        txn = ctx.transaction(TxnKind.CMD_ADDR, label="split-preamble")
        txn.add_segment(bank.ca_writer.emit(latches, chip_mask=ctx.chip_mask))
        yield from ctx.add_transaction(txn)
    yield from poll_until_ready(ctx)
    nbytes = codec.geometry.full_page_size
    handle = ctx.packetizer.from_flash(dram_address, nbytes)
    for latches in ([cmd(CMD.CHANGE_READ_COL_1ST)],
                    [addr(codec.encode_column(address.column))],
                    [cmd(CMD.CHANGE_READ_COL_2ND)]):
        txn = ctx.transaction(TxnKind.CMD_ADDR, label="split-ccol")
        txn.add_segment(bank.ca_writer.emit(latches, chip_mask=ctx.chip_mask))
        yield from ctx.add_transaction(txn)
    txn = ctx.transaction(TxnKind.DATA_OUT, label="split-transfer")
    txn.add_segment(bank.timer.emit(bank.ca_writer.timing.tCCS,
                                    chip_mask=ctx.chip_mask))
    txn.add_segment(bank.data_reader.emit(nbytes, handle, chip_mask=ctx.chip_mask))
    yield from ctx.add_transaction(txn)
    return 0x40, handle


def mean_latency_us(op, runtime: str = "rtos") -> float:
    sim, controller = build_babol(HYNIX_V7, 1, NVDDR2_200, runtime)
    total = 0
    for i in range(READS):
        start = sim.now
        task = controller.submit(
            op, 0, codec=controller.codec,
            address=PhysicalAddress(block=1, page=i), dram_address=0,
        )
        controller.run_to_completion(task)
        total += sim.now - start
    return total / READS / 1000.0


def run_all():
    return {
        "fused": mean_latency_us(fused_read_op),
        "per-latch": mean_latency_us(per_latch_read_op),
    }


@pytest.mark.benchmark(group="ablation-timing")
def test_ablation_fused_vs_per_latch_segments(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    penalty = (results["per-latch"] - results["fused"]) / results["fused"] * 100
    print_table(
        "Ablation C: READ latency, fused preamble vs per-latch segments",
        ["variant", "mean latency (us)"],
        [["fused (C/A Writer)", f"{results['fused']:.1f}"],
         ["per-latch segments", f"{results['per-latch']:.1f}"],
         ["penalty", f"{penalty:+.1f}%"]],
    )
    # Splitting the preamble costs real time: extra CE windows plus a
    # software round trip per latch.
    assert results["per-latch"] > results["fused"] * 1.02
