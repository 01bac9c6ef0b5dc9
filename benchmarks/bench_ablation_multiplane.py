"""Ablation F — two writes, one tPROG; two victims, one tBERS.

A multi-plane die programs one page per plane in a single array time.
With BABOL that is a scheduling decision, not a hardware FSM: each
LUN's admission takes the first queued full-page PROGRAM on another
plane of the die and runs the two as one ``paired_program`` (the
multi-plane load/confirm sequence, one tPROG, READ STATUS ENHANCED per
page).  This bench queues two programs behind a read on one Hynix die —
on the same plane (blocks 4, 4) and on distinct planes (blocks 4, 5) —
and measures the span from their admission to the last completion.

Bound: a pair costs tPROG + 2 transfers + tDBSY plus each page's fixed
command, status and software overhead, the part of a lone program's
latency beyond tPROG + 1 transfer (measured here, with jitter off so
every tPROG is the nominal one); two programs on one plane cost 2 x
tPROG at least.

The chain case queues four such pairs (blocks 4 and 5, pages 0..3)
behind the read.  Where the die has CACHE PROGRAM the admission's
chain rule confirms each loaded pair with 0x15 and loads the next
while the array programs; the same die without it (``supports_cache``
off) pairs them only, and idles between tPROGs while each pair loads.
Bound: the chain costs at least 4 x tPROG and at most 4 x tPROG + one
pair load + 4 x a step's fixed overhead (a lone pair's span beyond
tPROG and its load).

The GC case does the same for erases: the FTL's collector reclaims two
victims on distinct planes of a die with one ``erase_pair`` (a
multi-plane ERASE, one tBERS, READ STATUS ENHANCED per block).  The
bench erases blocks 4 and 5 that way and with two ``erase_block``
calls.  Bound: the pair costs tBERS + tDBSY plus three times a lone
erase's fixed overhead (its latency beyond tBERS: one latch, one poll
and their software cost) — two latches and polls, and the status round
— and the two single erases cost 2 x tBERS at least.
"""

import dataclasses

import pytest

from repro.flash import HYNIX_V7
from repro.onfi import NVDDR2_200

from benchmarks.conftest import build_babol, print_table

VENDOR = dataclasses.replace(
    HYNIX_V7, timing=dataclasses.replace(HYNIX_V7.timing, jitter=0.0))
RUNTIMES = ("rtos", "coroutine")


def run_case(runtime: str, blocks: tuple) -> tuple:
    """Programs of ``blocks`` (consecutive pages per block) queued behind
    a read: ``(span ns, programs paired)``."""
    sim, controller = build_babol(VENDOR, 1, NVDDR2_200, runtime)
    controller.read_page(0, 1, 0, 0)  # holds the die while they queue
    pages: dict = {}
    tasks = []
    for block in blocks:
        page = pages[block] = pages.get(block, -1) + 1
        tasks.append(controller.program_page(0, block, page, 0))
    sim.run()
    assert all(task.result is True for task in tasks)
    start = min(task.admitted_at for task in tasks)
    return max(task.finished_at for task in tasks) - start, \
        controller.programs_paired


def run_all() -> dict:
    return {runtime: {name: run_case(runtime, blocks)
                      for name, blocks in (("single", (4,)),
                                           ("same plane", (4, 4)),
                                           ("two planes", (4, 5)))}
            for runtime in RUNTIMES}


def run_chain_case(runtime: str, vendor, pairs: int = 4) -> tuple:
    """``pairs`` pairs of programs queued behind a read: ``(span ns,
    pairs chained)``."""
    sim, controller = build_babol(vendor, 1, NVDDR2_200, runtime)
    controller.read_page(0, 1, 0, 0)  # holds the die while they queue
    tasks = [controller.program_page(0, block, page, 0)
             for page in range(pairs) for block in (4, 5)]
    sim.run()
    assert all(task.result is True for task in tasks)
    start = min(task.admitted_at for task in tasks)
    return max(task.finished_at for task in tasks) - start, \
        controller.programs_chained


def run_erase_case(runtime: str, paired: bool, blocks: tuple) -> int:
    """Erase ``blocks`` as one pair or one by one: the span from the
    first admission to the last completion (ns)."""
    sim, controller = build_babol(VENDOR, 1, NVDDR2_200, runtime)
    if paired:
        tasks = [controller.erase_pair(0, blocks)]
    else:
        tasks = [controller.erase_block(0, block) for block in blocks]
    sim.run()
    assert all(task.result in (True, (True,) * len(blocks))
               for task in tasks)
    start = min(task.admitted_at for task in tasks)
    return max(task.finished_at for task in tasks) - start


@pytest.mark.benchmark(group="ablation-multiplane")
def test_ablation_erase_pairing(benchmark):
    results = benchmark.pedantic(
        lambda: {runtime: {"single": run_erase_case(runtime, False, (4,)),
                           "two erases": run_erase_case(runtime, False,
                                                        (4, 5)),
                           "one pair": run_erase_case(runtime, True, (4, 5))}
                 for runtime in RUNTIMES},
        rounds=1, iterations=1)
    timing = VENDOR.timing
    print_table(
        "Ablation F (GC): two blocks on one Hynix die (us, jitter off)",
        ["runtime", "erases", "span"],
        [[runtime, name, f"{span / 1000:.1f}"]
         for runtime, cases in results.items()
         for name, span in cases.items()])

    for runtime, cases in results.items():
        overhead = cases["single"] - timing.t_bers_ns
        assert cases["two erases"] >= 2 * timing.t_bers_ns, runtime
        assert cases["one pair"] <= (timing.t_bers_ns + timing.t_dbsy_ns
                                     + 3 * overhead), (runtime, overhead)
        assert cases["one pair"] < cases["two erases"] * 0.6, runtime


@pytest.mark.benchmark(group="ablation-multiplane")
def test_ablation_plane_pairing(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    timing = VENDOR.timing
    transfer = (VENDOR.geometry.full_page_size * 1000
                // NVDDR2_200.mega_transfers)

    rows = []
    for runtime, cases in results.items():
        for name, (span, paired) in cases.items():
            rows.append([runtime, name, f"{span / 1000:.1f}", str(paired)])
    print_table(
        "Ablation F: two programs on one Hynix die (us, jitter off)",
        ["runtime", "programs", "span", "paired"], rows)

    for runtime, cases in results.items():
        single, _ = cases["single"]
        same, same_pairs = cases["same plane"]
        pair, pairs = cases["two planes"]
        overhead = single - timing.t_prog_ns - transfer
        assert same_pairs == 0 and pairs == 1, runtime
        assert same >= 2 * timing.t_prog_ns, runtime
        assert pair <= (timing.t_prog_ns + 2 * transfer + timing.t_dbsy_ns
                        + 2 * overhead), (runtime, pair, overhead)
        assert pair < same * 0.7, runtime


@pytest.mark.benchmark(group="ablation-multiplane")
def test_ablation_program_chain(benchmark):
    paired_only = dataclasses.replace(VENDOR, supports_cache=False)
    results = benchmark.pedantic(
        lambda: {runtime: {"one pair": run_case(runtime, (4, 5)),
                           "paired only": run_chain_case(runtime,
                                                         paired_only),
                           "chained": run_chain_case(runtime, VENDOR)}
                 for runtime in RUNTIMES},
        rounds=1, iterations=1)
    timing = VENDOR.timing
    load = (2 * VENDOR.geometry.full_page_size * 1000
            // NVDDR2_200.mega_transfers + timing.t_dbsy_ns)
    print_table(
        "Ablation F (chain): four pairs on one Hynix die (us, jitter off)",
        ["runtime", "programs", "span", "chained"],
        [[runtime, name, f"{span / 1000:.1f}",
          "-" if name == "one pair" else str(chained)]
         for runtime, cases in results.items()
         for name, (span, chained) in cases.items()])

    for runtime, cases in results.items():
        pair, _ = cases["one pair"]
        paired, unchained = cases["paired only"]
        chain, chained = cases["chained"]
        overhead = pair - timing.t_prog_ns - load
        assert (unchained, chained) == (0, 3), runtime
        assert chain >= 4 * timing.t_prog_ns, runtime
        assert chain <= 4 * timing.t_prog_ns + load + 4 * overhead, (
            runtime, chain, overhead)
        assert paired - chain >= 3 * load, (runtime, paired, chain)
