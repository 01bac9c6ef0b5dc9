"""Ablation B — status polling vs. fixed timed waits.

Algorithm 2 polls READ STATUS instead of waiting a fixed tR "because
this time is highly variable" (Section V).  The alternative is a Timer
wait sized to worst-case tR.  This ablation measures both on a
single-LUN READ stream per runtime.

Expected shape: polling wins for the RTOS runtime (fast polls track the
actual tR), while for the coroutine runtime the ~30 µs polling cycle
eats most of the benefit — polling is only as good as the poller.
"""

import pytest

from repro.core.ops import read_page_op, read_page_timed_wait_op
from repro.flash import HYNIX_V7
from repro.onfi import NVDDR2_200
from repro.onfi.geometry import PhysicalAddress

from benchmarks.conftest import build_babol, print_table

READS = 16
# Worst case tR with the vendor jitter band plus safety margin, as a
# datasheet-driven implementation would size it.
WORST_CASE_TR_NS = int(HYNIX_V7.timing.t_read_ns * (1 + HYNIX_V7.timing.jitter) * 1.05)


def mean_latency_us(runtime: str, timed: bool) -> float:
    sim, controller = build_babol(HYNIX_V7, 1, NVDDR2_200, runtime)
    total = 0
    for i in range(READS):
        start = sim.now
        if timed:
            task = controller.submit(
                read_page_timed_wait_op, 0, codec=controller.codec,
                address=PhysicalAddress(block=1, page=i), dram_address=0,
                wait_ns=WORST_CASE_TR_NS,
            )
        else:
            task = controller.submit(
                read_page_op, 0, codec=controller.codec,
                address=PhysicalAddress(block=1, page=i), dram_address=0,
            )
        controller.run_to_completion(task)
        total += sim.now - start
    return total / READS / 1000.0


def run_all():
    return {
        (runtime, variant): mean_latency_us(runtime, timed=(variant == "timed"))
        for runtime in ("rtos", "coroutine")
        for variant in ("poll", "timed")
    }


@pytest.mark.benchmark(group="ablation-polling")
def test_ablation_polling_vs_timed_wait(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for runtime in ("rtos", "coroutine"):
        poll = results[(runtime, "poll")]
        timed = results[(runtime, "timed")]
        rows.append([runtime, f"{poll:.1f}", f"{timed:.1f}",
                     f"{(timed - poll) / timed * 100:+.1f}%"])
    print_table(
        "Ablation B: READ latency, polling vs worst-case timed wait (us)",
        ["runtime", "poll (Alg. 2)", "timed wait", "polling benefit"], rows,
    )

    # RTOS polling tracks real tR closely and beats the padded wait.
    assert results[("rtos", "poll")] < results[("rtos", "timed")]
    # The coroutine's slow polling cycle erodes (or inverts) the benefit.
    rtos_benefit = results[("rtos", "timed")] - results[("rtos", "poll")]
    coro_benefit = results[("coroutine", "timed")] - results[("coroutine", "poll")]
    assert coro_benefit < rtos_benefit
