"""Ablation E — suspend/resume preemption for latency-critical reads.

The erase/program-suspension literature the paper cites ([23], [54])
promises large read-tail-latency wins.  With BABOL the mechanism is two
vendor latches and the policy is a Python class
(:class:`~repro.core.preempt.PreemptiveLunManager`); this bench
quantifies what it buys: read latency distributions for reads arriving
while a 3.5 ms Hynix erase is in flight, with and without preemption,
plus the cost paid by the erase itself.
"""

import pytest

from repro.analysis import summarize_latencies
from repro.core.preempt import PreemptiveLunManager
from repro.flash import HYNIX_V7
from repro.onfi import NVDDR2_200
from repro.sim import Timeout

from benchmarks.conftest import build_babol, print_table

ARRIVALS_US = [200, 900, 1700, 2500]  # read arrivals across the erase window


def run_policy(preemptive: bool):
    read_latencies = []
    erase_spans = []
    sim, controller = build_babol(HYNIX_V7, 1, NVDDR2_200, "rtos")
    manager = PreemptiveLunManager(controller, lun=0)

    def background():
        start = sim.now
        if preemptive:
            yield from manager.erase(5)
        else:
            task = controller.erase_block(0, 5)
            yield from controller.wait(task)
        erase_spans.append(sim.now - start)

    def reader(page, arrival_us):
        yield Timeout(arrival_us * 1000)
        start = sim.now
        if preemptive:
            yield from manager.read(1, page, 0)
        else:
            task = controller.read_page(0, 1, page, 0)
            yield from controller.wait(task)
        read_latencies.append(sim.now - start)

    sim.spawn(background())
    for page, arrival in enumerate(ARRIVALS_US):
        sim.spawn(reader(page, arrival))
    sim.run()
    return summarize_latencies(read_latencies), erase_spans[0]


def run_all():
    return {
        "blocking": run_policy(preemptive=False),
        "preemptive": run_policy(preemptive=True),
    }


@pytest.mark.benchmark(group="ablation-preempt")
def test_ablation_preemptive_reads(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, (stats, erase_ns) in results.items():
        rows.append([
            name,
            f"{stats.mean_ns / 1000:.0f}",
            f"{stats.max_ns / 1000:.0f}",
            f"{erase_ns / 1000:.0f}",
        ])
    print_table(
        "Ablation E: reads arriving during a Hynix erase (us)",
        ["policy", "read mean", "read max", "erase span"], rows,
    )

    blocking, erase_blocking = results["blocking"]
    preemptive, erase_preemptive = results["preemptive"]
    # Reads queued behind the erase see multi-millisecond latency;
    # preemption brings them back to near-native read latency.
    assert preemptive.max_ns < blocking.max_ns / 3
    assert preemptive.mean_ns < blocking.mean_ns / 3
    # The erase pays for it (suspend + nested reads + resume) but is not
    # destroyed.
    assert erase_preemptive > erase_blocking
    assert erase_preemptive < erase_blocking * 2.5
