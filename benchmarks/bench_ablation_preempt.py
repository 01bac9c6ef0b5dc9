"""Ablation E — suspend/resume preemption for latency-critical reads.

The erase/program-suspension literature the paper cites ([23], [54])
promises large read-tail-latency wins.  With BABOL the mechanism is two
vendor latches and the policy is admission order: an erase submitted in
the background class (``priority=2``) is suspended by a read submitted
in the host-read class (``priority=0``) — the classes the FTL gives its
own ops.  This bench quantifies what it buys: read latency
distributions for reads arriving while a 3.5 ms Hynix erase is in
flight, with and without preemption, plus the cost paid by the erase
itself.  The "blocking" policy submits the same ops in one class.
"""

import pytest

from repro.analysis import summarize_latencies
from repro.flash import HYNIX_V7
from repro.onfi import NVDDR2_200
from repro.sim import Timeout

from benchmarks.conftest import build_babol, print_table

ARRIVALS_US = [200, 900, 1700, 2500]  # read arrivals across the erase window


def run_policy(preemptive: bool):
    read_latencies = []
    erase_spans = []
    sim, controller = build_babol(HYNIX_V7, 1, NVDDR2_200, "rtos")
    erase_class, read_class = (2, 0) if preemptive else (1, 1)

    def background():
        start = sim.now
        task = controller.erase_block(0, 5, priority=erase_class)
        yield from controller.wait(task)
        erase_spans.append(sim.now - start)

    def reader(page, arrival_us):
        yield Timeout(arrival_us * 1000)
        start = sim.now
        task = controller.read_page(0, 1, page, 0, priority=read_class)
        yield from controller.wait(task)
        read_latencies.append(sim.now - start)

    sim.spawn(background())
    for page, arrival in enumerate(ARRIVALS_US):
        sim.spawn(reader(page, arrival))
    sim.run()
    suspensions = controller.luns[0].op_counts["VENDOR_SUSPEND"]
    return summarize_latencies(read_latencies), erase_spans[0], suspensions


def run_all():
    return {
        "blocking": run_policy(preemptive=False),
        "preemptive": run_policy(preemptive=True),
    }


@pytest.mark.benchmark(group="ablation-preempt")
def test_ablation_preemptive_reads(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, (stats, erase_ns, suspensions) in results.items():
        rows.append([
            name,
            f"{stats.mean_ns / 1000:.0f}",
            f"{stats.max_ns / 1000:.0f}",
            f"{erase_ns / 1000:.0f}",
            str(suspensions),
        ])
    print_table(
        "Ablation E: reads arriving during a Hynix erase (us)",
        ["policy", "read mean", "read max", "erase span", "suspends"], rows,
    )

    blocking, erase_blocking, none = results["blocking"]
    preemptive, erase_preemptive, suspended = results["preemptive"]
    assert none == 0
    assert suspended == len(ARRIVALS_US)
    # Reads queued behind the erase see multi-millisecond latency;
    # preemption brings them back to near-native read latency.
    assert preemptive.max_ns < blocking.max_ns / 3
    assert preemptive.mean_ns < blocking.mean_ns / 3
    # The erase pays for it (suspend + nested reads + resume) but is not
    # destroyed.
    assert erase_preemptive > erase_blocking
    assert erase_preemptive < erase_blocking * 2.5
