"""Ablation A — transaction scheduling policy.

BABOL deliberately leaves the transaction scheduler to the SSD
Architect (Section V).  This ablation quantifies the design space the
software-defined approach opens: FIFO vs. LUN round-robin vs. priority
(data-first, poll-deferring) vs. priority with poll aging, on a
saturated 8-LUN channel at both speeds.

Findings this pins down: the policy is worth a few percent at
saturation, poll deferral is mildly beneficial, and aggressive poll
aging *hurts* (promoted polls buy detections that cost more completion
round trips than they save) — evidence that policy iteration in
software is valuable, which is the programmability argument itself.
"""

import pytest

from repro.core.softenv.txn_scheduler import (
    FifoTxnScheduler,
    PriorityTxnScheduler,
    RoundRobinTxnScheduler,
)
from repro.flash import HYNIX_V7
from repro.onfi import NVDDR2_100, NVDDR2_200

from benchmarks.conftest import (
    build_babol,
    print_table,
    read_throughput_mb_s,
)

POLICIES = {
    "fifo": lambda: FifoTxnScheduler(),
    "round-robin": lambda: RoundRobinTxnScheduler(),
    "priority": lambda: PriorityTxnScheduler(),
    "priority+aging": lambda: PriorityTxnScheduler(age_threshold_ns=50_000),
}


def run_policy(policy_factory, interface) -> float:
    sim, controller = build_babol(HYNIX_V7, 8, interface, "coroutine")
    # The policy is a field of the software environment, consulted on
    # every dispatch: swapping it before the first op is the whole change.
    controller.env.txn_scheduler = policy_factory()
    return read_throughput_mb_s(sim, controller, 8)


def run_all():
    return {
        (name, iface_name): run_policy(factory, iface)
        for name, factory in POLICIES.items()
        for iface_name, iface in (("100MT/s", NVDDR2_100), ("200MT/s", NVDDR2_200))
    }


@pytest.mark.benchmark(group="ablation-txn-sched")
def test_ablation_transaction_scheduler(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [name,
         f"{results[(name, '100MT/s')]:.1f}",
         f"{results[(name, '200MT/s')]:.1f}"]
        for name in POLICIES
    ]
    print_table(
        "Ablation A: Coroutine txn scheduling policy (8 LUNs, 1 GHz, MB/s)",
        ["policy", "100MT/s", "200MT/s"], rows,
    )

    # Every policy lands in the same regime (scheduling is a few-percent
    # effect at saturation, not an order-of-magnitude one).
    for iface in ("100MT/s", "200MT/s"):
        values = [results[(name, iface)] for name in POLICIES]
        assert max(values) < min(values) * 1.15
    # Aggressive aging is not better than plain priority.
    assert (
        results[("priority+aging", "200MT/s")]
        <= results[("priority", "200MT/s")] * 1.02
    )
