"""Fig. 12 — end-to-end fio READ bandwidth in a full SSD.

The paper replaces the Cosmos+ OpenSSD's storage controller with BABOL
and runs fio sequential/random READ workloads while varying the channel
"ways" (LUNs) from 1 to 8 on Hynix parts with a 1 GHz core.  Headline
numbers at 8 ways: BABOL-RTOS within 2% (seq) / 3% (random) of the
stock controller, BABOL-Coroutine within 8% / 9%.

Here the stock Cosmos+ controller is the asynchronous hardware
baseline; all three controllers run under an identical FTL + host
stack, prefilled with data, driven by the fio-like generator.
"""

import pytest

from repro.flash import HYNIX_V7
from repro.ftl import FtlConfig, PageMappedFtl
from repro.host import FioJob, HostInterface, run_fio
from repro.onfi import NVDDR2_200

from benchmarks.conftest import build_babol, build_hw, print_table

WAYS = [1, 2, 4, 8]
IODEPTH = 16


def build_stack(kind: str, ways: int):
    if kind == "cosmos":
        sim, controller = build_hw(HYNIX_V7, ways, NVDDR2_200, kind="async")
    else:
        sim, controller = build_babol(HYNIX_V7, ways, NVDDR2_200, kind)
    ftl = PageMappedFtl(
        sim, controller,
        FtlConfig(blocks_per_lun=8, overprovision_blocks=2,
                  gc_staging_base=48 * 1024 * 1024),
    )
    hic = HostInterface(sim, ftl, iodepth=IODEPTH)
    return sim, controller, ftl, hic


def bandwidth(kind: str, ways: int, pattern: str) -> float:
    sim, controller, ftl, hic = build_stack(kind, ways)
    working_set = min(ftl.logical_pages, 64 * ways)
    ftl.prefill(working_set)
    job = FioJob(pattern=pattern, io_count=24 * ways + 16, iodepth=IODEPTH, seed=9)
    result = run_fio(sim, hic, job)
    return result.bandwidth_mb_s


def run_experiment():
    data = {}
    for pattern in ("sequential", "random"):
        for kind in ("cosmos", "rtos", "coroutine"):
            for ways in WAYS:
                data[(pattern, kind, ways)] = bandwidth(kind, ways, pattern)
    return data


@pytest.mark.benchmark(group="fig12")
def test_fig12_end_to_end(benchmark):
    data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    for pattern in ("sequential", "random"):
        rows = []
        for ways in WAYS:
            base = data[(pattern, "cosmos", ways)]
            rtos = data[(pattern, "rtos", ways)]
            coro = data[(pattern, "coroutine", ways)]
            rows.append([
                str(ways), f"{base:.1f}", f"{rtos:.1f}", f"{coro:.1f}",
                f"{(base - rtos) / base * 100:+.1f}%",
                f"{(base - coro) / base * 100:+.1f}%",
            ])
        print_table(
            f"Fig. 12: fio {pattern} READ bandwidth (MB/s), Hynix, 1 GHz",
            ["ways", "Cosmos+ (async HW)", "BABOL-RTOS", "BABOL-Coro",
             "RTOS deficit", "Coro deficit"],
            rows,
        )

    for pattern in ("sequential", "random"):
        # Scaling: every controller gains bandwidth with more ways.
        for kind in ("cosmos", "rtos", "coroutine"):
            assert (
                data[(pattern, kind, 8)] > data[(pattern, kind, 1)] * 1.5
            ), f"{kind} does not scale with ways ({pattern})"
        # The paper's headline: at 8 ways the busy channel hides the
        # software latency — RTOS within a few percent, Coro a bit more.
        base = data[(pattern, "cosmos", 8)]
        rtos_deficit = (base - data[(pattern, "rtos", 8)]) / base
        coro_deficit = (base - data[(pattern, "coroutine", 8)]) / base
        assert rtos_deficit < 0.05, f"RTOS deficit {rtos_deficit:.1%} ({pattern})"
        assert coro_deficit < 0.15, f"Coro deficit {coro_deficit:.1%} ({pattern})"
        # And the gap shrinks as the channel gets busier.
        coro_deficit_1way = (
            data[(pattern, "cosmos", 1)] - data[(pattern, "coroutine", 1)]
        ) / data[(pattern, "cosmos", 1)]
        assert coro_deficit < coro_deficit_1way

    benchmark.extra_info["seq_rtos_deficit_pct"] = round(
        (data[("sequential", "cosmos", 8)] - data[("sequential", "rtos", 8)])
        / data[("sequential", "cosmos", 8)] * 100, 1,
    )
