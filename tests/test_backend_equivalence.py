"""Cross-tier equivalence: what the TLM tier runs on the generic
runtime is the waveform run, and what it runs as a template keeps the
data, status and die state of that run.

The tiers differ in one setting, ``fidelity``
(``repro.config.specs.FIDELITIES``): "tlm" adds the template runner
(``repro.core.fastops``) for untraced data-plane wrappers and runs
every other op on the segment-accurate path.  Under test:

* byte-identical data payloads and status bytes,
* identical die state (op counts, array counters, programmed pages),
* 0 ns total-latency drift for ops submitted without ``_plan``,

over the full op library, on both software runtimes, plus both
hardware baseline controllers; the templated wrappers' own timeline is
pinned to a recording.  ``READ_STATUS`` counts stay out of the
die-state comparison: a template waits for the die's busy window to
end and then polls once, where the runtime polls on its round-trip
grid.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

import repro.core.ops as op_library
from repro.baselines import AsyncHwController, SyncHwController
from repro.config import FtlSpec, StackSpec, build_stack
from repro.core import BabolController, ControllerConfig
from repro.core.ops import (
    cache_program_op,
    cache_read_sequential_op,
    erase_block_op,
    erase_with_preemptive_read_op,
    full_page_read_op,
    gang_read_op,
    get_features_op,
    multiplane_erase_op,
    multiplane_program_op,
    paired_erase_op,
    paired_program_op,
    multiplane_read_op,
    partial_program_op,
    partial_read_op,
    program_chain_end_op,
    program_chain_step_op,
    program_page_op,
    pslc_erase_op,
    pslc_program_op,
    pslc_read_op,
    read_id_op,
    read_page_op,
    read_page_timed_wait_op,
    read_parameter_page_op,
    read_status_enhanced_op,
    read_status_op,
    read_with_retry_op,
    reset_op,
    set_features_op,
    suspend_op,
    resume_op,
)
from repro.dram import DmaHandle
from repro.flash.vendors import VENDOR_PROFILES
from repro.host import measure_read_throughput
from repro.onfi.features import FeatureAddress
from repro.onfi.geometry import PhysicalAddress
from repro.sim import Simulator, Timeout

from tests.helpers import TEST_PROFILE

PAGE = TEST_PROFILE.geometry.full_page_size
ADDR = PhysicalAddress(block=2, page=0)
ADDR_P1 = PhysicalAddress(block=3, page=0)
DRAM_COMPARE_BYTES = 8 * PAGE    # covers every dram_address used below

# One entry per library op: (name, op, kwargs-builder).  Covers every
# export of ``repro.core.ops`` (asserted below, so a new op cannot be
# added without joining the harness).
MATRIX = [
    ("read_status", read_status_op, lambda c: {}),
    ("read_status_enhanced", read_status_enhanced_op,
     lambda c: {"row_address_bytes": c.codec.encode_row(
         c.codec.row_address(ADDR))}),
    ("read_page", read_page_op,
     lambda c: {"codec": c.codec, "address": ADDR, "dram_address": 0}),
    ("full_page_read", full_page_read_op,
     lambda c: {"codec": c.codec, "address": ADDR, "dram_address": 0}),
    ("partial_read", partial_read_op,
     lambda c: {"codec": c.codec,
                "address": PhysicalAddress(block=2, page=0, column=256),
                "dram_address": 0, "length": 128}),
    ("timed_wait_read", read_page_timed_wait_op,
     lambda c: {"codec": c.codec, "address": ADDR, "dram_address": 0,
                "wait_ns": int(c.config.vendor.timing.t_read_ns * 1.3)}),
    ("program_page", program_page_op,
     lambda c: {"codec": c.codec,
                "address": PhysicalAddress(block=4, page=0),
                "dram_address": 0}),
    ("partial_program", partial_program_op,
     lambda c: {"codec": c.codec,
                "address": PhysicalAddress(block=4, page=1),
                "chunks": [(0, 0, 128), (512, 0, 128)]}),
    ("erase_block", erase_block_op,
     lambda c: {"codec": c.codec, "block": 5}),
    ("pslc_read", pslc_read_op,
     lambda c: {"codec": c.codec, "address": ADDR, "dram_address": 0}),
    ("pslc_program", pslc_program_op,
     lambda c: {"codec": c.codec,
                "address": PhysicalAddress(block=6, page=0),
                "dram_address": 0}),
    ("pslc_erase", pslc_erase_op,
     lambda c: {"codec": c.codec, "block": 7}),
    ("set_features", set_features_op,
     lambda c: {"feature_address": int(FeatureAddress.IO_DRIVE_STRENGTH),
                "params": (1, 0, 0, 0)}),
    ("get_features", get_features_op,
     lambda c: {"feature_address": int(FeatureAddress.IO_DRIVE_STRENGTH)}),
    ("read_id", read_id_op, lambda c: {}),
    ("read_parameter_page", read_parameter_page_op,
     lambda c: {"param_busy_ns": c.config.vendor.timing.t_param_read_ns}),
    ("reset", reset_op, lambda c: {}),
    ("cache_read", cache_read_sequential_op,
     lambda c: {"codec": c.codec, "start": PhysicalAddress(block=8, page=0),
                "dram_addresses": [0, PAGE]}),
    ("cache_program", cache_program_op,
     lambda c: {"codec": c.codec,
                "pages": [(PhysicalAddress(block=9, page=0), 0),
                          (PhysicalAddress(block=9, page=1), 0)]}),
    ("multiplane_read", multiplane_read_op,
     lambda c: {"codec": c.codec, "addresses": [ADDR, ADDR_P1],
                "dram_addresses": [0, PAGE]}),
    ("multiplane_program", multiplane_program_op,
     lambda c: {"codec": c.codec,
                "pages": [(PhysicalAddress(block=10, page=0), 0),
                          (PhysicalAddress(block=11, page=0), 0)]}),
    ("paired_program", paired_program_op,
     lambda c: {"codec": c.codec,
                "pages": [(PhysicalAddress(block=12, page=0), 0),
                          (PhysicalAddress(block=13, page=0), PAGE)]}),
    # a program chain's step and end continue its first step: the
    # harness runs each after one (probes below).
    ("program_chain_step", program_chain_step_op, None),
    ("program_chain_end", program_chain_end_op, None),
    ("multiplane_erase", multiplane_erase_op,
     lambda c: {"codec": c.codec, "blocks": [10, 11]}),
    ("paired_erase", paired_erase_op,
     lambda c: {"codec": c.codec, "blocks": [12, 13]}),
    ("gang_read", gang_read_op,
     lambda c: {"codec": c.codec, "address": ADDR, "positions": [0, 1],
                "dram_address": 0}),
    ("read_with_retry", read_with_retry_op,
     lambda c: {"codec": c.codec, "address": ADDR, "dram_address": 0,
                "validate": lambda handle: True}),
    # suspend/resume need an in-flight suspendable operation; the
    # harness probes them mid-erase (wrappers defined below).
    ("suspend", suspend_op, None),
    ("resume", resume_op, None),
    ("erase_with_preemptive_read", erase_with_preemptive_read_op,
     lambda c: {"codec": c.codec, "erase_block": 5, "read_address": ADDR,
                "dram_address": 0,
                "suspend_after_ns":
                    c.config.vendor.timing.t_bers_ns // 4}),
]


def test_matrix_covers_the_whole_op_library():
    library = {n for n in dir(op_library) if n.endswith("_op")}
    covered = {op.__name__ for _, op, _ in MATRIX}
    assert covered == library


def _make(fidelity: str, runtime: str,
          vendor=TEST_PROFILE) -> tuple[Simulator, BabolController]:
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=vendor, lun_count=2, runtime=runtime,
                         track_data=True, seed=6, fidelity=fidelity),
    )
    return sim, controller


def _normalize(value):
    """Make op results comparable across controller instances."""
    if isinstance(value, DmaHandle):
        delivered = (None if value.delivered is None
                     else value.delivered.tobytes())
        return ("dma", value.address, value.nbytes, value.bytes_moved,
                delivered)
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(v) for v in value)
    if isinstance(value, np.ndarray):
        return ("array", value.tobytes())
    if isinstance(value, np.generic):
        return value.item()
    return value


def _snapshot(sim: Simulator, controller: BabolController) -> dict:
    ops = {}
    for lun in controller.luns:
        for name, count in lun.op_counts.items():
            if name != "READ_STATUS":   # a template polls once per wait
                ops[(lun.position, name)] = count
    return {
        "now": sim.now,
        "ops": ops,
        "array": [(lun.array.reads, lun.array.programs, lun.array.erases)
                  for lun in controller.luns],
        "status": [lun.status.value() for lun in controller.luns],
        "dram": controller.dram.read(0, DRAM_COMPARE_BYTES).tobytes(),
    }


def _start_erase(ctx, codec, block):
    """Put an erase on the array without waiting for it (the shape of
    ``erase_with_preemptive_read``'s opening move)."""
    from repro.core.transaction import TxnKind
    from repro.core.ufsm.ca_writer import addr, cmd
    from repro.onfi.commands import CMD

    row = codec.row_address(PhysicalAddress(block=block, page=0))
    start = ctx.transaction(TxnKind.CMD_ADDR, label="erase-start")
    start.add_segment(ctx.ufsm.ca_writer.emit(
        [cmd(CMD.ERASE_1ST), addr(codec.encode_row(row)),
         cmd(CMD.ERASE_2ND)],
        chip_mask=ctx.chip_mask,
    ))
    yield from ctx.add_transaction(start)


def _suspend_probe_op(ctx, codec):
    """Exercise ``suspend_op`` mid-erase; leaves the die suspended."""
    yield from _start_erase(ctx, codec, 5)
    yield from ctx.sleep(TEST_PROFILE.timing.t_bers_ns // 4)
    status = yield from suspend_op(ctx)
    return status


def _resume_probe_op(ctx, codec):
    """Exercise ``resume_op`` after a suspend; completes the erase."""
    from repro.core.ops.base import poll_until_ready

    yield from _start_erase(ctx, codec, 5)
    yield from ctx.sleep(TEST_PROFILE.timing.t_bers_ns // 4)
    yield from suspend_op(ctx)
    yield from resume_op(ctx)
    status = yield from poll_until_ready(ctx)
    return status


_CHAIN = [[(PhysicalAddress(block=14, page=page), 0),
           (PhysicalAddress(block=15, page=page), PAGE)] for page in (0, 1)]


def _chain_step_probe_op(ctx, codec):
    """Exercise ``program_chain_step_op`` in a chain of two pairs:
    first step, the step, the end."""
    yield from program_chain_step_op(ctx, codec=codec, pages=_CHAIN[0])
    passed = yield from program_chain_step_op(
        ctx, codec=codec, pages=_CHAIN[1], finished=_CHAIN[0])
    passed += yield from program_chain_end_op(ctx, codec=codec,
                                              pages=_CHAIN[1])
    return passed


def _chain_end_probe_op(ctx, codec):
    """Exercise ``program_chain_end_op`` after the chain's first step."""
    yield from program_chain_step_op(ctx, codec=codec, pages=_CHAIN[0])
    passed = yield from program_chain_end_op(ctx, codec=codec,
                                             pages=_CHAIN[0])
    return passed


_PROBES = {
    "suspend": (_suspend_probe_op, lambda c: {"codec": c.codec}),
    "resume": (_resume_probe_op, lambda c: {"codec": c.codec}),
    "program_chain_step": (_chain_step_probe_op,
                           lambda c: {"codec": c.codec}),
    "program_chain_end": (_chain_end_probe_op, lambda c: {"codec": c.codec}),
}


@pytest.mark.parametrize("runtime", ["rtos", "coroutine"])
@pytest.mark.parametrize("name,op,build_kwargs",
                         MATRIX, ids=[m[0] for m in MATRIX])
def test_tlm_matches_waveform_per_op(runtime, name, op, build_kwargs):
    if name in _PROBES:
        op, build_kwargs = _PROBES[name]
    outcomes = {}
    for fidelity in ("waveform", "tlm"):
        sim, controller = _make(fidelity, runtime)
        task = controller.submit(op, 0, **build_kwargs(controller))
        result = controller.run_to_completion(task)
        outcomes[fidelity] = (_normalize(result), _snapshot(sim, controller))

    wave_result, wave_state = outcomes["waveform"]
    tlm_result, tlm_state = outcomes["tlm"]
    assert tlm_result == wave_result, f"{name}: op results diverge"
    assert tlm_state["now"] == wave_state["now"], (
        f"{name}: latency drift "
        f"{tlm_state['now'] - wave_state['now']} ns"
    )
    assert tlm_state["dram"] == wave_state["dram"], f"{name}: DRAM differs"
    for key in ("ops", "array", "status"):
        assert tlm_state[key] == wave_state[key], f"{name}: {key} differ"


@pytest.mark.parametrize("kind", ["sync", "async"])
def test_tlm_matches_waveform_on_hw_baselines(kind):
    cls = SyncHwController if kind == "sync" else AsyncHwController
    outcomes = {}
    for fidelity in ("waveform", "tlm"):
        sim = Simulator()
        controller = cls(sim, vendor=TEST_PROFILE, lun_count=2,
                         track_data=True, seed=6, fidelity=fidelity)
        result = measure_read_throughput(sim, controller, 2,
                                         reads_per_lun=6, warmup_per_lun=1)
        outcomes[fidelity] = (
            sim.now,
            result.elapsed_ns,
            result.payload_bytes,
            controller.dram.read(0, DRAM_COMPARE_BYTES).tobytes(),
        )
    assert outcomes["tlm"] == outcomes["waveform"]


def _generic_mix(fidelity: str) -> dict:
    """No op submitted with ``_plan``: LUN 0 erases block 3 and a class-0
    read arriving mid-erase suspends it, while LUN 1 runs four
    programs beside them on the shared channel."""
    sim, controller = _make(fidelity, "rtos")
    codec = controller.codec
    tasks = [controller.submit(erase_block_op, 0, codec=codec, block=3)]
    tasks += [controller.submit(
        program_page_op, 1, codec=codec,
        address=PhysicalAddress(block=4, page=page), dram_address=0)
        for page in range(4)]

    def host_read():
        yield Timeout(TEST_PROFILE.timing.t_bers_ns // 4)
        tasks.append(controller.submit(
            full_page_read_op, 0, priority=0, codec=codec, address=ADDR,
            dram_address=PAGE))

    sim.spawn(host_read(), name="host-read")
    sim.run()
    stats = controller.channel.stats
    return {
        "finished_at": [task.finished_at for task in tasks],
        "errors": [task.error for task in tasks],
        "channel": (stats.segments, stats.busy_ns, dict(stats.per_kind)),
        "op_counts": [dict(lun.op_counts) for lun in controller.luns],
        "dram": controller.dram.read(0, DRAM_COMPARE_BYTES).tobytes(),
    }


def test_generic_ops_on_tlm_are_the_waveform_run():
    """Every op the template runner does not take runs on the
    segment-accurate path on both tiers — polls, suspensions and
    channel contention included — so the two runs are one run."""
    wave = _generic_mix("waveform")
    tlm = _generic_mix("tlm")
    assert wave["op_counts"][0]["VENDOR_SUSPEND"] == 1
    erase_end, read_end = wave["finished_at"][0], wave["finished_at"][-1]
    assert read_end < erase_end            # the read cut into the erase
    assert tlm == wave


def _program_then_retry_read(sim, controller):
    """A templated PROGRAM, then a generic read of its page (a
    ``validate`` hook keeps ``read_with_retry`` off the runner)."""
    page = controller.config.vendor.geometry.full_page_size
    controller.dram.write(0, np.arange(page, dtype=np.uint8) % 251)
    return [controller.program_page(0, 1, 0, 0),
            controller.read_with_retry(0, 1, 0, page,
                                       validate=lambda *_: True)]


def _erase_then_traced_read(sim, controller):
    """A templated erase, then a read submitted under a tracer."""
    from repro.obs import Tracer

    tasks = [controller.erase_block(0, 3)]
    sim.set_tracer(Tracer())
    return tasks + [controller.read_page(0, 1, 0, 0)]


def _traced_erase_then_read(sim, controller):
    """A class-2 erase submitted under a tracer (the generic runtime),
    then an untraced class-0 read that suspends it."""
    from repro.obs import Tracer

    sim.set_tracer(Tracer())
    tasks = [controller.erase_block(0, 3, priority=2)]
    sim.set_tracer(None)
    return tasks + [controller.read_page(0, 1, 0, 0, priority=0)]


def _one_die_run(fidelity: str, submit) -> dict:
    from repro.flash.vendors import HYNIX_V7

    sim = Simulator()
    controller = BabolController(sim, ControllerConfig(
        vendor=HYNIX_V7, lun_count=2, fidelity=fidelity))
    tasks = submit(sim, controller)
    sim.run()  # a LunProtocolError here: two ops on one die at once
    page = HYNIX_V7.geometry.full_page_size
    fast = controller.fast_ops
    return {
        "templated": fast and (fast.ops_planned, fast.ops_templated),
        "windows": [(task.admitted_at, task.finished_at) for task in tasks],
        "errors": [task.error for task in tasks],
        "suspends": controller.luns[0].op_counts.get("VENDOR_SUSPEND", 0),
        "dram": controller.dram.read(0, 2 * page).tobytes(),
    }


@pytest.mark.parametrize("submit", [
    _program_then_retry_read, _erase_then_traced_read,
    _traced_erase_then_read])
def test_one_admission_per_die_across_paths(submit):
    """A template and a generic op on one die are admitted by the one
    admission, so they run one at a time — or the read runs inside the
    erase it suspends — exactly as the waveform run does."""
    wave = _one_die_run("waveform", submit)
    tlm = _one_die_run("tlm", submit)
    assert tlm["errors"] == wave["errors"] == [None, None]
    assert tlm["dram"] == wave["dram"]  # the read-back bytes
    (first_in, first_out), (second_in, second_out) = tlm["windows"]
    if submit is _traced_erase_then_read:
        # Both run the waveform path: the read suspends the erase.
        assert tlm["windows"] == wave["windows"]
        assert [end for _, end in tlm["windows"]] == [4_063_805, 363_270]
        assert first_in < second_in and second_out < first_out
        assert tlm["suspends"] == wave["suspends"] == 1
        assert tlm["templated"] == (1, 0)  # the read ran on the runtime
    else:
        assert first_out <= second_in  # one op on the die at a time
        assert tlm["suspends"] == wave["suspends"] == 0
        assert tlm["templated"] == (1, 1)


# ---------------------------------------------------------------------------
# Template fast path: behavioural identity at scale
# ---------------------------------------------------------------------------


def _scale_state(fidelity: str, track_data: bool = True):
    from repro.host import ScaleEngine, ScaleJob, run_scale_workload
    from repro.host.hic import HostOpcode

    sim = Simulator()
    controllers, ftl = build_stack(
        sim, StackSpec(channels=2, luns_per_channel=2, ftl=FtlSpec(),
                       track_data=track_data, fidelity=fidelity),
        profile=TEST_PROFILE,
    )
    engine = ScaleEngine(sim, ftl, queue_depth=8)
    run_scale_workload(sim, engine, ScaleJob(
        pattern="random", opcode=HostOpcode.WRITE, io_count=48, seed=11))
    run_scale_workload(sim, engine, ScaleJob(
        pattern="random", opcode=HostOpcode.READ, io_count=48, seed=12))
    dram = b"".join(
        c.dram.read(0, 4 * PAGE).tobytes() for c in controllers)
    arrays = [
        (lun.array.reads, lun.array.programs, lun.array.erases)
        for c in controllers for lun in c.luns
    ]
    mapping = [
        sorted((lpn, e.lun, e.block, e.page)
               for lpn, e in shard.map._forward.items())
        for shard in ftl.shards
    ]
    paired = sum(c.programs_paired for c in controllers)
    return ftl.health_summary(), arrays, mapping, dram, paired


def test_fast_path_keeps_ftl_and_data_identical_across_tiers():
    """Same seed => same FTL health, per-die array counters, mapped LPNs
    and DRAM payloads in both tiers, even though the TLM scale path runs
    templates, and both tiers pair programs.  The address each LPN
    landed on is not compared: which queued programs pair depends on
    what waits on a die when it frees, and on two channels the
    template's poll fast-forward moves completions across controllers
    (with no pairing, longer runs of this workload already place LPNs
    differently), so a few LPNs may change block, plane or page.
    tests/test_plane_pairing.py pins the whole tables, and equal pairs,
    on one channel and on two one-LUN channels.

    The equal health summary and per-die counters hold at this seed,
    not at every seed: over write seeds 1-30 (read seed one above) the
    per-die program counts differ between tiers at write seed 13, where
    one program lands on another die of the same channel."""
    wave = _scale_state("waveform")
    tlm = _scale_state("tlm")
    assert tlm[0] == wave[0]          # health summary (GC, WA, mapping)
    assert tlm[1] == wave[1]          # per-die array counters
    assert [[row[0] for row in shard] for shard in tlm[2]] == \
        [[row[0] for row in shard] for shard in wave[2]]  # mapped LPNs
    assert tlm[3] == wave[3]          # host-visible data payloads
    assert wave[4] > 0 and tlm[4] > 0  # multi-plane PROGRAMs on both


def _mixed_state(fidelity: str, writes: int = 360):
    """Random overwrites that keep GC busy, beside a reader of random
    LPNs that arrives every 30 us (so reads meet GC erases), then a
    read-back of every LPN.  Returns the host-visible counters, the
    erases suspended, and the read-back bytes."""
    sim = Simulator()
    controllers, ftl = build_stack(
        sim, StackSpec(channels=2, luns_per_channel=2, ftl=FtlSpec(),
                       track_data=True, noiseless=True, fidelity=fidelity),
        profile=TEST_PROFILE,
    )
    span = ftl.mapped_count
    rng = np.random.default_rng(21)
    lpns = rng.integers(0, span, size=writes).tolist()
    reads = rng.integers(0, span, size=writes).tolist()
    last = {}
    done = []

    def writer():
        for index, lpn in enumerate(lpns):
            last[lpn] = (lpn + index) % 251
            controllers[ftl.shard_of(lpn)].dram.write(
                PAGE * 8, np.full(PAGE, last[lpn], dtype=np.uint8))
            yield from ftl.write(lpn, PAGE * 8)
        done.append(True)

    def reader():
        for lpn in reads:
            if done:
                return
            yield from ftl.read(lpn, PAGE * 2)
            yield Timeout(30_000)

    sim.spawn(reader(), name="reader")
    sim.run_process(writer(), name="writer")
    sim.run()
    payloads = []
    for lpn in range(span):
        sim.run_process(ftl.read(lpn, 0))
        got = controllers[ftl.shard_of(lpn)].dram.read(0, PAGE)
        if lpn in last:
            assert (got == last[lpn]).all(), f"LPN {lpn} lost its last write"
        payloads.append(got.tobytes())
    health = ftl.health_summary()
    suspended = sum(lun.op_counts["VENDOR_SUSPEND"]
                    for c in controllers for lun in c.luns)
    host = {key: health[key]
            for key in ("host_reads", "host_writes", "mapped_pages")}
    return host, health["gc_runs"], suspended, b"".join(payloads)


def test_mixed_gc_run_keeps_host_data_identical_across_tiers():
    """Reads beside GC: every acked write reads back, byte-identical on
    both tiers, with erases suspended on both.  GC statistics, die
    counters and the map are not compared: the template's poll ends up
    to one poll period from the waveform tier's, which moves background
    GC and placement decisions (a GC-heavy write run diverges there
    without any read or suspension as well)."""
    wave = _mixed_state("waveform")
    tlm = _mixed_state("tlm")
    assert wave[1] > 0 and tlm[1] > 0     # GC ran on both tiers
    assert wave[2] > 0 and tlm[2] > 0     # reads suspended GC erases
    assert tlm[0] == wave[0]              # host-visible counters
    assert tlm[3] == wave[3]              # host-visible data payloads


def test_scale_stack_uses_the_plan_executor_under_tlm():
    from repro.host import ScaleEngine, ScaleJob, run_scale_workload

    sim = Simulator()
    controllers, ftl = build_stack(
        sim, StackSpec(channels=1, luns_per_channel=2, ftl=FtlSpec(),
                       fidelity="tlm"),
        profile=TEST_PROFILE,
    )
    engine = ScaleEngine(sim, ftl, queue_depth=4)
    run_scale_workload(sim, engine, ScaleJob(io_count=16))
    fast = controllers[0].fast_ops
    assert fast is not None
    assert fast.ops_planned >= 16
    assert fast.ops_templated == fast.ops_planned
    assert fast.ops_declined == 0


# ---------------------------------------------------------------------------
# Observed TLM is exact: ops submitted under a bus-level observer take
# the generic path, which the harness above holds to 0 ns
# ---------------------------------------------------------------------------

# The eight ``_plan=True`` entry points of the controller, as
# (id, method name, args after ``lun``).
WRAPPERS = [
    ("read_page", "read_page", (2, 0, 0)),
    ("read_page_window", "read_page", (2, 0, 0, 256, 128)),
    ("partial_read", "partial_read", (2, 0, 256, 128, 0)),
    ("program_page", "program_page", (4, 0, 0)),
    ("erase_block", "erase_block", (5,)),
    ("pslc_read", "pslc_read", (2, 0, 0)),
    ("pslc_program", "pslc_program", (6, 0, 0)),
    ("pslc_erase", "pslc_erase", (7,)),
]


def _attach_tracer(sim, controller):
    from repro.obs import Tracer

    sim.set_tracer(Tracer())


def _attach_empty_campaign(sim, controller):
    from repro.faults import FaultCampaign, FaultInjector

    FaultInjector(FaultCampaign("empty", seed=1)).attach(controller)


def _run_wrapper(fidelity, method, args, attach=lambda sim, controller: None,
                 vendor=TEST_PROFILE):
    """One op per LUN, back to back; per-op (finish ns, error, result)."""
    sim, controller = _make(fidelity, "rtos", vendor)
    attach(sim, controller)
    per_op = []
    for lun in (0, 1):
        task = getattr(controller, method)(lun, *args)
        result = controller.run_to_completion(task)
        per_op.append((task.finished_at, task.error, _normalize(result)))
    return controller, per_op, _snapshot(sim, controller)


@pytest.mark.parametrize("attach", [_attach_tracer, _attach_empty_campaign],
                         ids=["tracer", "fault-injector"])
@pytest.mark.parametrize("name,method,args", WRAPPERS,
                         ids=[w[0] for w in WRAPPERS])
def test_observed_tlm_takes_the_generic_path_and_is_exact(
        name, method, args, attach):
    _, wave_ops, wave_state = _run_wrapper("waveform", method, args, attach)
    controller, tlm_ops, tlm_state = _run_wrapper("tlm", method, args, attach)
    fast = controller.fast_ops
    assert fast.ops_planned == 0
    assert fast.ops_declined == len(tlm_ops)
    assert tlm_ops == wave_ops          # completion ns, error, status
    assert tlm_state["dram"] == wave_state["dram"]
    for key in ("now", "ops", "array", "status"):
        assert tlm_state[key] == wave_state[key], f"{name}: {key} differ"


# ---------------------------------------------------------------------------
# Unobserved TLM runs templates: their timeline is pinned to the commit
# that last changed it on purpose
# ---------------------------------------------------------------------------

# A template's solo-op timeline legitimately differs from the waveform
# grid (no runtime round trips between polls: the first hynix
# ``program_page`` finishes at 825 221 ns templated, 826 590 ns
# waveform), so the reference for *when* is a recording, not the other
# tier: ``tests/fixtures/templated_wrapper_timeline.json`` was recorded
# on 0b5c35c, the parent of the die-transaction change (PR 18), with
#
#     PYTHONPATH=src python -m tests.test_backend_equivalence --record
#
# Re-record only for a deliberate timeline change, on the commit whose
# behaviour is the reference.
TIMELINE_FIXTURE = (pathlib.Path(__file__).parent / "fixtures"
                    / "templated_wrapper_timeline.json")
TIMELINE_VENDORS = {"test": TEST_PROFILE, "hynix": VENDOR_PROFILES["hynix"]}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _templated_timeline(method, args, vendor) -> tuple[dict, dict]:
    """What a templated run of one wrapper (one op per LUN) leaves
    behind, JSON-shaped; and the tier-independent part of it."""
    controller, per_op, state = _run_wrapper("tlm", method, args,
                                             vendor=vendor)
    fast = controller.fast_ops
    assert (fast.ops_planned, fast.ops_declined) == (2, 0)
    tierless = _tierless(controller, per_op, state)
    return dict(
        tierless,
        now=state["now"],
        finished_at=[finished for finished, _, _ in per_op],
        returned=_digest([result for _, _, result in per_op]),
        op_counts=[dict(sorted(lun.op_counts.items()))
                   for lun in controller.luns],
    ), tierless


def _payload(result):
    """A read returns ``(last status byte, handle)``, and the byte is
    sampled where its tier's poll landed: on TEST_PROFILE's exact tR the
    waveform grid latches READ STATUS before tR ends and samples after
    it, so it reads register data (0xFF) where the template reads 0xE0.
    Poll traffic is the allowed difference; across tiers the payload is
    compared, the byte is pinned by the recording."""
    if isinstance(result, tuple) and isinstance(result[0], int):
        return result[1:]
    return result


def _tierless(controller, per_op, state) -> dict:
    return {
        "errors": [repr(error) for _, error, _ in per_op],
        "results": _digest([_payload(result) for _, _, result in per_op]),
        "ops": sorted([lun, name, count]
                      for (lun, name), count in state["ops"].items()),
        "array": [list(counters) for counters in state["array"]],
        "status": state["status"],
        "dram": _digest(state["dram"]),
        "rng": [_digest(sorted(lun._rng.bit_generator.state["state"].items()))
                for lun in controller.luns],
    }


def record_timeline() -> None:
    table = {
        f"{vendor}/{name}": _templated_timeline(
            method, args, TIMELINE_VENDORS[vendor])[0]
        for vendor in TIMELINE_VENDORS for name, method, args in WRAPPERS}
    TIMELINE_FIXTURE.write_text("{\n" + ",\n".join(   # one run per line
        f" {json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
        for key in sorted(table)) + "\n}\n")
    print(f"{len(table)} timelines -> {TIMELINE_FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_backend_equivalence --record")
    record_timeline()
    sys.exit(0)


@pytest.mark.parametrize("vendor", sorted(TIMELINE_VENDORS))
@pytest.mark.parametrize("name,method,args", WRAPPERS,
                         ids=[w[0] for w in WRAPPERS])
def test_templated_wrappers_keep_the_recorded_timeline(
        name, method, args, vendor):
    """The eight ``_plan=True`` wrappers, unobserved: every op runs as a
    template (pSLC included — ``requires`` rows reach the die through
    its transaction-level entry), lands on the recorded nanosecond with
    the recorded poll count, and leaves the die, DRAM and RNG stream the
    waveform tier leaves."""
    recorded = json.loads(TIMELINE_FIXTURE.read_text())[f"{vendor}/{name}"]
    profile = TIMELINE_VENDORS[vendor]
    timeline, tierless = _templated_timeline(method, args, profile)
    assert timeline == recorded
    wave = _run_wrapper("waveform", method, args, vendor=profile)
    assert tierless == _tierless(*wave)


def test_observer_attach_takes_effect_at_submission():
    """The attach contract: the dispatch is decided when an op is
    submitted.  An op already queued when an observer arrives finishes
    as a template; every later one takes the generic path.  LUN-side
    fault hooks sit below both and fire either way."""
    from repro.faults import FaultCampaign, FaultInjector, FaultKind, \
        FaultSpec

    sim, controller = _make("tlm", "rtos")
    fast = controller.fast_ops
    before = controller.program_page(0, 4, 0, 0)
    assert (fast.ops_planned, fast.ops_declined) == (1, 0)

    injector = FaultInjector(FaultCampaign("fail-programs", seed=1, faults=[
        FaultSpec(FaultKind.PROGRAM_FAIL, count=None)])).attach(controller)
    after = [controller.program_page(1, 4, 0, 0),
             controller.program_page(1, 4, 1, 0)]
    assert (fast.ops_planned, fast.ops_declined) == (1, 2)

    for task in [before] + after:
        controller.run_to_completion(task)
    # The die-side hook struck the templated op and the generic ones.
    assert sorted(r.lun for r in injector.records) == [0, 1, 1]
    assert controller.luns[0].array.programs == 0
    assert controller.luns[1].array.programs == 0


# ---------------------------------------------------------------------------
# ShardedFtl aggregation edge cases
# ---------------------------------------------------------------------------


def test_sharded_health_aggregation_with_one_empty_shard():
    """Retirements on one shard only: the empty shard must contribute
    nothing (and not break) the array-wide aggregation."""
    sim = Simulator()
    _, ftl = build_stack(
        sim, StackSpec(channels=2, luns_per_channel=2,
                       ftl=FtlSpec(prefill_pages=0)),
        profile=TEST_PROFILE,
    )
    ftl.shards[0]._retire_block(1, 3, "test")
    ftl.shards[0]._retire_block(0, 4, "test")

    assert ftl.retired_blocks == [(0, 1, 3), (0, 0, 4)]
    summary = ftl.health_summary()
    assert summary["retired_blocks"] == 2
    assert summary["channels"] == 2
    # Shard 1 contributed zero retirements and zero journal entries.
    assert all(ch == 0 for ch, _ in ftl.bad_block_records())


# ---------------------------------------------------------------------------
# Waveform-only observers fail fast under TLM
# ---------------------------------------------------------------------------


def test_logic_analyzer_fails_fast_under_tlm():
    from repro.analysis.logic_analyzer import LogicAnalyzer
    from repro.config.specs import FidelityError

    sim, controller = _make("tlm", "rtos")
    with pytest.raises(FidelityError, match="tlm"):
        LogicAnalyzer(controller.channel)


def test_bus_sanitizer_fails_fast_under_tlm():
    from repro.config.specs import FidelityError
    from repro.sanitize import attach_sanitizers

    sim, controller = _make("tlm", "rtos")
    with pytest.raises(FidelityError, match="sanitizer 'bus'"):
        attach_sanitizers(controller, "bus")
    # The flash sanitizer's chip-select check is also a channel tap.
    with pytest.raises(FidelityError, match="sanitizer 'flash'"):
        attach_sanitizers(controller, "flash")
    # "all" includes both, so it must fail the same way.
    with pytest.raises(FidelityError, match="waveform"):
        attach_sanitizers(controller, "all")


def test_transaction_safe_sanitizers_attach_under_tlm():
    """Die/DRAM/kernel observers see identical events in both tiers and
    must keep working under TLM."""
    from repro.sanitize import attach_sanitizers

    sim, controller = _make("tlm", "rtos")
    attached = attach_sanitizers(controller, "memory,liveness")
    assert [s.name for s in attached] == ["memory", "liveness"]

    task = controller.submit(full_page_read_op, 0, codec=controller.codec,
                             address=ADDR, dram_address=0)
    controller.run_to_completion(task)
    assert not attached[0].report.findings
