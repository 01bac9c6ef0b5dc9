"""The four benchmark workloads.

Each workload is a :class:`~repro.config.specs.StackSpec` literal plus a
command stream derived from ``--seed``.  The seed drives two things and
nothing else: the LPN/op stream, and ``stack.seed`` (the dies' tR/tPROG
jitter), so sequential workloads also see a different machine per seed.

A workload object is built once per round (that is the set-up the
benchmark times), ``run()`` is the timed command stream, ``check()`` is
the untimed verification that follows it.  Everything is observed from
outside, through the stack's public functions and counters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from collections import deque
from typing import Generator

import numpy as np

from repro.baselines import AsyncHwController
from repro.config import (
    FtlSpec,
    GeometrySpec,
    StackSpec,
    build_controllers,
    build_stack,
    canonical_json,
    stack_profile,
)
from repro.faults.power import apply_power_cut, restore_media, snapshot_media
from repro.ftl import PageMappedFtl
from repro.ftl.spor import mount_sharded
from repro.host import (
    FioJob,
    HostInterface,
    ScaleCommand,
    ScaleEngine,
    ScaleJob,
    run_fio,
    run_scale_workload,
)
from repro.host.hic import HostOpcode
from repro.onfi import NVDDR2_200
from repro.sim import Simulator

# ----------------------------------------------------------------------
# Stack literals (one per workload) and stream sizes
# ----------------------------------------------------------------------

STACKS = {
    # Segment-accurate tier, default FTL: 1024 prefilled pages.
    "randread_wave": StackSpec(
        channels=4, luns_per_channel=4, fidelity="waveform", ftl=FtlSpec(),
    ),
    # Template gear: the ROADMAP "15.8x" cell.
    "seqwrite_tlm": StackSpec(
        channels=8, luns_per_channel=4, fidelity="tlm", ftl=FtlSpec(),
    ),
    # Shrunken geometry (full code paths, tiny state), persistence on,
    # half of the 640 logical pages prefilled.
    "mixed_gc_persist_tlm": StackSpec(
        channels=4, luns_per_channel=2, fidelity="tlm", track_data=True,
        noiseless=True, factory_bad_rate=0.0,
        geometry=GeometrySpec(page_size=2048, spare_size=64,
                              pages_per_block=16, blocks_per_plane=16,
                              planes=2),
        ftl=FtlSpec(blocks_per_lun=10, overprovision_blocks=4,
                    checkpoint_interval=48, journal_flush_records=16,
                    meta_blocks=2, prefill_pages=320),
    ),
    # The paper's Fig. 12 cell: 1 channel x 8 ways, NV-DDR2-200, 1 GHz
    # coroutine runtime, 64 prefilled pages per way.
    "fig12_coro_way8": StackSpec(
        channels=1, luns_per_channel=8, runtime="coroutine",
        interface_mt=200, cpu_freq_hz=1_000_000_000, fidelity="waveform",
        ftl=FtlSpec(blocks_per_lun=8, overprovision_blocks=2,
                    prefill_pages=512),
    ),
}

#: (commands in the timed stream, host queue depth) per workload.
STREAMS = {
    "randread_wave": (4000, 8),
    "seqwrite_tlm": (15360, 32),
    "mixed_gc_persist_tlm": (12000, 4),
    "fig12_coro_way8": (4000, 16),
}

#: Fig. 12 acceptance: BABOL-coroutine below the hardware controller,
#: by less than this share (the repo's existing Fig. 12 assertion).
FIG12_MAX_DEFICIT = 0.15


def describe(name: str, seed: int, scale: float) -> dict:
    """The resolved experiment a (workload, seed, scale) names, with its
    hash — what a result record embeds so the number can be re-run."""
    commands, queue_depth = STREAMS[name]
    doc = {
        "stack": _seeded(STACKS[name], seed).to_dict(resolved=True),
        "commands": _scaled(commands, scale),
        "queue_depth": queue_depth,
        "seed": seed,
    }
    digest = hashlib.sha256(canonical_json(doc).encode("utf-8"))
    return {"spec": doc, "spec_hash": digest.hexdigest()[:16]}


def _seeded(stack: StackSpec, seed: int) -> StackSpec:
    return dataclasses.replace(stack, seed=seed)


def _scaled(commands: int, scale: float) -> int:
    return max(1, round(commands * scale))


def _percentiles_us(samples_ns: list) -> tuple[float, float]:
    if not samples_ns:
        return 0.0, 0.0
    p50, p99 = np.percentile(samples_ns, [50, 99])
    return float(p50) / 1e3, float(p99) / 1e3


# ----------------------------------------------------------------------
# Shared shape of a workload
# ----------------------------------------------------------------------

class Workload:
    """Set-up in ``__init__``, timed stream in ``run``, checks after."""

    def __init__(self, name: str, seed: int, scale: float):
        self.name = name
        self.seed = seed
        self.stack = _seeded(STACKS[name], seed)
        commands, self.queue_depth = STREAMS[name]
        self.attempted = _scaled(commands, scale)
        self.sim = Simulator()
        self.controllers: list = []
        self.ftl = None
        self.elapsed_ns = 0
        self.failures: list[str] = []
        #: Layer counters only this workload's stack has (the rest are 0).
        self.extra: dict[str, float] = {}

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Untimed verification; appends to ``self.failures``."""

    def ledger(self) -> list[tuple]:
        """Completed commands in completion order, as ``(id, submitted,
        started, finished, carries_payload)``; ``started`` is None where
        the front end does not record it."""
        raise NotImplementedError

    def doorbells(self) -> int:
        return 0

    @property
    def page_size(self) -> int:
        return self.ftl.page_size

    # -- simulated-clock results ---------------------------------------

    def sim_metrics(self) -> dict:
        ledger = self.ledger()
        done = [row for row in ledger if row[3] is not None]
        p50, p99 = _percentiles_us([row[3] - row[1] for row in done])
        digest = hashlib.sha256(
            canonical_json([[row[0], row[3]] for row in ledger])
            .encode("utf-8"))
        payload = sum(1 for row in done if row[4]) * self.page_size
        return {
            "sim_mb_s": payload / self.elapsed_ns * 1e3
            if self.elapsed_ns else 0.0,
            "sim_lat_p50_us": p50,
            "sim_lat_p99_us": p99,
            "sim_waf": float(self.ftl.write_amplification),
            "sim_lat_samples": len(done),
            "sim_elapsed_ns": self.elapsed_ns,
            "sim_digest": digest.hexdigest(),
            "completed": len(done),
        }

    def layer_counters(self) -> dict:
        """Pull-style work counts and simulated busy time per layer."""
        controllers = self.controllers
        stats = [c.channel.stats for c in controllers]
        luns = [lun for c in controllers for lun in c.luns]
        fast = [c.fast_ops for c in controllers if c.fast_ops is not None]
        shards = getattr(self.ftl, "shards", [self.ftl])
        persist = [s.persist for s in shards if s.persist is not None]
        bus_busy = sum(s.busy_ns for s in stats)
        planned = sum(f.ops_planned for f in fast)
        templated = sum(f.ops_templated for f in fast)
        done = [row for row in self.ledger() if row[3] is not None]
        wait_p50, wait_p99 = _percentiles_us(
            [row[2] - row[1] for row in done if row[2] is not None])
        svc_p50, svc_p99 = _percentiles_us(
            [row[3] - row[2] for row in done if row[2] is not None])
        doorbells = self.doorbells()
        counters = {
            "bus.busy_ns": bus_busy,
            "bus.utilization": bus_busy / (self.elapsed_ns * len(stats))
            if self.elapsed_ns else 0.0,
            "bus.segments": sum(s.segments for s in stats),
            "bus.bytes_in": sum(s.data_bytes_in for s in stats),
            "bus.bytes_out": sum(s.data_bytes_out for s in stats),
            "core.executor.txns": sum(c.executor.executed for c in controllers),
            "core.executor.busy_ns": sum(c.executor.busy_ns for c in controllers),
            "core.softenv.cpu_busy_ns": sum(c.cpu.busy_ns for c in controllers),
            "core.softenv.cycles_charged":
                sum(c.cpu.cycles_charged for c in controllers),
            "core.softenv.contention_waits":
                sum(c.cpu.contention_waits for c in controllers),
            "core.softenv.txns_dispatched":
                sum(c.env.txns_dispatched for c in controllers),
            "core.softenv.tasks_failed":
                sum(c.env.tasks_failed for c in controllers),
            "core.softenv.hw_gap_pct": 0.0,
            "core.fastops.ops_planned": planned,
            "core.fastops.ops_templated": templated,
            "core.fastops.ops_declined": sum(f.ops_declined for f in fast),
            "core.fastops.template_ratio":
                templated / planned if planned else 0.0,
            "flash.lun_busy_ns": sum(lun.busy_ns_total for lun in luns),
            "flash.injected_bits": sum(
                lun.array.error_model.injected_bits_total for lun in luns),
            "ftl.host_reads": self.ftl.host_reads,
            "ftl.host_writes": self.ftl.host_writes,
            "ftl.gc_runs": self.ftl.gc_runs,
            "ftl.gc_page_moves": self.ftl.gc_page_moves,
            "ftl.retired_blocks": len(self.ftl.retired_blocks),
            "ftl.program_fail_rewrites": self.ftl.program_fail_rewrites,
            "ftl.persist.journal_pages":
                sum(p.journal_pages_written for p in persist),
            "ftl.persist.checkpoints":
                sum(p.checkpoints_written for p in persist),
            "ftl.persist.meta_program_failures":
                sum(p.meta_program_failures for p in persist),
            "ftl.spor.mount_sim_ms": 0.0,
            "ftl.spor.mount_host_s": 0.0,
            "ftl.spor.data_pages_scanned": 0,
            "ftl.spor.journal_replay_entries": 0,
            "ftl.spor.lpns_recovered": 0,
            "ftl.spor.lost_acked_writes": 0,
            "host.sq_wait_us_p50": wait_p50,
            "host.sq_wait_us_p99": wait_p99,
            "host.service_us_p50": svc_p50,
            "host.service_us_p99": svc_p99,
            "host.doorbells": doorbells,
            "host.cmds_per_doorbell":
                len(done) / doorbells if doorbells else 0.0,
            "baselines.hw_mb_s": 0.0,
            "bench.hol_stalls": 0,
        }
        counters.update(self.extra)
        return counters


# ----------------------------------------------------------------------
# W1 / W2 / W3 share the queue-depth engine; W1 / W2 are single-opcode
# streams through run_scale_workload
# ----------------------------------------------------------------------

class EngineWorkload(Workload):
    """A sharded FTL behind the queue-depth engine (``queue_depth``
    slots per channel, closed loop, one strict-order submitter)."""

    def __init__(self, name: str, seed: int, scale: float, **engine_kwargs):
        super().__init__(name, seed, scale)
        self.controllers, self.ftl = build_stack(self.sim, self.stack)
        self.engine = ScaleEngine(self.sim, self.ftl,
                                  queue_depth=self.queue_depth,
                                  **engine_kwargs)

    def ledger(self) -> list[tuple]:
        return [
            (c.cid, c.submitted_at, c.started_at, c.finished_at,
             c.opcode in (HostOpcode.READ, HostOpcode.WRITE))
            for pair in self.engine.pairs for c in pair.completions
        ]

    def doorbells(self) -> int:
        return self.engine.doorbells_rung


class ScaleWorkload(EngineWorkload):
    """A single-opcode stream through ``run_scale_workload``."""

    def __init__(self, name: str, seed: int, scale: float,
                 pattern: str, opcode: HostOpcode):
        super().__init__(name, seed, scale)
        self.job = ScaleJob(pattern=pattern, opcode=opcode,
                            io_count=self.attempted, seed=seed)

    def run(self) -> None:
        start = self.sim.now
        run_scale_workload(self.sim, self.engine, self.job)
        self.elapsed_ns = self.sim.now - start


# ----------------------------------------------------------------------
# W3: mixed read/write/trim/flush with GC, persistence and SPOR
# ----------------------------------------------------------------------

_PREFILL_BYTE = 0x5A
_PREFILL_TOKEN = 64     # bytes of each prefilled page that carry the fill


def _payload(lpn: int, version: int, nbytes: int) -> np.ndarray:
    data = np.full(nbytes, (lpn * 37 + version * 101) % 251, dtype=np.uint8)
    data[0] = lpn & 0xFF
    data[1] = (lpn >> 8) & 0xFF
    data[2] = version & 0xFF
    data[3] = (version >> 8) & 0xFF
    return data


def _holds(got: np.ndarray, lpn: int, version: int) -> bool:
    """Whether a page read back holds ``version`` of ``lpn`` (version 0
    is the prefill, which only defines the page's first bytes)."""
    if version == 0:
        return bool((got[:_PREFILL_TOKEN] == _PREFILL_BYTE).all())
    return np.array_equal(got, _payload(lpn, version, len(got)))


def mixed_ops(rng: np.random.Generator, count: int, span: int,
              channels: int) -> tuple[list, dict]:
    """~60 % write / 30 % read / 5 % trim / 5 % flush over LPNs
    ``[0, span)``, all mapped at the start; the stream ends with one
    flush per channel so every trim tombstone is durable.

    Reads and trims target LPNs that are mapped *in submission order*;
    the driver's per-LPN in-flight guard makes completion order agree.
    Returns ``(ops, final)``: ops are ``(kind, lpn, version)`` — for a
    read, the version it must return — and ``final`` maps every LPN to
    its last written version, or None once trimmed.
    """
    final: dict = {lpn: 0 for lpn in range(span)}
    mapped = list(range(span))          # swap-remove pool of mapped LPNs
    slot = {lpn: lpn for lpn in mapped}
    latest = dict(final)                # survives trims: versions only grow
    ops = []
    rolls = rng.random(count)
    picks = rng.integers(0, 2**31, size=count)
    for roll, pick in zip(rolls.tolist(), picks.tolist()):
        if roll < 0.05:
            ops.append(("flush", pick % span, 0))
        elif roll < 0.10 and mapped:
            index = pick % len(mapped)
            lpn = mapped[index]
            mapped[index] = mapped[-1]
            slot[mapped[index]] = index
            mapped.pop()
            del slot[lpn]
            final[lpn] = None
            ops.append(("trim", lpn, 0))
        elif roll < 0.40 and mapped:
            lpn = mapped[pick % len(mapped)]
            ops.append(("read", lpn, final[lpn]))
        else:
            lpn = pick % span
            latest[lpn] += 1
            final[lpn] = latest[lpn]
            if lpn not in slot:
                slot[lpn] = len(mapped)
                mapped.append(lpn)
            ops.append(("write", lpn, latest[lpn]))
    ops.extend(("flush", channel, 0) for channel in range(channels))
    return ops, final


class MixedWorkload(EngineWorkload):
    """The benchmark's own mixed stream, then power cut and remount."""

    def __init__(self, name: str, seed: int, scale: float):
        super().__init__(name, seed, scale, auto_dram=True)
        self.span = self.ftl.mapped_count
        if self.span * 2 != self.ftl.logical_pages:
            raise RuntimeError(
                f"{name}: prefill {self.span} is not half of "
                f"{self.ftl.logical_pages} logical pages")
        channels = self.stack.channels
        self.ops, self.final = mixed_ops(
            np.random.default_rng(seed), self.attempted - channels,
            self.span, channels)
        self.attempted = len(self.ops)
        self.hol_stalls = 0
        self.bad_reads = 0

    def run(self) -> None:
        start = self.sim.now
        self.sim.run_process(self._submitter(), name="e2e-mixed-submitter")
        self.elapsed_ns = self.sim.now - start

    def _submitter(self) -> Generator:
        """Strict-order closed loop, as ``run_scale_workload``'s, plus
        the per-LPN guard: an op whose LPN has a command outstanding
        waits (and blocks the ops behind it)."""
        engine = self.engine
        page_size = self.page_size
        opcodes = {"write": HostOpcode.WRITE, "read": HostOpcode.READ,
                   "trim": HostOpcode.TRIM, "flush": HostOpcode.FLUSH}
        busy: set = set()
        reaped = [0] * len(engine.pairs)

        def reap() -> None:
            # Before the next submit: a completed read's DRAM slot is
            # only reused by a later stage() on the same pair.
            for index, pair in enumerate(engine.pairs):
                for command in pair.completions[reaped[index]:]:
                    if command.opcode is HostOpcode.FLUSH:
                        continue
                    busy.discard(command.lpn)
                    if command.opcode is HostOpcode.READ:
                        dram = engine.shard(command.channel).controller.dram
                        got = dram.read(command.dram_address, page_size)
                        if not _holds(got, command.lpn, command.tag):
                            self.bad_reads += 1
                reaped[index] = len(pair.completions)

        queue = deque(self.ops)
        while queue:
            while queue:
                kind, lpn, version = queue[0]
                if lpn in busy and kind != "flush":
                    self.hol_stalls += 1
                    break
                if engine.pair_for(lpn).free_slots <= 0:
                    break
                queue.popleft()
                engine.submit(ScaleCommand(
                    opcode=opcodes[kind], lpn=lpn, tag=version,
                    payload=_payload(lpn, version, page_size)
                    if kind == "write" else None,
                ))
                if kind != "flush":
                    busy.add(lpn)
            if not queue:
                break
            engine.ring_doorbells()
            yield from engine.completion_pulse.wait()
            reap()
        yield from engine.drain()
        reap()

    def check(self) -> None:
        """Cut power after the drain, remount the media in a fresh
        stack, and read back every LPN against its last acked state."""
        if self.bad_reads:
            self.failures.extend(["read payload mismatch"] * self.bad_reads)
        apply_power_cut(self.controllers, self.sim.now)
        images = snapshot_media(self.controllers)
        sim = Simulator()
        controllers = build_controllers(sim, self.stack)
        restore_media(controllers, images)
        host0 = time.process_time()
        ftl, report = mount_sharded(sim, controllers,
                                    self.stack.ftl.to_ftl_config())
        mount_host_s = time.process_time() - host0
        lost = 0
        for lpn in range(self.span):
            version = self.final[lpn]
            if version is None:
                if ftl.is_mapped(lpn):
                    self.failures.append(f"trimmed LPN {lpn} resurrected")
                continue
            ok = ftl.is_mapped(lpn)
            if ok:
                sim.run_process(ftl.read(lpn, 0))
                got = controllers[ftl.shard_of(lpn)].dram.read(
                    0, self.page_size)
                ok = _holds(got, lpn, version)
            if not ok:
                lost += 1
                self.failures.append(f"acked LPN {lpn} v{version} lost")
        self.extra.update({
            "ftl.spor.mount_sim_ms": report.mount_ns / 1e6,
            "ftl.spor.mount_host_s": mount_host_s,
            "ftl.spor.data_pages_scanned": report.data_pages_scanned,
            "ftl.spor.journal_replay_entries": report.journal_replay_entries,
            "ftl.spor.lpns_recovered": report.lpns_recovered,
            "ftl.spor.lost_acked_writes": lost,
            "bench.hol_stalls": self.hol_stalls,
        })


# ----------------------------------------------------------------------
# W4: the paper's Fig. 12 cell through the fio front end
# ----------------------------------------------------------------------

class FioWorkload(Workload):
    """Sequential fio READ through ``HostInterface`` (``iodepth``
    device-side workers; ``run_fio`` posts every I/O at t0, so latency
    here includes the host-side queue wait)."""

    def __init__(self, name: str, seed: int, scale: float):
        super().__init__(name, seed, scale)
        self.controllers = build_controllers(self.sim, self.stack)
        self.hic = self._front_end(self.sim, self.controllers[0])
        self.ftl = self.hic.ftl
        self.job = FioJob(pattern="sequential", io_count=self.attempted,
                          iodepth=self.queue_depth, seed=seed)
        self.result = None

    def _front_end(self, sim, controller) -> HostInterface:
        ftl = PageMappedFtl(sim, controller, self.stack.ftl.to_ftl_config())
        ftl.prefill(self.stack.ftl.prefill_pages)
        return HostInterface(sim, ftl, iodepth=self.queue_depth)

    def run(self) -> None:
        self.result = run_fio(self.sim, self.hic, self.job)
        self.elapsed_ns = self.result.elapsed_ns

    def ledger(self) -> list[tuple]:
        return [
            (index, c.submitted_at, None, c.finished_at, True)
            for index, c in enumerate(self.hic.completed)
        ]

    def check(self) -> None:
        """The identical job on the asynchronous hardware controller:
        the paper's claim is the gap between the two."""
        sim = Simulator()
        reference = AsyncHwController(
            sim, vendor=stack_profile(self.stack),
            lun_count=self.stack.luns_per_channel, interface=NVDDR2_200,
            track_data=False, seed=self.seed,
        )
        hw = run_fio(sim, self._front_end(sim, reference), self.job)
        babol = self.result.bandwidth_mb_s
        deficit = (hw.bandwidth_mb_s - babol) / hw.bandwidth_mb_s
        if not 0.0 < deficit < FIG12_MAX_DEFICIT:
            self.failures.append(
                f"Fig. 12: coroutine deficit {deficit:.1%} outside "
                f"(0, {FIG12_MAX_DEFICIT:.0%})")
        self.extra.update({
            "baselines.hw_mb_s": hw.bandwidth_mb_s,
            "core.softenv.hw_gap_pct": deficit * 100.0,
        })


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Stand up one workload, ready to ``run()``."""
    if name == "randread_wave":
        return ScaleWorkload(name, seed, scale, "random", HostOpcode.READ)
    if name == "seqwrite_tlm":
        return ScaleWorkload(name, seed, scale, "sequential",
                             HostOpcode.WRITE)
    if name == "mixed_gc_persist_tlm":
        return MixedWorkload(name, seed, scale)
    if name == "fig12_coro_way8":
        return FioWorkload(name, seed, scale)
    raise KeyError(name)
