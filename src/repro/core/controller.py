"""The BABOL controller facade.

Wires the full Fig. 5 stack — channel + LUN population, µFSM bank,
Packetizer, Executor, and the chosen software environment — and exposes
the FTL-facing API: submit an operation against a LUN, get a
:class:`~repro.core.softenv.base.Task` back, wait on it from a
simulation process.

>>> sim = Simulator()
>>> controller = BabolController(sim, ControllerConfig(vendor=HYNIX_V7,
...                                                    lun_count=2))
>>> task = controller.read_page(lun=0, block=1, page=2, dram_address=0)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.bus.channel import Channel
from repro.bus.phy import ChannelPhy
from repro.config.specs import FIDELITIES
from repro.core.executor import Executor
from repro.core.ops import (
    erase_block_op,
    full_page_read_op,
    get_features_op,
    paired_erase_op,
    partial_read_op,
    program_page_op,
    pslc_erase_op,
    pslc_program_op,
    pslc_read_op,
    read_id_op,
    read_page_op,
    read_parameter_page_op,
    read_with_retry_op,
    reset_op,
    set_features_op,
)
from repro.core.packetizer import Packetizer
from repro.core.softenv import (
    CoroutineEnvironment,
    Cpu,
    GHZ,
    RtosEnvironment,
    SoftwareEnvironment,
    Task,
)
from repro.core.softenv.task_scheduler import TaskScheduler
from repro.core.softenv.txn_scheduler import TxnScheduler
from repro.core.ufsm.base import UfsmBank
from repro.dram import DramBuffer
from repro.flash.lun import Lun
from repro.flash.package import build_channel_population
from repro.flash.vendors import HYNIX_V7, VendorProfile
from repro.onfi.datamodes import DataInterface, NVDDR2_200
from repro.onfi.geometry import AddressCodec, PhysicalAddress
from repro.sim import Simulator

RUNTIMES = {"coroutine": CoroutineEnvironment, "rtos": RtosEnvironment}


@dataclass
class ControllerConfig:
    """Everything needed to stand up one BABOL channel controller."""

    vendor: VendorProfile = field(default_factory=lambda: HYNIX_V7)
    lun_count: int = 8
    interface: DataInterface = NVDDR2_200
    runtime: str = "coroutine"
    cpu_freq_hz: int = GHZ
    cpu_cpi: float = 1.0
    dram_size: int = 64 * 1024 * 1024
    executor_dispatch_ns: int = 50
    executor_queue_depth: int = 1
    track_data: bool = True
    seed: int = 0
    # Fidelity tier: "waveform" simulates every bus segment at its
    # nanosecond; "tlm" also runs untraced data-plane ops as templates
    # (identical data/status/die state, ~10x the simulated ops per
    # wall-second) and every other op exactly as "waveform" does.
    fidelity: str = "waveform"
    # Sanitizer names ("all", "bus,flash", a tuple, ...) attached at
    # construction; empty means no runtime checking and zero overhead.
    sanitizers: object = ()
    # Optional repro.core.recovery.Watchdog bounding every busy-wait in
    # nanoseconds; None keeps the historical unbounded poll loops.
    watchdog: object = None

    def validate(self) -> None:
        if self.runtime not in RUNTIMES:
            raise ValueError(f"runtime must be one of {sorted(RUNTIMES)}")
        if self.lun_count <= 0:
            raise ValueError("lun_count must be positive")
        if not isinstance(self.fidelity, str) or \
                self.fidelity not in FIDELITIES:
            raise ValueError(f"fidelity must be one of {FIDELITIES}")


class BabolController:
    """One software-defined channel controller."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[ControllerConfig] = None,
        task_scheduler: Optional[TaskScheduler] = None,
        txn_scheduler: Optional[TxnScheduler] = None,
        phy: Optional[ChannelPhy] = None,
        sanitizers=None,
        diagnostics=None,
    ):
        self.sim = sim
        self.config = config or ControllerConfig()
        self.config.validate()
        cfg = self.config

        self.luns: list[Lun] = build_channel_population(
            sim, cfg.vendor, cfg.lun_count, seed=cfg.seed, track_data=cfg.track_data
        )
        self.channel = Channel(sim, self.luns, interface=cfg.interface,
                               phy=phy, fidelity=cfg.fidelity)
        self.dram = DramBuffer(cfg.dram_size)
        self.ufsm = UfsmBank(cfg.interface)
        self.packetizer = Packetizer(self.dram)
        self.executor = Executor(
            sim,
            self.channel,
            dispatch_latency_ns=cfg.executor_dispatch_ns,
            queue_depth=cfg.executor_queue_depth,
        )
        self.cpu = Cpu(sim, cfg.cpu_freq_hz, cpi=cfg.cpu_cpi, name=cfg.runtime)
        env_class = RUNTIMES[cfg.runtime]
        self.env: SoftwareEnvironment = env_class(
            sim=sim,
            executor=self.executor,
            ufsm=self.ufsm,
            packetizer=self.packetizer,
            cpu=self.cpu,
            task_scheduler=task_scheduler,
            txn_scheduler=txn_scheduler,
            vendor=cfg.vendor,
        )
        if cfg.watchdog is not None:
            self.env.watchdog = cfg.watchdog
        self.codec = AddressCodec(cfg.vendor.geometry)
        # Full-page PROGRAMs queued on distinct planes of a die run as
        # one multi-plane PROGRAM (the admission pairs them, templated
        # or not), on any multi-plane die whose vendor keeps the stock
        # PROGRAM.
        overridden = {name for name, _ in cfg.vendor.op_overrides}
        self.pairs_programs = cfg.vendor.geometry.planes > 1 and \
            "program_page" not in overridden
        # Likewise blocks on distinct planes erase as one multi-plane
        # ERASE (``erase_pair``) only where the vendor keeps the stock
        # ERASE.
        self.pairs_erases = cfg.vendor.geometry.planes > 1 and \
            "erase_block" not in overridden

        # Runtime sanitizers: `sanitizers=` kwarg wins, else the config
        # field; anything falsy leaves every hook None (zero overhead).
        spec = sanitizers if sanitizers is not None else cfg.sanitizers
        self.diagnostics = diagnostics
        self.sanitizers: tuple = ()
        if spec:
            from repro.analysis.diagnostics import DiagnosticReport
            from repro.sanitize import attach_sanitizers

            if self.diagnostics is None:
                self.diagnostics = DiagnosticReport()
            self.sanitizers = attach_sanitizers(self, spec, self.diagnostics)

        # The TLM tier's template runner for the FTL-facing data plane
        # (read_page/program_page/erase_block/...): the only thing
        # "tlm" changes.  It runs the planned tasks the environment
        # admits, outside the generic runtime's loop, so it stands down
        # when a watchdog or sanitizers are attached — both observe the
        # generic runtime's events.
        self.fast_ops = None
        if cfg.fidelity == "tlm" and cfg.watchdog is None \
                and not self.sanitizers:
            from repro.core.fastops import PlanExecutor

            self.fast_ops = self.env.plan_runner = PlanExecutor(self)

    # ------------------------------------------------------------------
    # Generic submission
    # ------------------------------------------------------------------

    def submit(
        self,
        op_factory: Callable,
        lun: int,
        priority: int = 1,
        label: str = "",
        _plan: bool = False,
        _pair: Optional[tuple] = None,
        **op_kwargs,
    ) -> Task:
        """Submit any operation from :mod:`repro.core.ops` (or your own).

        ``priority`` is the op's admission class on its LUN: the lowest
        class waiting runs next, FIFO within a class, and a class-0 op
        (a host read), or a full-page PROGRAM, may suspend an erase of a
        higher class in flight on its die — see
        ``SoftwareEnvironment.preempt_erase``.  The generic path runs
        the full software runtime on the segment-accurate bus, the same
        run on both fidelity tiers.  ``_plan=True`` (set by the
        data-plane convenience wrappers) lets the TLM tier run a
        straight-line op as a template instead: identical data, status,
        die state, and faults, with the runtime's cycle costs charged in
        closed form rather than simulated.  Ops submitted while a
        tracer or fault injector is attached always take the generic
        path (see :mod:`repro.core.fastops`); a template already queued
        and a later generic op on its die run one at a time, because
        both paths share the environment's one admission.  ``_pair``
        (set by :meth:`program_page`) lets that admission run the op
        with a queued PROGRAM on another plane as one multi-plane
        PROGRAM.
        """
        self._check_lun(lun)

        def bound(ctx):
            return op_factory(ctx, **op_kwargs)

        bound.__name__ = getattr(op_factory, "__name__", "op")
        plan = None
        if _plan and self.fast_ops is not None:
            plan = self.fast_ops.plan(op_factory.program_name, lun, op_kwargs)
        return self.env.submit(bound, lun, priority=priority,
                               label=label or bound.__name__, pair=_pair,
                               plan=plan)

    @property
    def programs_paired(self) -> int:
        """Multi-plane PROGRAMs run for two queued programs (each one a
        tPROG saved), templated or not: the admission counts them."""
        return self.env.programs_paired

    @property
    def programs_chained(self) -> int:
        """Pairs a program chain took behind another (their loads under
        the tPROG before them), templated or not."""
        return self.env.programs_chained

    def wait(self, task: Task) -> Generator:
        """Simulation-process helper: block until ``task`` finishes."""
        result = yield from self.env.wait_task(task)
        return result

    def run_to_completion(self, task: Task):
        """Drive the simulation until ``task`` finishes; returns its result."""
        return self.sim.run_process(self.wait(task))

    # ------------------------------------------------------------------
    # Convenience wrappers for the standard operations
    # ------------------------------------------------------------------

    def read_page(self, lun: int, block: int, page: int, dram_address: int,
                  column: int = 0, length: Optional[int] = None,
                  priority: int = 1) -> Task:
        address = PhysicalAddress(block=block, page=page, column=column)
        op = read_page_op if column or length else full_page_read_op
        kwargs = dict(codec=self.codec, address=address, dram_address=dram_address)
        if column or length:
            kwargs["length"] = length
        return self.submit(op, lun, priority=priority, _plan=True, **kwargs)

    def partial_read(self, lun: int, block: int, page: int, column: int,
                     length: int, dram_address: int) -> Task:
        address = PhysicalAddress(block=block, page=page, column=column)
        return self.submit(
            partial_read_op, lun, codec=self.codec, address=address,
            dram_address=dram_address, length=length, _plan=True,
        )

    def program_page(self, lun: int, block: int, page: int,
                     dram_address: int, priority: int = 1) -> Task:
        address = PhysicalAddress(block=block, page=page)
        pair = None
        if self.pairs_programs:
            pair = (self.codec.plane_of(address), address, dram_address,
                    self.codec)
        return self.submit(
            program_page_op, lun, priority=priority, codec=self.codec,
            address=address, dram_address=dram_address, _plan=True,
            _pair=pair,
        )

    def erase_block(self, lun: int, block: int, priority: int = 1) -> Task:
        return self.submit(
            erase_block_op, lun, priority=priority, codec=self.codec,
            block=block, _plan=True,
        )

    def erase_pair(self, lun: int, blocks: tuple, priority: int = 1) -> Task:
        """Erase blocks on distinct planes of one die in one tBERS
        (``paired_erase``); the task's result is one bool per block.
        Only where ``pairs_erases`` holds: elsewhere the FTL erases
        block by block."""
        return self.submit(
            paired_erase_op, lun, priority=priority, codec=self.codec,
            blocks=tuple(blocks), _plan=True,
        )

    def pslc_read(self, lun: int, block: int, page: int, dram_address: int) -> Task:
        address = PhysicalAddress(block=block, page=page)
        return self.submit(
            pslc_read_op, lun, codec=self.codec, address=address,
            dram_address=dram_address, _plan=True,
        )

    def pslc_program(self, lun: int, block: int, page: int, dram_address: int) -> Task:
        address = PhysicalAddress(block=block, page=page)
        return self.submit(
            pslc_program_op, lun, codec=self.codec, address=address,
            dram_address=dram_address, _plan=True,
        )

    def pslc_erase(self, lun: int, block: int) -> Task:
        return self.submit(pslc_erase_op, lun, codec=self.codec, block=block,
                           _plan=True)

    def read_with_retry(self, lun: int, block: int, page: int,
                        dram_address: int, validate, max_levels: int = 8) -> Task:
        address = PhysicalAddress(block=block, page=page)
        return self.submit(
            read_with_retry_op, lun, codec=self.codec, address=address,
            dram_address=dram_address, validate=validate, max_levels=max_levels,
        )

    def set_features(self, lun: int, feature_address: int,
                     params: tuple[int, int, int, int]) -> Task:
        return self.submit(
            set_features_op, lun, feature_address=feature_address, params=params,
            feat_busy_ns=self.config.vendor.timing.t_feat_ns,
        )

    def get_features(self, lun: int, feature_address: int) -> Task:
        return self.submit(
            get_features_op, lun, feature_address=feature_address,
            feat_busy_ns=self.config.vendor.timing.t_feat_ns,
        )

    def read_id(self, lun: int, area: int = 0x00) -> Task:
        return self.submit(read_id_op, lun, area=area)

    def read_parameter_page(self, lun: int) -> Task:
        return self.submit(
            read_parameter_page_op, lun,
            param_busy_ns=self.config.vendor.timing.t_param_read_ns,
        )

    def reset(self, lun: int) -> Task:
        return self.submit(reset_op, lun)

    # ------------------------------------------------------------------

    def _check_lun(self, lun: int) -> None:
        if not 0 <= lun < len(self.luns):
            raise ValueError(f"LUN {lun} out of range (have {len(self.luns)})")

    def describe(self) -> str:
        cfg = self.config
        return (
            f"BABOL[{cfg.runtime}] {cfg.vendor.manufacturer} x{cfg.lun_count} "
            f"{cfg.interface.name} cpu={self.cpu.describe()}"
        )
