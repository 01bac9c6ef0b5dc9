"""One factory from spec to running stack.

This module is the single construction path behind every CLI
subcommand, benchmark, chaos campaign, crash fuzzer, perf sweep and
sanitizer run: spec in, ``(sim, controllers, ftl, engine)`` out.  A
harness that fixes a field for one phase, cut point, remount or sweep
cell derives that phase's stack with ``dataclasses.replace(spec.stack,
...)`` and builds it here — :func:`build_controllers`,
:func:`build_baseline`, :func:`build_stack`, :func:`build_experiment` —
so the spec an artifact embeds is the stack that ran.  The
construction order — controllers, then the sharded FTL, then prefill,
then the queue-depth engine — is fixed, so the same spec always builds
the same stack.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.config.specs import (
    ExperimentSpec,
    SpecError,
    StackSpec,
    require_dram,
)


def stack_profile(stack: StackSpec):
    """The :class:`~repro.flash.vendors.VendorProfile` a stack resolves
    to: the named vendor with the spec's data-only overrides applied."""
    from repro.flash.vendors import profile_by_name

    profile = profile_by_name(stack.vendor)
    overrides = {
        name: value
        for name, value in stack.geometry.to_dict().items()
        if value is not None
    }
    if overrides:
        profile = dataclasses.replace(
            profile, geometry=dataclasses.replace(profile.geometry, **overrides)
        )
    if stack.factory_bad_rate is not None:
        profile = dataclasses.replace(
            profile, factory_bad_rate=stack.factory_bad_rate)
    if stack.timing_overrides:
        merged = dict(profile.timing_overrides)
        merged.update(stack.timing_overrides)
        profile = dataclasses.replace(
            profile, timing_overrides=tuple(sorted(merged.items())))
    return profile


def _interface(stack: StackSpec):
    from repro.onfi.datamodes import NVDDR2_100, NVDDR2_200

    return NVDDR2_200 if stack.interface_mt == 200 else NVDDR2_100


def _make_noiseless(controller) -> None:
    """Zero the RBER model: content checks see stored bytes, not noise."""
    from repro.flash.errors import ErrorModelConfig

    for lun in controller.luns:
        lun.array.error_model.config = ErrorModelConfig.noiseless()


def build_controllers(sim, stack: StackSpec, profile=None,
                      diagnostics=None) -> list:
    """One :class:`BabolController` per channel, per the spec.

    ``profile`` overrides the resolved vendor profile — how tests
    substitute ad-hoc profiles (shrunken geometries) that a data spec
    cannot name.
    """
    from repro.core.controller import BabolController, ControllerConfig

    stack.validate()
    if profile is None:
        profile = stack_profile(stack)
    watchdog = None
    if stack.watchdog:
        from repro.core.recovery import Watchdog

        watchdog = Watchdog.for_vendor(profile)
    controllers = []
    for channel in range(stack.channels):
        config = ControllerConfig(
            vendor=profile,
            lun_count=stack.luns_per_channel,
            interface=_interface(stack),
            runtime=stack.runtime,
            cpu_freq_hz=stack.cpu_freq_hz,
            dram_size=stack.dram_size,
            track_data=stack.track_data,
            seed=stack.seed if stack.seed is not None else channel,
            fidelity=stack.fidelity,
            sanitizers=stack.sanitizers,
            watchdog=watchdog,
        )
        controller = BabolController(sim, config, diagnostics=diagnostics)
        if stack.noiseless:
            _make_noiseless(controller)
        controllers.append(controller)
    return controllers


def build_baseline(sim, stack: StackSpec, kind: str, profile=None,
                   diagnostics=None):
    """The ``"sync"`` or ``"async"`` hardware baseline of one channel
    of ``stack``: every field a hardware controller has (a baseline has
    no runtime, CPU or watchdog to configure).  ``profile`` and
    ``diagnostics`` are as for :func:`build_controllers`."""
    from repro.baselines import AsyncHwController, SyncHwController

    stack.validate()
    controller = {"sync": SyncHwController, "async": AsyncHwController}[kind](
        sim,
        vendor=profile if profile is not None else stack_profile(stack),
        lun_count=stack.luns_per_channel,
        interface=_interface(stack),
        dram_size=stack.dram_size,
        track_data=stack.track_data,
        seed=stack.seed if stack.seed is not None else 0,
        fidelity=stack.fidelity,
    )
    if stack.noiseless:
        _make_noiseless(controller)
    if stack.sanitizers:
        from repro.sanitize.base import attach_sanitizers

        attach_sanitizers(controller, stack.sanitizers, diagnostics)
    return controller


def build_stack(sim, stack: StackSpec, profile=None):
    """Controllers plus (when the spec asks for one) a sharded FTL.

    Returns ``(controllers, ftl)``; ``ftl`` is ``None`` when
    ``stack.ftl`` is, a :class:`~repro.ftl.ftl.ShardedFtl` otherwise —
    prefilled per the spec (default: the historical
    ``min(logical_pages, 64 * channels * luns)``).
    """
    controllers = build_controllers(sim, stack, profile=profile)
    if stack.ftl is None:
        return controllers, None
    from repro.ftl.ftl import ShardedFtl

    ftl = ShardedFtl(sim, controllers, stack.ftl.to_ftl_config())
    prefill = stack.ftl.prefill_pages
    if prefill is None:
        prefill = min(ftl.logical_pages,
                      64 * stack.channels * stack.luns_per_channel)
    if prefill:
        ftl.prefill(prefill)
    return controllers, ftl


@dataclass
class BuiltExperiment:
    """A stood-up experiment: the spec plus everything it built."""

    spec: ExperimentSpec
    sim: object
    controllers: list
    ftl: object = None
    engine: object = None

    @property
    def controller(self):
        """The single controller of a 1-channel stack."""
        if len(self.controllers) != 1:
            raise SpecError(
                f"experiment has {len(self.controllers)} channels; "
                f"use .controllers"
            )
        return self.controllers[0]

    def spec_hash(self) -> str:
        return self.spec.spec_hash()

    def scale_job(self, **overrides):
        """The :class:`~repro.host.engine.ScaleJob` this spec's
        workload describes (single-opcode mixes only)."""
        from repro.host.engine import ScaleJob

        workload = self.spec.workload
        kwargs = dict(
            pattern=workload.pattern,
            opcode=workload.opcode(),
            io_count=workload.io_count,
            seed=workload.seed,
            working_set_pages=workload.working_set_pages,
            dram_stride=workload.dram_stride,
            dram_base=workload.dram_base,
        )
        kwargs.update(overrides)
        return ScaleJob(**kwargs)

    def run_workload(self, job=None):
        """Drive the spec's workload through the engine; returns the
        :class:`~repro.host.engine.ScaleRunResult`."""
        from repro.host.engine import run_scale_workload

        if self.engine is None:
            raise SpecError(
                "experiment has no queue-depth engine (stack.ftl is null)"
            )
        return run_scale_workload(self.sim, self.engine,
                                  job or self.scale_job())


def build_experiment(spec: ExperimentSpec, sim=None,
                     record_acks: bool = False,
                     auto_dram: bool = False) -> BuiltExperiment:
    """Stand up the whole experiment one spec describes.

    A fresh :class:`~repro.sim.Simulator` is created unless ``sim`` is
    passed.  When the stack has an FTL, a
    :class:`~repro.host.engine.ScaleEngine` is built over it with the
    workload's queue depth and doorbell batch.
    """
    spec.validate()
    if sim is None:
        from repro.sim import Simulator

        sim = Simulator()
    controllers, ftl = build_stack(sim, spec.stack)
    engine = None
    if ftl is not None:
        from repro.host.engine import ScaleEngine

        workload = spec.workload
        require_dram(
            spec.stack.dram_size,
            workload.dram_base + (workload.queue_depth - 1)
            * workload.dram_stride
            + controllers[0].codec.geometry.full_page_size,
            f"the host slot pool (workload.queue_depth="
            f"{workload.queue_depth} slots of workload.dram_stride)")
        engine = ScaleEngine(
            sim, ftl,
            queue_depth=workload.queue_depth,
            doorbell_batch=workload.doorbell_batch,
            record_acks=record_acks or workload.mix == "crashfuzz",
            auto_dram=auto_dram or workload.mix == "crashfuzz",
            dram_base=workload.dram_base,
            dram_stride=workload.dram_stride,
        )
    return BuiltExperiment(spec=spec, sim=sim, controllers=controllers,
                           ftl=ftl, engine=engine)
