"""Sanitizer-clean runs and the attach plumbing.

The false-positive gate: every controller in the repo — BABOL on both
runtimes and the two hardware baselines — must run representative
read/program/erase workloads under *all* sanitizers (plus the
capture-time timing checker) with zero findings.
"""

import pytest

from repro.analysis.diagnostics import DiagnosticReport
from repro.core import BabolController, ControllerConfig
from repro.sanitize import (
    SANITIZER_REGISTRY,
    Sanitizer,
    register_sanitizer,
    resolve_names,
    run_babol_sanitized,
    run_baseline_sanitized,
    sanitize_spec,
)
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE


# -- clean workloads -------------------------------------------------------


@pytest.mark.parametrize("runtime", ["rtos", "coroutine"])
def test_babol_workload_is_sanitizer_clean(runtime):
    report = run_babol_sanitized(
        sanitize_spec(luns=2, ops=6, runtime=runtime), profile=TEST_PROFILE)
    assert report.clean, report.render_text()


@pytest.mark.parametrize("kind", ["sync", "async"])
def test_hw_baselines_are_sanitizer_clean(kind):
    report = run_baseline_sanitized(kind, sanitize_spec(luns=2),
                                    profile=TEST_PROFILE)
    assert report.clean, report.render_text()


def test_reports_pool_across_controllers():
    report = DiagnosticReport()
    run_babol_sanitized(sanitize_spec(luns=2, ops=3), profile=TEST_PROFILE,
                        report=report)
    run_baseline_sanitized("sync", sanitize_spec(luns=1),
                           profile=TEST_PROFILE, report=report)
    assert report.clean
    assert report.exit_code() == 0


# -- selection / attach plumbing --------------------------------------------


def test_resolve_names_variants():
    assert resolve_names(None) == ()
    assert resolve_names("") == ()
    assert resolve_names("bus,flash") == ("bus", "flash")
    assert resolve_names(["memory"]) == ("memory",)
    assert set(resolve_names("all")) >= {"bus", "flash", "memory", "liveness"}


def test_resolve_names_rejects_unknown():
    with pytest.raises(ValueError, match="unknown sanitizer"):
        resolve_names("bus,tsan")


def test_controller_constructor_attaches_and_shares_one_report():
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=2, track_data=False),
        sanitizers="all",
    )
    assert len(controller.sanitizers) >= 4
    assert controller.diagnostics is not None
    assert all(s.report is controller.diagnostics
               for s in controller.sanitizers)
    # The hooks really landed on the component models.
    assert controller.channel._san_bus is not None
    assert controller.dram._sanitizer is not None
    assert sim._san_liveness is not None
    assert all(lun._san_flash is not None for lun in controller.luns)


def test_unsanitized_controller_carries_only_none_hooks():
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=2, track_data=False),
    )
    assert controller.sanitizers == ()
    assert controller.diagnostics is None
    assert controller.channel._san_bus is None
    assert controller.dram._sanitizer is None
    assert sim._san_liveness is None


def test_config_field_selects_sanitizers():
    sim = Simulator()
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=1, track_data=False,
                         sanitizers="bus"),
    )
    assert [s.name for s in controller.sanitizers] == ["bus"]
    assert controller.channel._san_bus is controller.sanitizers[0]
    assert controller.dram._sanitizer is None


def test_custom_sanitizer_registers_and_attaches():
    class CountingSanitizer(Sanitizer):
        name = "counting"

        def attach(self, target, report):
            super().attach(target, report)
            self.attached_to = target

    register_sanitizer("counting", CountingSanitizer)
    try:
        sim = Simulator()
        controller = BabolController(
            sim,
            ControllerConfig(vendor=TEST_PROFILE, lun_count=1,
                             track_data=False),
            sanitizers="counting",
        )
        (sanitizer,) = controller.sanitizers
        assert isinstance(sanitizer, CountingSanitizer)
        assert sanitizer.attached_to is controller
        sanitizer.emit("SAN901", "custom rule", severity="info")
        assert controller.diagnostics.findings[0].rule == "SAN901"
    finally:
        SANITIZER_REGISTRY.pop("counting", None)


def test_sanitized_run_matches_unsanitized_timing():
    """Sanitizers observe; they must never perturb simulated time."""

    def elapsed(sanitizers):
        sim = Simulator()
        controller = BabolController(
            sim,
            ControllerConfig(vendor=TEST_PROFILE, lun_count=2,
                             track_data=False, seed=9),
            sanitizers=sanitizers,
        )
        controller.run_to_completion(controller.read_page(0, 1, 0, 0))
        controller.run_to_completion(controller.erase_block(1, 1))
        return sim.now

    assert elapsed(None) == elapsed("all")
