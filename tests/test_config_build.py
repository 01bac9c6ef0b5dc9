"""Spec-built stacks.

The contract this file pins: ``build_stack(spec)`` constructs exactly
the stack the historical per-subcommand wiring did — same controller
configs, same prefill — and ``build_experiment`` stands up the engine
the workload describes."""

import dataclasses

import pytest

from repro.config import (
    SpecError,
    build_controllers,
    build_experiment,
    build_stack,
    stack_profile,
)
from repro.config.specs import ExperimentSpec, FtlSpec, StackSpec
from repro.flash.vendors import VENDOR_PROFILES, profile_by_name
from repro.sim import Simulator


@pytest.mark.parametrize("vendor", sorted(VENDOR_PROFILES))
def test_controller_configs_match_legacy_defaults(vendor):
    sim = Simulator()
    controllers = build_controllers(
        sim, StackSpec(vendor=vendor, channels=2, luns_per_channel=3))
    for channel, controller in enumerate(controllers):
        config = controller.config
        assert config.vendor == profile_by_name(vendor)
        assert config.lun_count == 3
        assert config.seed == channel        # the scale stack's convention
        assert config.runtime == "coroutine"
        assert config.fidelity == "waveform"
        assert config.track_data is False


def test_prefill_default_matches_legacy_formula():
    sim = Simulator()
    stack = StackSpec(channels=2, luns_per_channel=2, ftl=FtlSpec())
    _, ftl = build_stack(sim, stack)
    expected = min(ftl.logical_pages, 64 * 2 * 2)
    assert ftl.mapped_count == expected


def test_explicit_prefill_pages_win():
    sim = Simulator()
    stack = StackSpec(channels=1, luns_per_channel=2,
                      ftl=FtlSpec(prefill_pages=5))
    _, ftl = build_stack(sim, stack)
    assert ftl.mapped_count == 5


def test_stack_profile_applies_data_only_overrides():
    stack = StackSpec(vendor="hynix", factory_bad_rate=0.0,
                      geometry=dataclasses.replace(
                          StackSpec().geometry, page_size=2048, planes=1))
    profile = stack_profile(stack)
    assert profile.factory_bad_rate == 0.0
    assert profile.geometry.page_size == 2048
    assert profile.geometry.planes == 1
    # Untouched fields keep the vendor's values.
    assert profile.geometry.pages_per_block == \
        profile_by_name("hynix").geometry.pages_per_block


def test_shim_escape_hatch_for_unregistered_profiles():
    """Ad-hoc VendorProfile objects (the test suites' shrunken
    geometries) cannot be named by a data spec; ``build_stack`` takes
    them through ``profile=``."""
    shrunk = dataclasses.replace(
        profile_by_name("hynix"),
        geometry=dataclasses.replace(profile_by_name("hynix").geometry,
                                     pages_per_block=16, blocks_per_plane=8),
    )
    sim = Simulator()
    controllers, ftl = build_stack(
        sim, StackSpec(channels=1, luns_per_channel=2, ftl=FtlSpec()),
        profile=shrunk)
    assert controllers[0].config.vendor is shrunk
    assert ftl is not None


# --- build_experiment ----------------------------------------------------


def test_build_experiment_runs_the_specified_workload():
    spec = ExperimentSpec.from_dict({
        "name": "tiny",
        "stack": {"channels": 1, "luns_per_channel": 2, "fidelity": "tlm",
                  "ftl": {}},
        "workload": {"io_count": 24, "queue_depth": 4},
    })
    built = build_experiment(spec)
    assert built.spec_hash() == spec.spec_hash()
    result = built.run_workload()
    assert result.commands == 24


def test_build_experiment_without_ftl_has_no_engine():
    built = build_experiment(ExperimentSpec.from_dict(
        {"stack": {"luns_per_channel": 1}}))
    assert built.engine is None and built.ftl is None
    assert built.controller is built.controllers[0]
    with pytest.raises(SpecError, match="no queue-depth engine"):
        built.run_workload()


def test_crashfuzz_mix_forces_ack_recording():
    spec = ExperimentSpec.from_dict({
        "stack": {"channels": 1, "luns_per_channel": 2, "track_data": True,
                  "ftl": {"overprovision_blocks": 4,
                          "checkpoint_interval": 16}},
        "workload": {"mix": "crashfuzz", "io_count": 8, "queue_depth": 4},
    })
    built = build_experiment(spec)
    assert built.engine.record_acks
