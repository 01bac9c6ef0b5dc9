"""Declarative experiment specs: the whole stack as data.

BABOL's claim is that the controller is *software-defined*; this
package makes the experiments software-defined too.  A
:class:`~repro.config.specs.StackSpec` describes a controller array
(vendor, geometry/timing overrides, fidelity tier, channels x LUNs,
DRAM, FTL sizing), a :class:`~repro.config.specs.WorkloadSpec`
describes what to push through it (mix, queue depth, doorbell
batching, op count, seed), a :class:`~repro.config.specs.CampaignSpec`
references a fault plan, and an
:class:`~repro.config.specs.ExperimentSpec` bundles all three under a
name.  Specs are frozen, validated at parse time, round-trip through
JSON and TOML, and carry a canonical content hash
(:meth:`~repro.config.specs.ExperimentSpec.spec_hash`) that every
emitted artifact embeds — so any result file names the exact
experiment that produced it.

:mod:`repro.config.build` is the single factory every CLI subcommand,
benchmark, chaos campaign, fuzzer, perf sweep and sanitizer run builds
its stacks through.
"""

from repro.config.build import (
    BuiltExperiment,
    build_baseline,
    build_controllers,
    build_experiment,
    build_stack,
    stack_profile,
)
from repro.config.io import dump_spec, load_spec, load_spec_dict, to_toml
from repro.config.overrides import OverrideError, apply_overrides, parse_override
from repro.config.specs import (
    SPEC_SCHEMA,
    CampaignSpec,
    ExperimentSpec,
    FtlSpec,
    GeometrySpec,
    SpecError,
    StackSpec,
    WorkloadSpec,
    canonical_json,
)

__all__ = [
    "SPEC_SCHEMA",
    "BuiltExperiment",
    "CampaignSpec",
    "ExperimentSpec",
    "FtlSpec",
    "GeometrySpec",
    "OverrideError",
    "SpecError",
    "StackSpec",
    "WorkloadSpec",
    "apply_overrides",
    "build_baseline",
    "build_controllers",
    "build_experiment",
    "build_stack",
    "canonical_json",
    "dump_spec",
    "load_spec",
    "load_spec_dict",
    "parse_override",
    "stack_profile",
    "to_toml",
]
