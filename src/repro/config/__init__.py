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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "SPEC_SCHEMA": "specs",
    "BuiltExperiment": "build",
    "CampaignSpec": "specs",
    "ExperimentSpec": "specs",
    "FtlSpec": "specs",
    "GeometrySpec": "specs",
    "OverrideError": "overrides",
    "SpecError": "specs",
    "StackSpec": "specs",
    "WorkloadSpec": "specs",
    "apply_overrides": "overrides",
    "build_baseline": "build",
    "build_controllers": "build",
    "build_experiment": "build",
    "build_stack": "build",
    "canonical_json": "specs",
    "dump_spec": "io",
    "load_spec": "io",
    "load_spec_dict": "io",
    "parse_override": "overrides",
    "stack_profile": "build",
    "to_toml": "io",
})
