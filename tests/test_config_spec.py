"""The spec layer itself: round-trips, canonical hashing, defaulting,
override parsing, and one red test per cross-field validation rule."""

import json
import sys

import pytest

from repro.config import (
    SPEC_SCHEMA,
    ExperimentSpec,
    OverrideError,
    SpecError,
    apply_overrides,
    canonical_json,
    load_spec,
    parse_override,
    to_toml,
)
from repro.config.specs import (
    CampaignSpec,
    FidelityError,
    FtlSpec,
    GeometrySpec,
    StackSpec,
    WorkloadSpec,
)

# A document exercising every section, including non-default nesting.
FULL_DOC = {
    "schema": SPEC_SCHEMA,
    "name": "full",
    "description": "everything set",
    "stack": {
        "vendor": "micron",
        "channels": 2,
        "luns_per_channel": 3,
        "runtime": "rtos",
        "interface_mt": 100,
        "fidelity": "waveform",
        "track_data": True,
        "seed": 9,
        "noiseless": True,
        "factory_bad_rate": 0.01,
        "sanitizers": ["memory", "liveness"],
        "watchdog": True,
        "timing_overrides": {"t_read_ns": 40000},
        "geometry": {"page_size": 2048, "pages_per_block": 16},
        "ftl": {"blocks_per_lun": 10, "overprovision_blocks": 4,
                "checkpoint_interval": 48},
    },
    "workload": {
        "mix": "write",
        "pattern": "random",
        "io_count": 64,
        "queue_depth": 8,
        "doorbell_batch": 2,
        "seed": 5,
    },
    "campaign": {"plan": "chaos-default", "seed": 11, "baselines": False},
}


# --- round-trips ---------------------------------------------------------


def test_sparse_dict_round_trip():
    spec = ExperimentSpec.from_dict(FULL_DOC)
    again = ExperimentSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.spec_hash() == spec.spec_hash()


def test_resolved_dict_round_trip():
    spec = ExperimentSpec.from_dict(FULL_DOC)
    again = ExperimentSpec.from_dict(spec.resolved())
    assert again == spec


def test_empty_document_is_the_stock_experiment():
    spec = ExperimentSpec.from_dict({})
    assert spec.stack == StackSpec()
    assert spec.workload == WorkloadSpec()
    assert spec.campaign is None
    # Sparse form of the default spec carries only schema + name.
    assert spec.to_dict() == {
        "schema": SPEC_SCHEMA, "name": "experiment",
        "stack": {}, "workload": {},
    }


def test_json_round_trip_through_text():
    spec = ExperimentSpec.from_dict(FULL_DOC)
    again = ExperimentSpec.from_dict(json.loads(spec.to_json()))
    assert again == spec


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="tomllib ships with Python 3.11+")
def test_toml_round_trip_preserves_hash(tmp_path):
    import tomllib

    spec = ExperimentSpec.from_dict(FULL_DOC)
    rendered = to_toml(spec)
    again = ExperimentSpec.from_dict(tomllib.loads(rendered))
    assert again == spec
    assert again.spec_hash() == spec.spec_hash()


def test_load_spec_reads_both_formats(tmp_path):
    spec = ExperimentSpec.from_dict(FULL_DOC)
    jpath = tmp_path / "s.json"
    jpath.write_text(spec.to_json())
    tpath = tmp_path / "s.toml"
    tpath.write_text(to_toml(spec))
    assert load_spec(str(jpath)) == spec
    if sys.version_info >= (3, 11):
        assert load_spec(str(tpath)) == spec


def test_load_spec_prefixes_errors_with_the_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"stack": {"vendor": "nope"}}')
    with pytest.raises(SpecError, match="bad.json"):
        load_spec(str(path))


# --- canonical hash ------------------------------------------------------


def test_hash_stable_across_key_order():
    shuffled = {
        "workload": dict(reversed(list(FULL_DOC["workload"].items()))),
        "stack": dict(reversed(list(FULL_DOC["stack"].items()))),
        "campaign": FULL_DOC["campaign"],
        "name": "full",
        "description": "everything set",
        "schema": SPEC_SCHEMA,
    }
    assert (ExperimentSpec.from_dict(shuffled).spec_hash()
            == ExperimentSpec.from_dict(FULL_DOC).spec_hash())


def test_hash_stable_across_spelled_out_defaults():
    sparse = ExperimentSpec.from_dict({"name": "x"})
    explicit = ExperimentSpec.from_dict({
        "name": "x",
        "stack": {"vendor": "hynix", "channels": 1, "runtime": "coroutine"},
        "workload": {"mix": "read", "queue_depth": 32},
    })
    assert sparse.spec_hash() == explicit.spec_hash()


def test_hash_differs_when_the_experiment_differs():
    base = ExperimentSpec.from_dict({})
    other = ExperimentSpec.from_dict({"stack": {"channels": 2}})
    assert base.spec_hash() != other.spec_hash()


def test_canonical_json_is_deterministic():
    assert canonical_json({"b": 1, "a": [True, None]}) == \
        '{"a":[true,null],"b":1}'


# --- validation: one red test per cross-field rule -----------------------


def test_waveform_only_sanitizer_under_tlm_is_rejected_at_parse_time():
    with pytest.raises(FidelityError, match="bus"):
        ExperimentSpec.from_dict({
            "stack": {"fidelity": "tlm", "sanitizers": ["bus"]},
        })


def test_doorbell_batch_cannot_exceed_queue_depth():
    with pytest.raises(SpecError, match="doorbell_batch"):
        ExperimentSpec.from_dict({
            "workload": {"queue_depth": 2, "doorbell_batch": 4},
        })


def test_crashfuzz_mix_requires_checkpointing_ftl():
    with pytest.raises(SpecError, match="checkpoint_interval"):
        ExperimentSpec.from_dict({"workload": {"mix": "crashfuzz"}})
    with pytest.raises(SpecError, match="checkpoint_interval"):
        ExperimentSpec.from_dict({
            "workload": {"mix": "crashfuzz"},
            "stack": {"ftl": {"checkpoint_interval": 0}},
        })


@pytest.mark.parametrize("ftl, spare", (
    ({"overprovision_blocks": 1}, 1),
    ({"overprovision_blocks": 3, "checkpoint_interval": 48}, 1),
    ({"overprovision_blocks": 5, "checkpoint_interval": 48,
      "meta_blocks": 4}, 1),
), ids=("volatile", "persistent", "bigger-meta-ring"))
def test_spare_blocks_must_hold_the_gc_reserve(ftl, spare):
    stack = {"track_data": True, "luns_per_channel": 2,
             "ftl": {"blocks_per_lun": 10, **ftl}}
    with pytest.raises(SpecError, match=rf"leaves {spare} spare block"):
        ExperimentSpec.from_dict({"stack": stack})
    # One more overprovisioned block is enough.
    stack["ftl"]["overprovision_blocks"] += 1
    ExperimentSpec.from_dict({"stack": stack})


def test_persistent_ftl_needs_a_second_page_per_block():
    """Found at 08fb7bd as `crashfuzz --set stack.geometry.pages_per_block=1`
    -> exit 2, ``ValueError('page 1 out of range')`` mid-run: the meta
    ring writes a checkpoint page, then the journal page behind it."""
    with pytest.raises(SpecError, match="pages_per_block must be >= 2"):
        ExperimentSpec.from_dict({
            "stack": {"geometry": {"pages_per_block": 1}, "track_data": True,
                      "ftl": {"checkpoint_interval": 48,
                              "overprovision_blocks": 4}},
        })
    # The rule is the pair: a volatile FTL on one-page blocks, and a
    # persistent one on two-page blocks, are both fine.
    ExperimentSpec.from_dict({
        "stack": {"geometry": {"pages_per_block": 1}, "ftl": {}}})
    ExperimentSpec.from_dict({
        "stack": {"geometry": {"pages_per_block": 2}, "track_data": True,
                  "ftl": {"checkpoint_interval": 48,
                          "overprovision_blocks": 4}}})


def test_unknown_fields_are_rejected_everywhere():
    with pytest.raises(SpecError, match="unknown spec field"):
        ExperimentSpec.from_dict({"stacc": {}})
    with pytest.raises(SpecError, match="unknown stack field"):
        ExperimentSpec.from_dict({"stack": {"chanels": 2}})
    with pytest.raises(SpecError, match="unknown workload field"):
        ExperimentSpec.from_dict({"workload": {"iodepth": 2}})
    with pytest.raises(SpecError, match="unknown campaign field"):
        ExperimentSpec.from_dict({"campaign": {"sed": 2}})
    # A field the FTL no longer has (its one value is now the rule).
    with pytest.raises(SpecError, match="unknown stack.ftl field"):
        ExperimentSpec.from_dict({"stack": {"ftl": {"gc_free_threshold": 2}}})


def test_future_schema_is_rejected():
    with pytest.raises(SpecError, match="unsupported"):
        ExperimentSpec.from_dict({"schema": SPEC_SCHEMA + 1})


def test_bool_is_not_an_int():
    with pytest.raises(SpecError, match="must be an integer"):
        ExperimentSpec.from_dict({"stack": {"channels": True}})


def test_factory_bad_rate_range():
    with pytest.raises(SpecError, match="factory_bad_rate"):
        ExperimentSpec.from_dict({"stack": {"factory_bad_rate": 1.5}})


def test_geometry_must_be_positive():
    with pytest.raises(SpecError, match="geometry.page_size"):
        ExperimentSpec.from_dict({"stack": {"geometry": {"page_size": 0}}})


def test_dram_must_hold_one_full_page_of_the_resolved_geometry():
    """The floor every stack needs; a mid-run bounds error at d304518."""
    full = 16384 + 2048  # hynix data + spare
    with pytest.raises(SpecError, match=rf"stack\.dram_size={full - 1} is too "
                                        rf"small.*needs {full} bytes"):
        ExperimentSpec.from_dict({"stack": {"dram_size": full - 1}})
    ExperimentSpec.from_dict({"stack": {"dram_size": full}})
    # The geometry overrides move the floor with them.
    small = {"page_size": 512, "spare_size": 16}
    ExperimentSpec.from_dict({"stack": {"dram_size": 528, "geometry": small}})
    with pytest.raises(SpecError, match="needs 528 bytes"):
        ExperimentSpec.from_dict(
            {"stack": {"dram_size": 527, "geometry": small}})


def test_dram_must_reach_past_the_ftl_staging_area():
    base = FtlSpec().gc_staging_base
    need = base + 3 * (16384 + 2048)
    with pytest.raises(SpecError, match=rf"gc_staging_base needs {need} bytes"):
        ExperimentSpec.from_dict({"stack": {"dram_size": need - 1, "ftl": {}}})
    ExperimentSpec.from_dict({"stack": {"dram_size": need, "ftl": {}}})


HYNIX_FULL = 16384 + 2048
# ftl/ftl.py::_gc_staging: one full page per (LUN, block) below the base
# (stock stack: 4 LUNs x 8 blocks).
GC_SLOTS = 4 * 8 * HYNIX_FULL


def test_gc_staging_base_must_leave_room_for_the_gc_slots_below_it():
    """Below GC_SLOTS the lowest slot address went negative, silently."""
    above = {"dram_base": 8 << 20}  # the host slot pool out of the way
    with pytest.raises(SpecError, match=rf"stack\.ftl\.gc_staging_base="
                                        rf"{GC_SLOTS - 1} is too low.*"
                                        rf"need {GC_SLOTS} bytes"):
        ExperimentSpec.from_dict({
            "stack": {"ftl": {"gc_staging_base": GC_SLOTS - 1}},
            "workload": above})
    ExperimentSpec.from_dict({
        "stack": {"ftl": {"gc_staging_base": GC_SLOTS}}, "workload": above})
    # The geometry and topology move the floor with them.
    with pytest.raises(SpecError, match="need 4224 bytes"):
        ExperimentSpec.from_dict({
            "stack": {"luns_per_channel": 1,
                      "geometry": {"page_size": 2048, "spare_size": 64},
                      "ftl": {"gc_staging_base": 4223, "blocks_per_lun": 2,
                              "overprovision_blocks": 1}},
            "workload": above})


def test_gc_staging_must_not_overlap_the_host_slot_pool():
    """32 slots of 32 KiB from 0 end at 31 x 32768 + one full page; the
    FTL staging [base - GC_SLOTS, base + 3 pages) must start there."""
    pool_end = 31 * 32768 + HYNIX_FULL
    lowest = pool_end + GC_SLOTS
    with pytest.raises(SpecError, match=rf"gc_staging_base={lowest - 1} puts "
                                        rf".*overlaps the host slot pool "
                                        rf"\[0, {pool_end}\)"):
        ExperimentSpec.from_dict(
            {"stack": {"ftl": {"gc_staging_base": lowest - 1}}})
    ExperimentSpec.from_dict({"stack": {"ftl": {"gc_staging_base": lowest}}})
    # A pool placed just past the meta staging pages is clear of it too.
    base = 4 << 20
    ExperimentSpec.from_dict({
        "stack": {"ftl": {"gc_staging_base": base}},
        "workload": {"dram_base": base + 3 * HYNIX_FULL}})
    with pytest.raises(SpecError, match="overlaps the host slot pool"):
        ExperimentSpec.from_dict({
            "stack": {"ftl": {"gc_staging_base": base}},
            "workload": {"dram_base": base + 3 * HYNIX_FULL - 1}})


def test_dram_stride_must_hold_a_full_page():
    with pytest.raises(SpecError, match=rf"workload\.dram_stride="
                                        rf"{HYNIX_FULL - 1} is smaller than "
                                        rf"a full page \({HYNIX_FULL} bytes"):
        ExperimentSpec.from_dict({"workload": {"dram_stride": HYNIX_FULL - 1}})
    ExperimentSpec.from_dict({"workload": {"dram_stride": HYNIX_FULL}})
    # One slot cannot overlap another.
    ExperimentSpec.from_dict({"workload": {"dram_stride": 1, "queue_depth": 1,
                                           "doorbell_batch": 1}})


def test_the_host_slot_pool_is_sized_when_the_engine_is_built():
    """queue_depth x dram_stride from dram_base, checked by the factory
    before anything is staged (the FTL staging moved out of the way)."""
    from repro.config import build_experiment

    full = 16384 + 2048
    stack = {"ftl": {"gc_staging_base": 4 << 20, "prefill_pages": 0}}
    workload = {"queue_depth": 256, "dram_base": 8 << 20}
    need = (8 << 20) + 255 * 32768 + full
    build = lambda size: build_experiment(ExperimentSpec.from_dict(
        {"stack": {**stack, "dram_size": size}, "workload": workload}))
    with pytest.raises(SpecError, match=rf"host slot pool.*needs {need} bytes"):
        build(need - 1)
    assert build(need).engine.queue_depth == 256


def test_inline_faults_are_validated():
    with pytest.raises(SpecError, match="campaign.faults"):
        ExperimentSpec.from_dict({
            "campaign": {"faults": [{"kind": "meteor-strike"}]},
        })


def test_replace_revalidates():
    spec = ExperimentSpec.from_dict({})
    with pytest.raises(SpecError):
        spec.replace(name="")


def test_specs_are_frozen_and_hashable():
    spec = ExperimentSpec.from_dict(FULL_DOC)
    with pytest.raises(Exception):
        spec.name = "other"
    assert len({spec, ExperimentSpec.from_dict(FULL_DOC)}) == 1
    assert isinstance(hash(spec), int)


def test_component_defaults_round_trip():
    for cls in (GeometrySpec, FtlSpec, WorkloadSpec, CampaignSpec):
        assert cls.from_dict(cls().to_dict()) == cls()


# --- overrides -----------------------------------------------------------


def test_parse_override_json_values():
    assert parse_override("stack.channels=8") == (("stack", "channels"), 8)
    assert parse_override("stack.noiseless=true") == \
        (("stack", "noiseless"), True)
    assert parse_override("stack.seed=null") == (("stack", "seed"), None)
    assert parse_override("stack.sanitizers=[\"memory\"]") == \
        (("stack", "sanitizers"), ["memory"])


def test_parse_override_bare_strings():
    assert parse_override("stack.vendor=micron") == \
        (("stack", "vendor"), "micron")


def test_parse_override_rejects_malformed():
    with pytest.raises(OverrideError):
        parse_override("no-equals-sign")
    with pytest.raises(OverrideError):
        parse_override("=5")
    with pytest.raises(OverrideError):
        parse_override("stack..channels=2")


def test_apply_overrides_creates_intermediate_objects():
    doc = {}
    apply_overrides(doc, ["stack.ftl.checkpoint_interval=48"])
    assert doc == {"stack": {"ftl": {"checkpoint_interval": 48}}}


def test_apply_overrides_refuses_to_tunnel_through_scalars():
    with pytest.raises(OverrideError, match="not an object"):
        apply_overrides({"stack": 3}, ["stack.channels=2"])


def test_overridden_documents_still_validate():
    doc = {}
    apply_overrides(doc, ["workload.queue_depth=1",
                          "workload.doorbell_batch=4"])
    with pytest.raises(SpecError, match="doorbell_batch"):
        ExperimentSpec.from_dict(doc)
