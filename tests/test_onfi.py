"""Unit tests for the ONFI substrate (commands, timing, modes, status,
geometry, features, waveform segments)."""

import dataclasses
import random

import pytest

from repro.onfi import (
    CMD,
    AddressCodec,
    AddressLatch,
    CommandClass,
    CommandLatch,
    DataOutAction,
    FeatureAddress,
    FeatureStore,
    Geometry,
    IdleWait,
    NVDDR2_100,
    NVDDR2_200,
    PhysicalAddress,
    Pin,
    SDR_MODE0,
    SegmentKind,
    StatusBits,
    StatusRegister,
    TimingSet,
    WaveformSegment,
    classify_opcode,
    interface_by_name,
    opcode_name,
    timing_for_mode,
)


# --- commands -----------------------------------------------------------


def test_classify_core_opcodes():
    assert classify_opcode(CMD.READ_1ST) is CommandClass.READ
    assert classify_opcode(CMD.READ_2ND) is CommandClass.READ_CONFIRM
    assert classify_opcode(CMD.READ_STATUS) is CommandClass.STATUS
    assert classify_opcode(CMD.PROGRAM_1ST) is CommandClass.PROGRAM
    assert classify_opcode(CMD.ERASE_1ST) is CommandClass.ERASE
    assert classify_opcode(CMD.RESET) is CommandClass.RESET
    assert classify_opcode(0xB7) is CommandClass.UNKNOWN


def test_vendor_opcodes_classified():
    assert classify_opcode(CMD.VENDOR_PSLC_ENTER) is CommandClass.VENDOR
    assert classify_opcode(CMD.VENDOR_SUSPEND) is CommandClass.VENDOR


def test_opcode_name_lookup():
    assert opcode_name(CMD.READ_STATUS) == "READ_STATUS"
    assert opcode_name(0xB7) == "0xB7"


# --- the protocol table (repro.onfi.protocol) ---------------------------------

#: classify_opcode() as it answered before the table existed (PR 12's
#: commands._CLASS_TABLE), minus READ UNIQUE ID, which nothing implemented.
PINNED_CLASSES = {
    0x00: "read", 0x30: "read_confirm", 0x32: "read_confirm",
    0x31: "cache_read_confirm", 0x3F: "cache_read_end",
    0x05: "change_read_column", 0xE0: "change_read_column",
    0x06: "change_read_column", 0x70: "status", 0x78: "status",
    0x80: "program", 0x10: "program_confirm", 0x11: "program_confirm",
    0x15: "cache_program_confirm", 0x85: "change_write_column",
    0x60: "erase", 0xD0: "erase_confirm", 0xD1: "erase_confirm",
    0x90: "ident", 0xEC: "ident", 0xEF: "features", 0xEE: "features",
    0xFF: "reset", 0xFC: "reset", 0xFA: "reset",
    0xA2: "vendor", 0xA3: "vendor", 0x61: "vendor", 0xD2: "vendor",
}


def _cmd_constants():
    return {name: value for name, value in vars(CMD).items()
            if not name.startswith("_") and isinstance(value, int)}


def test_every_cmd_constant_has_exactly_one_row_except_read_unique_id():
    from repro.onfi import protocol

    by_opcode = {}
    for row in protocol._ROWS:
        by_opcode.setdefault(row.opcode, []).append(row)
    assert all(len(rows) == 1 for rows in by_opcode.values())
    constants = _cmd_constants()
    assert set(by_opcode) == set(constants.values()) - {CMD.READ_UNIQUE_ID}
    assert set(protocol.OPCODES) == set(by_opcode)
    for name, value in constants.items():
        if value != CMD.READ_UNIQUE_ID:
            assert protocol.OPCODES[value].name == name


def test_classify_and_name_unchanged_for_all_256_bytes():
    names = {value: name for name, value in _cmd_constants().items()}
    for byte in range(256):
        expected = PINNED_CLASSES.get(byte, "unknown")
        assert classify_opcode(byte).value == expected, hex(byte)
        assert opcode_name(byte) == names.get(byte, f"0x{byte:02X}")
    # The constant survives for capture rendering; the class does not.
    assert opcode_name(CMD.READ_UNIQUE_ID) == "READ_UNIQUE_ID"
    assert classify_opcode(CMD.READ_UNIQUE_ID) is CommandClass.UNKNOWN


def test_row_columns_name_real_attributes():
    import dataclasses

    from repro.flash.cell import CellModeProfile
    from repro.flash.vendors import VENDOR_PROFILES, VendorProfile
    from repro.onfi.protocol import OPCODES, Effect

    timing_fields = {f.name for f in dataclasses.fields(TimingSet)}
    scale_fields = {f.name for f in dataclasses.fields(CellModeProfile)}
    capabilities = {f.name for f in dataclasses.fields(VendorProfile)}
    assert VENDOR_PROFILES
    for row in OPCODES.values():
        assert row.addr_format in (None, "full", "row", "col", "one")
        assert row.arm_at in ("now", "busy_end")
        assert row.wait_after is None or row.wait_after in timing_fields
        assert row.requires is None or row.requires in capabilities
        # A LATCH row is exactly a row that expects an address (status
        # enhanced carries one too, but stays a STATUS).
        if row.effect is Effect.LATCH:
            assert row.addr_format is not None
        if row.arm_at == "busy_end":
            assert row.busy is not None and row.busy.holds_rb
        spec = row.busy
        if spec is None:
            continue
        assert spec.opens_on in ("command", "address", "data_in")
        assert spec.scale is None or spec.scale in scale_fields
        # Only the array confirms open a window whose price depends on
        # the cell mode: they are the handlers that resolve it
        # (Lun._confirm / _confirm_cache_read hand it to _busy_ns).
        assert not spec.jittered or row.effect in (
            Effect.CONFIRM, Effect.CACHE_CONFIRM)
        for vendor in VENDOR_PROFILES.values():
            assert isinstance(getattr(vendor.timing, spec.timing), int)


def test_timing_rules_name_timing_set_fields_and_known_events():
    import dataclasses

    from repro.onfi.protocol import (
        OPCODES, TIMING_RULES, burst_events, latch_events)

    fields = {f.name for f in dataclasses.fields(TimingSet)}
    assert [rule.param for rule in TIMING_RULES] == [
        "tWB", "tWHR", "tRR", "tRHW", "tCCS"]
    events = {"ready", *burst_events(1), *burst_events(2),
              *latch_events(None)}
    for row in OPCODES.values():
        events.update(latch_events(row))
    static_ids, runtime_ids = set(), set()
    for rule in TIMING_RULES:
        assert rule.param in fields
        assert rule.anchor in events and rule.trigger in events
        # An adjacency rule compares against the previous *wire* event.
        assert not rule.adjacent or rule.anchor in ("cmd", "data_out")
        static_ids.add(rule.static_id)
        runtime_ids.add(rule.runtime_id)
    assert static_ids == {f"OPV20{n}" for n in range(1, 6)}
    assert runtime_ids == {"TCK002", "TCK005", "TCK006", "TCK007", "TCK008"}


def test_internals_rule_table_is_rendered_from_the_rule_list():
    import pathlib

    from repro.onfi.protocol import TIMING_RULES

    internals = (pathlib.Path(__file__).resolve().parents[1]
                 / "docs" / "INTERNALS.md").read_text()
    for rule in TIMING_RULES:
        condition = ("adjacent wire events only" if rule.adjacent
                     else "anchor consumed by the first trigger"
                     if rule.consumed else "anchor persists")
        assert (f"| `{rule.param}` | {rule.anchor} | {rule.trigger} | "
                f"{condition} | `{rule.static_id}` | `{rule.runtime_id}` |"
                ) in internals


def test_every_effect_is_handled_by_the_model_and_the_verifier():
    from repro.analysis.opver import _Verifier
    from repro.flash.lun import Lun
    from repro.onfi.protocol import Effect

    assert set(Lun._EFFECTS) == set(Effect) == set(_Verifier._EFFECTS)


# --- data modes -----------------------------------------------------------


def test_transfer_time_matches_table1():
    """Table I: 16 KiB + spare page transfers in ~185/~100 us."""
    geometry = Geometry()
    t100 = NVDDR2_100.transfer_ns(geometry.full_page_size)
    t200 = NVDDR2_200.transfer_ns(geometry.full_page_size)
    assert 180_000 <= t100 <= 190_000
    assert 90_000 <= t200 <= 105_000
    assert abs(t100 - 2 * t200) < 2 * NVDDR2_100.turnaround_ns + 10


def test_transfer_zero_bytes_is_free():
    assert NVDDR2_200.transfer_ns(0) == 0


def test_transfer_rounds_up():
    # 1 byte at 200 MT/s is 5 ns plus turnaround, never 0.
    assert NVDDR2_200.transfer_ns(1) >= 5


def test_interface_by_name_roundtrip():
    for mode in (SDR_MODE0, NVDDR2_100, NVDDR2_200):
        assert interface_by_name(mode.name) is mode
    with pytest.raises(KeyError):
        interface_by_name("NV-DDR2-9000")


def test_bandwidth_reported_in_mb_s():
    assert NVDDR2_200.bandwidth_mb_s() == 200.0


# --- timing -----------------------------------------------------------


def test_timing_sets_validate():
    for mode in ("SDR-mode0", "NV-DDR2-100", "NV-DDR2-200"):
        timing_for_mode(mode).validate()


def test_sdr_slower_than_nvddr2():
    sdr = timing_for_mode("SDR-mode0")
    ddr = timing_for_mode("NV-DDR2-200")
    assert sdr.latch_cycle_ns() > ddr.latch_cycle_ns()


def test_unknown_timing_mode_raises():
    with pytest.raises(KeyError):
        timing_for_mode("bogus")


# --- status -----------------------------------------------------------


def test_status_idle_value_has_rdy_ardy_wp():
    reg = StatusRegister()
    value = reg.value()
    assert value & StatusBits.RDY
    assert value & StatusBits.ARDY
    assert value & StatusBits.WP
    assert not value & StatusBits.FAIL


def test_status_busy_then_ready_cycle():
    reg = StatusRegister()
    reg.begin_operation()
    assert not StatusRegister.is_ready(reg.value())
    reg.finish_operation(failed=False)
    assert StatusRegister.is_ready(reg.value())
    assert not StatusRegister.is_failed(reg.value())


def test_status_fail_shifts_to_failc():
    reg = StatusRegister()
    reg.begin_operation()
    reg.finish_operation(failed=True)
    assert StatusRegister.is_failed(reg.value())
    reg.begin_operation()
    assert reg.value() & StatusBits.FAILC
    assert not reg.value() & StatusBits.FAIL


def test_status_failc_ages_out_after_clean_cycle():
    reg = StatusRegister()
    reg.begin_operation()
    reg.finish_operation(failed=True)
    # The old failure shifts into FAILC on the next launch...
    reg.begin_operation()
    reg.finish_operation(failed=False)
    assert reg.value() & StatusBits.FAILC
    # ...and disappears entirely one clean cycle later.
    reg.begin_operation()
    value = reg.value()
    assert not value & StatusBits.FAIL
    assert not value & StatusBits.FAILC


def test_status_back_to_back_failures_set_both_bits():
    reg = StatusRegister()
    reg.begin_operation()
    reg.finish_operation(failed=True)
    reg.begin_operation()
    reg.finish_operation(failed=True)
    value = reg.value()
    assert value & StatusBits.FAIL
    assert value & StatusBits.FAILC
    assert StatusRegister.is_failed(value)


def test_status_cache_phase_rdy_without_ardy():
    reg = StatusRegister()
    reg.begin_operation()
    reg.begin_cache_phase()
    value = reg.value()
    assert StatusRegister.is_ready(value)
    assert not StatusRegister.is_array_ready(value)


def test_write_protect_bit_inverted():
    reg = StatusRegister()
    reg.write_protected = True
    assert not reg.value() & StatusBits.WP


def test_status_byte_table_over_all_flag_combinations():
    """``value()`` and the three predicates against the ``StatusBits``
    definition, for all 64 register states: the byte is composed and
    tested with plain-int masks, and must stay the IntFlag composition."""
    flags = ("fail", "failc", "suspended", "ardy", "rdy", "write_protected")
    bits = (StatusBits.FAIL, StatusBits.FAILC, StatusBits.CSP,
            StatusBits.ARDY, StatusBits.RDY, StatusBits.WP)
    for state in range(64):
        reg = StatusRegister()
        expected = StatusBits(0)
        for index, (flag, bit) in enumerate(zip(flags, bits)):
            on = bool(state >> index & 1)
            setattr(reg, flag, on)
            if on != (flag == "write_protected"):  # WP reads inverted
                expected |= bit
        value = reg.value()
        assert type(value) is int and value == int(expected)
        assert StatusRegister.is_ready(value) is bool(expected & StatusBits.RDY)
        assert StatusRegister.is_array_ready(value) is \
            bool(expected & StatusBits.ARDY)
        assert StatusRegister.is_failed(value) is bool(expected & StatusBits.FAIL)


# --- geometry / address codec -------------------------------------------


def test_geometry_defaults_capacity():
    geometry = Geometry()
    assert geometry.full_page_size == 18432
    assert geometry.blocks_per_lun == 2048
    assert geometry.capacity_bytes == 2048 * 256 * 16384


def test_codec_roundtrip_simple():
    codec = AddressCodec(Geometry())
    addr = PhysicalAddress(block=1234, page=56, column=789)
    assert codec.decode(codec.encode(addr)) == addr


def test_codec_row_address_packing():
    geometry = Geometry()
    codec = AddressCodec(geometry)
    addr = PhysicalAddress(block=3, page=7)
    assert codec.row_address(addr) == 3 * geometry.pages_per_block + 7


def test_codec_rejects_out_of_range():
    codec = AddressCodec(Geometry())
    with pytest.raises(ValueError):
        codec.encode(PhysicalAddress(block=999_999, page=0))
    with pytest.raises(ValueError):
        codec.encode(PhysicalAddress(block=0, page=0, column=1 << 20))
    with pytest.raises(ValueError):
        codec.decode((0, 0))


def _in_tree_geometries():
    from repro.analysis.crashfuzz import FUZZ_GEOMETRY
    from repro.faults.chaos import CHAOS_GEOMETRY
    from repro.flash.vendors import VENDOR_PROFILES
    from tests.helpers import TEST_GEOMETRY

    geometries = [Geometry(), TEST_GEOMETRY,
                  Geometry(col_cycles=3, row_cycles=4)]
    for vendor in VENDOR_PROFILES.values():
        geometries += [vendor.geometry,
                       dataclasses.replace(vendor.geometry, **CHAOS_GEOMETRY),
                       dataclasses.replace(vendor.geometry, **FUZZ_GEOMETRY)]
    return geometries


def _cycles(value, count):
    """The codec's original per-byte formula (the reference)."""
    return tuple(value >> (8 * i) & 0xFF for i in range(count))


def test_codec_closed_forms_match_the_per_byte_formulas():
    """Seeded differential over every in-tree geometry: the closed-form
    encode/decode family against the shift-and-mask generator formulas
    it replaced — values, round trips, and the range-check messages."""
    rng = random.Random(15)
    for geometry in _in_tree_geometries():
        codec = AddressCodec(geometry)
        cols, rows = geometry.col_cycles, geometry.row_cycles
        for _ in range(200):
            addr = PhysicalAddress(
                block=rng.randrange(geometry.blocks_per_lun),
                page=rng.randrange(geometry.pages_per_block),
                column=rng.randrange(geometry.full_page_size))
            row = addr.block * geometry.pages_per_block + addr.page
            old = _cycles(addr.column, cols) + _cycles(row, rows)
            assert codec.encode(addr) == old
            assert codec.encode(addr, include_column=False) == old[cols:]
            assert codec.encode_column(addr.column) == old[:cols]
            assert codec.encode_row(row) == old[cols:]
            assert codec.decode(old) == addr
            assert codec.decode_column(old[:cols]) == addr.column == sum(
                byte << (8 * i) for i, byte in enumerate(old[:cols]))
            assert codec.decode_row(old[cols:]) == row
        edge = {"block": geometry.blocks_per_lun,
                "page": geometry.pages_per_block,
                "column": geometry.full_page_size}
        for field, limit in edge.items():
            for bad in (limit, -1):
                address = PhysicalAddress(**{"block": 0, "page": 0,
                                             field: bad})
                for include_column in (True, False):
                    with pytest.raises(ValueError,
                                       match=f"{field} {bad} out of range"):
                        codec.encode(address, include_column=include_column)
        for bad in (geometry.full_page_size, -1):
            with pytest.raises(ValueError, match=f"column {bad} out of range"):
                codec.encode_column(bad)
        for bad in (geometry.pages_per_lun, -1):
            with pytest.raises(ValueError, match=f"row {bad} out of range"):
                codec.encode_row(bad)
        with pytest.raises(ValueError,
                           match=f"expected {cols + rows} address cycles, got 2"):
            codec.decode((0, 0))
    # A bad column is reported before a bad block, as when the column
    # cycles were encoded first.
    with pytest.raises(ValueError, match="column"):
        AddressCodec(Geometry()).encode(PhysicalAddress(999_999, 0, 1 << 20))


def test_codec_plane_interleaving():
    codec = AddressCodec(Geometry(planes=2))
    assert codec.plane_of(PhysicalAddress(block=4, page=0)) == 0
    assert codec.plane_of(PhysicalAddress(block=5, page=0)) == 1


def test_geometry_validation_catches_narrow_cycles():
    with pytest.raises(ValueError):
        Geometry(col_cycles=1).validate()


# --- features -----------------------------------------------------------


def test_feature_store_set_get():
    store = FeatureStore()
    store.set(FeatureAddress.VENDOR_READ_RETRY, (3, 0, 0, 0))
    assert store.get(FeatureAddress.VENDOR_READ_RETRY) == (3, 0, 0, 0)
    assert store.read_retry_level == 3


def test_feature_store_pslc_enable_reads_back():
    store = FeatureStore()
    assert not store.pslc_enabled
    store.set(FeatureAddress.VENDOR_PSLC_MODE, (1, 0, 0, 0))
    assert store.pslc_enabled


def test_feature_store_validates_params():
    store = FeatureStore()
    with pytest.raises(ValueError):
        store.set(FeatureAddress.TIMING_MODE, (1, 2, 3))
    with pytest.raises(ValueError):
        store.set(FeatureAddress.TIMING_MODE, (300, 0, 0, 0))


def test_feature_output_phase_signed():
    store = FeatureStore()
    store.set(FeatureAddress.VENDOR_OUTPUT_PHASE, (0xFF, 0, 0, 0))
    assert store.output_phase == -1
    store.set(FeatureAddress.VENDOR_OUTPUT_PHASE, (5, 0, 0, 0))
    assert store.output_phase == 5


# --- waveform segments ----------------------------------------------------


def _latch_segment() -> WaveformSegment:
    return WaveformSegment(
        kind=SegmentKind.CMD_ADDR,
        duration_ns=300,
        actions=(
            (0, CommandLatch(CMD.READ_1ST)),
            (25, AddressLatch((0x00, 0x00, 0x12, 0x34, 0x00))),
        ),
        label="read-preamble",
    )


def test_segment_action_offsets_must_be_ordered():
    with pytest.raises(ValueError):
        WaveformSegment(
            kind=SegmentKind.CMD_ADDR,
            duration_ns=100,
            actions=((50, CommandLatch(0x00)), (10, CommandLatch(0x30))),
        )


def test_segment_action_offset_beyond_end_rejected():
    with pytest.raises(ValueError):
        WaveformSegment(
            kind=SegmentKind.TIMER,
            duration_ns=10,
            actions=((20, IdleWait(5)),),
        )


def test_segment_targets_from_chip_mask():
    segment = WaveformSegment(kind=SegmentKind.TIMER, duration_ns=5, chip_mask=0b1010)
    assert segment.targets(channel_width=4) == [1, 3]


def test_segment_describe_mentions_actions():
    text = _latch_segment().describe()
    assert "CMD READ_1ST" in text
    assert "ADDR" in text


def test_segment_edges_are_time_sorted_and_bracketed_by_ce():
    timing = timing_for_mode("NV-DDR2-200")
    edges = _latch_segment().render_edges(timing, NVDDR2_200)
    times = [edge.t for edge in edges]
    assert times == sorted(times)
    assert edges[0].pin is Pin.CE and edges[0].value == 0
    assert edges[-1].pin is Pin.CE and edges[-1].value == 1


def test_segment_edges_carry_latched_bytes():
    timing = timing_for_mode("NV-DDR2-200")
    edges = _latch_segment().render_edges(timing, NVDDR2_200)
    dq_values = [edge.value for edge in edges if edge.pin is Pin.DQ]
    assert dq_values[0] == CMD.READ_1ST
    assert dq_values[1:] == [0x00, 0x00, 0x12, 0x34, 0x00]


def test_data_out_segment_toggles_re_and_dqs():
    interface = NVDDR2_200
    nbytes = 1024
    duration = interface.transfer_ns(nbytes)
    segment = WaveformSegment(
        kind=SegmentKind.DATA_OUT,
        duration_ns=duration,
        actions=((0, DataOutAction(nbytes)),),
    )
    edges = segment.render_edges(timing_for_mode("NV-DDR2-200"), interface)
    pins = {edge.pin for edge in edges}
    assert Pin.RE in pins and Pin.DQS in pins


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        WaveformSegment(kind=SegmentKind.TIMER, duration_ns=-1)
