"""Unit tests for the channel bus, PHY, packages, and vendor profiles."""

import pytest

from repro.bus import Channel, ChannelPhy
from repro.flash import (
    HYNIX_V7,
    MICRON_B47R,
    TOSHIBA_BICS5,
    Package,
    profile_by_name,
)
from repro.flash.package import build_channel_population
from repro.flash.param_page import (
    build_parameter_page,
    crc16_onfi,
    parse_parameter_page,
)
from repro.onfi import NVDDR2_100, NVDDR2_200
from repro.onfi.commands import CMD
from repro.onfi.geometry import PhysicalAddress
from repro.sim import Simulator, Timeout

from tests.helpers import (
    TEST_PROFILE,
    cmd_addr_segment,
    data_out_segment,
    full_address,
    make_handle,
    page_pattern,
)


def make_channel(lun_count=2, interface=NVDDR2_200, **kwargs):
    sim = Simulator()
    luns = build_channel_population(sim, TEST_PROFILE, lun_count, seed=1)
    return sim, Channel(sim, luns, interface=interface, **kwargs)


# --- vendor profiles / parameter page ---------------------------------------


def test_table1_vendor_read_times():
    assert HYNIX_V7.timing.t_read_ns == 100_000
    assert TOSHIBA_BICS5.timing.t_read_ns == 78_000
    assert MICRON_B47R.timing.t_read_ns == 53_000


def test_table1_page_size_and_wiring():
    for profile in (HYNIX_V7, TOSHIBA_BICS5, MICRON_B47R):
        assert profile.geometry.page_size == 16384
    assert HYNIX_V7.luns_per_channel == 8
    assert MICRON_B47R.luns_per_channel == 2


def test_profile_lookup():
    assert profile_by_name("Hynix") is HYNIX_V7
    with pytest.raises(KeyError):
        profile_by_name("samsung")


def test_vendor_id_bytes_identify_manufacturer():
    assert HYNIX_V7.id_bytes()[0] == 0xAD
    assert MICRON_B47R.id_bytes()[0] == 0x2C
    assert bytes(HYNIX_V7.id_bytes(0x20)[:4]) == b"ONFI"


def test_parameter_page_crc_detects_corruption():
    page = build_parameter_page("X", "Y", HYNIX_V7.geometry, 1)
    parse_parameter_page(page)  # clean: no raise
    page = page.copy()
    page[80] ^= 0xFF
    with pytest.raises(ValueError, match="CRC"):
        parse_parameter_page(page)


def test_crc16_known_properties():
    assert crc16_onfi(b"") == 0x4F4E
    assert crc16_onfi(b"onfi") != crc16_onfi(b"ONFI")


# --- package ------------------------------------------------------------


def test_package_positions_and_lookup():
    sim = Simulator()
    package = Package(sim, TEST_PROFILE, first_position=4)
    assert list(package.positions) == [4]
    assert package.lun_at(4) is package.luns[0]
    with pytest.raises(IndexError):
        package.lun_at(9)


def test_build_channel_population_counts():
    sim = Simulator()
    luns = build_channel_population(sim, TEST_PROFILE, 8)
    assert len(luns) == 8
    assert [lun.position for lun in luns] == list(range(8))
    with pytest.raises(ValueError):
        build_channel_population(sim, TEST_PROFILE, 0)


# --- channel arbitration / transmission -----------------------------------


def test_transmit_requires_ownership():
    sim, channel = make_channel()

    def bad():
        yield from channel.transmit(cmd_addr_segment(CMD.READ_STATUS))

    sim.spawn(bad())
    with pytest.raises(RuntimeError, match="without owning"):
        sim.run()


def test_transmit_holds_bus_for_duration():
    sim, channel = make_channel()

    def master():
        yield from channel.acquire("m")
        yield from channel.transmit(cmd_addr_segment(CMD.READ_STATUS, duration=777))
        channel.release()
        return sim.now

    assert sim.run_process(master()) == 777
    assert channel.stats.busy_ns == 777
    assert channel.stats.segments == 1


def test_segment_reaches_only_masked_luns():
    sim, channel = make_channel(lun_count=2)
    addr = PhysicalAddress(block=0, page=0)

    def master():
        yield from channel.acquire()
        seg1 = cmd_addr_segment(CMD.READ_1ST, full_address(addr), chip_mask=0b10)
        yield from channel.transmit(seg1)
        seg2 = cmd_addr_segment(CMD.READ_2ND, chip_mask=0b10)
        yield from channel.transmit(seg2)
        channel.release()

    sim.run_process(master())
    sim.run()
    assert channel.luns[1].reads_completed == 1
    assert channel.luns[0].reads_completed == 0


def test_segment_with_empty_mask_rejected():
    sim, channel = make_channel()

    def master():
        yield from channel.acquire()
        yield from channel.transmit(
            cmd_addr_segment(CMD.READ_STATUS, chip_mask=0)
        )

    sim.spawn(master())
    with pytest.raises(ValueError, match="selects no LUN"):
        sim.run()


def test_channel_fifo_arbitration_between_masters():
    sim, channel = make_channel()
    order = []

    def master(tag, arrive):
        yield Timeout(arrive)
        yield from channel.acquire(tag)
        order.append(tag)
        yield from channel.transmit(cmd_addr_segment(CMD.READ_STATUS, duration=100))
        channel.release()

    sim.spawn(master("a", 0))
    sim.spawn(master("b", 10))
    sim.spawn(master("c", 20))
    sim.run()
    assert order == ["a", "b", "c"]


def test_utilization_accounting():
    sim, channel = make_channel()

    def master():
        yield from channel.acquire()
        yield from channel.transmit(cmd_addr_segment(CMD.READ_STATUS, duration=500))
        channel.release()
        yield Timeout(500)

    sim.run_process(master())
    assert channel.utilization() == pytest.approx(0.5)


def test_tap_sees_every_segment():
    sim, channel = make_channel()
    seen = []
    channel.add_tap(lambda t, seg: seen.append((t, seg.kind)))

    def master():
        yield from channel.acquire()
        yield from channel.transmit(cmd_addr_segment(CMD.READ_STATUS, duration=10))
        yield from channel.transmit(cmd_addr_segment(CMD.READ_STATUS, duration=10))
        channel.release()

    sim.run_process(master())
    assert len(seen) == 2
    assert seen[0][0] == 0 and seen[1][0] == 10


def test_set_interface_switches_timing():
    sim, channel = make_channel(interface=NVDDR2_100)
    assert channel.interface is NVDDR2_100
    channel.set_interface(NVDDR2_200)
    assert channel.interface is NVDDR2_200


# --- PHY ---------------------------------------------------------------


def test_phy_eye_margin_logic():
    phy = ChannelPhy(positions=2, seed=0, max_offset_steps=4, eye_half_width=1)
    position = 0
    phy.set_trim(position, -phy.offsets[position])
    assert phy.data_reliable(position)
    assert phy.margin(position) == 1
    phy.set_trim(position, -phy.offsets[position] + 3)
    assert not phy.data_reliable(position)


def test_default_channel_is_precalibrated():
    sim, channel = make_channel()
    assert all(channel.phy.data_reliable(p) for p in range(channel.width))


def test_miscalibrated_phy_corrupts_data_bursts():
    sim = Simulator()
    luns = build_channel_population(sim, TEST_PROFILE, 1, seed=1)
    phy = ChannelPhy(1, seed=0, max_offset_steps=6, eye_half_width=1)
    phy.offsets[0] = 5  # force a skew far outside the eye
    channel = Channel(sim, luns, phy=phy)
    data = page_pattern()
    luns[0].array.program(PhysicalAddress(block=0, page=0), data)
    luns[0].array.error_model.config = type(
        luns[0].array.error_model.config
    ).noiseless()
    handle = make_handle(64)

    def master():
        yield from channel.acquire()
        addr = full_address(PhysicalAddress(block=0, page=0))
        yield from channel.transmit(cmd_addr_segment(CMD.READ_1ST, addr))
        yield from channel.transmit(cmd_addr_segment(CMD.READ_2ND))
        yield Timeout(TEST_PROFILE.timing.t_read_ns + 1000)
        yield from channel.transmit(data_out_segment(64, handle))
        channel.release()

    sim.run_process(master())
    assert handle.delivered is not None
    assert (handle.delivered != data[:64]).any()  # garbled by the PHY
