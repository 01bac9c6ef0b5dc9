"""Tests for the phase calibration and boot tools (Section IV-C)."""

from repro.bus import ChannelPhy
from repro.calibration import boot_channel, calibrate_phase
from repro.calibration.phase import _longest_run
from repro.core import BabolController, ControllerConfig
from repro.onfi import NVDDR2_100, NVDDR2_200, SDR_MODE0
from repro.sim import Simulator

from tests.helpers import TEST_PROFILE


def make_skewed_controller(lun_count=2, interface=SDR_MODE0, seed=11):
    sim = Simulator()
    phy = ChannelPhy(lun_count, seed=seed, max_offset_steps=5, eye_half_width=2)
    controller = BabolController(
        sim,
        ControllerConfig(vendor=TEST_PROFILE, lun_count=lun_count,
                         runtime="rtos", interface=interface, track_data=False),
        phy=phy,
    )
    return sim, controller, phy


def test_longest_run_helper():
    assert _longest_run([1, 2, 3, 7, 8]) == [1, 2, 3]
    assert _longest_run([5]) == [5]
    assert _longest_run([]) == []


def test_calibration_centres_the_eye():
    sim, controller, phy = make_skewed_controller(interface=NVDDR2_200)
    result = sim.run_process(calibrate_phase(controller, 0))
    assert result.locked
    assert phy.residual_skew(0) == 0  # perfectly centred
    assert result.eye_width == 2 * phy.eye_half_width + 1


def test_calibration_reports_failure_outside_range():
    sim, controller, phy = make_skewed_controller(interface=NVDDR2_200)
    phy.offsets[0] = 30  # beyond any trim in range
    result = sim.run_process(calibrate_phase(controller, 0, trim_range=(-4, 4)))
    assert not result.locked
    assert result.good_trims == []


def test_boot_channel_full_sequence():
    sim, controller, phy = make_skewed_controller(lun_count=2)
    report = sim.run_process(boot_channel(controller, NVDDR2_200))
    assert report.all_healthy
    assert report.lun_count == 2
    assert all(report.onfi_confirmed)
    assert report.interface_name == "NV-DDR2-200"
    assert controller.channel.interface is NVDDR2_200
    assert controller.ufsm.interface is NVDDR2_200
    # Features were programmed on every LUN through the boot interface.
    assert all(lun.features.timing_mode == 5 for lun in controller.luns)


def test_boot_channel_parameter_pages_decoded():
    sim, controller, phy = make_skewed_controller(lun_count=1)
    report = sim.run_process(boot_channel(controller, NVDDR2_100))
    fields = report.parameter_pages[0]
    assert fields["model"] == TEST_PROFILE.name
    assert fields["page_size"] == TEST_PROFILE.geometry.page_size
    assert all(lun.features.timing_mode == 4 for lun in controller.luns)


def test_boot_leaves_channel_usable_at_speed():
    sim, controller, phy = make_skewed_controller(lun_count=1)
    sim.run_process(boot_channel(controller, NVDDR2_200))
    # A read after boot must produce clean (uncorrupted) data paths:
    # residual skew is inside the eye on every position.
    assert all(phy.data_reliable(p) for p in range(controller.channel.width))
    task = controller.read_page(0, 1, 0, 0)
    controller.run_to_completion(task)
