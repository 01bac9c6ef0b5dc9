"""Shared test helpers: deterministic vendor profiles and raw segment
builders for driving LUNs without a controller."""

from __future__ import annotations

import functools

import numpy as np

from repro.dram import DmaHandle, DramBuffer
from repro.flash.vendors import VendorProfile, VendorTiming
from repro.onfi.geometry import AddressCodec, Geometry, PhysicalAddress
from repro.onfi.signals import (
    AddressLatch,
    CommandLatch,
    DataInAction,
    DataOutAction,
    SegmentKind,
    WaveformSegment,
)
from repro.sim.kernel import NS_PER_US

# Small geometry keeps tests fast while exercising every code path.
TEST_GEOMETRY = Geometry(
    page_size=2048,
    spare_size=64,
    pages_per_block=16,
    blocks_per_plane=32,
    planes=2,
    col_cycles=2,
    row_cycles=3,
)

TEST_PROFILE = VendorProfile(
    name="TESTNAND",
    manufacturer="REPRO",
    timing=VendorTiming(
        t_read_ns=50 * NS_PER_US,
        t_prog_ns=200 * NS_PER_US,
        t_bers_ns=1000 * NS_PER_US,
        jitter=0.0,  # deterministic array times for exact assertions
    ),
    geometry=TEST_GEOMETRY,
    luns_per_channel=8,
    endurance_cycles=50,
)


def cmd_addr_segment(opcode, address_bytes=None, chip_mask=0b1, duration=200):
    actions = [(0, CommandLatch(opcode))]
    if address_bytes is not None:
        actions.append((25, AddressLatch(tuple(address_bytes))))
    return WaveformSegment(
        kind=SegmentKind.CMD_ADDR,
        duration_ns=duration,
        actions=tuple(actions),
        chip_mask=chip_mask,
    )


def data_out_segment(nbytes, handle, chip_mask=0b1, duration=500):
    return WaveformSegment(
        kind=SegmentKind.DATA_OUT,
        duration_ns=duration,
        actions=((0, DataOutAction(nbytes, dma_handle=handle)),),
        chip_mask=chip_mask,
    )


def data_in_segment(nbytes, handle, column=0, chip_mask=0b1, duration=500):
    return WaveformSegment(
        kind=SegmentKind.DATA_IN,
        duration_ns=duration,
        actions=((0, DataInAction(nbytes, column=column, dma_handle=handle)),),
        chip_mask=chip_mask,
    )


def full_address(addr: PhysicalAddress, geometry: Geometry = TEST_GEOMETRY):
    return AddressCodec(geometry).encode(addr)


def row_address(addr: PhysicalAddress, geometry: Geometry = TEST_GEOMETRY):
    codec = AddressCodec(geometry)
    return codec.encode_row(codec.row_address(addr))


def make_handle(nbytes: int, dram: DramBuffer | None = None, address: int = 0):
    return DmaHandle(dram, address, nbytes)


def page_pattern(geometry: Geometry = TEST_GEOMETRY, fill: int = 0xA5):
    data = np.full(geometry.full_page_size, fill, dtype=np.uint8)
    data[: geometry.page_size] = (np.arange(geometry.page_size) % 253).astype(np.uint8)
    return data


def count_builds(monkeypatch) -> list:
    """Wrap every registered program builder so that each call appends
    its op name to the returned list.  A wrapper carries its builder's
    ``plan`` and ``program_name``, so it keys the shape memo as the
    builder does."""
    from repro.core.opir import registry

    registry.list_ops()  # load the library before wrapping it
    builds = []

    def counted(builder):
        @functools.wraps(builder)
        def build(*args, **kwargs):
            builds.append(builder.program_name)
            return builder(*args, **kwargs)
        return build

    for name, builder in list(registry._BUILDERS.items()):
        monkeypatch.setitem(registry._BUILDERS, name, counted(builder))
    return builds


def chain_prelude(name: str, kwargs: dict) -> list:
    """``[(op name, kwargs)]`` to run on a die before the op ``name``
    when that op continues a program chain (``OpProgram.continues``):
    the chain's first step, loading the pages it confirms — a step's
    ``finished``, the end's ``pages``.  Empty for every other op."""
    loaded = kwargs.get("finished") if name == "program_chain_step" \
        else kwargs.get("pages") if name == "program_chain_end" else None
    if not loaded:
        return []
    return [("program_chain_step", {"codec": kwargs["codec"],
                                    "pages": loaded})]


def crash_after(make_controllers, make_ftl, scenario):
    """Cut power 1 ns after the host process ``scenario`` returns, then
    mount the dead media.

    ``make_controllers(sim)`` builds the controller list,
    ``make_ftl(sim, controllers)`` the FTL over it (a
    :class:`~repro.ftl.PageMappedFtl` or a :class:`~repro.ftl.ShardedFtl`),
    and ``scenario(sim, controllers, ftl)`` is the host's generator.  A
    first run learns the ns at which the scenario returns; an identical
    second run is cut 1 ns later (anything in flight then tears).
    Returns ``(crashed, result, mounted, controllers)``: the cut run's
    FTL, the scenario's return value in it, the
    :class:`~repro.ftl.ShardedFtl` mounted from its media, and the
    mounted stack's controllers.
    """
    from repro.faults.power import (PowerCut, PowerLossError,
                                    apply_power_cut, restore_media,
                                    snapshot_media)
    from repro.ftl.spor import mount_sharded
    from repro.sim import Simulator

    def run(cut_ns=None):
        sim = Simulator()
        controllers = make_controllers(sim)
        ftl = make_ftl(sim, controllers)
        if cut_ns is not None:
            PowerCut(sim, cut_ns).arm(controllers)
        done = {}

        def host():
            done["value"] = yield from scenario(sim, controllers, ftl)
            done["at"] = sim.now

        sim.spawn(host(), name="host")
        try:
            sim.run()
        except PowerLossError:
            apply_power_cut(controllers, cut_ns)
        return controllers, ftl, done

    _, _, first = run()
    controllers, crashed, done = run(cut_ns=first["at"] + 1)
    assert done["at"] == first["at"], "the cut run diverged before the cut"
    sim = Simulator()
    fresh = make_controllers(sim)
    restore_media(fresh, snapshot_media(controllers))
    mounted, _ = mount_sharded(sim, fresh, crashed.config)
    return crashed, done["value"], mounted, fresh


def read_back(mounted, controllers, lpn: int) -> np.ndarray:
    """One page of ``lpn`` read through the mounted FTL."""
    mounted.sim.run_process(mounted.read(lpn, 0))
    channel, _ = mounted.router.route(lpn)
    return controllers[channel].dram.read(0, mounted.page_size)
