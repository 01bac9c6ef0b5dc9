"""Asynchronous hardware-based controller (Cosmos+ OpenSSD [25] style).

The Cosmos+ storage controller already separates *describing* channel
work from *executing* it — per-LUN sequencers prepare descriptors that
a central dispatcher issues — but both halves are hard-coded hardware.
BABOL keeps this asynchrony and moves the describing half to software;
this baseline is the intermediate point: asynchronous, fast, and
non-programmable.  It is the stock controller Fig. 12 compares the
modified OpenSSD against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generator, Optional

from repro.baselines.fsm import HwRequest, HwRequestKind, wait_request
from repro.bus.channel import Channel
from repro.core.ufsm.base import HardwareInventory
from repro.dram import DmaHandle, DramBuffer
from repro.flash.package import build_channel_population
from repro.flash.vendors import HYNIX_V7, VendorProfile
from repro.onfi.commands import CMD
from repro.onfi.datamodes import DataInterface, NVDDR2_200
from repro.onfi.geometry import AddressCodec, PhysicalAddress
from repro.onfi.signals import (
    AddressLatch,
    CommandLatch,
    DataInAction,
    DataOutAction,
    SegmentKind,
    WaveformSegment,
)
from repro.onfi.status import StatusRegister
from repro.sim import Simulator, Timeout
from repro.sim.sync import Queue, Trigger


@dataclass
class _Descriptor:
    """One prepared channel job waiting in the dispatch FIFO."""

    segment: WaveformSegment
    done: Trigger


class _SeqState(enum.Enum):
    PREAMBLE = 0
    AWAIT_READY = 1
    TRANSFER = 2
    COMPLETE = 3


class _Sequencer:
    """Per-LUN descriptor generator (hard-coded flows)."""

    def __init__(self, controller: "AsyncHwController", position: int):
        self.controller = controller
        self.position = position
        self.chip_mask = 1 << position
        self.requests: Queue = Queue(controller.sim)
        self.status_reg = 0
        controller.sim.spawn(self._run(), name=f"async-hw-lun{position}")

    def _run(self) -> Generator:
        while True:
            request = yield from self.requests.get()
            if request.kind is HwRequestKind.READ:
                yield from self._read(request)
            elif request.kind is HwRequestKind.PROGRAM:
                yield from self._program(request)
            else:
                yield from self._erase(request)

    # -- descriptor plumbing ---------------------------------------------

    def _issue(self, segment: WaveformSegment) -> Generator:
        descriptor = _Descriptor(segment, Trigger(self.controller.sim))
        self.controller.dispatch_queue.put(descriptor)
        yield from descriptor.done.wait()

    def _preamble(self, entries) -> WaveformSegment:
        timing = self.controller.channel.timing
        cycle = timing.latch_cycle_ns()
        t = timing.tCS
        actions = []
        for kind, value in entries:
            if kind == "cmd":
                actions.append((t, CommandLatch(value)))
                t += cycle
            else:
                actions.append((t, AddressLatch(value)))
                t += cycle * len(value)
        t += timing.tCH
        return WaveformSegment(
            kind=SegmentKind.CMD_ADDR, duration_ns=t,
            actions=tuple(actions), chip_mask=self.chip_mask,
        )

    def _poll(self) -> Generator:
        timing = self.controller.channel.timing
        handle = DmaHandle(None, 0, 1)
        t = timing.tCS
        actions = [(t, CommandLatch(CMD.READ_STATUS))]
        t += timing.latch_cycle_ns() + timing.tWHR
        actions.append((t, DataOutAction(1, dma_handle=handle)))
        t += self.controller.channel.interface.transfer_ns(1)
        t += timing.tCH + timing.tRHW
        yield from self._issue(
            WaveformSegment(
                kind=SegmentKind.DATA_OUT, duration_ns=t,
                actions=tuple(actions), chip_mask=self.chip_mask,
            )
        )
        self.status_reg = int(handle.delivered[0])

    def _await_ready(self) -> Generator:
        while True:
            yield Timeout(self.controller.poll_interval_ns)
            yield from self._poll()
            if StatusRegister.is_ready(self.status_reg):
                return

    # -- flows ---------------------------------------------------------------

    def _read(self, request: HwRequest) -> Generator:
        controller = self.controller
        codec = controller.codec
        timing = controller.channel.timing
        nbytes = request.length or codec.geometry.full_page_size
        # The transfer descriptor is PREPARED now, while the preamble is
        # still queued — the asynchrony this design is named after.
        handle = DmaHandle(controller.dram, request.dram_address, nbytes)
        col_cycles = codec.encode_column(request.address.column)
        cycle = timing.latch_cycle_ns()
        t = timing.tCS
        actions = [(t, CommandLatch(CMD.CHANGE_READ_COL_1ST))]
        t += cycle
        actions.append((t, AddressLatch(col_cycles)))
        t += cycle * len(col_cycles)
        actions.append((t, CommandLatch(CMD.CHANGE_READ_COL_2ND)))
        t += cycle + timing.tCCS
        actions.append((t, DataOutAction(nbytes, dma_handle=handle)))
        t += controller.channel.interface.transfer_ns(nbytes)
        t += timing.tCH + timing.tRHW
        transfer = WaveformSegment(
            kind=SegmentKind.DATA_OUT, duration_ns=t,
            actions=tuple(actions), chip_mask=self.chip_mask,
        )

        yield from self._issue(self._preamble([
            ("cmd", CMD.READ_1ST),
            ("addr", codec.encode(request.address)),
            ("cmd", CMD.READ_2ND),
        ]))
        yield Timeout(timing.tWB)
        yield from self._await_ready()
        yield from self._issue(transfer)
        request.finish((self.status_reg, handle))
        controller.reads_completed += 1

    def _program(self, request: HwRequest) -> Generator:
        controller = self.controller
        codec = controller.codec
        timing = controller.channel.timing
        nbytes = request.length or codec.geometry.full_page_size
        handle = DmaHandle(controller.dram, request.dram_address, nbytes)
        cycle = timing.latch_cycle_ns()
        t = timing.tCS
        actions = [(t, CommandLatch(CMD.PROGRAM_1ST))]
        t += cycle
        addr_cycles = codec.encode(request.address)
        actions.append((t, AddressLatch(addr_cycles)))
        t += cycle * len(addr_cycles) + timing.tADL
        actions.append((t, DataInAction(nbytes, dma_handle=handle)))
        t += controller.channel.interface.transfer_ns(nbytes)
        t += timing.tCH
        load = WaveformSegment(
            kind=SegmentKind.DATA_IN, duration_ns=t,
            actions=tuple(actions), chip_mask=self.chip_mask,
        )
        yield from self._issue(load)
        yield from self._issue(self._preamble([("cmd", CMD.PROGRAM_2ND)]))
        yield Timeout(timing.tWB)
        yield from self._await_ready()
        request.finish(not StatusRegister.is_failed(self.status_reg))
        controller.programs_completed += 1

    def _erase(self, request: HwRequest) -> Generator:
        controller = self.controller
        codec = controller.codec
        row = codec.row_address(request.address)
        yield from self._issue(self._preamble([
            ("cmd", CMD.ERASE_1ST),
            ("addr", codec.encode_row(row)),
            ("cmd", CMD.ERASE_2ND),
        ]))
        yield Timeout(controller.channel.timing.tWB)
        yield from self._await_ready()
        request.finish(not StatusRegister.is_failed(self.status_reg))
        controller.erases_completed += 1


class AsyncHwController:
    """Asynchronous but non-programmable hardware controller."""

    name = "async-hw"

    def __init__(
        self,
        sim: Simulator,
        vendor: VendorProfile = HYNIX_V7,
        lun_count: int = 8,
        interface: DataInterface = NVDDR2_200,
        dram_size: int = 64 * 1024 * 1024,
        reaction_ns: int = 30,
        poll_interval_ns: int = 3_000,
        track_data: bool = True,
        seed: int = 0,
        fidelity: str = "waveform",
    ):
        self.sim = sim
        self.vendor = vendor
        self.luns = build_channel_population(
            sim, vendor, lun_count, seed=seed, track_data=track_data
        )
        self.channel = Channel(sim, self.luns, interface=interface,
                               fidelity=fidelity)
        self.dram = DramBuffer(dram_size)
        self.codec = AddressCodec(vendor.geometry)
        self.reaction_ns = reaction_ns
        self.poll_interval_ns = poll_interval_ns
        self.dispatch_queue: Queue = Queue(sim)
        self.sequencers = [_Sequencer(self, i) for i in range(lun_count)]
        self.reads_completed = 0
        self.programs_completed = 0
        self.erases_completed = 0
        sim.spawn(self._dispatcher(), name="async-hw-dispatcher")

    def _dispatcher(self) -> Generator:
        """Central hardware dispatcher draining the descriptor FIFO."""
        while True:
            descriptor = yield from self.dispatch_queue.get()
            yield Timeout(self.reaction_ns)
            yield from self.channel.acquire(owner=descriptor)
            yield from self.channel.transmit(descriptor.segment)
            self.channel.release()
            descriptor.done.fire(descriptor)

    # -- FTL-facing API ---------------------------------------------------

    def read_page(self, lun: int, block: int, page: int, dram_address: int,
                  column: int = 0, length: Optional[int] = None,
                  priority: int = 1) -> HwRequest:
        request = HwRequest(
            sim=self.sim, kind=HwRequestKind.READ, lun=lun,
            address=PhysicalAddress(block=block, page=page, column=column),
            dram_address=dram_address, length=length, priority=priority,
        )
        self.sequencers[lun].requests.put(request)
        return request

    def program_page(self, lun: int, block: int, page: int,
                     dram_address: int, priority: int = 1) -> HwRequest:
        request = HwRequest(
            sim=self.sim, kind=HwRequestKind.PROGRAM, lun=lun,
            address=PhysicalAddress(block=block, page=page),
            dram_address=dram_address, priority=priority,
        )
        self.sequencers[lun].requests.put(request)
        return request

    def erase_block(self, lun: int, block: int, priority: int = 1) -> HwRequest:
        request = HwRequest(
            sim=self.sim, kind=HwRequestKind.ERASE, lun=lun,
            address=PhysicalAddress(block=block, page=0), priority=priority,
        )
        self.sequencers[lun].requests.put(request)
        return request

    @staticmethod
    def wait(request: HwRequest) -> Generator:
        result = yield from wait_request(request)
        return result

    def run_to_completion(self, request: HwRequest):
        return self.sim.run_process(self.wait(request))

    # -- area model input --------------------------------------------------

    def inventory(self) -> list[HardwareInventory]:
        """Sequencers share the waveform data path; only the per-LUN
        descriptor logic replicates — hence the Table III drop from the
        synchronous design."""
        modules = [
            HardwareInventory(fsm_states=14, registers_bits=250,
                              comment=f"sequencer lun{i}")
            for i in range(len(self.sequencers))
        ]
        modules.append(
            HardwareInventory(fsm_states=20, registers_bits=96, buffer_bits=36_864,
                              comment="central dispatcher + descriptor FIFO")
        )
        modules.append(
            HardwareInventory(fsm_states=60, registers_bits=1_800, buffer_bits=110_592,
                              comment="shared waveform data path + page FIFOs")
        )
        return modules

    def describe(self) -> str:
        return (
            f"AsyncHW[{self.vendor.manufacturer}] x{len(self.luns)} "
            f"{self.channel.interface.name} poll={self.poll_interval_ns}ns"
        )
