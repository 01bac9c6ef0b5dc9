"""Synchronous hardware-based channel controller (Qiu et al. [50] style).

The Fig. 4 architecture: one dedicated operation FSM per LUN, a
hardware arbiter granting the channel, and hard-coded waveform logic.
Everything here is written the way the equivalent Verilog is organized
— an explicit state register, one state per signal phase, and explicit
timing arithmetic per state — because this module *is* the Table II /
Table III baseline: its verbosity and structural inventory are
measured, not estimated.

Scheduling behaviour: the arbiter is FIFO with a fixed reaction time;
a waiting READ FSM polls READ STATUS at a fixed hardware interval.
Fast polling gives hardware its excellent reaction time at low LUN
counts, but every poll occupies the shared channel — the overhead that
lets a software scheduler that *defers* polls close the gap on
saturated channels (Fig. 10).
"""

from __future__ import annotations

import enum
from typing import Generator, Optional

from repro.baselines.fsm import HwRequest, HwRequestKind, wait_request
from repro.bus.channel import Channel
from repro.core.ufsm.base import HardwareInventory
from repro.dram import DmaHandle, DramBuffer
from repro.flash.lun import Lun
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
from repro.sim.sync import Queue


class _ReadState(enum.Enum):
    IDLE = 0
    REQ_CHANNEL_CMD = 1
    DRIVE_CMD_LATCH = 2
    DRIVE_ADDR_C1 = 3
    DRIVE_ADDR_C2 = 4
    DRIVE_ADDR_R1 = 5
    DRIVE_ADDR_R2 = 6
    DRIVE_ADDR_R3 = 7
    DRIVE_CONFIRM = 8
    WAIT_WB = 9
    POLL_PACE = 10
    REQ_CHANNEL_POLL = 11
    DRIVE_POLL_CMD = 12
    POLL_TURNAROUND = 13
    CAPTURE_STATUS = 14
    EVAL_STATUS = 15
    REQ_CHANNEL_XFER = 16
    DRIVE_CCOL_CMD = 17
    DRIVE_CCOL_ADDR = 18
    DRIVE_CCOL_CONFIRM = 19
    WAIT_CCS = 20
    STREAM_DATA = 21
    DONE = 22


class _ProgramState(enum.Enum):
    IDLE = 0
    REQ_CHANNEL_LOAD = 1
    DRIVE_CMD_LATCH = 2
    DRIVE_ADDR_CYCLES = 3
    WAIT_ADL = 4
    STREAM_DATA = 5
    REQ_CHANNEL_CONFIRM = 6
    DRIVE_CONFIRM = 7
    WAIT_WB = 8
    POLL_PACE = 9
    REQ_CHANNEL_POLL = 10
    DRIVE_POLL = 11
    EVAL_STATUS = 12
    DONE = 13


class _EraseState(enum.Enum):
    IDLE = 0
    REQ_CHANNEL = 1
    DRIVE_CMD_LATCH = 2
    DRIVE_ROW_CYCLES = 3
    DRIVE_CONFIRM = 4
    WAIT_WB = 5
    POLL_PACE = 6
    REQ_CHANNEL_POLL = 7
    DRIVE_POLL = 8
    EVAL_STATUS = 9
    DONE = 10


class _LunEngine:
    """One per-LUN hardware engine: request FIFO plus the three FSMs."""

    def __init__(self, controller: "SyncHwController", position: int):
        self.controller = controller
        self.position = position
        self.chip_mask = 1 << position
        self.requests: Queue = Queue(controller.sim)
        self.status_reg = 0  # captured status byte register
        controller.sim.spawn(self._run(), name=f"sync-hw-lun{position}")

    def _run(self) -> Generator:
        while True:
            request = yield from self.requests.get()
            if request.kind is HwRequestKind.READ:
                yield from self._read_fsm(request)
            elif request.kind is HwRequestKind.PROGRAM:
                yield from self._program_fsm(request)
            else:
                yield from self._erase_fsm(request)

    # -- shared signal-phase helpers (the "wire" layer) -----------------

    def _latch_segment(self, entries) -> WaveformSegment:
        """Assemble a preamble segment from (kind, value) register pairs."""
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
            kind=SegmentKind.CMD_ADDR,
            duration_ns=t,
            actions=tuple(actions),
            chip_mask=self.chip_mask,
        )

    def _transmit(self, segment: WaveformSegment) -> Generator:
        channel = self.controller.channel
        yield Timeout(self.controller.reaction_ns)  # arbiter reaction
        yield from channel.acquire(owner=self)
        yield from channel.transmit(segment)
        channel.release()

    def _poll_status_once(self) -> Generator:
        """One READ STATUS poll: command latch + turnaround + capture."""
        timing = self.controller.channel.timing
        handle = DmaHandle(None, 0, 1)
        cycle = timing.latch_cycle_ns()
        t = timing.tCS
        actions = [(t, CommandLatch(CMD.READ_STATUS))]
        t += cycle + timing.tWHR          # command cycle + turnaround
        actions.append((t, DataOutAction(1, dma_handle=handle)))
        t += self.controller.channel.interface.transfer_ns(1)
        t += timing.tCH + timing.tRHW
        segment = WaveformSegment(
            kind=SegmentKind.DATA_OUT,
            duration_ns=t,
            actions=tuple(actions),
            chip_mask=self.chip_mask,
        )
        yield from self._transmit(segment)
        self.status_reg = int(handle.delivered[0])

    # -- READ FSM ---------------------------------------------------------

    def _read_fsm(self, request: HwRequest) -> Generator:
        """Hard-wired PAGE READ with CHANGE READ COLUMN transfer."""
        controller = self.controller
        codec = controller.codec
        timing = controller.channel.timing
        state = _ReadState.REQ_CHANNEL_CMD
        addr_cycles = codec.encode(request.address)
        col_cycles = codec.encode_column(request.address.column)
        nbytes = request.length or codec.geometry.full_page_size
        handle: Optional[DmaHandle] = None
        while state is not _ReadState.DONE:
            if state is _ReadState.REQ_CHANNEL_CMD:
                # States DRIVE_CMD_LATCH..DRIVE_CONFIRM correspond to the
                # per-cycle Verilog states; their output is one fused
                # segment so wire timing matches the package's expectation
                # of an uninterrupted CE window.
                segment = self._latch_segment([
                    ("cmd", CMD.READ_1ST),
                    ("addr", addr_cycles),
                    ("cmd", CMD.READ_2ND),
                ])
                yield from self._transmit(segment)
                state = _ReadState.WAIT_WB
            elif state is _ReadState.WAIT_WB:
                yield Timeout(timing.tWB)
                state = _ReadState.POLL_PACE
            elif state is _ReadState.POLL_PACE:
                yield Timeout(controller.poll_interval_ns)
                state = _ReadState.REQ_CHANNEL_POLL
            elif state is _ReadState.REQ_CHANNEL_POLL:
                yield from self._poll_status_once()
                state = _ReadState.EVAL_STATUS
            elif state is _ReadState.EVAL_STATUS:
                if StatusRegister.is_ready(self.status_reg):
                    state = _ReadState.REQ_CHANNEL_XFER
                else:
                    state = _ReadState.POLL_PACE
            elif state is _ReadState.REQ_CHANNEL_XFER:
                handle = DmaHandle(controller.dram, request.dram_address, nbytes)
                cycle = timing.latch_cycle_ns()
                t = timing.tCS
                actions = [(t, CommandLatch(CMD.CHANGE_READ_COL_1ST))]
                t += cycle
                actions.append((t, AddressLatch(col_cycles)))
                t += cycle * len(col_cycles)
                actions.append((t, CommandLatch(CMD.CHANGE_READ_COL_2ND)))
                t += cycle
                t += timing.tCCS  # WAIT_CCS folded into the same segment
                actions.append((t, DataOutAction(nbytes, dma_handle=handle)))
                t += controller.channel.interface.transfer_ns(nbytes)
                t += timing.tCH + timing.tRHW
                segment = WaveformSegment(
                    kind=SegmentKind.DATA_OUT,
                    duration_ns=t,
                    actions=tuple(actions),
                    chip_mask=self.chip_mask,
                )
                yield from self._transmit(segment)
                state = _ReadState.DONE
        request.finish((self.status_reg, handle))
        self.controller.reads_completed += 1

    # -- PROGRAM FSM ----------------------------------------------------

    def _program_fsm(self, request: HwRequest) -> Generator:
        controller = self.controller
        codec = controller.codec
        timing = controller.channel.timing
        state = _ProgramState.REQ_CHANNEL_LOAD
        nbytes = request.length or codec.geometry.full_page_size
        while state is not _ProgramState.DONE:
            if state is _ProgramState.REQ_CHANNEL_LOAD:
                handle = DmaHandle(controller.dram, request.dram_address, nbytes)
                cycle = timing.latch_cycle_ns()
                t = timing.tCS
                actions = [(t, CommandLatch(CMD.PROGRAM_1ST))]
                t += cycle
                addr_cycles = codec.encode(request.address)
                actions.append((t, AddressLatch(addr_cycles)))
                t += cycle * len(addr_cycles)
                t += timing.tADL  # WAIT_ADL
                actions.append((t, DataInAction(nbytes, dma_handle=handle)))
                t += controller.channel.interface.transfer_ns(nbytes)
                t += timing.tCH
                segment = WaveformSegment(
                    kind=SegmentKind.DATA_IN,
                    duration_ns=t,
                    actions=tuple(actions),
                    chip_mask=self.chip_mask,
                )
                yield from self._transmit(segment)
                state = _ProgramState.REQ_CHANNEL_CONFIRM
            elif state is _ProgramState.REQ_CHANNEL_CONFIRM:
                segment = self._latch_segment([("cmd", CMD.PROGRAM_2ND)])
                yield from self._transmit(segment)
                state = _ProgramState.WAIT_WB
            elif state is _ProgramState.WAIT_WB:
                yield Timeout(timing.tWB)
                state = _ProgramState.POLL_PACE
            elif state is _ProgramState.POLL_PACE:
                yield Timeout(controller.poll_interval_ns)
                state = _ProgramState.REQ_CHANNEL_POLL
            elif state is _ProgramState.REQ_CHANNEL_POLL:
                yield from self._poll_status_once()
                state = _ProgramState.EVAL_STATUS
            elif state is _ProgramState.EVAL_STATUS:
                if StatusRegister.is_ready(self.status_reg):
                    state = _ProgramState.DONE
                else:
                    state = _ProgramState.POLL_PACE
        request.finish(not StatusRegister.is_failed(self.status_reg))
        self.controller.programs_completed += 1

    # -- ERASE FSM -----------------------------------------------------

    def _erase_fsm(self, request: HwRequest) -> Generator:
        controller = self.controller
        codec = controller.codec
        timing = controller.channel.timing
        state = _EraseState.REQ_CHANNEL
        row = codec.row_address(request.address)
        while state is not _EraseState.DONE:
            if state is _EraseState.REQ_CHANNEL:
                segment = self._latch_segment([
                    ("cmd", CMD.ERASE_1ST),
                    ("addr", codec.encode_row(row)),
                    ("cmd", CMD.ERASE_2ND),
                ])
                yield from self._transmit(segment)
                state = _EraseState.WAIT_WB
            elif state is _EraseState.WAIT_WB:
                yield Timeout(timing.tWB)
                state = _EraseState.POLL_PACE
            elif state is _EraseState.POLL_PACE:
                yield Timeout(controller.poll_interval_ns)
                state = _EraseState.REQ_CHANNEL_POLL
            elif state is _EraseState.REQ_CHANNEL_POLL:
                yield from self._poll_status_once()
                state = _EraseState.EVAL_STATUS
            elif state is _EraseState.EVAL_STATUS:
                if StatusRegister.is_ready(self.status_reg):
                    state = _EraseState.DONE
                else:
                    state = _EraseState.POLL_PACE
        request.finish(not StatusRegister.is_failed(self.status_reg))
        self.controller.erases_completed += 1


class SyncHwController:
    """The synchronous hardware controller: Fig. 4, faithfully."""

    name = "sync-hw"

    def __init__(
        self,
        sim: Simulator,
        vendor: VendorProfile = HYNIX_V7,
        lun_count: int = 8,
        interface: DataInterface = NVDDR2_200,
        dram_size: int = 64 * 1024 * 1024,
        reaction_ns: int = 50,
        poll_interval_ns: int = 2_000,
        track_data: bool = True,
        seed: int = 0,
        fidelity: str = "waveform",
    ):
        self.sim = sim
        self.vendor = vendor
        self.luns: list[Lun] = build_channel_population(
            sim, vendor, lun_count, seed=seed, track_data=track_data
        )
        self.channel = Channel(sim, self.luns, interface=interface,
                               fidelity=fidelity)
        self.dram = DramBuffer(dram_size)
        self.codec = AddressCodec(vendor.geometry)
        self.reaction_ns = reaction_ns
        self.poll_interval_ns = poll_interval_ns
        self.engines = [_LunEngine(self, i) for i in range(lun_count)]
        self.reads_completed = 0
        self.programs_completed = 0
        self.erases_completed = 0

    # -- FTL-facing API (mirrors BabolController) ------------------------

    def read_page(self, lun: int, block: int, page: int, dram_address: int,
                  column: int = 0, length: Optional[int] = None,
                  priority: int = 1) -> HwRequest:
        request = HwRequest(
            sim=self.sim, kind=HwRequestKind.READ, lun=lun,
            address=PhysicalAddress(block=block, page=page, column=column),
            dram_address=dram_address, length=length, priority=priority,
        )
        self.engines[lun].requests.put(request)
        return request

    def program_page(self, lun: int, block: int, page: int,
                     dram_address: int, priority: int = 1) -> HwRequest:
        request = HwRequest(
            sim=self.sim, kind=HwRequestKind.PROGRAM, lun=lun,
            address=PhysicalAddress(block=block, page=page),
            dram_address=dram_address, priority=priority,
        )
        self.engines[lun].requests.put(request)
        return request

    def erase_block(self, lun: int, block: int, priority: int = 1) -> HwRequest:
        request = HwRequest(
            sim=self.sim, kind=HwRequestKind.ERASE, lun=lun,
            address=PhysicalAddress(block=block, page=0), priority=priority,
        )
        self.engines[lun].requests.put(request)
        return request

    @staticmethod
    def wait(request: HwRequest) -> Generator:
        result = yield from wait_request(request)
        return result

    def run_to_completion(self, request: HwRequest):
        return self.sim.run_process(self.wait(request))

    # -- area model input ---------------------------------------------------

    def inventory(self) -> list[HardwareInventory]:
        """Structural inventory: per-LUN op FSMs plus the arbiter.

        The synchronous design replicates the full operation FSM set per
        LUN (Fig. 4) — that replication is why Table III's LUT/FF counts
        dwarf the other two controllers.
        """
        per_lun = [
            HardwareInventory(fsm_states=23, registers_bits=800, buffer_bits=27_648,
                              comment="read FSM + per-LUN staging FIFO"),
            HardwareInventory(fsm_states=14, registers_bits=700, buffer_bits=0,
                              comment="program FSM"),
            HardwareInventory(fsm_states=11, registers_bits=200, buffer_bits=0,
                              comment="erase FSM"),
        ]
        modules = [item for _ in self.engines for item in per_lun]
        modules.append(
            HardwareInventory(fsm_states=8, registers_bits=64, buffer_bits=512,
                              comment="arbiter + request FIFOs")
        )
        return modules

    def describe(self) -> str:
        return (
            f"SyncHW[{self.vendor.manufacturer}] x{len(self.luns)} "
            f"{self.channel.interface.name} poll={self.poll_interval_ns}ns"
        )
