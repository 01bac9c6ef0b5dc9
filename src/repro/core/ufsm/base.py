"""µFSM base machinery.

A µFSM owns the category-1 and category-2 timing of the segments it
emits (Section IV-B): all intra-segment waits and the mandatory waits
adjacent to its segment are its responsibility.  The SSD Architect's
operation code never touches a timing parameter below tR.

Every µFSM also reports a structural inventory (states, registers,
buffer bits) which the area model (:mod:`repro.analysis.area`) sums
into the Table III LUT/FF/BRAM estimates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.onfi.datamodes import DataInterface
from repro.onfi.timing import TimingSet, timing_for_mode


@dataclass(frozen=True)
class HardwareInventory:
    """Structural size of one hardware module (area-model input)."""

    fsm_states: int
    registers_bits: int
    buffer_bits: int = 0
    comment: str = ""


class MicroFsm(ABC):
    """A parameterized waveform-segment emitter."""

    name: str = "ufsm"

    def __init__(self, interface: DataInterface):
        self.interface = interface
        self.timing: TimingSet = timing_for_mode(interface.name)
        self.emissions = 0

    def retarget(self, interface: DataInterface) -> None:
        """Re-bind to a different data mode (same parameter interface)."""
        self.interface = interface
        self.timing = timing_for_mode(interface.name)

    @abstractmethod
    def inventory(self) -> HardwareInventory:
        """Structural inventory for the area model."""

    def _count(self) -> None:
        self.emissions += 1


class UfsmBank:
    """The full µFSM complement of one channel controller.

    One bank per channel: the µFSMs are shared by all operations (that
    sharing is the area saving Table III shows), and retargeting the
    bank retargets every µFSM coherently.

    The bank also holds THE shape memo of its controller — ``(builder,
    shape key) -> lowered op program``
    (:func:`repro.core.opir.registry.lowered_shape`): a lowering bakes
    this bank's segment durations, so it lives and dies with the bank's
    data mode — :meth:`retarget` empties it.
    """

    def __init__(self, interface: DataInterface):
        # Imports here avoid a cycle with the concrete µFSM modules.
        from repro.core.ufsm.ca_writer import CAWriter
        from repro.core.ufsm.chip_control import ChipControl
        from repro.core.ufsm.data_reader import DataReader
        from repro.core.ufsm.data_writer import DataWriter
        from repro.core.ufsm.timer import TimerFsm

        self.interface = interface
        self.ca_writer = CAWriter(interface)
        self.data_writer = DataWriter(interface)
        self.data_reader = DataReader(interface)
        self.chip_control = ChipControl(interface)
        self.timer = TimerFsm(interface)
        self.lowered: dict = {}
        self.shapes_lowered = 0  # lowerings performed, ever

    def all(self) -> list[MicroFsm]:
        return [
            self.ca_writer,
            self.data_writer,
            self.data_reader,
            self.chip_control,
            self.timer,
        ]

    def retarget(self, interface: DataInterface) -> None:
        self.interface = interface
        for ufsm in self.all():
            ufsm.retarget(interface)
        self.lowered.clear()
