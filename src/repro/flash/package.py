"""Flash package: one or more LUNs behind a chip-enable pin.

The channel's chip-enable bitmap selects packages; within a package the
LUN-select bits of the row address pick the die.  The paper's channels
gather 2–16 LUNs; our channel model wires ``luns_per_channel`` LUN
positions and this class groups them the way the SO-DIMM does.
"""

from __future__ import annotations

from repro.flash.lun import Lun
from repro.flash.vendors import VendorProfile
from repro.sim import Simulator


class Package:
    """A physical package containing ``luns_per_package`` LUNs."""

    def __init__(
        self,
        sim: Simulator,
        profile: VendorProfile,
        first_position: int = 0,
        seed: int = 0,
        track_data: bool = True,
    ):
        self.sim = sim
        self.profile = profile
        self.first_position = first_position
        self.luns = [
            Lun(
                sim,
                profile,
                position=first_position + i,
                seed=seed + i,
                track_data=track_data,
            )
            for i in range(profile.luns_per_package)
        ]

    @property
    def positions(self) -> range:
        return range(self.first_position, self.first_position + len(self.luns))

    def lun_at(self, position: int) -> Lun:
        index = position - self.first_position
        if not 0 <= index < len(self.luns):
            raise IndexError(f"position {position} not in {self.positions}")
        return self.luns[index]

    def describe(self) -> str:
        return (
            f"Package[{self.profile.manufacturer} {self.profile.name}] "
            f"positions {list(self.positions)}"
        )


def build_channel_population(
    sim: Simulator,
    profile: VendorProfile,
    lun_count: int,
    seed: int = 0,
    track_data: bool = True,
) -> list[Lun]:
    """Instantiate ``lun_count`` LUN positions for one channel."""
    if lun_count <= 0:
        raise ValueError("lun_count must be positive")
    luns: list[Lun] = []
    position = 0
    while len(luns) < lun_count:
        package = Package(
            sim, profile, first_position=position, seed=seed + position,
            track_data=track_data,
        )
        for lun in package.luns:
            if len(luns) < lun_count:
                luns.append(lun)
        position += profile.luns_per_package
    return luns
