"""Vendor profiles for the three Table I packages.

The paper evaluates Hynix, Toshiba, and Micron SO-DIMMs.  Table I pins
the page read times (100/78/53 µs), page size (16384 B), and transfer
times; the per-channel wiring (8/8/2 LUNs) comes from Section VI.
Program/erase times and the remaining knobs follow typical 3D-TLC
datasheet values — the experiments only exercise READs, so those only
need to be plausible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from repro.flash.cell import CellMode
from repro.flash.param_page import build_parameter_page
from repro.onfi.geometry import Geometry
from repro.sim.kernel import NS_PER_US


@dataclass(frozen=True)
class VendorTiming:
    """Category-3 (array-side) times for one part, in nanoseconds."""

    t_read_ns: int                 # tR: array -> page register
    t_prog_ns: int                 # tPROG
    t_bers_ns: int                 # tBERS
    t_dbsy_ns: int = 500           # inter-plane queue busy
    t_param_read_ns: int = 25_000  # parameter-page fetch
    t_reset_ns: int = 5_000        # idle RESET
    t_resume_ns: int = 5_000       # suspend->resume penalty
    t_feat_ns: int = 1_000         # SET/GET FEATURES busy
    t_poll_min_ns: int = 200       # minimum legal READ STATUS poll period
    jitter: float = 0.08           # bounded uniform tR/tPROG variation


@dataclass(frozen=True)
class VendorProfile:
    """Everything the simulator needs to stand in for one package type."""

    name: str
    manufacturer: str
    timing: VendorTiming
    geometry: Geometry = field(default_factory=Geometry)
    native_cell_mode: CellMode = CellMode.TLC
    endurance_cycles: int = 3000
    luns_per_channel: int = 8
    luns_per_package: int = 1
    supports_pslc: bool = True
    supports_suspend: bool = True
    supports_cache: bool = True
    factory_bad_rate: float = 0.0  # fraction of blocks shipped defective
    interfaces: tuple[str, ...] = ("SDR-mode0", "NV-DDR2-100", "NV-DDR2-200")
    jedec_id: int = 0x00
    # Per-vendor operation programs: (op_name, program_builder) pairs.
    # The op-IR registry consults these before its built-in table, so a
    # package quirk is a profile change, not an edit to the op library
    # (the paper's new-package bring-up story).  A tuple of pairs — not
    # a dict — keeps the profile hashable: ``_parameter_page_cached``
    # keys on it.
    op_overrides: tuple[tuple[str, Callable], ...] = ()
    # Per-vendor interface-timing tightening: (TimingSet field, ns)
    # pairs applied on top of the ONFI mode values by ``timing_set``.
    # Vendors may demand *more* margin than the mode minimum (a slow
    # tWHR on a budget die); they can never relax below the mode.
    timing_overrides: tuple[tuple[str, int], ...] = ()

    def timing_set(self, mode_name: str):
        """The ONFI mode's :class:`TimingSet`, tightened per vendor."""
        from repro.onfi.timing import timing_for_mode

        timing = timing_for_mode(mode_name)
        for name, value in self.timing_overrides:
            if value > getattr(timing, name):
                timing = replace(timing, **{name: value})
        return timing

    def with_op_override(self, name: str, builder: Callable) -> "VendorProfile":
        """A copy of this profile with ``name`` resolved to ``builder``."""
        kept = tuple(pair for pair in self.op_overrides if pair[0] != name)
        return replace(self, op_overrides=kept + ((name, builder),))

    def op_override(self, name: str) -> Optional[Callable]:
        """The overriding program builder for ``name``, if any."""
        for key, builder in self.op_overrides:
            if key == name:
                return builder
        return None

    def id_bytes(self, area: int = 0x00) -> tuple[int, ...]:
        """READ ID response (address 0x00: JEDEC; 0x20: ONFI signature)."""
        if area == 0x20:
            return (0x4F, 0x4E, 0x46, 0x49, 0x00)  # "ONFI"
        density_code = (self.geometry.capacity_bytes >> 33) & 0xFF
        return (self.jedec_id, density_code, self.geometry.planes, self.luns_per_package, 0x00)

    def parameter_page(self) -> np.ndarray:
        return _parameter_page_cached(self)


@lru_cache(maxsize=None)
def _parameter_page_cached(profile: VendorProfile) -> np.ndarray:
    return build_parameter_page(
        manufacturer=profile.manufacturer,
        model=profile.name,
        geometry=profile.geometry,
        luns_per_package=profile.luns_per_package,
    )


# --- the three Table I parts -------------------------------------------

HYNIX_V7 = VendorProfile(
    name="H25B1T8",
    manufacturer="SK HYNIX",
    timing=VendorTiming(
        t_read_ns=100 * NS_PER_US,
        t_prog_ns=700 * NS_PER_US,
        t_bers_ns=3_500 * NS_PER_US,
    ),
    luns_per_channel=8,
    jedec_id=0xAD,
)

TOSHIBA_BICS5 = VendorProfile(
    name="TH58LJT2",
    manufacturer="TOSHIBA",
    timing=VendorTiming(
        t_read_ns=78 * NS_PER_US,
        t_prog_ns=620 * NS_PER_US,
        t_bers_ns=3_000 * NS_PER_US,
    ),
    luns_per_channel=8,
    jedec_id=0x98,
)

MICRON_B47R = VendorProfile(
    name="MT29F2T08",
    manufacturer="MICRON",
    timing=VendorTiming(
        t_read_ns=53 * NS_PER_US,
        t_prog_ns=560 * NS_PER_US,
        t_bers_ns=2_800 * NS_PER_US,
    ),
    luns_per_channel=2,
    jedec_id=0x2C,
)

VENDOR_PROFILES: dict[str, VendorProfile] = {
    "hynix": HYNIX_V7,
    "toshiba": TOSHIBA_BICS5,
    "micron": MICRON_B47R,
}


def profile_by_name(name: str) -> VendorProfile:
    try:
        return VENDOR_PROFILES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown vendor {name!r}; known: {sorted(VENDOR_PROFILES)}"
        ) from None
