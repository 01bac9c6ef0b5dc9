"""SET FEATURES / GET FEATURES address map and storage.

Features are 4-byte parameter records addressed by a one-byte feature
address.  The controller's SET FEATURES operation (and the boot
sequences in :mod:`repro.calibration.boot`) manipulate these; the LUN
model interprets a handful of them (timing mode, pSLC enable, read
voltage offset for read-retry).
"""

from __future__ import annotations

import enum


class FeatureAddress(enum.IntEnum):
    """Feature addresses used in this reproduction.

    ``TIMING_MODE`` is ONFI-standard (0x01); the vendor range models
    read-retry voltage registers and pSLC configuration the way
    commercial parts expose them.
    """

    TIMING_MODE = 0x01
    IO_DRIVE_STRENGTH = 0x10
    VENDOR_READ_RETRY = 0x89
    VENDOR_PSLC_MODE = 0x91
    VENDOR_OUTPUT_PHASE = 0x92


# Plain-int keys of the two records the die model reads on every array
# operation (they are always present: ``__init__`` seeds them and
# nothing deletes a record).
_READ_RETRY = int(FeatureAddress.VENDOR_READ_RETRY)
_PSLC_MODE = int(FeatureAddress.VENDOR_PSLC_MODE)


class FeatureStore:
    """Per-LUN feature parameter storage.  The LUN model reads it
    lazily, when an array operation needs a value."""

    def __init__(self) -> None:
        self._params: dict[int, tuple[int, int, int, int]] = {
            int(FeatureAddress.TIMING_MODE): (0, 0, 0, 0),
            int(FeatureAddress.IO_DRIVE_STRENGTH): (2, 0, 0, 0),
            _READ_RETRY: (0, 0, 0, 0),
            _PSLC_MODE: (0, 0, 0, 0),
            int(FeatureAddress.VENDOR_OUTPUT_PHASE): (0, 0, 0, 0),
        }

    def set(self, address: int, params: tuple[int, int, int, int]) -> None:
        if len(params) != 4:
            raise ValueError("feature parameters are exactly 4 bytes")
        if any(not 0 <= p <= 0xFF for p in params):
            raise ValueError("feature parameter bytes must be in [0, 255]")
        self._params[int(address)] = tuple(params)

    def get(self, address: int) -> tuple[int, int, int, int]:
        return self._params.get(int(address), (0, 0, 0, 0))

    # Convenience accessors the LUN model uses -------------------------

    @property
    def timing_mode(self) -> int:
        return self.get(FeatureAddress.TIMING_MODE)[0]

    @property
    def pslc_enabled(self) -> bool:
        return self._params[_PSLC_MODE][0] != 0

    @property
    def read_retry_level(self) -> int:
        return self._params[_READ_RETRY][0]

    @property
    def output_phase(self) -> int:
        """Signed output-phase trim in timer ticks (two's complement byte)."""
        raw = self.get(FeatureAddress.VENDOR_OUTPUT_PHASE)[0]
        return raw - 256 if raw >= 128 else raw
