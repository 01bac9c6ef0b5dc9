"""ONFI status register.

Bit assignments follow the ONFI 5.1 status field definition.  The paper's
Algorithm 2 polls for ``0x40`` (RDY), and failure bits feed the ECC /
read-retry path.
"""

from __future__ import annotations

import enum


class StatusBits(enum.IntFlag):
    """Status byte bit assignments (ONFI 5.1 §5.8)."""

    FAIL = 0x01    # last operation failed
    FAILC = 0x02   # operation before last failed (cache ops)
    CSP = 0x08     # command-specific (suspend state in our vendor ops)
    VSP = 0x10     # vendor-specific
    ARDY = 0x20    # array ready (cache ops: true inner readiness)
    RDY = 0x40     # LUN ready for another command
    WP = 0x80      # write-protect (1 = not protected)


# Plain-int masks: composing and testing the byte with ``IntFlag``
# operators costs three enum calls per bit, once per status poll.
_FAIL = int(StatusBits.FAIL)
_FAILC = int(StatusBits.FAILC)
_CSP = int(StatusBits.CSP)
_ARDY = int(StatusBits.ARDY)
_RDY = int(StatusBits.RDY)
_WP = int(StatusBits.WP)


class StatusRegister:
    """Mutable status state owned by one LUN."""

    __slots__ = ("rdy", "ardy", "fail", "failc", "suspended", "write_protected",
                 "fail_planes", "plane")

    def __init__(self) -> None:
        self.rdy = True
        self.ardy = True
        self.fail = False
        self.failc = False
        self.suspended = False
        self.write_protected = False
        # FAIL per plane (bit p: plane p's part of the last operation
        # failed), and the plane a READ STATUS ENHANCED selected — its
        # FAIL bit is that plane's; None for a plain READ STATUS.
        self.fail_planes = 0
        self.plane = None

    def value(self) -> int:
        """Compose the status byte as a READ STATUS would return it (or
        a READ STATUS ENHANCED, for the plane it selected)."""
        byte = 0
        plane = self.plane
        if self.fail if plane is None else self.fail_planes >> plane & 1:
            byte |= _FAIL
        if self.failc:
            byte |= _FAILC
        if self.suspended:
            byte |= _CSP
        if self.ardy:
            byte |= _ARDY
        if self.rdy:
            byte |= _RDY
        if not self.write_protected:
            byte |= _WP
        return byte

    def begin_operation(self) -> None:
        """Mark the LUN busy; shifts FAIL into FAILC per ONFI cache rules."""
        self.failc = self.fail
        self.fail = False
        self.fail_planes = 0
        self.rdy = False
        self.ardy = False

    def finish_operation(self, failed: int = 0) -> None:
        """Settle the operation: ``failed`` has bit p set when its part
        on plane p failed (a bool is plane 0's)."""
        self.rdy = True
        self.ardy = True
        self.fail = failed != 0
        self.fail_planes = failed

    def begin_cache_phase(self) -> None:
        """Cache ops: register free (RDY) while the array works (not ARDY)."""
        self.rdy = True
        self.ardy = False

    @staticmethod
    def is_ready(byte: int) -> bool:
        return bool(byte & _RDY)

    @staticmethod
    def is_array_ready(byte: int) -> bool:
        return bool(byte & _ARDY)

    @staticmethod
    def is_failed(byte: int) -> bool:
        return bool(byte & _FAIL)
