"""ONFI command opcodes, their names and their classes.

The opcode values below follow the ONFI 5.1 mandatory/optional command
sets.  Vendor-specific opcodes (pseudo-SLC entry/exit, suspend/resume,
read-retry register access) are modeled after common conventions in
commercial datasheets; the exact byte values only need to be consistent
between the controller's operation library and the package model.

What a die *does* with an opcode lives in :mod:`repro.onfi.protocol`;
an opcode constant without a row there (READ UNIQUE ID) is kept only so
captures render its name.
"""

from __future__ import annotations

import enum


class CMD:
    """ONFI and vendor opcode constants (one byte each)."""

    # --- reads ---------------------------------------------------------
    READ_1ST = 0x00          # first cycle of PAGE READ
    READ_2ND = 0x30          # confirm cycle of PAGE READ
    READ_CACHE_SEQ = 0x31    # READ CACHE SEQUENTIAL confirm
    READ_CACHE_END = 0x3F    # READ CACHE END confirm
    MP_READ_2ND = 0x32       # multi-plane read queue cycle
    CHANGE_READ_COL_1ST = 0x05
    CHANGE_READ_COL_2ND = 0xE0
    CHANGE_READ_COL_ENH_1ST = 0x06  # enhanced: full address (plane select)

    # --- status ----------------------------------------------------------
    READ_STATUS = 0x70
    READ_STATUS_ENHANCED = 0x78

    # --- programs --------------------------------------------------------
    PROGRAM_1ST = 0x80
    PROGRAM_2ND = 0x10
    CACHE_PROGRAM_2ND = 0x15
    MP_PROGRAM_2ND = 0x11    # multi-plane program queue cycle
    CHANGE_WRITE_COL = 0x85

    # --- erase -----------------------------------------------------------
    ERASE_1ST = 0x60
    ERASE_2ND = 0xD0
    MP_ERASE_2ND = 0xD1

    # --- identification / configuration ----------------------------------
    READ_ID = 0x90
    READ_PARAMETER_PAGE = 0xEC
    READ_UNIQUE_ID = 0xED
    SET_FEATURES = 0xEF
    GET_FEATURES = 0xEE
    RESET = 0xFF
    SYNCHRONOUS_RESET = 0xFC
    RESET_LUN = 0xFA

    # --- vendor-specific (modeled) ----------------------------------------
    VENDOR_PSLC_ENTER = 0xA2   # following Toshiba/Kioxia SLC-mode prefix
    VENDOR_PSLC_EXIT = 0xA3
    VENDOR_SUSPEND = 0x61      # program/erase suspend
    VENDOR_RESUME = 0xD2       # program/erase resume


class CommandClass(enum.Enum):
    """Broad behavioural class a LUN uses to decode an opcode."""

    READ = "read"
    READ_CONFIRM = "read_confirm"
    CACHE_READ_CONFIRM = "cache_read_confirm"
    CACHE_READ_END = "cache_read_end"
    CHANGE_READ_COLUMN = "change_read_column"
    STATUS = "status"
    PROGRAM = "program"
    PROGRAM_CONFIRM = "program_confirm"
    CACHE_PROGRAM_CONFIRM = "cache_program_confirm"
    CHANGE_WRITE_COLUMN = "change_write_column"
    ERASE = "erase"
    ERASE_CONFIRM = "erase_confirm"
    IDENT = "ident"
    FEATURES = "features"
    RESET = "reset"
    VENDOR = "vendor"
    UNKNOWN = "unknown"


_NAME_TABLE: dict[int, str] = {
    value: name
    for name, value in vars(CMD).items()
    if not name.startswith("_") and isinstance(value, int)
}


def classify_opcode(opcode: int) -> CommandClass:
    """The class column of the opcode's protocol-table row (an opcode
    with no row is UNKNOWN: the die rejects it)."""
    from repro.onfi.protocol import OPCODES  # protocol imports this module

    row = OPCODES.get(opcode)
    return row.cls if row is not None else CommandClass.UNKNOWN


def is_vendor_opcode(opcode: int) -> bool:
    return classify_opcode(opcode) is CommandClass.VENDOR


def opcode_name(opcode: int) -> str:
    """Human-readable opcode name, used by the logic analyzer."""
    return _NAME_TABLE.get(opcode, f"0x{opcode:02X}")
