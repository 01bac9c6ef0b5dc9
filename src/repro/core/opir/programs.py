"""The built-in operation programs: the op library, as IR values.

Each builder *is* an operation: its ``@op_program`` name gives the
handle ``<name>_op`` in :mod:`repro.core.ops` (generated, see
:mod:`repro.core.ops.library`), its keyword arguments and defaults are
the op's, and its ``doc=`` says what the op returns.  Each mirrors one
generator of the pre-IR seed library (kept in ``tests/seed_ops``) —
same latches, same transaction labels, same poll points, same handle
mint order — so the golden-equivalence tests can hold the two side by
side segment for segment.  Builders run at "compile time": addresses
are encoded, data-independent loops (cache pages, multi-plane queues,
retry level sweeps) are unrolled, and argument validation happens
before a single segment exists.

This module must not import :mod:`repro.core.ops`: the handles there
load before it does (it loads with the first op a run submits).
Composition is expressed with :class:`~repro.core.opir.nodes.CallOp`
and resolved lazily by the lowering.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.opir.nodes import (
    Branch,
    BreakIf,
    CallOp,
    DataXfer,
    DeclareHandle,
    E,
    HandleRef,
    LatchSeq,
    Loop,
    OpProgram,
    PollStatus,
    Reg,
    Return,
    SelectFirstReady,
    SetReg,
    SoftSleep,
    TimerWait,
    Txn,
)
from repro.core.opir.registry import op_program
from repro.core.transaction import TxnKind
from repro.core.ufsm.ca_writer import addr, cmd
from repro.core.ufsm.chip_control import ChipControl
from repro.onfi.commands import CMD
from repro.onfi.geometry import AddressCodec, PhysicalAddress
from repro.onfi.status import StatusBits

_FEAT_MARGIN_NS = 200
_PARAM_MARGIN_NS = 500


def _col_change(column_bytes: tuple) -> tuple:
    """The CHANGE READ COLUMN latch triple (05h-addr-E0h)."""
    return (
        cmd(CMD.CHANGE_READ_COL_1ST),
        addr(column_bytes),
        cmd(CMD.CHANGE_READ_COL_2ND),
    )


def _read_preamble(address_bytes: tuple) -> tuple:
    """The READ latch triple (00h-addr-30h)."""
    return (cmd(CMD.READ_1ST), addr(address_bytes), cmd(CMD.READ_2ND))


def _not_failed(status) -> E:
    return E("not_failed", (status,))


# ---------------------------------------------------------------------------
# Shape declarations (``op_program(..., plan=)``) of the data-plane ops:
# ``(shape_key, operands)`` from the builder's own kwargs — what the
# program's structure depends on (burst size, a column that reaches a
# DataXfer, address cycle counts), and the per-call leaves in program
# order.  Each builder unpacks its leaves from its plan, so a leaf has one
# definition (tests/test_plan_shapes.py holds plan and program together).
# ---------------------------------------------------------------------------


def _read_plan(codec, address, dram_address, length=None) -> tuple:
    geometry = codec.geometry
    nbytes = length if length is not None else geometry.full_page_size
    return ((nbytes, geometry.col_cycles, geometry.row_cycles),
            (codec.encode(address), dram_address,
             codec.encode_column(address.column)))


def _full_page_read_plan(codec, address, dram_address) -> tuple:
    base = PhysicalAddress(address.block, address.page)
    return _read_plan(codec, base, dram_address)


def _partial_read_plan(codec, address, dram_address, length) -> tuple:
    if length <= 0:
        raise ValueError("partial read length must be positive")
    return _read_plan(codec, address, dram_address, length)


def _program_plan(codec, address, dram_address, length=None) -> tuple:
    geometry = codec.geometry
    nbytes = length if length is not None else geometry.full_page_size
    return ((nbytes, address.column, geometry.col_cycles, geometry.row_cycles),
            (dram_address, codec.encode(address)))


def _erase_plan(codec, block) -> tuple:
    row = PhysicalAddress(block=block, page=0)
    return (codec.geometry.row_cycles,
            (codec.encode(row, include_column=False),))


# ---------------------------------------------------------------------------
# Status (Algorithm 1)
#
# The paper's listing, line for line: latch 0x70, read one byte back.
# Chip activation/deactivation is the Chip Control µFSM's doing — it
# shows up as the chip mask stamped on each segment.
# ---------------------------------------------------------------------------


@op_program("read_status")
def read_status_program(chip_mask: Optional[int] = None) -> OpProgram:
    return OpProgram(
        "read_status",
        (
            DeclareHandle("s", "capture", nbytes=1),
            Txn(
                TxnKind.POLL,
                (
                    LatchSeq((cmd(CMD.READ_STATUS),), chip_mask=chip_mask),
                    DataXfer("out", 1, HandleRef("s"), chip_mask=chip_mask),
                ),
                label="read-status",
            ),
            Return(E("delivered_byte", (HandleRef("s"),))),
        ),
        doc="One status poll; returns the status byte.",
    )


@op_program("read_status_enhanced")
def read_status_enhanced_program(
    row_address_bytes: tuple[int, ...],
    chip_mask: Optional[int] = None,
) -> OpProgram:
    return OpProgram(
        "read_status_enhanced",
        (
            DeclareHandle("s", "capture", nbytes=1),
            Txn(
                TxnKind.POLL,
                (
                    LatchSeq(
                        (cmd(CMD.READ_STATUS_ENHANCED), addr(tuple(row_address_bytes))),
                        chip_mask=chip_mask,
                    ),
                    DataXfer("out", 1, HandleRef("s"), chip_mask=chip_mask),
                ),
                label="read-status-enhanced",
            ),
            Return(E("delivered_byte", (HandleRef("s"),))),
        ),
        doc="READ STATUS ENHANCED (0x78): per-LUN status on multi-die"
            " packages; returns the status byte.",
    )


# ---------------------------------------------------------------------------
# READ (Algorithm 2 and variants)
#
# ``read_page`` is the paper's READ with Column Address Change: latch
# command+address, *poll* for readiness instead of waiting a fixed tR
# (lines 7..9 — tR is highly variable), then trigger the transfer with a
# CHANGE READ COLUMN.  ``full_page_read`` is the degenerate column-0
# case; ``partial_read`` reads a sub-page chunk (the 16 KiB-page /
# 4 KiB-subpage use case); ``read_page_timed_wait`` is the timed-wait
# alternative the polling ablation compares against.  Vendor profiles
# can swap any of them without touching a caller.
# ---------------------------------------------------------------------------


@op_program("read_page", plan=_read_plan)
def read_page_program(
    codec: AddressCodec,
    address: PhysicalAddress,
    dram_address: int,
    length: Optional[int] = None,
) -> OpProgram:
    (nbytes, _, _), (address_bytes, dram_address, column_bytes) = _read_plan(
        codec, address, dram_address, length)
    return OpProgram(
        "read_page",
        (
            Txn(
                TxnKind.CMD_ADDR,
                (LatchSeq(_read_preamble(address_bytes)),),
                label="read-preamble",
            ),
            PollStatus(until="ready", dest="status"),
            DeclareHandle("h", "from_flash", nbytes=nbytes, dram_address=dram_address),
            Txn(
                TxnKind.DATA_OUT,
                (
                    LatchSeq(_col_change(column_bytes)),
                    TimerWait(param="tCCS"),
                    DataXfer("out", nbytes, HandleRef("h")),
                ),
                label="read-transfer",
            ),
            Return((Reg("status"), HandleRef("h"))),
        ),
        doc="READ with Column Address Change (Fig. 8, Alg. 2); returns (status, DmaHandle).",
    )


@op_program("full_page_read", plan=_full_page_read_plan)
def full_page_read_program(
    codec: AddressCodec,
    address: PhysicalAddress,
    dram_address: int,
) -> OpProgram:
    base = PhysicalAddress(block=address.block, page=address.page, column=0)
    return OpProgram(
        "full_page_read",
        (
            CallOp(
                "read_page",
                kwargs=(
                    ("codec", codec),
                    ("address", base),
                    ("dram_address", dram_address),
                ),
                dest="r",
            ),
            Return(Reg("r")),
        ),
        doc="Column-0 full-page READ — Algorithm 2's degenerate case;"
            " returns (status, DmaHandle).",
    )


@op_program("partial_read", plan=_partial_read_plan)
def partial_read_program(
    codec: AddressCodec,
    address: PhysicalAddress,
    dram_address: int,
    length: int,
) -> OpProgram:
    if length <= 0:
        raise ValueError("partial read length must be positive")
    return OpProgram(
        "partial_read",
        (
            CallOp(
                "read_page",
                kwargs=(
                    ("codec", codec),
                    ("address", address),
                    ("dram_address", dram_address),
                    ("length", length),
                ),
                dest="r",
            ),
            Return(Reg("r")),
        ),
        doc="Sub-page READ: transfer length bytes from address.column;"
            " returns (status, DmaHandle).",
    )


@op_program("read_page_timed_wait")
def read_page_timed_wait_program(
    codec: AddressCodec,
    address: PhysicalAddress,
    dram_address: int,
    wait_ns: int,
    length: Optional[int] = None,
) -> OpProgram:
    nbytes = length if length is not None else codec.geometry.full_page_size
    return OpProgram(
        "read_page_timed_wait",
        (
            Txn(
                TxnKind.CMD_ADDR,
                (LatchSeq(_read_preamble(codec.encode(address))),),
                label="read-preamble-timed",
            ),
            # The category-3 wait as a software sleep: the channel is
            # free while the array works (the polling-ablation variant).
            SoftSleep(wait_ns),
            DeclareHandle("h", "from_flash", nbytes=nbytes, dram_address=dram_address),
            Txn(
                TxnKind.DATA_OUT,
                (
                    LatchSeq(_col_change(codec.encode_column(address.column))),
                    TimerWait(param="tCCS"),
                    DataXfer("out", nbytes, HandleRef("h")),
                ),
                label="read-transfer-timed",
            ),
            # No status was read on this path; report the nominal ready code.
            Return((int(StatusBits.RDY), HandleRef("h"))),
        ),
        doc="READ using a fixed wait instead of status polling: wait_ns"
            " must cover the package's worst-case tR (the polling ablation"
            " prices that margin); returns (RDY, DmaHandle).",
    )


# ---------------------------------------------------------------------------
# PROGRAM
#
# ``program_page`` is the standard three-phase PROGRAM: latch 0x80 and
# the address, stream the page into the register, confirm with 0x10,
# and poll for completion.  ``partial_program`` uses CHANGE WRITE COLUMN
# to fill disjoint chunks before confirming (sub-page host writes).
# ---------------------------------------------------------------------------


@op_program("program_page", plan=_program_plan)
def program_page_program(
    codec: AddressCodec,
    address: PhysicalAddress,
    dram_address: int,
    length: Optional[int] = None,
) -> OpProgram:
    (nbytes, column, _, _), (dram_address, address_bytes) = _program_plan(
        codec, address, dram_address, length)
    return OpProgram(
        "program_page",
        (
            DeclareHandle("h", "to_flash", nbytes=nbytes, dram_address=dram_address),
            Txn(
                TxnKind.DATA_IN,
                (
                    LatchSeq((cmd(CMD.PROGRAM_1ST), addr(address_bytes))),
                    DataXfer(
                        "in", nbytes, HandleRef("h"),
                        column=column, after_address=True,
                    ),
                ),
                label="program-load",
            ),
            Txn(
                TxnKind.CMD_ADDR,
                (LatchSeq((cmd(CMD.PROGRAM_2ND),)),),
                label="program-confirm",
            ),
            PollStatus(until="ready", dest="status"),
            Return(_not_failed(Reg("status"))),
        ),
        doc="Three-phase PROGRAM: load, confirm, poll; returns True on success.",
    )


@op_program("partial_program")
def partial_program_program(
    codec: AddressCodec,
    address: PhysicalAddress,
    chunks: Sequence[tuple[int, int, int]],
) -> OpProgram:
    if not chunks:
        raise ValueError("partial program needs at least one chunk")
    nodes: list = []
    first_column, first_dram, first_len = chunks[0]
    first_address = PhysicalAddress(
        block=address.block, page=address.page, column=first_column
    )
    nodes.append(
        DeclareHandle("h0", "to_flash", nbytes=first_len, dram_address=first_dram)
    )
    nodes.append(
        Txn(
            TxnKind.DATA_IN,
            (
                LatchSeq((cmd(CMD.PROGRAM_1ST), addr(codec.encode(first_address)))),
                DataXfer(
                    "in", first_len, HandleRef("h0"),
                    column=first_column, after_address=True,
                ),
            ),
            label="partial-program-load",
        )
    )
    for index, (column, dram_address, nbytes) in enumerate(chunks[1:], start=1):
        handle = f"h{index}"
        nodes.append(
            DeclareHandle(handle, "to_flash", nbytes=nbytes, dram_address=dram_address)
        )
        nodes.append(
            Txn(
                TxnKind.DATA_IN,
                (
                    LatchSeq(
                        (cmd(CMD.CHANGE_WRITE_COL), addr(codec.encode_column(column)))
                    ),
                    DataXfer(
                        "in", nbytes, HandleRef(handle),
                        column=column, after_address=True,
                    ),
                ),
                label="partial-program-chunk",
            )
        )
    nodes.append(
        Txn(
            TxnKind.CMD_ADDR,
            (LatchSeq((cmd(CMD.PROGRAM_2ND),)),),
            label="partial-program-confirm",
        )
    )
    nodes.append(PollStatus(until="ready", dest="status"))
    nodes.append(Return(_not_failed(Reg("status"))))
    return OpProgram(
        "partial_program",
        tuple(nodes),
        doc="Disjoint-chunk PROGRAM: chunks are (column, dram_address,"
            " nbytes); each after the first is positioned with CHANGE WRITE"
            " COLUMN (0x85), one confirm commits them; returns True on"
            " success.",
    )


# ---------------------------------------------------------------------------
# ERASE
# ---------------------------------------------------------------------------


@op_program("erase_block", plan=_erase_plan)
def erase_block_program(codec: AddressCodec, block: int) -> OpProgram:
    _, (row_bytes,) = _erase_plan(codec, block)
    return OpProgram(
        "erase_block",
        (
            Txn(
                TxnKind.CMD_ADDR,
                (
                    LatchSeq(
                        (
                            cmd(CMD.ERASE_1ST),
                            addr(row_bytes),
                            cmd(CMD.ERASE_2ND),
                        )
                    ),
                ),
                label="erase",
            ),
            PollStatus(until="ready", dest="status"),
            Return(_not_failed(Reg("status"))),
        ),
        doc="ERASE: 0x60 + row + 0xD0, then poll; returns True, or False if worn out.",
    )


# ---------------------------------------------------------------------------
# Cache operations
#
# Cache reads interleave the array's tR with channel transfers: while
# page *n* streams out of the cache register, the array already fetches
# page *n+1*.  Cache ops poll ARDY (not RDY) between pages — the cache
# register is ready (RDY) long before the array is.
# ---------------------------------------------------------------------------


@op_program("cache_read_sequential")
def cache_read_sequential_program(
    codec: AddressCodec,
    start: PhysicalAddress,
    dram_addresses: Sequence[int],
) -> OpProgram:
    if not dram_addresses:
        raise ValueError("cache read needs at least one destination")
    page_bytes = codec.geometry.full_page_size
    count = len(dram_addresses)
    nodes: list = [
        Txn(
            TxnKind.CMD_ADDR,
            (LatchSeq(_read_preamble(codec.encode(start))),),
            label="cache-read-start",
        ),
        PollStatus(until="ready"),
    ]
    for index, dram_address in enumerate(dram_addresses):
        final = index == count - 1
        opcode = CMD.READ_CACHE_END if final else CMD.READ_CACHE_SEQ
        handle = f"h{index}"
        nodes.append(
            Txn(
                TxnKind.CMD_ADDR,
                (LatchSeq((cmd(opcode),)),),
                label="cache-read-flip",
            )
        )
        nodes.append(
            DeclareHandle(
                handle, "from_flash", nbytes=page_bytes, dram_address=dram_address
            )
        )
        nodes.append(
            Txn(
                TxnKind.DATA_OUT,
                (DataXfer("out", page_bytes, HandleRef(handle)),),
                label="cache-read-page",
            )
        )
        if not final:
            nodes.append(PollStatus(until="array_ready"))
    nodes.append(Return([HandleRef(f"h{i}") for i in range(count)]))
    return OpProgram(
        "cache_read_sequential",
        tuple(nodes),
        doc="READ CACHE SEQUENTIAL: overlap tR with transfers; returns"
            " one DmaHandle per page, in order.",
    )


@op_program("cache_program")
def cache_program_program(
    codec: AddressCodec,
    pages: Sequence[tuple[PhysicalAddress, int]],
) -> OpProgram:
    if not pages:
        raise ValueError("cache program needs at least one page")
    page_bytes = codec.geometry.full_page_size
    nodes: list = [SetReg("ok", True)]
    for index, (address, dram_address) in enumerate(pages):
        final = index == len(pages) - 1
        handle = f"h{index}"
        nodes.append(
            DeclareHandle(
                handle, "to_flash", nbytes=page_bytes, dram_address=dram_address
            )
        )
        nodes.append(
            Txn(
                TxnKind.DATA_IN,
                (
                    LatchSeq((cmd(CMD.PROGRAM_1ST), addr(codec.encode(address)))),
                    DataXfer("in", page_bytes, HandleRef(handle), after_address=True),
                ),
                label="cache-program-load",
            )
        )
        if index > 0:
            status = f"s{index}"
            nodes.append(PollStatus(until="array_ready", dest=status))
            nodes.append(
                SetReg("ok", E("and", (Reg("ok"), _not_failed(Reg(status)))))
            )
        opcode = CMD.PROGRAM_2ND if final else CMD.CACHE_PROGRAM_2ND
        nodes.append(
            Txn(
                TxnKind.CMD_ADDR,
                (LatchSeq((cmd(opcode),)),),
                label="cache-program-confirm",
            )
        )
    nodes.append(PollStatus(until="array_ready", dest="sf"))
    nodes.append(SetReg("ok", E("and", (Reg("ok"), _not_failed(Reg("sf"))))))
    nodes.append(Return(Reg("ok")))
    return OpProgram(
        "cache_program",
        tuple(nodes),
        doc="CACHE PROGRAM: bursts overlap background tPROG; pages are"
            " (address, dram_address), every one but the last confirms with"
            " 0x15 (the register frees while the array programs), the last"
            " with 0x10; returns True when every page programmed cleanly.",
    )


# ---------------------------------------------------------------------------
# Multi-plane operations: one array time covers several planes
#
# ONFI multi-plane sequencing: each plane but the last is queued with its
# queue-cycle confirm (0x32 / 0x11 / 0xD1, short tDBSY busy), the last
# uses the normal confirm, and the array performs all queued planes
# together.  Reads then select each plane's register with CHANGE READ
# COLUMN ENHANCED (0x06 + full address + 0xE0) before transferring.
# ---------------------------------------------------------------------------


def _check_distinct_planes(
    codec: AddressCodec, addresses: Sequence[PhysicalAddress]
) -> None:
    planes = [codec.plane_of(a) for a in addresses]
    if len(set(planes)) != len(planes):
        raise ValueError("multi-plane targets must address distinct planes")


def _multiplane_read_plan(codec, addresses, dram_addresses) -> tuple:
    if len(addresses) != len(dram_addresses) or not addresses:
        raise ValueError("need one DRAM destination per plane address")
    _check_distinct_planes(codec, addresses)
    geometry = codec.geometry
    queued = tuple(codec.encode(address) for address in addresses)
    selected = []
    for address_bytes, dram_address in zip(queued, dram_addresses):
        selected += (dram_address, address_bytes)
    return ((len(queued), geometry.full_page_size, geometry.col_cycles,
             geometry.row_cycles), queued + tuple(selected))


def _multiplane_program_plan(codec, pages) -> tuple:
    if not pages:
        raise ValueError("multi-plane program needs at least one page")
    _check_distinct_planes(codec, [address for address, _ in pages])
    geometry = codec.geometry
    leaves = []
    for address, dram_address in pages:
        leaves += (dram_address, codec.encode(address))
    return ((len(pages), geometry.full_page_size, geometry.col_cycles,
             geometry.row_cycles), tuple(leaves))


def program_chain_leaves(pages: Sequence[tuple], finished: Sequence[tuple],
                         col_cycles: int) -> tuple:
    """The plan leaves of an op that loads ``pages`` and reads the
    status of ``finished``, from each page's ``program_page`` plan
    leaves ``(dram_address, address_bytes)``: the loads' leaves in page
    order, then a capture handle per finished page, then each one's
    status select — the row part of its load address.  The template
    runner assembles a pair's, and a chain's, operands through this."""
    loads = handles = selects = ()
    for dram_address, address_bytes in pages:
        loads += (dram_address, address_bytes)
    for _, address_bytes in finished:
        handles += (None,)
        selects += (address_bytes[col_cycles:],)
    return loads + handles + selects


def _page_leaves(leaves: tuple) -> list:
    """``_multiplane_program_plan`` leaves, one ``(dram_address,
    address_bytes)`` per page."""
    return [leaves[at:at + 2] for at in range(0, len(leaves), 2)]


def _paired_program_plan(codec, pages) -> tuple:
    shape_key, leaves = _multiplane_program_plan(codec, pages)
    loads = _page_leaves(leaves)
    return shape_key, program_chain_leaves(loads, loads,
                                           codec.geometry.col_cycles)


def _program_chain_step_plan(codec, pages, finished=()) -> tuple:
    shape_key, leaves = _multiplane_program_plan(codec, pages)
    done = _multiplane_program_plan(codec, finished)[1] if finished else ()
    return shape_key + (len(finished),), program_chain_leaves(
        _page_leaves(leaves), _page_leaves(done), codec.geometry.col_cycles)


def _program_chain_end_plan(codec, pages) -> tuple:
    shape_key, leaves = _multiplane_program_plan(codec, pages)
    return shape_key, program_chain_leaves(
        (), _page_leaves(leaves), codec.geometry.col_cycles)


def _multiplane_erase_plan(codec, blocks) -> tuple:
    if not blocks:
        raise ValueError("multi-plane erase needs at least one block")
    addresses = [PhysicalAddress(block=b, page=0) for b in blocks]
    _check_distinct_planes(codec, addresses)
    return ((len(addresses), codec.geometry.row_cycles), tuple(
        codec.encode_row(codec.row_address(address))
        for address in addresses))


def _paired_erase_plan(codec, blocks) -> tuple:
    # The erase latches' rows, a capture handle per block, then each
    # block's status select (its row again).
    shape_key, rows = _multiplane_erase_plan(codec, blocks)
    return shape_key, rows + (None,) * len(rows) + rows


@op_program("multiplane_read", plan=_multiplane_read_plan)
def multiplane_read_program(
    codec: AddressCodec,
    addresses: Sequence[PhysicalAddress],
    dram_addresses: Sequence[int],
) -> OpProgram:
    (count, page_bytes, _, _), leaves = _multiplane_read_plan(
        codec, addresses, dram_addresses)
    nodes: list = []
    for index, address_bytes in enumerate(leaves[:count]):
        final = index == count - 1
        confirm = CMD.READ_2ND if final else CMD.MP_READ_2ND
        nodes.append(
            Txn(
                TxnKind.CMD_ADDR,
                (
                    LatchSeq(
                        (cmd(CMD.READ_1ST), addr(address_bytes), cmd(confirm))
                    ),
                ),
                label="mp-read-queue",
            )
        )
        # Queue cycles incur a short tDBSY; the final confirm the full tR.
        nodes.append(PollStatus(until="ready"))
    for index in range(count):
        at = count + 2 * index
        dram_address, address_bytes = leaves[at:at + 2]
        handle = f"h{index}"
        nodes.append(
            DeclareHandle(
                handle, "from_flash", nbytes=page_bytes, dram_address=dram_address
            )
        )
        nodes.append(
            Txn(
                TxnKind.DATA_OUT,
                (
                    LatchSeq(
                        (
                            cmd(CMD.CHANGE_READ_COL_ENH_1ST),
                            addr(address_bytes),
                            cmd(CMD.CHANGE_READ_COL_2ND),
                        )
                    ),
                    TimerWait(param="tCCS"),
                    DataXfer("out", page_bytes, HandleRef(handle)),
                ),
                label="mp-read-transfer",
            )
        )
    nodes.append(Return(tuple(HandleRef(f"h{i}") for i in range(count))))
    return OpProgram(
        "multiplane_read",
        tuple(nodes),
        doc="One page per plane in a single array time; returns the"
            " DmaHandles in the order of addresses.",
    )


def _multiplane_loads(count: int, page_bytes: int, leaves: tuple,
                      one_hold: bool = False,
                      confirm: Optional[int] = CMD.PROGRAM_2ND,
                      lead: tuple = ()) -> list:
    """The load / queue-confirm cycles of a multi-plane PROGRAM: each
    page but the last is queued with 0x11 (a short tDBSY), the last
    confirms with ``confirm`` (0x10: one tPROG for them all; None: the
    last page is left loaded, awaiting its confirm).  ``one_hold``: each
    page's load and confirm share one channel hold (the same bus
    cycles, one transaction fewer per page).  ``lead``: segments the
    first page's load transaction starts with."""
    nodes: list = []
    for index in range(count):
        dram_address, address_bytes = leaves[2 * index:2 * index + 2]
        final = index == count - 1
        handle = f"h{index}"
        nodes.append(
            DeclareHandle(
                handle, "to_flash", nbytes=page_bytes, dram_address=dram_address
            )
        )
        load = (() if index else lead) + (
            LatchSeq((cmd(CMD.PROGRAM_1ST), addr(address_bytes))),
            DataXfer("in", page_bytes, HandleRef(handle), after_address=True),
        )
        opcode = confirm if final else CMD.MP_PROGRAM_2ND
        if opcode is None:
            nodes.append(Txn(TxnKind.DATA_IN, load,
                             label="chain-program-load"))
        elif one_hold:
            nodes.append(Txn(TxnKind.DATA_IN,
                             load + (LatchSeq((cmd(opcode),)),),
                             label="paired-program-load"))
        else:
            nodes.append(Txn(TxnKind.DATA_IN, load, label="mp-program-load"))
            nodes.append(Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(opcode),)),),
                             label="mp-program-confirm"))
        if not final:
            nodes.append(PollStatus(until="ready"))  # tDBSY between queue cycles
    return nodes


def _status_per_plane(selects: tuple, label: str) -> list:
    """READ STATUS ENHANCED for each plane ``selects`` names (a row
    address each), all in one channel hold, and the return of one bool
    per plane — its FAIL bit clear — in the order of ``selects``."""
    nodes: list = []
    segments: list = []
    for index, row_bytes in enumerate(selects):
        nodes.append(DeclareHandle(f"s{index}", "capture", nbytes=1))
        segments.append(LatchSeq((cmd(CMD.READ_STATUS_ENHANCED),
                                  addr(row_bytes))))
        segments.append(DataXfer("out", 1, HandleRef(f"s{index}")))
    nodes.append(Txn(TxnKind.POLL, tuple(segments), label=label))
    nodes.append(Return(tuple(
        _not_failed(E("delivered_byte", (HandleRef(f"s{index}"),)))
        for index in range(len(selects)))))
    return nodes


@op_program("multiplane_program", plan=_multiplane_program_plan)
def multiplane_program_program(
    codec: AddressCodec,
    pages: Sequence[tuple[PhysicalAddress, int]],
) -> OpProgram:
    (count, page_bytes, _, _), leaves = _multiplane_program_plan(codec, pages)
    nodes = _multiplane_loads(count, page_bytes, leaves)
    nodes.append(PollStatus(until="ready", dest="status"))
    nodes.append(Return(_not_failed(Reg("status"))))
    return OpProgram(
        "multiplane_program",
        tuple(nodes),
        doc="One page per plane in a single tPROG; pages are (address,"
            " dram_address); returns True on success.",
    )


@op_program("paired_program", plan=_paired_program_plan)
def paired_program_program(
    codec: AddressCodec,
    pages: Sequence[tuple[PhysicalAddress, int]],
) -> OpProgram:
    (count, page_bytes, _, _), leaves = _paired_program_plan(codec, pages)
    nodes = _multiplane_loads(count, page_bytes, leaves, one_hold=True)
    nodes.append(PollStatus(until="ready"))
    nodes += _status_per_plane(leaves[3 * count:], "paired-program-status")
    return OpProgram(
        "paired_program",
        tuple(nodes),
        doc="Queued programs on distinct planes as one multi-plane PROGRAM"
            " (one tPROG), then READ STATUS ENHANCED per page: returns one"
            " bool per page, in the order of pages (the op a LUN's admission"
            " runs for two queued programs on distinct planes).",
    )


# ---------------------------------------------------------------------------
# Program chains: a die's queued plane pairs through multi-plane CACHE
# PROGRAM (0x80...0x11, 0x80...0x15).  A chain is a run of ops on one
# die, and the decision between them is the admission's: the first
# step loads a pair and leaves it awaiting its confirm; each further
# step confirms the loaded pair with 0x15 (in the hold that starts the
# next pair's load), loads the next while the array programs, polls
# ARDY and reads the finished pair's status per plane; the end
# confirms the last pair with 0x10 and reads its status.  Step and end
# continue where the op before them stopped (``OpProgram.continues``).
# ---------------------------------------------------------------------------


@op_program("program_chain_step", plan=_program_chain_step_plan)
def program_chain_step_program(
    codec: AddressCodec,
    pages: Sequence[tuple[PhysicalAddress, int]],
    finished: Sequence[tuple[PhysicalAddress, int]] = (),
) -> OpProgram:
    (count, page_bytes, _, _, done), leaves = _program_chain_step_plan(
        codec, pages, finished)
    lead = (LatchSeq((cmd(CMD.CACHE_PROGRAM_2ND),)),) if done else ()
    nodes = _multiplane_loads(count, page_bytes, leaves, one_hold=True,
                              confirm=None, lead=lead)
    if done:
        nodes.append(PollStatus(until="array_ready"))
        nodes += _status_per_plane(leaves[2 * count + done:],
                                   "chain-program-status")
    else:
        nodes.append(Return(()))
    return OpProgram(
        "program_chain_step",
        tuple(nodes),
        doc="One step of a program chain: confirm the loaded pages of"
            " ``finished`` with CACHE PROGRAM (0x15), load ``pages`` (each"
            " but the last queued with 0x11, the last left awaiting its"
            " confirm; the first in the 0x15's hold) while the array"
            " programs, poll ARDY, then READ STATUS ENHANCED per finished"
            " page: returns one bool per finished page, in their order"
            " (none for a first step).",
        continues=bool(done),
    )


@op_program("program_chain_end", plan=_program_chain_end_plan)
def program_chain_end_program(
    codec: AddressCodec,
    pages: Sequence[tuple[PhysicalAddress, int]],
) -> OpProgram:
    (count, _, _, _), leaves = _program_chain_end_plan(codec, pages)
    nodes = [Txn(TxnKind.CMD_ADDR, (LatchSeq((cmd(CMD.PROGRAM_2ND),)),),
                 label="chain-program-confirm"),
             PollStatus(until="ready")]
    nodes += _status_per_plane(leaves[count:], "chain-program-status")
    return OpProgram(
        "program_chain_end",
        tuple(nodes),
        doc="A program chain's end: confirm the loaded ``pages`` with"
            " PROGRAM (0x10), poll, then READ STATUS ENHANCED per page:"
            " returns one bool per page, in their order.",
        continues=True,
    )


def _multiplane_erase_latches(rows: tuple, label: str) -> list:
    """The latch cycles of a multi-plane ERASE: each block but the last
    is queued with 0xD1 (a short tDBSY), the last confirms with 0xD0,
    which starts one tBERS for them all."""
    nodes: list = []
    for index, row_bytes in enumerate(rows):
        final = index == len(rows) - 1
        confirm = CMD.ERASE_2ND if final else CMD.MP_ERASE_2ND
        nodes.append(
            Txn(
                TxnKind.CMD_ADDR,
                (
                    LatchSeq(
                        (cmd(CMD.ERASE_1ST), addr(row_bytes), cmd(confirm))
                    ),
                ),
                label=label,
            )
        )
        if not final:
            nodes.append(PollStatus(until="ready"))
    return nodes


@op_program("multiplane_erase", plan=_multiplane_erase_plan)
def multiplane_erase_program(codec: AddressCodec, blocks: Sequence[int]) -> OpProgram:
    _, rows = _multiplane_erase_plan(codec, blocks)
    nodes = _multiplane_erase_latches(rows, "mp-erase")
    nodes.append(PollStatus(until="ready", dest="status"))
    nodes.append(Return(_not_failed(Reg("status"))))
    return OpProgram(
        "multiplane_erase",
        tuple(nodes),
        doc="One block per plane in a single tBERS; returns True on"
            " success.",
    )


@op_program("paired_erase", plan=_paired_erase_plan)
def paired_erase_program(codec: AddressCodec, blocks: Sequence[int]) -> OpProgram:
    (count, _), leaves = _paired_erase_plan(codec, blocks)
    nodes = _multiplane_erase_latches(leaves[:count], "paired-erase")
    nodes.append(PollStatus(until="ready"))
    nodes += _status_per_plane(leaves[2 * count:], "paired-erase-status")
    return OpProgram(
        "paired_erase",
        tuple(nodes),
        doc="Blocks on distinct planes as one multi-plane ERASE (one"
            " tBERS), then READ STATUS ENHANCED per block: returns one bool"
            " per block, in the order of blocks (the op the FTL's collector"
            " reclaims two victims with).",
    )


# ---------------------------------------------------------------------------
# Gang-scheduled READ (the RAIL use case, Section IV-A)
#
# Data replicated across several LUNs of one channel is read by
# broadcasting the READ preamble with a multi-chip Chip Control mask,
# then polling each replica individually and transferring from whichever
# becomes ready first — bounding tail latency the way RAIL [32] proposes.
# ---------------------------------------------------------------------------


@op_program("gang_read")
def gang_read_program(
    codec: AddressCodec,
    address: PhysicalAddress,
    positions: Sequence[int],
    dram_address: int,
) -> OpProgram:
    if not positions:
        raise ValueError("gang read needs at least one position")
    gang_mask = ChipControl.gang_mask(list(positions))
    page_bytes = codec.geometry.full_page_size
    winner_mask = Reg("winner_mask")
    return OpProgram(
        "gang_read",
        (
            Txn(
                TxnKind.CMD_ADDR,
                (
                    LatchSeq(
                        _read_preamble(codec.encode(address)),
                        chip_mask=gang_mask,
                        via_chip_control=True,
                    ),
                ),
                label="gang-read-preamble",
            ),
            # Poll the replicas round-robin; first RDY wins.
            SelectFirstReady(tuple(positions)),
            DeclareHandle(
                "h", "from_flash", nbytes=page_bytes, dram_address=dram_address
            ),
            Txn(
                TxnKind.DATA_OUT,
                (
                    LatchSeq(_col_change(codec.encode_column(address.column)),
                             chip_mask=winner_mask),
                    TimerWait(param="tCCS", chip_mask=winner_mask),
                    DataXfer(
                        "out", page_bytes, HandleRef("h"), chip_mask=winner_mask
                    ),
                ),
                label="gang-read-transfer",
            ),
            Return((Reg("winner"), HandleRef("h"))),
        ),
        doc="Broadcast READ to replicas; transfer from the first ready LUN."
            " The caller guarantees the replicas hold the same data at the"
            " same address and that no other op targets these LUNs; returns"
            " (winner_position, DmaHandle).",
    )


# ---------------------------------------------------------------------------
# pSLC operations (Fig. 8, Algorithm 3)
#
# The pSLC READ is Algorithm 2 with a vendor mode-entry latch prepended
# to the preamble and a mode-exit appended after the transfer — exactly
# the gray-highlighted diff of Fig. 8.  In hardware each variant would be
# a separate validated FSM; here it is a one-node diff between two op
# programs, which is the paper's programmability argument in miniature.
# ---------------------------------------------------------------------------


@op_program("pslc_read", plan=_read_plan)
def pslc_read_program(
    codec: AddressCodec,
    address: PhysicalAddress,
    dram_address: int,
    length: Optional[int] = None,
) -> OpProgram:
    (nbytes, _, _), (address_bytes, dram_address, column_bytes) = _read_plan(
        codec, address, dram_address, length)
    return OpProgram(
        "pslc_read",
        (
            Txn(
                TxnKind.CMD_ADDR,
                (
                    LatchSeq(
                        (cmd(CMD.VENDOR_PSLC_ENTER),)  # <- the Alg. 3 diff
                        + _read_preamble(address_bytes)
                    ),
                ),
                label="pslc-read-preamble",
            ),
            PollStatus(until="ready", dest="status"),
            DeclareHandle("h", "from_flash", nbytes=nbytes, dram_address=dram_address),
            Txn(
                TxnKind.DATA_OUT,
                (
                    LatchSeq(_col_change(column_bytes)),
                    TimerWait(param="tCCS"),
                    DataXfer("out", nbytes, HandleRef("h")),
                    LatchSeq((cmd(CMD.VENDOR_PSLC_EXIT),)),
                ),
                label="pslc-read-transfer",
            ),
            Return((Reg("status"), HandleRef("h"))),
        ),
        doc="pSLC PAGE READ (Algorithm 2 + mode enter/exit latches): faster"
            " and far more reliable than native mode; returns (status,"
            " DmaHandle).",
    )


@op_program("pslc_program", plan=_program_plan)
def pslc_program_program(
    codec: AddressCodec,
    address: PhysicalAddress,
    dram_address: int,
    length: Optional[int] = None,
) -> OpProgram:
    (nbytes, column, _, _), (dram_address, address_bytes) = _program_plan(
        codec, address, dram_address, length)
    return OpProgram(
        "pslc_program",
        (
            DeclareHandle("h", "to_flash", nbytes=nbytes, dram_address=dram_address),
            Txn(
                TxnKind.DATA_IN,
                (
                    LatchSeq(
                        (
                            cmd(CMD.VENDOR_PSLC_ENTER),
                            cmd(CMD.PROGRAM_1ST),
                            addr(address_bytes),
                        )
                    ),
                    DataXfer(
                        "in", nbytes, HandleRef("h"),
                        column=column, after_address=True,
                    ),
                ),
                label="pslc-program-load",
            ),
            Txn(
                TxnKind.CMD_ADDR,
                (LatchSeq((cmd(CMD.PROGRAM_2ND),)),),
                label="pslc-program-confirm",
            ),
            PollStatus(until="ready", dest="status"),
            Txn(
                TxnKind.CONFIG,
                (LatchSeq((cmd(CMD.VENDOR_PSLC_EXIT),)),),
                label="pslc-exit",
            ),
            Return(_not_failed(Reg("status"))),
        ),
        doc="pSLC PROGRAM: one-bit-per-cell commit; returns True on"
            " success.",
    )


@op_program("pslc_erase", plan=_erase_plan)
def pslc_erase_program(codec: AddressCodec, block: int) -> OpProgram:
    _, (row_bytes,) = _erase_plan(codec, block)
    return OpProgram(
        "pslc_erase",
        (
            Txn(
                TxnKind.CMD_ADDR,
                (
                    LatchSeq(
                        (
                            cmd(CMD.VENDOR_PSLC_ENTER),
                            cmd(CMD.ERASE_1ST),
                            addr(row_bytes),
                            cmd(CMD.ERASE_2ND),
                        )
                    ),
                ),
                label="pslc-erase",
            ),
            PollStatus(until="ready", dest="status"),
            Txn(
                TxnKind.CONFIG,
                (LatchSeq((cmd(CMD.VENDOR_PSLC_EXIT),)),),
                label="pslc-exit",
            ),
            Return(_not_failed(Reg("status"))),
        ),
        doc="pSLC ERASE: re-dedicates the block to pSLC duty; returns True"
            " on success.",
    )


# ---------------------------------------------------------------------------
# READ RETRY (the data-dependent loop)
#
# The optimization of Park et al. [48] / Liu et al. [34]: when ECC cannot
# correct a page at the default read voltage, re-read it at shifted
# voltages (a vendor SET FEATURES register) until a level decodes.  The
# op takes a ``validate`` callback — in a real controller the ECC engine,
# here usually a :class:`~repro.ecc.BchEngine` closure — which crosses
# into the program as a *hook* (its ``BreakIf`` evaluates it per level).
# ---------------------------------------------------------------------------


@op_program("read_with_retry")
def read_with_retry_program(
    codec: AddressCodec,
    address: PhysicalAddress,
    dram_address: int,
    max_levels: int = 8,
    feat_busy_ns: int = 1_000,
) -> OpProgram:
    from repro.onfi.features import FeatureAddress

    def set_level(params) -> CallOp:
        return CallOp(
            "set_features",
            kwargs=(
                ("feature_address", FeatureAddress.VENDOR_READ_RETRY),
                ("params", params),
                ("feat_busy_ns", feat_busy_ns),
            ),
        )

    return OpProgram(
        "read_with_retry",
        (
            SetReg("level_used", None),
            SetReg("handle", None),
            Loop(
                "level",
                max_levels,
                (
                    Branch(
                        E("gt", (Reg("level"), 0)),
                        then=(set_level((Reg("level"), 0, 0, 0)),),
                    ),
                    CallOp(
                        "read_page",
                        kwargs=(
                            ("codec", codec),
                            ("address", address),
                            ("dram_address", dram_address),
                        ),
                        dest="rr",
                    ),
                    SetReg("handle", E("item", (Reg("rr"), 1))),
                    BreakIf(
                        E("hook", ("validate", Reg("handle"))),
                        sets=(("level_used", Reg("level")),),
                    ),
                ),
            ),
            # A non-default level was programmed (or the sweep exhausted);
            # restore the factory default so later reads start clean.
            Branch(
                E("ne", (Reg("level_used"), 0)),
                then=(set_level((0, 0, 0, 0)),),
            ),
            Return((Reg("level_used"), Reg("handle"))),
        ),
        doc="Escalating read-voltage sweep with an ECC validate hook;"
            " returns (level, DmaHandle) for the first level whose data"
            " validates, or (None, DmaHandle) if every level failed (the"
            " caller escalates to RAID/rebuild).  The retry register is"
            " restored to the default level before returning.",
    )


# ---------------------------------------------------------------------------
# Features / identification / reset
#
# SET FEATURES is the operation the paper uses to motivate the Timer
# µFSM: the feature data must follow the address phase by tADL, and the
# package is busy for tFEAT afterwards.  Both waits are explicit — tADL
# inside the Data Writer emission (its ``after_address`` contract) and
# tFEAT as a Timer segment, since tFEAT is fixed and short enough that
# polling it would be wasteful.  READ PARAMETER PAGE's fetch time
# (``param_busy_ns``) is a category-3 wait the op owns, on the Timer too.
# ---------------------------------------------------------------------------


@op_program("set_features")
def set_features_program(
    feature_address: int,
    params: tuple[int, int, int, int],
    feat_busy_ns: int = 1_000,
) -> OpProgram:
    return OpProgram(
        "set_features",
        (
            DeclareHandle("p", "inline", data=tuple(params)),
            Txn(
                TxnKind.CONFIG,
                (
                    LatchSeq(
                        (cmd(CMD.SET_FEATURES), addr((int(feature_address),)))
                    ),
                    DataXfer("in", 4, HandleRef("p"), after_address=True),
                    TimerWait(
                        ns=feat_busy_ns + _FEAT_MARGIN_NS,
                        reason="tFEAT busy: fixed and short, polling would waste more",
                    ),
                ),
                label="set-features",
            ),
            Return(True),
        ),
        doc="Write a 4-byte feature record (0xEF); returns True.",
    )


@op_program("get_features")
def get_features_program(
    feature_address: int,
    feat_busy_ns: int = 1_000,
) -> OpProgram:
    return OpProgram(
        "get_features",
        (
            DeclareHandle("f", "capture", nbytes=4),
            Txn(
                TxnKind.CONFIG,
                (
                    LatchSeq(
                        (cmd(CMD.GET_FEATURES), addr((int(feature_address),)))
                    ),
                    TimerWait(
                        ns=feat_busy_ns + _FEAT_MARGIN_NS,
                        reason="tFEAT busy before the record streams out",
                    ),
                    DataXfer("out", 4, HandleRef("f")),
                ),
                label="get-features",
            ),
            Return(E("delivered_tuple", (HandleRef("f"),))),
        ),
        doc="Read a 4-byte feature record (0xEE); returns the 4-tuple.",
    )


@op_program("reset")
def reset_program(synchronous: bool = False) -> OpProgram:
    opcode = CMD.SYNCHRONOUS_RESET if synchronous else CMD.RESET
    return OpProgram(
        "reset",
        (
            Txn(TxnKind.CONFIG, (LatchSeq((cmd(opcode),)),), label="reset"),
            PollStatus(until="ready", dest="status"),
            Return(Reg("status")),
        ),
        doc="RESET (0xFF) or SYNCHRONOUS RESET (0xFC); polls until ready"
            " and returns the status byte.",
    )


@op_program("read_id")
def read_id_program(area: int = 0x00, nbytes: int = 5) -> OpProgram:
    return OpProgram(
        "read_id",
        (
            DeclareHandle("i", "capture", nbytes=nbytes),
            Txn(
                TxnKind.CONFIG,
                (
                    LatchSeq((cmd(CMD.READ_ID), addr((area,)))),
                    TimerWait(param="tWHR"),
                    DataXfer("out", nbytes, HandleRef("i")),
                ),
                label="read-id",
            ),
            Return(E("delivered_tuple", (HandleRef("i"),))),
        ),
        doc="READ ID (0x90); area 0x00 = JEDEC bytes, 0x20 = ONFI"
            " signature; returns the bytes as a tuple.",
    )


@op_program("read_parameter_page")
def read_parameter_page_program(param_busy_ns: int, nbytes: int = 256) -> OpProgram:
    return OpProgram(
        "read_parameter_page",
        (
            DeclareHandle("p", "capture", nbytes=nbytes),
            Txn(
                TxnKind.CONFIG,
                (
                    LatchSeq((cmd(CMD.READ_PARAMETER_PAGE), addr((0x00,)))),
                    TimerWait(
                        ns=param_busy_ns + _PARAM_MARGIN_NS,
                        reason="parameter-page fetch: a category-3 wait the op owns",
                    ),
                    DataXfer("out", nbytes, HandleRef("p")),
                ),
                label="read-parameter-page",
            ),
            Return(E("delivered", (HandleRef("p"),))),
        ),
        doc="READ PARAMETER PAGE (0xEC); returns the raw bytes.",
    )


# ---------------------------------------------------------------------------
# Suspend / resume and the composed preemptive-read erase
#
# The literature optimizations the paper cites ([23], [54]): a long
# erase or program is paused so a latency-critical read can cut in, then
# resumed.  ``erase_with_preemptive_read`` is the composed form — BABOL
# expresses a multi-phase, literature-grade operation as straight-line
# software: a program whose ``CallOp`` nodes invoke suspend, read, and
# resume.
# ---------------------------------------------------------------------------


@op_program("suspend")
def suspend_program() -> OpProgram:
    return OpProgram(
        "suspend",
        (
            Txn(
                TxnKind.CONFIG,
                (LatchSeq((cmd(CMD.VENDOR_SUSPEND),)),),
                label="suspend",
            ),
            Return(True),
        ),
        doc="Suspend the in-flight program/erase on the target LUN;"
            " returns True.",
    )


@op_program("resume")
def resume_program() -> OpProgram:
    return OpProgram(
        "resume",
        (
            Txn(
                TxnKind.CONFIG,
                (LatchSeq((cmd(CMD.VENDOR_RESUME),)),),
                label="resume",
            ),
            Return(True),
        ),
        doc="Resume a previously suspended program/erase; returns True.",
    )


@op_program("erase_with_preemptive_read")
def erase_with_preemptive_read_program(
    codec: AddressCodec,
    erase_block: int,
    read_address: PhysicalAddress,
    dram_address: int,
    suspend_after_ns: int,
) -> OpProgram:
    row = codec.row_address(PhysicalAddress(block=erase_block, page=0))
    return OpProgram(
        "erase_with_preemptive_read",
        (
            Txn(
                TxnKind.CMD_ADDR,
                (
                    LatchSeq(
                        (
                            cmd(CMD.ERASE_1ST),
                            addr(codec.encode_row(row)),
                            cmd(CMD.ERASE_2ND),
                        )
                    ),
                ),
                label="erase-start",
            ),
            # Let the erase make progress, then preempt it.
            SoftSleep(suspend_after_ns),
            CallOp("suspend"),
            CallOp(
                "read_page",
                kwargs=(
                    ("codec", codec),
                    ("address", read_address),
                    ("dram_address", dram_address),
                ),
                dest="r",
            ),
            SetReg("handle", E("item", (Reg("r"), 1))),
            CallOp("resume"),
            PollStatus(until="ready", dest="status"),
            Return((_not_failed(Reg("status")), Reg("handle"))),
        ),
        doc="Erase, suspend for an urgent read, resume, complete; returns"
            " (erase_ok, read DmaHandle).",
    )
