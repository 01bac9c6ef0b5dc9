"""Flash address geometry and the ONFI row/column address codec.

ONFI addresses are transmitted as column cycles (byte offset within a
page, LSB first) followed by row cycles (page, block, plane, and LUN
select bits packed into one integer, LSB first).  The codec here is the
single source of truth both for the controller side (building address
latches) and the package side (decoding them), so a round-trip property
test pins the two together.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Geometry:
    """Physical geometry of one LUN.

    Attributes:
        page_size: user-data bytes per page.
        spare_size: out-of-band bytes per page (ECC parity, metadata).
        pages_per_block: pages in one erase block.
        blocks_per_plane: erase blocks per plane.
        planes: planes per LUN (multi-plane ops address these).
        col_cycles / row_cycles: address cycle counts on the wire.
    """

    page_size: int = 16384
    spare_size: int = 2048
    pages_per_block: int = 256
    blocks_per_plane: int = 1024
    planes: int = 2
    col_cycles: int = 2
    row_cycles: int = 3

    @property
    def full_page_size(self) -> int:
        return self.page_size + self.spare_size

    @property
    def blocks_per_lun(self) -> int:
        return self.blocks_per_plane * self.planes

    @property
    def pages_per_lun(self) -> int:
        return self.blocks_per_lun * self.pages_per_block

    @property
    def capacity_bytes(self) -> int:
        return self.pages_per_lun * self.page_size

    def validate(self) -> None:
        if self.page_size <= 0 or self.pages_per_block <= 0:
            raise ValueError("geometry dimensions must be positive")
        if self.full_page_size >= 1 << (8 * self.col_cycles):
            raise ValueError("col_cycles too small for the page size")
        if self.pages_per_lun >= 1 << (8 * self.row_cycles):
            raise ValueError("row_cycles too small for the LUN page count")


@dataclass(frozen=True, order=True)
class PhysicalAddress:
    """A (plane, block, page, column) address within one LUN."""

    block: int
    page: int
    column: int = 0

    def describe(self) -> str:
        return f"blk{self.block}/pg{self.page}+{self.column}"


class AddressCodec:
    """Encode/decode ONFI address cycles for a given geometry."""

    def __init__(self, geometry: Geometry):
        geometry.validate()
        self.geometry = geometry
        # The geometry is frozen, so the limits the range checks and the
        # byte packing need are taken once (each is a property chain).
        self._columns = geometry.full_page_size
        self._blocks = geometry.blocks_per_lun
        self._pages = geometry.pages_per_block
        self._rows = geometry.pages_per_lun
        self._col_cycles = geometry.col_cycles
        self._row_cycles = geometry.row_cycles

    # Value semantics: two codecs over equal geometries encode
    # identically, so they compare (and hash) by geometry.  Serialized
    # op programs rely on this to round-trip to an equal value.
    def __eq__(self, other: object) -> bool:
        return isinstance(other, AddressCodec) and other.geometry == self.geometry

    def __hash__(self) -> int:
        return hash(self.geometry)

    # -- row/column packing --------------------------------------------

    def row_address(self, addr: PhysicalAddress) -> int:
        """Pack block+page into the ONFI row address integer."""
        self._check(addr)
        return addr.block * self._pages + addr.page

    # -- wire encoding ---------------------------------------------------
    #
    # Cycles are little-endian bytes of one integer, so both directions
    # are a single ``int.to_bytes`` / ``int.from_bytes`` — these run per
    # op submission and per die address latch on every tier.

    def encode(self, addr: PhysicalAddress, include_column: bool = True) -> tuple[int, ...]:
        """Full address cycles: column bytes then row bytes, LSB first."""
        if not include_column:
            return tuple(self.row_address(addr).to_bytes(self._row_cycles, "little"))
        column = addr.column
        if not 0 <= column < self._columns:
            raise ValueError(f"column {column} out of range")
        self._check(addr)
        row = addr.block * self._pages + addr.page
        return tuple((column | row << 8 * self._col_cycles).to_bytes(
            self._col_cycles + self._row_cycles, "little"))

    def encode_column(self, column: int) -> tuple[int, ...]:
        if not 0 <= column < self._columns:
            raise ValueError(f"column {column} out of range")
        return tuple(column.to_bytes(self._col_cycles, "little"))

    def encode_row(self, row: int) -> tuple[int, ...]:
        if not 0 <= row < self._rows:
            raise ValueError(f"row {row} out of range")
        return tuple(row.to_bytes(self._row_cycles, "little"))

    # -- wire decoding ---------------------------------------------------

    def decode(self, cycles: tuple[int, ...]) -> PhysicalAddress:
        """Inverse of :meth:`encode` (column + row cycle layout)."""
        split = self._col_cycles
        if len(cycles) != split + self._row_cycles:
            raise ValueError(f"expected {split + self._row_cycles} address "
                             f"cycles, got {len(cycles)}")
        block, page = divmod(int.from_bytes(cycles[split:], "little"),
                             self._pages)
        return PhysicalAddress(block=block, page=page,
                               column=int.from_bytes(cycles[:split], "little"))

    def decode_column(self, cycles: tuple[int, ...]) -> int:
        return int.from_bytes(cycles, "little")

    def decode_row(self, cycles: tuple[int, ...]) -> int:
        return int.from_bytes(cycles, "little")

    def plane_of(self, addr: PhysicalAddress) -> int:
        """Plane index (interleaved block-to-plane mapping, ONFI style)."""
        return addr.block % self.geometry.planes

    def _check(self, addr: PhysicalAddress) -> None:
        if not 0 <= addr.block < self._blocks:
            raise ValueError(f"block {addr.block} out of range")
        if not 0 <= addr.page < self._pages:
            raise ValueError(f"page {addr.page} out of range")
        if not 0 <= addr.column < self._columns:
            raise ValueError(f"column {addr.column} out of range")
