"""Spare-area (OOB) metadata records for power-loss protection.

Every page the FTL programs carries a small out-of-band record in the
block's spare area: the logical page it holds, a monotonically
increasing write sequence number, and a commit marker byte that is the
*last* thing the die latches.  A page torn by a power cut mid-tPROG
never presents a valid record — the commit marker, the magic, or the
checksum fails — which is exactly how the SPOR mount path tells a
committed page from a torn one without any out-of-band oracle.

Record kinds:

=========   ==========================================================
``host``    a host data page; ``lpn``/``seq`` identify the version
``gc``      a GC relocation; carries the *original* write ``seq`` (the
            copy is the same logical version, so replay by highest seq
            can never prefer a stale relocation over a newer write)
``ckpt``    one chunk of an FTL checkpoint (``chunk``/``chunks``)
``journal`` one incremental-journal page
=========   ==========================================================

The wire format is 24 bytes (fits any spare area the vendors model):

    [0]      magic (0xB5)
    [1]      kind
    [2:6]    lpn            (LE u32; 0xFFFFFFFF when not applicable)
    [6:14]   seq            (LE u64)
    [14:18]  payload_len    (LE u32; meta pages: valid bytes in page)
    [18:20]  chunk          (LE u16; checkpoint chunk index)
    [20:22]  chunks         (LE u16; checkpoint chunk count)
    [22]     commit marker  (0xC3)
    [23]     checksum       (sum of bytes [0:23] mod 256)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OOB_MAGIC = 0xB5
OOB_COMMIT = 0xC3
OOB_RECORD_BYTES = 24
_NO_LPN = 0xFFFFFFFF

KIND_HOST = 1
KIND_GC = 2
KIND_CKPT = 3
KIND_JOURNAL = 4

_KIND_NAMES = {
    KIND_HOST: "host",
    KIND_GC: "gc",
    KIND_CKPT: "ckpt",
    KIND_JOURNAL: "journal",
}


@dataclass(frozen=True)
class OobRecord:
    """One decoded spare-area record."""

    kind: int
    lpn: int = _NO_LPN
    seq: int = 0
    payload_len: int = 0
    chunk: int = 0
    chunks: int = 0

    @property
    def is_data(self) -> bool:
        return self.kind in (KIND_HOST, KIND_GC)


def encode_oob(record: OobRecord, spare_size: int) -> np.ndarray:
    """Serialize a record into ``spare_size`` bytes (0xFF padded)."""
    if spare_size < OOB_RECORD_BYTES:
        raise ValueError(
            f"spare area of {spare_size}B cannot hold a {OOB_RECORD_BYTES}B "
            "OOB record"
        )
    if record.kind not in _KIND_NAMES:
        raise ValueError(f"unknown OOB kind {record.kind}")
    raw = bytearray(OOB_RECORD_BYTES)
    raw[0] = OOB_MAGIC
    raw[1] = record.kind
    raw[2:6] = int(record.lpn).to_bytes(4, "little")
    raw[6:14] = int(record.seq).to_bytes(8, "little")
    raw[14:18] = int(record.payload_len).to_bytes(4, "little")
    raw[18:20] = int(record.chunk).to_bytes(2, "little")
    raw[20:22] = int(record.chunks).to_bytes(2, "little")
    raw[22] = OOB_COMMIT
    raw[23] = sum(raw[:23]) % 256
    out = np.full(spare_size, 0xFF, dtype=np.uint8)
    out[:OOB_RECORD_BYTES] = np.frombuffer(bytes(raw), dtype=np.uint8)
    return out


def decode_oob(data) -> "OobRecord | None":
    """Decode a spare-area buffer; ``None`` when invalid or torn.

    A page interrupted mid-program never carries the commit marker and
    checksum consistently, so decode failure *is* the torn-page signal.
    """
    if data is None:
        return None
    raw = bytes(np.asarray(data, dtype=np.uint8)[:OOB_RECORD_BYTES].tobytes())
    if len(raw) < OOB_RECORD_BYTES:
        return None
    if raw[0] != OOB_MAGIC or raw[22] != OOB_COMMIT:
        return None
    if raw[23] != sum(raw[:23]) % 256:
        return None
    kind = raw[1]
    if kind not in _KIND_NAMES:
        return None
    return OobRecord(
        kind=kind,
        lpn=int.from_bytes(raw[2:6], "little"),
        seq=int.from_bytes(raw[6:14], "little"),
        payload_len=int.from_bytes(raw[14:18], "little"),
        chunk=int.from_bytes(raw[18:20], "little"),
        chunks=int.from_bytes(raw[20:22], "little"),
    )
