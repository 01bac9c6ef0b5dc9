"""IR serialization: op programs to/from JSON.

A serialized program is the replay/diff artifact the IR makes possible
(cf. Copycat-style record-and-replay): dump what a controller *would*
send, diff it across runs or vendor profiles, or rebuild and execute
the program in another process.  Round-tripping is exact —
``from_json(to_json(p)) == p`` — which the serialization tests pin.

The format is ``$type``-tagged JSON objects.  Node dataclasses map to
``{"$type": "node:LatchSeq", ...fields}``; the handful of non-JSON
value types (latches, tuples, enums, addresses, codecs, expression
atoms) each get their own tag.  Hooks (callables) never appear inside
programs — they live at the interpreter boundary — so every program is
serializable by construction.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from repro.core.opir import nodes as _nodes
from repro.core.opir.nodes import E, HandleRef, OpProgram, Reg
from repro.core.transaction import TxnKind
from repro.core.ufsm.ca_writer import Latch
from repro.onfi.geometry import AddressCodec, Geometry, PhysicalAddress

_NODE_TYPES = {
    cls.__name__: cls
    for cls in _nodes.STEP_NODES + _nodes.SEGMENT_NODES
}


def encode_value(value: Any) -> Any:
    """Lower one IR value to JSON-compatible data."""
    if isinstance(value, OpProgram):
        out = {
            "$type": "program",
            "name": value.name,
            "doc": value.doc,
            "nodes": [encode_value(n) for n in value.nodes],
        }
        if value.continues:
            out["continues"] = True
        return out
    if isinstance(value, _nodes.STEP_NODES + _nodes.SEGMENT_NODES):
        out: dict = {"$type": f"node:{type(value).__name__}"}
        for field in dataclasses.fields(value):
            out[field.name] = encode_value(getattr(value, field.name))
        return out
    if isinstance(value, Reg):
        return {"$type": "reg", "name": value.name}
    if isinstance(value, HandleRef):
        return {"$type": "handle", "name": value.name}
    if isinstance(value, E):
        return {"$type": "expr", "op": value.op,
                "args": [encode_value(a) for a in value.args]}
    if isinstance(value, Latch):
        return {"$type": "latch", "kind": value.kind,
                "value": encode_value(value.value)}
    if isinstance(value, TxnKind):
        return {"$type": "txnkind", "value": value.value}
    if isinstance(value, PhysicalAddress):
        return {"$type": "address", "block": value.block,
                "page": value.page, "column": value.column}
    if isinstance(value, AddressCodec):
        return {"$type": "codec",
                "geometry": dataclasses.asdict(value.geometry)}
    if isinstance(value, (bytes, bytearray)):
        # DeclareHandle.data (inline payloads) is in the Value union as
        # bytes; hex keeps the JSON readable and the round trip exact.
        return {"$type": "bytes", "hex": bytes(value).hex()}
    if isinstance(value, tuple):
        return {"$type": "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {"$type": "dict",
                "items": {k: encode_value(v) for k, v in value.items()}}
    if isinstance(value, bool) or value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):  # includes IntEnums (CMD, FeatureAddress)
        return int(value)
    raise TypeError(f"cannot serialize {type(value).__name__}: {value!r}")


def decode_value(data: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(data, list):
        return [decode_value(v) for v in data]
    if not isinstance(data, dict):
        return data
    tag = data.get("$type")
    if tag == "program":
        return OpProgram(
            name=data["name"],
            nodes=tuple(decode_value(n) for n in data["nodes"]),
            doc=data.get("doc", ""),
            continues=data.get("continues", False),
        )
    if tag is not None and tag.startswith("node:"):
        cls = _NODE_TYPES.get(tag[len("node:"):])
        if cls is None:
            raise ValueError(f"unknown IR node type {tag!r}")
        kwargs = {
            key: decode_value(value)
            for key, value in data.items()
            if key != "$type"
        }
        return cls(**kwargs)
    if tag == "reg":
        return Reg(data["name"])
    if tag == "handle":
        return HandleRef(data["name"])
    if tag == "expr":
        return E(data["op"], tuple(decode_value(a) for a in data["args"]))
    if tag == "latch":
        return Latch(data["kind"], decode_value(data["value"]))
    if tag == "txnkind":
        return TxnKind(data["value"])
    if tag == "address":
        return PhysicalAddress(block=data["block"], page=data["page"],
                               column=data["column"])
    if tag == "codec":
        return AddressCodec(Geometry(**data["geometry"]))
    if tag == "bytes":
        return bytes.fromhex(data["hex"])
    if tag == "tuple":
        return tuple(decode_value(v) for v in data["items"])
    if tag == "dict":
        return {k: decode_value(v) for k, v in data["items"].items()}
    raise ValueError(f"unknown $type tag {tag!r}")


def to_json(program: OpProgram, indent: int = 2) -> str:
    """Serialize a program to a deterministic JSON string."""
    return json.dumps(encode_value(program), indent=indent, sort_keys=True)


def from_json(text: str) -> OpProgram:
    """Rebuild a program from :func:`to_json` output."""
    program = decode_value(json.loads(text))
    if not isinstance(program, OpProgram):
        raise ValueError("JSON document is not a serialized OpProgram")
    return program
