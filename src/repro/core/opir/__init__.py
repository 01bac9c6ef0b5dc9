"""The declarative op-program IR (lowering + executor + registry).

Flash operations as *values*: an :class:`OpProgram` is a tree of frozen
node dataclasses (:mod:`~repro.core.opir.nodes`), lowered once per
shape to flat steps through the µFSM emitters
(:mod:`~repro.core.opir.compile`), run by the waveform executor
(:mod:`~repro.core.opir.interp`) and folded by the TLM template runner
(:mod:`repro.core.fastops`), looked up — with per-vendor overrides and
the shape memo — through the registry
(:mod:`~repro.core.opir.registry`), and serialized to JSON for replay
and diffing (:mod:`~repro.core.opir.serialize`).  The public ``*_op``
wrappers in :mod:`repro.core.ops` are one-line shims over
:func:`run_op`.
"""

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
    SEGMENT_NODES,
    STEP_NODES,
    SelectFirstReady,
    SetReg,
    SoftSleep,
    TimerWait,
    Txn,
    kwargs_tuple,
)
from repro.core.opir.compile import lower, resolve_timer_ns
from repro.core.opir.interp import run_program
from repro.core.opir.registry import (
    build_program,
    list_ops,
    op_program,
    resolve_builder,
    run_op,
)
from repro.core.opir.serialize import decode_value, encode_value, from_json, to_json

__all__ = [
    "Branch",
    "BreakIf",
    "CallOp",
    "DataXfer",
    "DeclareHandle",
    "E",
    "HandleRef",
    "LatchSeq",
    "Loop",
    "OpProgram",
    "PollStatus",
    "Reg",
    "Return",
    "SEGMENT_NODES",
    "STEP_NODES",
    "SelectFirstReady",
    "SetReg",
    "SoftSleep",
    "TimerWait",
    "Txn",
    "kwargs_tuple",
    "lower",
    "resolve_timer_ns",
    "run_program",
    "build_program",
    "list_ops",
    "op_program",
    "resolve_builder",
    "run_op",
    "decode_value",
    "encode_value",
    "from_json",
    "to_json",
]
