"""The declarative op-program IR (lowering + executor + registry).

Flash operations as *values*: an :class:`OpProgram` is a tree of frozen
node dataclasses (:mod:`~repro.core.opir.nodes`), lowered once per
shape to flat steps through the µFSM emitters
(:mod:`~repro.core.opir.compile`), run by the waveform executor
(:mod:`~repro.core.opir.interp`) and folded by the TLM template runner
(:mod:`repro.core.fastops`), looked up — with per-vendor overrides and
the shape memo — through the registry
(:mod:`~repro.core.opir.registry`), and serialized to JSON for replay
and diffing (:mod:`~repro.core.opir.serialize`).  An operation's
handle, ``X_op`` in :mod:`repro.core.ops`, is generated from its
registered name and calls :func:`run_op`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "Branch": "nodes",
    "BreakIf": "nodes",
    "CallOp": "nodes",
    "DataXfer": "nodes",
    "DeclareHandle": "nodes",
    "E": "nodes",
    "HandleRef": "nodes",
    "LatchSeq": "nodes",
    "Loop": "nodes",
    "OpProgram": "nodes",
    "PollStatus": "nodes",
    "Reg": "nodes",
    "Return": "nodes",
    "SEGMENT_NODES": "nodes",
    "STEP_NODES": "nodes",
    "SelectFirstReady": "nodes",
    "SetReg": "nodes",
    "SoftSleep": "nodes",
    "TimerWait": "nodes",
    "Txn": "nodes",
    "kwargs_tuple": "nodes",
    "lower": "compile",
    "resolve_timer_ns": "compile",
    "run_program": "interp",
    "build_program": "registry",
    "list_ops": "registry",
    "op_program": "registry",
    "resolve_builder": "registry",
    "run_op": "registry",
    "decode_value": "serialize",
    "encode_value": "serialize",
    "from_json": "serialize",
    "to_json": "serialize",
})
