"""Plannability: which op-IR programs the TLM tier can run as templates.

The template runner in :mod:`repro.core.fastops` executes straight-line
programs only — transactions, handle declarations, single-die polls,
fixed sleeps, a return — against the op's one target die.
:func:`plan_fingerprint` is the one walk that decides it: it returns
the structural fingerprint of a program, or the reasons the program has
none.  The runner walks once per *shape*, on the instance the shape was
lowered from (:func:`repro.core.opir.registry.declared_shape`), and
reads the first for dispatch; the static verifier
(:mod:`repro.analysis.opver`) reports the second as OPV501, so it
explains the dispatch the runner really makes.  :func:`program_operands`
reads the per-call leaves the fingerprint leaves out off a built program.
"""

from __future__ import annotations

from typing import Optional

from repro.core.opir.nodes import (
    DataXfer,
    DeclareHandle,
    LatchSeq,
    OpProgram,
    PollStatus,
    Return,
    SoftSleep,
    Txn,
    wrapper_callee,
)
from repro.core.opir.registry import _cached_program, _resolved_builder


def program_operands(program: OpProgram) -> tuple:
    """The per-call leaves of a straight-line program, in program order:
    each address latch's byte tuple, and each declared handle's DRAM
    address (its payload when inline, None for a capture) — what a
    builder's declared ``plan`` must return as operands, and what the
    reference plan of a builder that declares none reads off."""
    leaves = []
    for node in program.nodes:
        if isinstance(node, Txn):
            for seg in node.segments:
                if isinstance(seg, LatchSeq):
                    leaves.extend(latch.value for latch in seg.latches
                                  if latch.kind != "cmd")
        elif isinstance(node, DeclareHandle):
            leaves.append(node.data if node.source == "inline"
                          else node.dram_address)
        elif isinstance(node, Return):
            break
    return tuple(leaves)


def plan_fingerprint(
    program: OpProgram, vendor=None,
) -> tuple[Optional[tuple], list[tuple[str, str]]]:
    """``(fingerprint, blockers)`` for one program.

    The fingerprint is the structural identity a template depends on:
    everything that determines segment durations, action offsets, and
    stats — latch counts and command opcodes, address byte counts,
    burst sizes, timer parameters, poll and return shapes.  Instance
    values (address bytes, DRAM targets, inline payloads) are
    deliberately excluded; they are the :func:`program_operands`.

    It is ``None`` exactly when ``blockers`` — ``(node path, reason)``
    pairs — is non-empty.  A pure wrapper is judged by its callee,
    which is the program the runner builds for it.
    """
    prefix = "nodes"
    callee = wrapper_callee(program)
    if callee is not None:
        try:
            program = _cached_program(
                _resolved_builder(callee[0], vendor), callee[1])
        except Exception as exc:
            return None, [("nodes[0]",
                           f"callee {callee[0]!r} failed to build: {exc}")]
        prefix = f"nodes[0].{callee[0]}"

    parts = []
    blockers: list[tuple[str, str]] = []
    for index, node in enumerate(program.nodes):
        if isinstance(node, Txn):
            seg_parts = []
            for seg in node.segments:
                gang = seg.chip_mask is not None
                if isinstance(seg, LatchSeq):
                    gang = gang or seg.via_chip_control
                    seg_parts.append(("L",) + tuple(
                        (latch.kind, latch.value) if latch.kind == "cmd"
                        else ("A", len(latch.value))
                        for latch in seg.latches))
                elif isinstance(seg, DataXfer):
                    seg_parts.append((
                        "D", seg.direction, seg.nbytes, seg.column,
                        seg.after_address, seg.handle.name))
                else:  # TimerWait
                    seg_parts.append(("W", seg.ns, seg.param))
                if gang:
                    blockers.append((
                        f"{prefix}[{index}].segments[{len(seg_parts) - 1}]",
                        "segment re-targets dies (chip_mask / Chip "
                        "Control); a template drives the op's one die"))
            parts.append(("T",) + tuple(seg_parts))
        elif isinstance(node, DeclareHandle):
            parts.append(("H", node.name, node.source, node.nbytes))
        elif isinstance(node, PollStatus):
            if node.chip_mask is not None:
                blockers.append((f"{prefix}[{index}]",
                                 "gang-masked poll needs the generic "
                                 "runtime"))
            parts.append(("P", node.until, node.dest, node.max_polls))
        elif isinstance(node, SoftSleep):
            if not isinstance(node.ns, int):
                blockers.append((f"{prefix}[{index}]",
                                 "sleep length is computed at run time"))
            parts.append(("S", node.ns))
        elif isinstance(node, Return):
            parts.append(("R", node.expr))
            break
        else:  # Branch / Loop / CallOp / SetReg / BreakIf / SelectFirstReady
            blockers.append((f"{prefix}[{index}]",
                             f"{type(node).__name__} has no template "
                             f"lowering (templates are straight-line)"))
    if blockers:
        return None, blockers
    fingerprint = tuple(parts)
    try:
        hash(fingerprint)  # it keys the template cache
    except TypeError:
        return None, [(prefix, "a node carries an unhashable value (a "
                               "list-valued Return); templates are "
                               "shared by fingerprint")]
    return fingerprint, blockers
