"""Lines-of-code measurement for the Table II comparison.

The paper counts the lines implementing READ, PROGRAM, and ERASE in
each controller.  This module counts the *actual source in this
repository*: the BABOL operations (software over µFSMs) versus the
hardware baselines' per-operation FSM code (the stand-in for Verilog).
Blank lines and comments/docstrings are excluded so the comparison
measures logic, not prose.
"""

from __future__ import annotations

import inspect
import io
import tokenize
from typing import Callable, Iterable


def count_source_lines(obj: Callable | type | Iterable) -> int:
    """Count logical source lines of a function/class (or several).

    Comment and docstring lines are stripped via the tokenizer; a line
    counts if any non-comment, non-string-only token lands on it.
    """
    if isinstance(obj, (list, tuple)):
        return sum(count_source_lines(item) for item in obj)
    source = inspect.getsource(obj)
    return _logical_lines(source)


def _logical_lines(source: str) -> int:
    source = inspect.cleandoc(source) if source.startswith((" ", "\t")) else source
    code_lines: set[int] = set()
    docstring_lines: set[int] = set()
    previous_significant = None
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return len([line for line in source.splitlines() if line.strip()])
    for token in tokens:
        kind = token.type
        if kind in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        if kind == tokenize.STRING and previous_significant in (None, "block-open"):
            # A string statement (docstring): exclude its span.
            for line in range(token.start[0], token.end[0] + 1):
                docstring_lines.add(line)
            previous_significant = "docstring"
            continue
        for line in range(token.start[0], token.end[0] + 1):
            code_lines.add(line)
        if kind == tokenize.OP and token.string == ":":
            previous_significant = "block-open"
        elif kind == tokenize.NAME or kind == tokenize.OP:
            if previous_significant != "block-open" or token.string != ":":
                previous_significant = "code"
        else:
            previous_significant = "code"
    return len(code_lines - docstring_lines)


def operation_loc_table() -> dict[str, dict[str, int]]:
    """The Table II measurement over this repository's artifacts.

    Rows: READ, PROGRAM, ERASE.  Columns: the synchronous HW baseline,
    the asynchronous HW baseline, and BABOL.  HW counts include the
    shared signal-phase helpers each operation FSM depends on (in
    Verilog those are per-module ``always`` blocks); BABOL counts are
    the operation functions alone — the µFSM layer is shared framework,
    which is exactly the paper's point (a).
    """
    from repro.baselines import async_hw, sync_hw
    from repro.core.opir import programs as opir_programs
    from repro.core.ops.base import poll_until_ready

    sync_shared = count_source_lines(
        [sync_hw._LunEngine._latch_segment, sync_hw._LunEngine._transmit,
         sync_hw._LunEngine._poll_status_once]
    )
    async_shared = count_source_lines(
        [async_hw._Sequencer._preamble, async_hw._Sequencer._issue,
         async_hw._Sequencer._poll, async_hw._Sequencer._await_ready,
         async_hw.AsyncHwController._dispatcher]
    )
    # BABOL operations are authored as declarative op programs (each
    # ``X_op`` handle is generated from its program's registered name),
    # so the program builders are what we measure.  READ
    # composes READ STATUS (Algorithm 2 invoking Algorithm 1); count
    # both plus the poll helper, as the paper's 58 lines cover the full
    # listing of Fig. 8.
    babol_read = count_source_lines(
        [opir_programs.read_page_program, opir_programs.read_status_program,
         poll_until_ready]
    )
    babol_poll = count_source_lines(
        [opir_programs.read_status_program, poll_until_ready]
    )

    return {
        "READ": {
            "sync_hw": count_source_lines([sync_hw._ReadState,
                                           sync_hw._LunEngine._read_fsm]) + sync_shared,
            "async_hw": count_source_lines([async_hw._SeqState,
                                            async_hw._Sequencer._read]) + async_shared,
            "babol": babol_read,
        },
        "PROGRAM": {
            "sync_hw": count_source_lines([sync_hw._ProgramState,
                                           sync_hw._LunEngine._program_fsm]) + sync_shared,
            "async_hw": count_source_lines([async_hw._Sequencer._program]) + async_shared,
            "babol": count_source_lines([opir_programs.program_page_program])
                     + babol_poll,
        },
        "ERASE": {
            "sync_hw": count_source_lines([sync_hw._EraseState,
                                           sync_hw._LunEngine._erase_fsm]) + sync_shared,
            "async_hw": count_source_lines([async_hw._Sequencer._erase]) + async_shared,
            "babol": count_source_lines([opir_programs.erase_block_program])
                     + babol_poll,
        },
    }
