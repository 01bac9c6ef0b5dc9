"""The op handles: one generated ``X_op`` per registered op program.

An operation *is* its ``@op_program`` builder in
:mod:`repro.core.opir.programs` — the listing, its defaults and its
``doc=`` (what it returns).  The handle below is how a caller names it:
``read_page_op(ctx, codec=..., address=..., dram_address=...)`` or
``controller.submit(read_page_op, lun, codec=..., ...)``.  Arguments are
the builder's, by keyword; callables among them become the program's
hooks (:func:`~repro.core.opir.registry.run_op`).

This module must not import the programs: they load with the first op
a run submits.
"""

from __future__ import annotations

from typing import Callable

from repro.core.opir.registry import run_op
from repro.obs.instrument import traced_op


def library_op(name: str) -> Callable:
    """The handle of the op program registered as ``name``: a generator
    function ``{name}_op(ctx, **kwargs)`` that runs the program (the
    target vendor's override, if it has one) and returns its result,
    under an ``op`` span named ``{name}_op``."""

    def op(ctx, **kwargs):
        return (yield from run_op(ctx, name, **kwargs))

    op.__name__ = op.__qualname__ = f"{name}_op"
    op.__doc__ = f"Run the ``{name}`` op program; see its ``doc=``."
    op.program_name = name
    return traced_op(op)


read_status_op = library_op("read_status")
read_status_enhanced_op = library_op("read_status_enhanced")
read_page_op = library_op("read_page")
full_page_read_op = library_op("full_page_read")
partial_read_op = library_op("partial_read")
read_page_timed_wait_op = library_op("read_page_timed_wait")
program_page_op = library_op("program_page")
partial_program_op = library_op("partial_program")
erase_block_op = library_op("erase_block")
cache_read_sequential_op = library_op("cache_read_sequential")
cache_program_op = library_op("cache_program")
multiplane_read_op = library_op("multiplane_read")
multiplane_program_op = library_op("multiplane_program")
paired_program_op = library_op("paired_program")
program_chain_step_op = library_op("program_chain_step")
program_chain_end_op = library_op("program_chain_end")
multiplane_erase_op = library_op("multiplane_erase")
paired_erase_op = library_op("paired_erase")
gang_read_op = library_op("gang_read")
pslc_read_op = library_op("pslc_read")
pslc_program_op = library_op("pslc_program")
pslc_erase_op = library_op("pslc_erase")
read_with_retry_op = library_op("read_with_retry")
set_features_op = library_op("set_features")
get_features_op = library_op("get_features")
reset_op = library_op("reset")
read_id_op = library_op("read_id")
read_parameter_page_op = library_op("read_parameter_page")
suspend_op = library_op("suspend")
resume_op = library_op("resume")
erase_with_preemptive_read_op = library_op("erase_with_preemptive_read")
