"""The operation library: ONFI operations written in software.

Every operation is an op program — a declarative IR value in
:mod:`repro.core.opir.programs` mirroring the paper's Fig. 8
algorithms — and ``X_op`` is its handle, generated from the program's
name (:mod:`repro.core.ops.library`): it resolves the program (honouring
per-vendor overrides) and runs its lowered shape against the
operation's context.  Operations still compose (READ invokes READ
STATUS the way Algorithm 2 invokes Algorithm 1 — via ``CallOp`` nodes)
and variations are still small diffs (pSLC READ differs from READ by
exactly the latch nodes Fig. 8 highlights in gray), but the structure
is data: lintable, serializable, and overridable without editing this
package.  :mod:`repro.core.ops.base` holds the status poll loop every
program's ``PollStatus`` runs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "poll_until_array_ready": "base",
    "poll_until_ready": "base",
    "single_latch_txn": "base",
    "read_status_op": "library",
    "read_status_enhanced_op": "library",
    "full_page_read_op": "library",
    "partial_read_op": "library",
    "read_page_op": "library",
    "read_page_timed_wait_op": "library",
    "program_page_op": "library",
    "partial_program_op": "library",
    "erase_block_op": "library",
    "get_features_op": "library",
    "set_features_op": "library",
    "reset_op": "library",
    "read_id_op": "library",
    "read_parameter_page_op": "library",
    "pslc_read_op": "library",
    "pslc_program_op": "library",
    "pslc_erase_op": "library",
    "read_with_retry_op": "library",
    "cache_read_sequential_op": "library",
    "cache_program_op": "library",
    "multiplane_erase_op": "library",
    "multiplane_read_op": "library",
    "multiplane_program_op": "library",
    "paired_program_op": "library",
    "program_chain_step_op": "library",
    "program_chain_end_op": "library",
    "paired_erase_op": "library",
    "erase_with_preemptive_read_op": "library",
    "resume_op": "library",
    "suspend_op": "library",
    "gang_read_op": "library",
})
