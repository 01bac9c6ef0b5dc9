"""The operation library: ONFI operations written in software.

Every operation is now an *op program* — a declarative IR value in
:mod:`repro.core.opir.programs` mirroring the paper's Fig. 8
algorithms — and the ``*_op`` generators here are thin wrappers that
resolve the program (honouring per-vendor overrides), run its lowered
shape against the operation's context, and keep the original call signatures.
Operations still compose (READ invokes READ STATUS the way Algorithm 2
invokes Algorithm 1 — via ``CallOp`` nodes) and variations are still
small diffs (pSLC READ differs from READ by exactly the latch nodes
Fig. 8 highlights in gray), but the structure is now data: lintable,
serializable, and overridable without editing this package.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "poll_until_array_ready": "base",
    "poll_until_ready": "base",
    "single_latch_txn": "base",
    "read_status_op": "status",
    "read_status_enhanced_op": "status",
    "full_page_read_op": "read",
    "partial_read_op": "read",
    "read_page_op": "read",
    "read_page_timed_wait_op": "read",
    "program_page_op": "program",
    "partial_program_op": "program",
    "erase_block_op": "erase",
    "get_features_op": "features",
    "set_features_op": "features",
    "reset_op": "reset",
    "read_id_op": "readid",
    "read_parameter_page_op": "readid",
    "pslc_read_op": "pslc",
    "pslc_program_op": "pslc",
    "pslc_erase_op": "pslc",
    "read_with_retry_op": "read_retry",
    "cache_read_sequential_op": "cache",
    "cache_program_op": "cache",
    "multiplane_erase_op": "multiplane",
    "multiplane_read_op": "multiplane",
    "multiplane_program_op": "multiplane",
    "paired_program_op": "multiplane",
    "erase_with_preemptive_read_op": "suspend",
    "resume_op": "suspend",
    "suspend_op": "suspend",
    "gang_read_op": "gang",
})
