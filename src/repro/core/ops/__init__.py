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

from repro.core.ops.base import (
    poll_until_array_ready,
    poll_until_ready,
    single_latch_txn,
)
from repro.core.ops.status import read_status_op, read_status_enhanced_op
from repro.core.ops.read import (
    full_page_read_op,
    partial_read_op,
    read_page_op,
    read_page_timed_wait_op,
)
from repro.core.ops.program import program_page_op, partial_program_op
from repro.core.ops.erase import erase_block_op
from repro.core.ops.features import get_features_op, set_features_op
from repro.core.ops.reset import reset_op
from repro.core.ops.readid import read_id_op, read_parameter_page_op
from repro.core.ops.pslc import pslc_read_op, pslc_program_op, pslc_erase_op
from repro.core.ops.read_retry import read_with_retry_op
from repro.core.ops.cache import cache_read_sequential_op, cache_program_op
from repro.core.ops.multiplane import (
    multiplane_erase_op,
    multiplane_read_op,
    multiplane_program_op,
)
from repro.core.ops.suspend import (
    erase_with_preemptive_read_op,
    resume_op,
    suspend_op,
)
from repro.core.ops.gang import gang_read_op

__all__ = [
    "poll_until_array_ready",
    "poll_until_ready",
    "single_latch_txn",
    "read_status_op",
    "read_status_enhanced_op",
    "full_page_read_op",
    "partial_read_op",
    "read_page_op",
    "read_page_timed_wait_op",
    "program_page_op",
    "partial_program_op",
    "erase_block_op",
    "get_features_op",
    "set_features_op",
    "reset_op",
    "read_id_op",
    "read_parameter_page_op",
    "pslc_read_op",
    "pslc_program_op",
    "pslc_erase_op",
    "read_with_retry_op",
    "cache_read_sequential_op",
    "cache_program_op",
    "multiplane_erase_op",
    "multiplane_read_op",
    "multiplane_program_op",
    "erase_with_preemptive_read_op",
    "resume_op",
    "suspend_op",
    "gang_read_op",
]
