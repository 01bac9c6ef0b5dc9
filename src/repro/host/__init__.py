"""Host-side substrate: command queue, workload generators, fio-like driver,
and the queue-depth scale-out engine."""

from repro.host.engine import (
    ChannelQueuePair,
    QueueSaturatedError,
    ScaleCommand,
    ScaleEngine,
    ScaleJob,
    ScaleRunResult,
    run_scale_workload,
)
from repro.host.hic import HostCommand, HostInterface
from repro.host.workload import (
    ReadWorkloadResult,
    measure_read_throughput,
    submit_mixed_ops,
)
from repro.host.fio import FioJob, FioResult, run_fio
from repro.host.trace import (
    ReplayResult,
    Trace,
    TraceRecord,
    replay_trace,
    synthesize_trace,
)

__all__ = [
    "ChannelQueuePair",
    "QueueSaturatedError",
    "ScaleCommand",
    "ScaleEngine",
    "ScaleJob",
    "ScaleRunResult",
    "run_scale_workload",
    "HostCommand",
    "HostInterface",
    "ReadWorkloadResult",
    "measure_read_throughput",
    "submit_mixed_ops",
    "FioJob",
    "FioResult",
    "run_fio",
    "ReplayResult",
    "Trace",
    "TraceRecord",
    "replay_trace",
    "synthesize_trace",
]
