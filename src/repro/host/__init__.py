"""Host-side substrate: command queue, workload generators, fio-like driver,
and the queue-depth scale-out engine."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "ChannelQueuePair": "engine",
    "QueueSaturatedError": "engine",
    "ScaleCommand": "engine",
    "ScaleEngine": "engine",
    "ScaleJob": "engine",
    "ScaleRunResult": "engine",
    "run_scale_workload": "engine",
    "HostInterface": "hic",
    "ReadWorkloadResult": "workload",
    "measure_read_throughput": "workload",
    "submit_mixed_ops": "workload",
    "FioJob": "fio",
    "FioResult": "fio",
    "run_fio": "fio",
    "ReplayResult": "trace",
    "Trace": "trace",
    "TraceRecord": "trace",
    "replay_trace": "trace",
    "synthesize_trace": "trace",
})
