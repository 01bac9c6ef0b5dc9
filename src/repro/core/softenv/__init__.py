"""BABOL's software half: CPU model, schedulers, and runtimes.

Operations are Python generators (standing in for the paper's C++20
coroutines / FreeRTOS tasks).  The :class:`SoftwareEnvironment` resumes
them on a modeled CPU, charging runtime-specific cycle costs for context
switches, transaction enqueues, scheduler iterations, and dispatches —
the costs whose frequency-scaling Fig. 10 and Fig. 11 measure.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "Cpu": "cpu",
    "MHZ": "cpu",
    "GHZ": "cpu",
    "EnvAwait": "base",
    "EnvPost": "base",
    "EnvSleep": "base",
    "EnvWaitTxn": "base",
    "EnvYield": "base",
    "OperationContext": "base",
    "RuntimeCosts": "base",
    "SoftwareEnvironment": "base",
    "Task": "base",
    "TaskState": "base",
    "TaskScheduler": "task_scheduler",
    "FifoTaskScheduler": "task_scheduler",
    "PriorityTaskScheduler": "task_scheduler",
    "RoundRobinTaskScheduler": "task_scheduler",
    "TxnScheduler": "txn_scheduler",
    "FifoTxnScheduler": "txn_scheduler",
    "PriorityTxnScheduler": "txn_scheduler",
    "RoundRobinTxnScheduler": "txn_scheduler",
    "CORO_COSTS": "coroutine_env",
    "CoroutineEnvironment": "coroutine_env",
    "RTOS_COSTS": "rtos_env",
    "RtosEnvironment": "rtos_env",
})
