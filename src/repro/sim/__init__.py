"""Deterministic discrete-event simulation kernel.

Every hardware element in this reproduction (flash LUNs, the channel bus,
DMA engines, the modeled controller CPUs) is a process running on this
kernel.  Time is an integer number of nanoseconds, which keeps event
ordering exact and reproducible.

The kernel is intentionally small: a heap of plain tuples for timed
entries and a FIFO for zero-delay ones (together one ``(time, seq)``
total order), processes expressed as Python generators, and a handful of
synchronization primitives (:class:`Trigger`, :class:`Mutex`,
:class:`Queue`, :class:`Condition`).  :class:`Event` is the cancellable
handle ``Simulator.schedule`` returns; process wakeups have none.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "NS_PER_US": "kernel",
    "NS_PER_MS": "kernel",
    "NS_PER_S": "kernel",
    "Event": "kernel",
    "Process": "kernel",
    "SimError": "kernel",
    "Simulator": "kernel",
    "Timeout": "kernel",
    "WaitProcess": "kernel",
    "WaitTrigger": "kernel",
    "Condition": "sync",
    "Mutex": "sync",
    "Queue": "sync",
    "Trigger": "sync",
})
