"""Hardware baseline controllers.

Two non-programmable controllers the paper compares BABOL against:

* :class:`SyncHwController` — a synchronous, per-LUN-operation-FSM
  design in the style of Qiu et al. [50] (the Fig. 4 architecture);
* :class:`AsyncHwController` — the asynchronous but hard-coded design
  of the Cosmos+ OpenSSD [25].

Both are written at hardware-register granularity (explicit state
enums, one state per signal phase) because they stand in for Verilog:
their verbosity relative to the BABOL operation library is exactly what
Table II measures.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "HwRequest": "fsm",
    "HwRequestKind": "fsm",
    "SyncHwController": "sync_hw",
    "AsyncHwController": "async_hw",
})
