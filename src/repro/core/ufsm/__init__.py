"""The µFSM instruction set (Fig. 6).

Each µFSM is a parameterized waveform-segment emitter.  Re-targeting a
µFSM to a different data-interface mode re-binds its timing set, but its
*interface* (the parameters it takes) is identical across modes — which
is the property that makes operations written against µFSMs portable
across packages and speeds.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "MicroFsm": "base",
    "UfsmBank": "base",
    "CAWriter": "ca_writer",
    "Latch": "ca_writer",
    "DataReader": "data_reader",
    "DataWriter": "data_writer",
    "ChipControl": "chip_control",
    "TimerFsm": "timer",
})
