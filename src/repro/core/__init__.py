"""BABOL: the paper's contribution.

The core package implements the software-defined controller of Fig. 5:

* :mod:`repro.core.ufsm` — the five parameterized waveform-segment
  emitters (C/A Writer, Data Writer, Data Reader, Chip Control, Timer);
* :mod:`repro.core.packetizer` — the DMA companion of the data µFSMs;
* :mod:`repro.core.transaction` — the queueable "waveform instruction"
  unit that decouples scheduling from execution;
* :mod:`repro.core.executor` — the hardware execution half draining the
  transaction queue onto the channel;
* :mod:`repro.core.softenv` — the software half: modeled CPU, task and
  transaction schedulers, and the Coroutine/RTOS runtimes;
* :mod:`repro.core.ops` — the operation library written against the
  µFSM instruction set (Algorithms 1–3 and friends);
* :mod:`repro.core.controller` — the FTL-facing facade.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "BabolController": "controller",
    "ControllerConfig": "controller",
    "DieDegraded": "recovery",
    "OpFailed": "recovery",
    "OpTimeout": "recovery",
    "RecoverableOpError": "recovery",
    "RecoveryManager": "recovery",
    "RecoveryPolicy": "recovery",
    "RecoveryStats": "recovery",
    "Watchdog": "recovery",
    "StorageConfig": "storage",
    "StorageController": "storage",
    "build_storage": "storage",
    "Transaction": "transaction",
    "TxnKind": "transaction",
})
