"""Working-with-a-new-package tools (Section IV-C).

BABOL ships a calibration tool that detects per-package phase skew and
suggests trims, and uses its software operation environment to express
package boot/initialization sequences.  Both are implemented here
against the simulated PHY and package models.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "PhaseCalibrationResult": "phase",
    "calibrate_phase": "phase",
    "BootReport": "boot",
    "boot_channel": "boot",
})
