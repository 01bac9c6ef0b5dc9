"""Behavioural NAND flash device models.

This subpackage replaces the commercial Flash packages of the paper's
testbed: LUN state machines that decode the waveform segments emitted by
a controller, move data between arrays and page registers on Table I
timings, expose ONFI status/features, and inject bit errors according
to a wear/retention/read-offset model.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "CellMode": "cell",
    "CELL_MODE_PROFILES": "cell",
    "ErrorModel": "errors",
    "ErrorModelConfig": "errors",
    "Block": "array",
    "FlashArray": "array",
    "Lun": "lun",
    "LunProtocolError": "lun",
    "LunState": "lun",
    "Package": "package",
    "build_parameter_page": "param_page",
    "parse_parameter_page": "param_page",
    "HYNIX_V7": "vendors",
    "MICRON_B47R": "vendors",
    "TOSHIBA_BICS5": "vendors",
    "VENDOR_PROFILES": "vendors",
    "VendorProfile": "vendors",
    "profile_by_name": "vendors",
})
