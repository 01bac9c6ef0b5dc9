"""ONFI 5.x substrate: the vocabulary shared by controllers and packages.

This subpackage encodes the subset of the Open NAND Flash Interface
specification that the paper's controllers exercise: command opcodes,
timing-parameter sets per data-interface mode, the pin/signal and
waveform-segment model, address geometry codecs, the status register,
and the SET/GET FEATURES address map.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "CMD": "commands",
    "CommandClass": "commands",
    "classify_opcode": "commands",
    "is_vendor_opcode": "commands",
    "opcode_name": "commands",
    "DataInterface": "datamodes",
    "NVDDR2_100": "datamodes",
    "NVDDR2_200": "datamodes",
    "SDR_MODE0": "datamodes",
    "interface_by_name": "datamodes",
    "AddressCodec": "geometry",
    "Geometry": "geometry",
    "PhysicalAddress": "geometry",
    "CommandLatch": "signals",
    "AddressLatch": "signals",
    "DataInAction": "signals",
    "DataOutAction": "signals",
    "Edge": "signals",
    "IdleWait": "signals",
    "Pin": "signals",
    "SegmentKind": "signals",
    "WaveformSegment": "signals",
    "StatusBits": "status",
    "StatusRegister": "status",
    "TimingSet": "timing",
    "timing_for_mode": "timing",
    "FeatureAddress": "features",
    "FeatureStore": "features",
})
