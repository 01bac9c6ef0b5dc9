"""Error-correction coding for the flash read/write path.

Two engines:

* :class:`HammingCodec` — a *real* SEC-DED Hamming(72,64) implementation
  (vectorized bit math), used for metadata and as the fully-honest codec
  in tests and examples.
* :class:`BchEngine` — a behavioural t-per-codeword BCH model for the
  16 KiB page path.  Real BCH decoding is out of scope (and out of CPU
  budget) for a timing-focused reproduction, so the engine counts true
  bit errors against the pristine page (a simulation oracle, the same
  device used by MQSim/FEMU-class simulators) and corrects when the
  count is within the configured capability.  DESIGN.md documents the
  substitution.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "HammingCodec": "hamming",
    "SectorCodec": "hamming",
    "BchConfig": "bch",
    "BchEngine": "bch",
    "EccResult": "bch",
    "count_bit_errors": "bch",
})
