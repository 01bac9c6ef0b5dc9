"""Raw bit-error-rate model and bit-flip injection.

The model composes four multiplicative factors on a base RBER:

* **wear** — grows with the block's program/erase cycle count;
* **retention** — grows with time since the page was programmed;
* **cell mode** — pSLC blocks are far more reliable (cf. Fig. 8);
* **read offset** — the read-retry mechanism (SET FEATURES on the
  vendor retry register) shifts the read voltage; the error rate is
  minimized at a page-dependent optimal level and grows quadratically
  with the distance from it, which is the behaviour that makes a
  READ RETRY sweep (Park et al. [48]) converge.

Injection uses a seeded ``numpy`` generator so traces are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.cell import CellMode, profile_for


@dataclass(frozen=True)
class ErrorModelConfig:
    """Tunable constants of the RBER model."""

    base_rber: float = 2e-5
    wear_rber_per_kcycle: float = 4e-5
    retention_rber_per_hour: float = 1e-6
    retry_penalty_per_step: float = 6e-5
    max_retry_distance: int = 8

    def validate(self) -> None:
        if (self.base_rber < 0 or self.wear_rber_per_kcycle < 0
                or self.retention_rber_per_hour < 0
                or self.retry_penalty_per_step < 0):
            raise ValueError("error-rate constants must be non-negative")

    @classmethod
    def noiseless(cls) -> "ErrorModelConfig":
        """A zero-error configuration for exact data-path tests."""
        return cls(
            base_rber=0.0,
            wear_rber_per_kcycle=0.0,
            retention_rber_per_hour=0.0,
            retry_penalty_per_step=0.0,
        )


class ErrorModel:
    """Stateful error injector for one LUN."""

    def __init__(self, config: ErrorModelConfig | None = None, seed: int = 0):
        self.config = config or ErrorModelConfig()
        self.config.validate()
        self._rng = np.random.default_rng(seed)
        self.injected_bits_total = 0

    def rber(
        self,
        mode: CellMode,
        pe_cycles: int,
        retention_hours: float = 0.0,
        read_offset_distance: int = 0,
    ) -> float:
        """Effective raw bit error rate for a page read."""
        cfg = self.config
        distance = min(abs(read_offset_distance), cfg.max_retry_distance)
        rate = (
            cfg.base_rber
            + cfg.wear_rber_per_kcycle * (pe_cycles / 1000.0)
            + cfg.retention_rber_per_hour * max(retention_hours, 0.0)
            + cfg.retry_penalty_per_step * distance**2
        )
        return rate * profile_for(mode).rber_scale

    def inject(self, data: np.ndarray, rate: float) -> int:
        """Flip bits in-place at the given rate; returns the flip count."""
        nbits = data.size * 8
        if nbits == 0 or rate <= 0.0:
            return 0
        flips = int(self._rng.poisson(nbits * rate))
        if flips == 0:
            return 0
        flips = min(flips, nbits)
        positions = self._rng.integers(0, nbits, size=flips)
        byte_idx = positions >> 3
        bit_idx = (positions & 7).astype(np.uint8)
        # XOR per position; duplicate positions toggle twice (harmless,
        # physically a re-flip) and are rare at realistic rates.
        np.bitwise_xor.at(data, byte_idx, np.left_shift(np.uint8(1), bit_idx))
        self.injected_bits_total += flips
        return flips

    def sample_optimal_retry_level(self, span: int = 5) -> int:
        """Draw a page's optimal read-retry level (0 = factory default)."""
        return int(self._rng.integers(0, max(span, 1)))
