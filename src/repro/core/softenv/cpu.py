"""Modeled controller CPU.

The paper runs BABOL's software on Xilinx MicroBlaze soft-cores
(150 MHz) and Zynq-7000 ARM Cortex-A9 cores clocked from 200 MHz to
1 GHz.  The model is a frequency: software work is expressed in cycles
and converted to simulated nanoseconds here.  ``cpi`` (cycles per
instruction scale) lets soft-cores be penalized relative to the ARM's
stronger pipeline when an experiment wants that distinction.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim import Simulator, Timeout
from repro.sim.sync import Mutex

MHZ = 1_000_000
GHZ = 1_000_000_000


class _Pauses(dict):
    """``cycles`` -> the kernel command of one charge of that cost, for a
    user that books the charge itself (``cycles_charged += cycles``, yield
    the pause, ``trace_busy`` under a tracer).  One ``Timeout`` serves
    every charge of a cost: the kernel reads ``.delay`` at the yield and
    keeps no reference.  ``None`` where only ``Cpu.execute`` will do: an
    ``exclusive`` core (each charge hands the mutex over) or cycles that
    round to zero nanoseconds (no kernel step at all)."""

    def __init__(self, cpu: "Cpu"):
        self.cpu = cpu

    def __missing__(self, cycles: int) -> Optional[Timeout]:
        ns = 0 if self.cpu.exclusive else self.cpu.cycles_to_ns(cycles)
        pause = self[cycles] = Timeout(ns) if ns else None
        return pause


class Cpu:
    """A single in-order controller core.

    With ``exclusive=True`` the core serializes its users: several
    software environments (one per channel of a multi-channel storage
    controller) can share one physical core, and their scheduling work
    genuinely contends — the Cosmos+ situation, where two ARM cores
    drive the whole SSD.
    """

    def __init__(self, sim: Simulator, freq_hz: int, cpi: float = 1.0,
                 name: str = "cpu", exclusive: bool = False):
        if freq_hz <= 0:
            raise ValueError("CPU frequency must be positive")
        if cpi <= 0:
            raise ValueError("CPI must be positive")
        self.sim = sim
        # Fixed for the life of the core: ``cycles_to_ns`` memoises on it.
        self._freq_hz = freq_hz
        self._cpi = cpi
        self._ns_memo: dict[int, int] = {}
        self.pauses = _Pauses(self)
        self.name = name
        self.exclusive = exclusive
        self._mutex = Mutex(sim) if exclusive else None
        self.cycles_charged = 0
        self.contention_waits = 0

    @property
    def freq_hz(self) -> int:
        return self._freq_hz

    @property
    def cpi(self) -> float:
        return self._cpi

    def _convert(self, cycles: int) -> int:
        return max(int(round(cycles * self._cpi * 1e9 / self._freq_hz)), 0)

    def cycles_to_ns(self, cycles: int) -> int:
        """Memoised: callers pass the few fixed costs of a ``CostModel``."""
        try:
            return self._ns_memo[cycles]
        except KeyError:
            ns = self._ns_memo[cycles] = self._convert(cycles)
            return ns

    def trace_busy(self, cycles: int, ns: int) -> None:
        """The ``cpu`` span of a charge that just ended (tracer attached)."""
        self.sim._tracer.complete("cpu", f"cpu/{self.name}", "busy",
                                  self.sim.now - ns, ns, {"cycles": cycles})

    def execute(self, cycles: int) -> Generator:
        """Process command: occupy the core for ``cycles``."""
        self.cycles_charged += cycles
        ns = self.cycles_to_ns(cycles)
        if not ns:
            return
        tracer = self.sim._tracer
        if self._mutex is None:
            yield Timeout(ns)
            if tracer is not None:
                self.trace_busy(cycles, ns)
            return
        if self._mutex.locked:
            self.contention_waits += 1
        yield from self._mutex.acquire()
        try:
            yield Timeout(ns)
            if tracer is not None:
                # Span starts after the core was won, so shared-CPU
                # traces show contention as gaps, not stretched spans.
                self.trace_busy(cycles, ns)
        finally:
            self._mutex.release()

    @property
    def busy_ns(self) -> int:
        return self._convert(self.cycles_charged)  # ever-growing argument

    def describe(self) -> str:
        mhz = self.freq_hz / MHZ
        return f"{self.name}@{mhz:.0f}MHz (cpi={self.cpi})"
