"""Power-cut injection: kill the simulation at an arbitrary nanosecond.

A power cut is unlike every other fault kind: it does not corrupt one
op, it ends the *world*.  Arming a cut does two things:

1. every :class:`~repro.flash.array.FlashArray` gets its freeze point
   (``power_fail_ns``) set, so any array mutation whose logical end
   time is at or past the cut either tears (a program begun before the
   cut) or silently evaporates (one begun after) — which makes the
   committed media state identical under the waveform and TLM fidelity
   tiers, where real kernel time and logical time can diverge;
2. a kernel event at the cut nanosecond raises
   :class:`PowerLossError`, halting the run before anything at or past
   the cut executes.

After the exception unwinds, :func:`apply_power_cut` finalizes the
media: operations still in flight on each die (confirmed but not
committed — the waveform tier's busy windows) become torn pages or
interrupted-erase blocks.  :func:`snapshot_media` / :func:`restore_media`
then transplant the dead machine's NAND into a freshly built stack so
the SPOR mount path can bring it back.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np


def versioned_payload(lpn: int, version: int, nbytes: int) -> np.ndarray:
    """The page a durability check writes: a fill derived from
    ``(lpn, version)`` with both stamped into the first four bytes, so
    a read-back after remount names the version that survived."""
    data = np.full(nbytes, (lpn * 37 + version * 101) % 251, dtype=np.uint8)
    data[0] = lpn & 0xFF
    data[1] = (lpn >> 8) & 0xFF
    data[2] = version & 0xFF
    data[3] = (version >> 8) & 0xFF
    return data


class PowerLossError(RuntimeError):
    """Raised by the armed power-cut event: the machine is now off."""

    def __init__(self, time_ns: int):
        super().__init__(f"power lost at {time_ns} ns")
        self.time_ns = time_ns


class PowerCut:
    """One armed power cut against a set of controllers."""

    def __init__(self, sim, at_ns: int):
        if at_ns <= sim.now:
            raise ValueError("power cut must be armed in the future")
        self.sim = sim
        self.at_ns = at_ns
        self.fired = False
        self._luns: list = []
        self._event = None

    def arm(self, controllers: Iterable) -> "PowerCut":
        """Freeze every array at the cut time and schedule the blackout.

        Must be armed before the workload starts: the freeze has to be
        in place before any TLM transaction can pre-commit array state
        past the cut.
        """
        for controller in controllers:
            for lun in controller.luns:
                lun.array.set_power_fail(self.at_ns)
                self._luns.append(lun)
        self._event = self.sim.schedule(self.at_ns - self.sim.now, self._fire)
        return self

    def _fire(self) -> None:
        self.fired = True
        raise PowerLossError(self.at_ns)

    def cancel(self) -> None:
        """Disarm (the run outlived the chosen cut point)."""
        if self._event is not None and self._event.pending:
            self._event.cancel()
        for lun in self._luns:
            lun.array.set_power_fail(None)


def apply_power_cut(controllers: Iterable, at_ns: int) -> dict:
    """Finalize the media after the blackout: tear in-flight work.

    Returns counters: pages torn and erases interrupted by in-flight
    operations (the freeze path in the array tallies separately via the
    blocks' own state).
    """
    torn = 0
    interrupted = 0
    for controller in controllers:
        for lun in controller.luns:
            for op in list(lun.inflight_ops):
                if op["begun"] >= at_ns:
                    continue  # never actually started before the cut
                for target in op["targets"]:
                    if op["kind"] == "program":
                        before = len(lun.array.block(target.block).torn)
                        lun.array.mark_torn(target)
                        after = len(lun.array.block(target.block).torn)
                        torn += after - before
                    elif op["kind"] == "erase":
                        lun.array.interrupt_erase(target.block)
                        interrupted += 1
            lun.inflight_ops.clear()
    return {"torn_inflight": torn, "erases_interrupted": interrupted}


def crash_state(controllers: Iterable) -> dict:
    """Media-wide crash tallies (after :func:`apply_power_cut`)."""
    torn_pages = 0
    interrupted_blocks = 0
    for controller in controllers:
        for lun in controller.luns:
            for block in lun.array._blocks.values():
                torn_pages += len(block.torn)
                if block.erase_interrupted:
                    interrupted_blocks += 1
    return {"torn_pages": torn_pages, "interrupted_blocks": interrupted_blocks}


def snapshot_media(controllers: Iterable) -> list:
    """Per-controller, per-LUN media images of the dead machine."""
    return [
        [lun.array.media_image() for lun in controller.luns]
        for controller in controllers
    ]


def restore_media(controllers: Iterable, images: list) -> None:
    """Transplant :func:`snapshot_media` images into a fresh stack."""
    controllers = list(controllers)
    if len(controllers) != len(images):
        raise ValueError("snapshot/stack controller count mismatch")
    for controller, luns in zip(controllers, images):
        if len(controller.luns) != len(luns):
            raise ValueError("snapshot/stack LUN count mismatch")
        for lun, image in zip(controller.luns, luns):
            lun.array.restore_media(image)


def unsafe_shutdown_ns(controllers: Iterable) -> Optional[int]:
    """The armed freeze point, if any array carries one."""
    for controller in controllers:
        for lun in controller.luns:
            if lun.array.power_fail_ns is not None:
                return lun.array.power_fail_ns
    return None
