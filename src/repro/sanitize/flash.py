"""Flash sanitizer — SAN2xx: command classes illegal in the LUN state.

The LUN model already *raises* on the worst ONFI violations, but a
raise aborts the simulation at the first offence and says nothing about
which rule was broken.  The sanitizer records a structured finding
first (so a `repro sanitize` run reports every hazard), and adds checks
the model is silent about:

* **SAN201** — an opcode whose protocol-table row is not
  ``legal_while_busy`` (anything but status/reset/suspend) latched while
  the LUN is array-busy (the LUN raises right after the finding is
  recorded) — or an ERASE confirm, or a READ, PROGRAM or ERASE confirm
  addressed to a block the erase targets, while an erase is suspended.
* **SAN202** — a data-out/cache-register read before anything armed a
  data source: empty page register, cache read before the first tR
  completed, or no source armed at all.
* **SAN203** — a data-bearing or status segment whose chip mask selects
  zero dies (reading a deselected die returns float) or more than one
  die (several dies driving DQ at once — bus contention).
"""

from __future__ import annotations

from repro.onfi.commands import opcode_name
from repro.onfi.protocol import STATUS_OPCODES
from repro.onfi.signals import CommandLatch, DataOutAction
from repro.sanitize.base import Sanitizer


class FlashSanitizer(Sanitizer):
    """Watches LUN state transitions and channel chip-select masks."""

    name = "flash"
    # SAN203 inspects chip-select masks on driven segments via a channel
    # tap, which templated TLM ops never fire.
    requires_waveform = True

    def attach(self, target, report) -> None:
        super().attach(target, report)
        channel = getattr(target, "channel", None)
        luns = getattr(target, "luns", None)
        if channel is None or not luns:
            raise ValueError(f"{target!r} has no channel/LUNs to sanitize")
        if self.sim is None:
            self.sim = channel.sim
        self._width = channel.width
        for lun in luns:
            lun._san_flash = self
        channel.add_tap(self._on_segment)

    # -- hooks from the LUN model --------------------------------------

    def on_busy_violation(self, lun, opcode: int) -> None:
        remaining = max(lun._busy_until - lun.sim.now, 0)
        kind = lun._busy_spec.kind if lun._busy_spec is not None else "?"
        self.emit(
            "SAN201",
            f"opcode {opcode_name(opcode)} latched while the {kind} "
            f"operation still has {remaining} ns of array time left",
            component=f"lun/{lun.position}",
            hint="poll READ STATUS until RDY (or suspend the operation) "
                 "before issuing the next command",
        )

    def on_suspension_violation(self, lun, opcode: int, why: str) -> None:
        self.emit(
            "SAN201",
            f"opcode {opcode_name(opcode)} latched {why}",
            component=f"lun/{lun.position}",
            hint="a suspended erase admits reads and programs of other "
                 "blocks only; RESUME it (and let it finish) first",
        )

    def on_unarmed_read(self, lun, detail: str) -> None:
        self.emit(
            "SAN202",
            f"register read with nothing armed: {detail}",
            component=f"lun/{lun.position}",
            hint="confirm the read and wait for tR (poll status) before "
                 "streaming the register out",
        )

    # -- channel tap: chip-select sanity -------------------------------

    def _on_segment(self, time_ns: int, segment) -> None:
        has_data_out = any(isinstance(action, DataOutAction)
                           for _, action in segment.actions)
        is_status = any(isinstance(action, CommandLatch)
                        and action.opcode in STATUS_OPCODES
                        for _, action in segment.actions)
        if not has_data_out and not is_status:
            return
        selected = len(segment.targets(self._width))
        if selected == 1:
            return
        what = "status poll" if is_status and not has_data_out else \
            "status poll" if is_status else "data-out burst"
        if selected == 0:
            self.emit(
                "SAN203",
                f"{what} addressed to a deselected die "
                f"(chip_mask=0b{segment.chip_mask:b} selects nothing on a "
                f"{self._width}-LUN channel) — DQ would float",
                component="channel", time_ns=time_ns,
                hint="set chip_mask to exactly one populated LUN position",
            )
        else:
            self.emit(
                "SAN203",
                f"{what} with {selected} dies selected "
                f"(chip_mask=0b{segment.chip_mask:b}) — multiple dies would "
                f"drive DQ simultaneously",
                component="channel", time_ns=time_ns,
                hint="broadcast is legal for command/address latches only; "
                     "read data from one die at a time",
            )
