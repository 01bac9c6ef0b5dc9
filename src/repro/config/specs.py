"""Typed, frozen, validated experiment specs.

One :class:`ExperimentSpec` is the complete description of a run:

* :class:`StackSpec` — the machine: vendor profile plus data-only
  geometry/timing overrides, channels x LUNs topology, runtime,
  interface speed, fidelity tier, DRAM size, sanitizers, watchdog,
  error model, and FTL sizing (:class:`FtlSpec`);
* :class:`WorkloadSpec` — what to push through it: mix, access
  pattern, op count, queue depth, doorbell batching, seed;
* :class:`CampaignSpec` — the fault plan to arm underneath it, by
  built-in name, file reference, or inline fault list, plus the
  crash-point fuzz knobs.

Specs are **frozen** (hashable, safely shareable), **validated at
parse time** (malformed documents never reach a simulator — e.g. the
TLM tier combined with a waveform-only sanitizer raises
:class:`FidelityError` from ``from_dict``, not
from deep inside a run), **defaulted** (a sparse document means "the
stock experiment"), and **schema versioned** (documents carry
``schema``; readers reject documents newer than they understand).

Two canonical forms:

* ``to_dict(resolved=False)`` — sparse: only non-default fields, the
  form you check into ``examples/specs/``;
* ``to_dict(resolved=True)`` — every field materialized, the form
  embedded in artifacts and hashed.

:meth:`ExperimentSpec.spec_hash` is a content hash over the canonical
JSON of the *resolved* dict: two documents that resolve to the same
experiment hash identically whatever their key order or how many
defaults they spell out.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Optional

#: Serialization schema for spec documents.  Bump when a field changes
#: meaning; additive optional fields do not need a bump.
SPEC_SCHEMA = 1

_MIB = 1024 * 1024

VALID_RUNTIMES = ("coroutine", "rtos")
#: Fidelity tiers: "waveform" runs every op on the segment-accurate
#: path; "tlm" adds the template runner (:mod:`repro.core.fastops`) for
#: untraced data-plane ops and runs every other op exactly as
#: "waveform" does.
FIDELITIES = ("waveform", "tlm")
VALID_PATTERNS = ("sequential", "random")
VALID_INTERFACES = (100, 200)
#: Workload mixes.  "read"/"write" are single-opcode streams through
#: the queue-depth engine; "crashfuzz" is the fuzzer's seeded
#: ~65/25/5/5 write/read/trim/flush stream (see repro.analysis.crashfuzz).
VALID_MIXES = ("read", "write", "crashfuzz")
#: Sanitizers that sample per-segment bus traffic and therefore only
#: exist at waveform fidelity (mirrors Sanitizer.requires_waveform).
WAVEFORM_ONLY_SANITIZERS = frozenset({"bus", "flash"})


#: Stack fields only a findings channel can honour: sanitizers report
#: through a DiagnosticReport, and ``timing_overrides`` are requirements
#: the capture-time timing checker reads (the emitters pad to the ONFI
#: mode regardless, so no simulated number moves).  A harness without
#: such a channel declares them fixed (:meth:`ExperimentSpec.refuse_fixed`).
FINDINGS_ONLY = ("stack.sanitizers", "stack.timing_overrides")


class SpecError(ValueError):
    """A malformed experiment spec (unknown field, bad value, bad combo)."""


class FidelityError(RuntimeError):
    """A component that needs waveform fidelity met a TLM channel.

    Raised *at attach time* (sanitizer/analyzer construction, tap
    registration) — or at parse time, for a spec that combines the two —
    so a run can never silently miss the events it was asked to observe.
    """


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, tight separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# dict <-> dataclass machinery
# ----------------------------------------------------------------------

def _check_keys(cls, data: dict, where: str) -> None:
    if not isinstance(data, dict):
        raise SpecError(f"{where} must be an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(
            f"unknown {where} field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )


def _coerce_scalar(name: str, value, kind, where: str):
    """Type-check one scalar field; bool is not an int here."""
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(f"{where}.{name} must be an integer, got {value!r}")
    elif kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(f"{where}.{name} must be a number, got {value!r}")
        value = float(value)
    elif kind is bool:
        if not isinstance(value, bool):
            raise SpecError(f"{where}.{name} must be a boolean, got {value!r}")
    elif kind is str:
        if not isinstance(value, str):
            raise SpecError(f"{where}.{name} must be a string, got {value!r}")
    return value


def require_dram(dram_size: int, needed: int, who: str) -> None:
    """Refuse a ``stack.dram_size`` smaller than what ``who`` stages in
    it: a :class:`SpecError` where the footprint is sized, before the
    run, instead of a bounds error from inside it."""
    if needed > dram_size:
        raise SpecError(
            f"stack.dram_size={dram_size} is too small: {who} needs "
            f"{needed} bytes")


@dataclass(frozen=True)
class GeometrySpec:
    """Data-only overrides of the vendor's NAND geometry.

    ``None`` keeps the vendor profile's value.  This is how the chaos
    and crashfuzz harnesses' "full code paths, tiny state" shrunken
    arrays become spec files instead of ``dataclasses.replace`` calls.
    """

    page_size: Optional[int] = None
    spare_size: Optional[int] = None
    pages_per_block: Optional[int] = None
    blocks_per_plane: Optional[int] = None
    planes: Optional[int] = None

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise SpecError(
                    f"stack.geometry.{f.name} must be a positive integer, "
                    f"got {value!r}"
                )

    def to_dict(self, resolved: bool = False) -> dict:
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if resolved or value is not None:
                data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "GeometrySpec":
        _check_keys(cls, data, "stack.geometry")
        spec = cls(**data)
        spec.validate()
        return spec


@dataclass(frozen=True)
class FtlSpec:
    """FTL sizing, as data.  Defaults are the scale stack's historical
    sizing (8 blocks/LUN, 2 overprovisioned), not the larger
    ``FtlConfig`` class defaults."""

    blocks_per_lun: int = 8
    overprovision_blocks: int = 2
    gc_staging_base: int = 48 * _MIB
    # Power-loss protection (0 = off, the volatile FTL).
    checkpoint_interval: int = 0
    journal_flush_records: int = 32
    meta_blocks: int = 2
    # None = the historical default: min(logical_pages, 64 * channels * luns).
    prefill_pages: Optional[int] = None

    def validate(self) -> None:
        if self.prefill_pages is not None and self.prefill_pages < 0:
            raise SpecError("stack.ftl.prefill_pages must be >= 0 or null")
        try:
            self.to_ftl_config().validate()
        except ValueError as exc:
            raise SpecError(f"stack.ftl: {exc}") from None

    def to_ftl_config(self):
        from repro.ftl.ftl import FtlConfig

        return FtlConfig(
            blocks_per_lun=self.blocks_per_lun,
            overprovision_blocks=self.overprovision_blocks,
            gc_staging_base=self.gc_staging_base,
            checkpoint_interval=self.checkpoint_interval,
            journal_flush_records=self.journal_flush_records,
            meta_blocks=self.meta_blocks,
        )

    def to_dict(self, resolved: bool = False) -> dict:
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if resolved or value != f.default:
                data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FtlSpec":
        _check_keys(cls, data, "stack.ftl")
        kwargs = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            if f.name == "prefill_pages":
                if value is not None:
                    value = _coerce_scalar(f.name, value, int, "stack.ftl")
            else:
                value = _coerce_scalar(f.name, value, int, "stack.ftl")
            kwargs[f.name] = value
        spec = cls(**kwargs)
        spec.validate()
        return spec


@dataclass(frozen=True)
class StackSpec:
    """The machine: everything needed to stand up the controller array."""

    vendor: str = "hynix"
    channels: int = 1
    luns_per_channel: int = 4
    runtime: str = "coroutine"
    interface_mt: int = 200
    cpu_freq_hz: int = 1_000_000_000
    fidelity: str = "waveform"
    track_data: bool = False
    dram_size: int = 64 * _MIB
    # None = seed each channel controller with its channel index (the
    # scale stack's convention); an int seeds every controller alike.
    seed: Optional[int] = None
    # Zero the RBER error model so content checks see stored bytes.
    noiseless: bool = False
    # None = the vendor profile's factory_bad_rate.
    factory_bad_rate: Optional[float] = None
    # Runtime sanitizers attached at build ("bus", "flash", "memory",
    # "liveness", or "all"); empty = zero-overhead detached hooks.
    sanitizers: tuple = ()
    # Attach a per-vendor Watchdog bounding every busy-wait.
    watchdog: bool = False
    # Per-vendor interface-timing tightening: {TimingSet field: ns},
    # stored sorted so equal specs hash equally.
    timing_overrides: tuple = ()
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    # None = raw controllers, no FTL (demo/figure/trace workloads).
    ftl: Optional[FtlSpec] = None

    def validate(self) -> None:
        from repro.flash.vendors import VENDOR_PROFILES

        if self.vendor not in VENDOR_PROFILES:
            raise SpecError(
                f"stack.vendor {self.vendor!r} unknown; "
                f"known: {sorted(VENDOR_PROFILES)}"
            )
        if self.channels < 1:
            raise SpecError("stack.channels must be >= 1")
        if self.luns_per_channel < 1:
            raise SpecError("stack.luns_per_channel must be >= 1")
        if self.runtime not in VALID_RUNTIMES:
            raise SpecError(
                f"stack.runtime must be one of {VALID_RUNTIMES}, "
                f"got {self.runtime!r}"
            )
        if self.interface_mt not in VALID_INTERFACES:
            raise SpecError(
                f"stack.interface_mt must be one of {VALID_INTERFACES}, "
                f"got {self.interface_mt!r}"
            )
        if self.fidelity not in FIDELITIES:
            raise SpecError(
                f"stack.fidelity must be one of {FIDELITIES}, "
                f"got {self.fidelity!r}"
            )
        if self.cpu_freq_hz <= 0:
            raise SpecError("stack.cpu_freq_hz must be positive")
        if self.dram_size <= 0:
            raise SpecError("stack.dram_size must be positive")
        if self.factory_bad_rate is not None and not (
                0.0 <= self.factory_bad_rate < 1.0):
            raise SpecError("stack.factory_bad_rate must be in [0, 1)")
        if self.sanitizers:
            self._validate_sanitizers()
        for pair in self.timing_overrides:
            if (len(pair) != 2 or not isinstance(pair[0], str)
                    or isinstance(pair[1], bool)
                    or not isinstance(pair[1], int) or pair[1] < 0):
                raise SpecError(
                    f"stack.timing_overrides entries must map a TimingSet "
                    f"field name to a non-negative ns value, got {pair!r}"
                )
        self.geometry.validate()
        full_page = self.full_page_size()
        require_dram(self.dram_size, full_page,
                     "any operation with data (one page incl. spare)")
        if self.ftl is not None:
            self.ftl.validate()
            # GC staging grows down from gc_staging_base; ftl/persist.py
            # stages meta pages in the third page above it.
            require_dram(self.dram_size,
                         self.ftl.gc_staging_base + 3 * full_page,
                         "the FTL's GC and meta staging around "
                         "stack.ftl.gc_staging_base")
            low = self.ftl_staging()[0]
            if low < 0:
                raise SpecError(
                    f"stack.ftl.gc_staging_base={self.ftl.gc_staging_base} "
                    f"is too low: the GC staging slots below it need "
                    f"{self.ftl.gc_staging_base - low} bytes (one full page "
                    f"per stack.luns_per_channel x stack.ftl.blocks_per_lun)")
            self._validate_gc_reserve()
            if self.ftl.checkpoint_interval > 0:
                self._validate_persistence()

    def _validate_gc_reserve(self) -> None:
        """Every LUN's spare blocks must hold what background GC needs.

        A LUN may come to hold a full LUN's logical share
        (``blocks_per_lun - overprovision_blocks`` blocks: writes stripe
        by rotor, not by LPN), and a persistent FTL carves its meta ring
        out of LUN 0.  What is left must hold ``SPARE_BLOCKS`` (see
        ``ftl/ftl.py``).  With one spare block fewer, a filled LUN has no
        invalid page to reclaim and a write dies mid-run with
        ``FtlError``."""
        from repro.ftl.ftl import SPARE_BLOCKS

        ftl = self.ftl
        ring = ftl.meta_blocks if ftl.checkpoint_interval > 0 else 0
        if ftl.overprovision_blocks - ring < SPARE_BLOCKS:
            where = (f"beyond the {ring}-block meta ring on LUN 0"
                     if ring else "per LUN")
            raise SpecError(
                f"stack.ftl.overprovision_blocks="
                f"{ftl.overprovision_blocks} leaves "
                f"{ftl.overprovision_blocks - ring} spare block(s) {where}; "
                f"background GC needs {SPARE_BLOCKS} (the reserve block "
                f"only GC may open, plus GC's open block): set it to "
                f">= {ring + SPARE_BLOCKS}")

    def _validate_persistence(self) -> None:
        """What power-loss protection (``ftl/persist.py``) needs of the
        stack, refused here instead of by an ``FtlError`` mid-build."""
        from repro.flash.oob import OOB_RECORD_BYTES
        from repro.flash.vendors import VENDOR_PROFILES

        # Every meta block opens with a checkpoint page and journals
        # behind it: it needs the second page.
        if self.geometry.pages_per_block == 1:
            raise SpecError(
                "stack.geometry.pages_per_block must be >= 2 when "
                "stack.ftl.checkpoint_interval > 0: a meta block holds "
                "a checkpoint page plus at least one journal page"
            )
        spare = (self.geometry.spare_size
                 or VENDOR_PROFILES[self.vendor].geometry.spare_size)
        if spare < OOB_RECORD_BYTES:
            raise SpecError(
                f"stack.geometry.spare_size must be >= {OOB_RECORD_BYTES} "
                f"when stack.ftl.checkpoint_interval > 0: every page "
                f"carries a {OOB_RECORD_BYTES}-byte OOB record, and the "
                f"spare area is {spare} bytes"
            )
        if not self.track_data:
            raise SpecError(
                "stack.track_data must be true when "
                "stack.ftl.checkpoint_interval > 0: checkpoints and the "
                "journal are read back from the arrays at remount"
            )

    def _validate_sanitizers(self) -> None:
        # The sanitizer registry loads only for a spec that names one.
        from repro.sanitize.base import resolve_names

        try:
            resolved = resolve_names(self.sanitizers)
        except ValueError as exc:
            raise SpecError(f"stack.sanitizers: {exc}") from None
        # The cross-tier contract, enforced at *parse* time: a spec
        # that would only explode once a channel is built is a spec
        # the validator failed.
        waveform_only = sorted(set(resolved) & WAVEFORM_ONLY_SANITIZERS)
        if waveform_only and self.fidelity != "waveform":
            raise FidelityError(
                f"sanitizer(s) {', '.join(waveform_only)} sample "
                f"per-segment bus traffic, which the "
                f"{self.fidelity!r} tier does not simulate — set "
                f"stack.fidelity to 'waveform' or select only "
                f"transaction-safe sanitizers (memory, liveness)"
            )

    def full_page_size(self) -> int:
        """Bytes of one page incl. spare, under the geometry overrides."""
        from repro.flash.vendors import VENDOR_PROFILES

        vendor = VENDOR_PROFILES[self.vendor].geometry
        return ((self.geometry.page_size or vendor.page_size)
                + (self.geometry.spare_size or vendor.spare_size))

    def ftl_staging(self) -> tuple[int, int]:
        """``[low, high)`` DRAM bytes the FTL stages in: one GC slot per
        (LUN, block) of a shard growing down from ``gc_staging_base``
        (``ftl/ftl.py::_gc_staging``), meta staging in the three full
        pages from it (``ftl/persist.py``)."""
        full_page = self.full_page_size()
        base = self.ftl.gc_staging_base
        slots = self.luns_per_channel * self.ftl.blocks_per_lun
        return base - slots * full_page, base + 3 * full_page

    def to_dict(self, resolved: bool = False) -> dict:
        data: dict = {}
        simple = ("vendor", "channels", "luns_per_channel", "runtime",
                  "interface_mt", "cpu_freq_hz", "fidelity", "track_data",
                  "dram_size", "seed", "noiseless", "factory_bad_rate",
                  "watchdog")
        defaults = {f.name: f.default for f in fields(self)}
        for name in simple:
            value = getattr(self, name)
            if resolved or value != defaults[name]:
                data[name] = value
        if resolved or self.sanitizers:
            data["sanitizers"] = list(self.sanitizers)
        if resolved or self.timing_overrides:
            data["timing_overrides"] = {
                name: ns for name, ns in self.timing_overrides
            }
        geometry = self.geometry.to_dict(resolved)
        if resolved or geometry:
            data["geometry"] = geometry
        if self.ftl is not None:
            data["ftl"] = self.ftl.to_dict(resolved)
        elif resolved:
            data["ftl"] = None
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "StackSpec":
        _check_keys(cls, data, "stack")
        kwargs: dict = {}
        scalars = {"vendor": str, "channels": int, "luns_per_channel": int,
                   "runtime": str, "interface_mt": int, "cpu_freq_hz": int,
                   "fidelity": str, "track_data": bool, "dram_size": int,
                   "noiseless": bool, "watchdog": bool}
        for name, kind in scalars.items():
            if name in data:
                kwargs[name] = _coerce_scalar(name, data[name], kind, "stack")
        if data.get("seed") is not None:
            kwargs["seed"] = _coerce_scalar("seed", data["seed"], int, "stack")
        if data.get("factory_bad_rate") is not None:
            kwargs["factory_bad_rate"] = _coerce_scalar(
                "factory_bad_rate", data["factory_bad_rate"], float, "stack")
        if "sanitizers" in data:
            names = data["sanitizers"]
            if isinstance(names, str):
                names = [part.strip() for part in names.split(",")
                         if part.strip()]
            if not isinstance(names, (list, tuple)) or not all(
                    isinstance(n, str) for n in names):
                raise SpecError(
                    "stack.sanitizers must be a list of names or a "
                    "comma-separated string"
                )
            kwargs["sanitizers"] = tuple(names)
        if "timing_overrides" in data:
            overrides = data["timing_overrides"]
            if not isinstance(overrides, dict):
                raise SpecError(
                    "stack.timing_overrides must be an object of "
                    "{field: ns}"
                )
            kwargs["timing_overrides"] = tuple(sorted(overrides.items()))
        if data.get("geometry"):
            kwargs["geometry"] = GeometrySpec.from_dict(data["geometry"])
        if data.get("ftl") is not None:
            kwargs["ftl"] = FtlSpec.from_dict(data["ftl"])
        spec = cls(**kwargs)
        spec.validate()
        return spec


@dataclass(frozen=True)
class WorkloadSpec:
    """What to push through the stack."""

    mix: str = "read"
    pattern: str = "sequential"
    io_count: int = 192
    queue_depth: int = 32
    doorbell_batch: int = 4
    seed: int = 42
    working_set_pages: int = 0    # 0 = the whole mapped range
    dram_base: int = 0
    dram_stride: int = 32 * 1024

    def validate(self) -> None:
        if self.mix not in VALID_MIXES:
            raise SpecError(
                f"workload.mix must be one of {VALID_MIXES}, got {self.mix!r}"
            )
        if self.pattern not in VALID_PATTERNS:
            raise SpecError(
                f"workload.pattern must be one of {VALID_PATTERNS}, "
                f"got {self.pattern!r}"
            )
        if self.io_count < 1:
            raise SpecError("workload.io_count must be >= 1")
        if self.queue_depth < 1:
            raise SpecError("workload.queue_depth must be >= 1")
        if self.doorbell_batch < 1:
            raise SpecError("workload.doorbell_batch must be >= 1")
        if self.doorbell_batch > self.queue_depth:
            raise SpecError(
                f"workload.doorbell_batch ({self.doorbell_batch}) cannot "
                f"exceed workload.queue_depth ({self.queue_depth}) — a "
                f"batch that never fills never rings"
            )
        if self.working_set_pages < 0:
            raise SpecError("workload.working_set_pages must be >= 0")
        if self.dram_base < 0 or self.dram_stride <= 0:
            raise SpecError(
                "workload.dram_base must be >= 0 and dram_stride positive"
            )

    @classmethod
    def all_but(cls, *read: str) -> tuple:
        """Dotted paths of every workload field except ``read`` — what
        a harness that reads only those declares fixed (see
        :meth:`ExperimentSpec.refuse_fixed`)."""
        return tuple(f"workload.{f.name}" for f in fields(cls)
                     if f.name not in read)

    def opcode(self):
        """The HostOpcode for single-opcode mixes."""
        from repro.host.hic import HostOpcode

        if self.mix == "read":
            return HostOpcode.READ
        if self.mix == "write":
            return HostOpcode.WRITE
        raise SpecError(
            f"workload.mix {self.mix!r} is not a single-opcode stream"
        )

    def to_dict(self, resolved: bool = False) -> dict:
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if resolved or value != f.default:
                data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        _check_keys(cls, data, "workload")
        kinds = {"mix": str, "pattern": str, "io_count": int,
                 "queue_depth": int, "doorbell_batch": int, "seed": int,
                 "working_set_pages": int, "dram_base": int,
                 "dram_stride": int}
        kwargs = {
            name: _coerce_scalar(name, data[name], kinds[name], "workload")
            for name in data
        }
        spec = cls(**kwargs)
        spec.validate()
        return spec


@dataclass(frozen=True)
class CampaignSpec:
    """A fault plan reference plus the crash-fuzz sweep knobs.

    The plan itself comes from one of three places, checked in order:
    inline ``faults`` (a list of FaultSpec objects), a ``plan`` file
    path (ends in ``.json``), or a built-in plan name (currently
    ``chaos-default``).
    """

    plan: str = "chaos-default"
    seed: int = 4
    faults: tuple = ()            # inline FaultSpec dicts
    baselines: bool = True        # run hw baselines alongside BABOL
    # Crash-consistency fuzz knobs (repro crashfuzz).
    crash_seeds: int = 3
    crash_points: int = 50
    base_seed: int = 7

    def validate(self) -> None:
        if self.crash_seeds < 1 or self.crash_points < 1:
            raise SpecError(
                "campaign.crash_seeds and campaign.crash_points must be >= 1"
            )
        if not self.plan:
            raise SpecError("campaign.plan cannot be empty")
        if self.faults:
            from repro.faults.plan import FaultPlanError, FaultSpec

            for entry in self.faults:
                try:
                    FaultSpec.from_dict(dict(entry))
                except FaultPlanError as exc:
                    raise SpecError(f"campaign.faults: {exc}") from None

    def resolve_campaign(self):
        """The :class:`~repro.faults.plan.FaultCampaign` this references."""
        from repro.faults.plan import FaultCampaign, FaultSpec

        if self.faults:
            return FaultCampaign(
                name=self.plan, seed=self.seed,
                faults=[FaultSpec.from_dict(dict(entry))
                        for entry in self.faults],
            )
        if self.plan.endswith(".json"):
            # A plan file's own seed wins; campaign.seed applies to the
            # built-in plan and inline faults.
            return FaultCampaign.load(self.plan)
        if self.plan == "chaos-default":
            from repro.faults.chaos import default_campaign

            return default_campaign(self.seed)
        raise SpecError(
            f"campaign.plan {self.plan!r} is neither a built-in plan "
            f"name ('chaos-default'), a .json path, nor inline faults"
        )

    def to_dict(self, resolved: bool = False) -> dict:
        data: dict = {}
        for name in ("plan", "seed", "baselines", "crash_seeds",
                     "crash_points", "base_seed"):
            value = getattr(self, name)
            default = next(f.default for f in fields(self) if f.name == name)
            if resolved or value != default:
                data[name] = value
        if resolved or self.faults:
            data["faults"] = [dict(entry) for entry in self.faults]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        _check_keys(cls, data, "campaign")
        kwargs: dict = {}
        kinds = {"plan": str, "seed": int, "baselines": bool,
                 "crash_seeds": int, "crash_points": int, "base_seed": int}
        for name, kind in kinds.items():
            if name in data:
                kwargs[name] = _coerce_scalar(name, data[name], kind,
                                              "campaign")
        if "faults" in data:
            entries = data["faults"]
            if not isinstance(entries, (list, tuple)):
                raise SpecError("campaign.faults must be a list of objects")
            kwargs["faults"] = tuple(
                tuple(sorted(entry.items())) if isinstance(entry, dict)
                else entry
                for entry in entries
            )
        spec = cls(**kwargs)
        spec.validate()
        return spec


@dataclass(frozen=True)
class ExperimentSpec:
    """The top-level document: a named (stack, workload, campaign)."""

    name: str = "experiment"
    description: str = ""
    stack: StackSpec = field(default_factory=StackSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    campaign: Optional[CampaignSpec] = None

    def validate(self) -> None:
        if not self.name:
            raise SpecError("experiment name cannot be empty")
        self.stack.validate()
        self.workload.validate()
        if self.campaign is not None:
            self.campaign.validate()
        # Cross-section rule: a persistent-media workload mix needs a
        # persistence-enabled FTL — the fuzzer's verifier is meaningless
        # against a volatile stack.
        if self.workload.mix == "crashfuzz":
            if self.stack.ftl is None or \
                    self.stack.ftl.checkpoint_interval <= 0:
                raise SpecError(
                    "workload.mix 'crashfuzz' requires stack.ftl with "
                    "checkpoint_interval > 0 (crash consistency is only "
                    "checkable against persistent media)"
                )
        # The queue-depth engine's host slots: queue_depth DRAM buffers,
        # dram_stride apart from dram_base, each a full page long.
        workload = self.workload
        full_page = self.stack.full_page_size()
        if workload.queue_depth > 1 and workload.dram_stride < full_page:
            raise SpecError(
                f"workload.dram_stride={workload.dram_stride} is smaller "
                f"than a full page ({full_page} bytes incl. spare): "
                f"adjacent host slots would overlap")
        if self.stack.ftl is not None:
            pool = (workload.dram_base,
                    workload.dram_base
                    + (workload.queue_depth - 1) * workload.dram_stride
                    + full_page)
            staging = self.stack.ftl_staging()
            if pool[0] < staging[1] and staging[0] < pool[1]:
                raise SpecError(
                    f"stack.ftl.gc_staging_base="
                    f"{self.stack.ftl.gc_staging_base} puts the FTL's "
                    f"staging at [{staging[0]}, {staging[1]}), which "
                    f"overlaps the host slot pool [{pool[0]}, {pool[1]}) "
                    f"of workload.dram_base, queue_depth and dram_stride")

    def to_dict(self, resolved: bool = False) -> dict:
        data: dict = {"schema": SPEC_SCHEMA, "name": self.name}
        if resolved or self.description:
            data["description"] = self.description
        data["stack"] = self.stack.to_dict(resolved)
        data["workload"] = self.workload.to_dict(resolved)
        if self.campaign is not None:
            data["campaign"] = self.campaign.to_dict(resolved)
        elif resolved:
            data["campaign"] = None
        return data

    def resolved(self) -> dict:
        """The fully-materialized document embedded in artifacts."""
        return self.to_dict(resolved=True)

    def spec_hash(self) -> str:
        """Canonical content hash (16 hex chars) of the resolved spec.

        Stable across key order, sparse-vs-explicit defaults, and
        JSON-vs-TOML source: only what the experiment *is* matters.
        """
        digest = hashlib.sha256(
            canonical_json(self.resolved()).encode("utf-8"))
        return digest.hexdigest()[:16]

    def replace(self, **kwargs) -> "ExperimentSpec":
        """``dataclasses.replace`` that re-validates."""
        spec = dataclasses.replace(self, **kwargs)
        spec.validate()
        return spec

    def refuse_fixed(self, stock: "ExperimentSpec", fixed,
                     harness: str) -> None:
        """Honoured or refused: raise :class:`SpecError` when this spec
        differs from ``harness``'s ``stock`` spec at one of the dotted
        paths the harness declares ``fixed`` — fields it sets per phase,
        sweeps as an axis, or never reads — so no field is silently
        ignored under a changed ``spec_hash``."""
        ours, stocks = self.resolved(), stock.resolved()
        for path in fixed:
            mine, theirs = ours, stocks
            for key in path.split("."):
                mine = mine.get(key) if isinstance(mine, dict) else None
                theirs = theirs.get(key) if isinstance(theirs, dict) else None
            if mine != theirs:
                raise SpecError(
                    f"{path} is fixed by `{harness}` (it sets, sweeps or "
                    f"never reads it): expected {canonical_json(theirs)}, "
                    f"got {canonical_json(mine)}"
                )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise SpecError(
                f"spec document must be an object, got {type(data).__name__}"
            )
        known = {"schema", "name", "description", "stack", "workload",
                 "campaign"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown spec field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        schema = data.get("schema", SPEC_SCHEMA)
        if not isinstance(schema, int) or isinstance(schema, bool):
            raise SpecError(f"schema must be an integer, got {schema!r}")
        if schema < 1 or schema > SPEC_SCHEMA:
            raise SpecError(
                f"spec schema {schema} unsupported (this build reads "
                f"1..{SPEC_SCHEMA})"
            )
        kwargs: dict = {}
        if "name" in data:
            kwargs["name"] = _coerce_scalar("name", data["name"], str, "spec")
        if "description" in data:
            kwargs["description"] = _coerce_scalar(
                "description", data["description"], str, "spec")
        if "stack" in data:
            kwargs["stack"] = StackSpec.from_dict(data["stack"])
        if "workload" in data:
            kwargs["workload"] = WorkloadSpec.from_dict(data["workload"])
        if data.get("campaign") is not None:
            kwargs["campaign"] = CampaignSpec.from_dict(data["campaign"])
        spec = cls(**kwargs)
        spec.validate()
        return spec

    def to_json(self, resolved: bool = False) -> str:
        return json.dumps(self.to_dict(resolved), indent=2, sort_keys=True)
