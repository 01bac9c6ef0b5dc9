"""The per-op gap between the fidelity tiers, ratcheted.

Each ``_plan=True`` wrapper of the controller runs solo, one op per LUN
and back to back, on both tiers, for every vendor and both runtimes.
On TLM the ops run as templates; on waveform they run the software
runtime.  A template books no modelled CPU and polls once per wait, so
it ends early, by up to ~40 % of an op on the coroutine runtime.  Per
cell, the gap — the larger of the two ops' |TLM end - waveform end| —
may not exceed the value in ``tests/fixtures/tier_gap_ratchet.json``,
which holds the gaps when the ratchet was added.  A change that closes
a gap lowers its value (re-record with

    PYTHONPATH=src python -m tests.test_tier_gap_ratchet --record

on that change); a change that widens one fails here.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.flash.vendors import VENDOR_PROFILES

from tests.helpers import TEST_PROFILE
from tests.test_backend_equivalence import WRAPPERS, _make

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "tier_gap_ratchet.json"
VENDORS = {"test": TEST_PROFILE, **VENDOR_PROFILES}
RUNTIMES = ["rtos", "coroutine"]


def _ends(fidelity, runtime, vendor, method, args):
    """One op per LUN, back to back: the controller and each op's end."""
    sim, controller = _make(fidelity, runtime, vendor)
    ends = []
    for lun in (0, 1):
        task = getattr(controller, method)(lun, *args)
        controller.run_to_completion(task)
        assert task.error is None, task.error
        ends.append(task.finished_at)
    return controller, ends


def gap_ns(vendor: str, runtime: str, method: str, args: tuple) -> int:
    profile = VENDORS[vendor]
    _, wave = _ends("waveform", runtime, profile, method, args)
    controller, tlm = _ends("tlm", runtime, profile, method, args)
    assert controller.fast_ops.ops_planned > 0, "no op ran as a template"
    return max(abs(t - w) for t, w in zip(tlm, wave))


def _key(vendor, runtime, name):
    return f"{vendor}/{runtime}/{name}"


CELLS = [(vendor, runtime, name, method, args)
         for vendor in sorted(VENDORS) for runtime in RUNTIMES
         for name, method, args in WRAPPERS]


@pytest.mark.parametrize("vendor,runtime,name,method,args", CELLS,
                         ids=[_key(*cell[:3]) for cell in CELLS])
def test_the_tier_gap_does_not_widen(vendor, runtime, name, method, args):
    recorded = json.loads(FIXTURE.read_text())[_key(vendor, runtime, name)]
    assert gap_ns(vendor, runtime, method, args) <= recorded


def test_the_ratchet_covers_every_cell():
    assert sorted(json.loads(FIXTURE.read_text())) == \
        sorted(_key(*cell[:3]) for cell in CELLS)


def record() -> None:
    table = {_key(vendor, runtime, name): gap_ns(vendor, runtime, method, args)
             for vendor, runtime, name, method, args in CELLS}
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table)} gaps -> {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_tier_gap_ratchet --record")
    record()
    sys.exit(0)
