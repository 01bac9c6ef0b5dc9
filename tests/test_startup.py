"""Start-up loads only the modules a run uses.

Every package re-exports its names lazily (:mod:`repro._lazy`), and the
sanitizer registry loads only for a spec that names a sanitizer, so a
process that imports what the repo benchmark imports and stands up an
unsanitized stack loads none of the fault-campaign, sanitizer, ECC,
trace-replay or spec-file modules.  Each probe runs in a fresh
interpreter: in this one, other tests have imported everything.
"""

import json
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules an unsanitized benchmark stack never calls into.
UNUSED_AT_STARTUP = (
    "repro.faults.chaos",
    "repro.faults.injector",
    "repro.faults.plan",
    "repro.baselines.sync_hw",
    "repro.sanitize",
    "repro.sanitize.base",
    "repro.sanitize.bus",
    "repro.sanitize.flash",
    "repro.sanitize.liveness",
    "repro.sanitize.memory",
    "repro.sanitize.runner",
    "repro.analysis.diagnostics",
    "repro.analysis.logic_analyzer",
    "repro.analysis.timing_check",
    "repro.core.reliability",
    "repro.core.storage",
    "repro.ecc",
    "repro.ecc.bch",
    "repro.ecc.hamming",
    "repro.config.io",
    "repro.config.overrides",
    "repro.host.trace",
    "repro.host.workload",
    "repro.obs.chrome",
    "repro.core.opir.serialize",
)

# The imports of benchmarks/e2e/workloads.py, then one unsanitized TLM
# stack behind the queue-depth engine and one waveform stack behind the
# fio front end, then a short run on each.
STARTUP_PROBE = """
import json, sys
from repro.baselines import AsyncHwController
from repro.config import (FtlSpec, GeometrySpec, StackSpec, build_controllers,
                          build_stack, canonical_json, stack_profile)
from repro.faults.power import apply_power_cut, restore_media, snapshot_media
from repro.ftl import PageMappedFtl
from repro.ftl.spor import mount_sharded
from repro.host import (FioJob, HostInterface, ScaleCommand, ScaleEngine,
                        ScaleJob, run_fio, run_scale_workload)
from repro.host.hic import HostOpcode
from repro.onfi import NVDDR2_200
from repro.sim import Simulator

tlm_sim = Simulator()
_, tlm_ftl = build_stack(tlm_sim, StackSpec(
    channels=2, luns_per_channel=2, fidelity="tlm", ftl=FtlSpec()))
engine = ScaleEngine(tlm_sim, tlm_ftl, queue_depth=4)

wave_sim = Simulator()
wave_stack = StackSpec(channels=1, luns_per_channel=2, fidelity="waveform",
                       ftl=FtlSpec(prefill_pages=16))
(controller,) = build_controllers(wave_sim, wave_stack)
ftl = PageMappedFtl(wave_sim, controller, wave_stack.ftl.to_ftl_config())
ftl.prefill(wave_stack.ftl.prefill_pages)
hic = HostInterface(wave_sim, ftl, iodepth=4)

ready = sorted(name for name in sys.modules if name.startswith("repro"))
run_scale_workload(tlm_sim, engine, ScaleJob(
    pattern="sequential", opcode=HostOpcode.WRITE, io_count=16, seed=7))
run_fio(wave_sim, hic, FioJob(pattern="sequential", io_count=16, iodepth=4,
                              seed=7))
after = sorted(name for name in sys.modules if name.startswith("repro"))
print(json.dumps({"ready": ready, "run": sorted(set(after) - set(ready))}))
"""


def _probe(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=SRC, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_an_unsanitized_benchmark_stack_loads_only_what_it_uses():
    modules = json.loads(_probe(STARTUP_PROBE))
    loaded = sorted(set(modules["ready"]) & set(UNUSED_AT_STARTUP))
    assert loaded == []
    # The op library is its handles and the poll loop: no per-op modules.
    op_modules = {name for name in modules["ready"]
                  if name.startswith("repro.core.ops")}
    assert op_modules <= {"repro.core.ops", "repro.core.ops.base",
                          "repro.core.ops.library"}
    # The op-program builders load with the first op a run submits, and
    # nothing else does.
    assert modules["run"] == ["repro.core.opir.programs"]


def test_importing_the_spec_package_builds_nothing():
    code = ("import sys, repro.config\n"
            "print('repro.core.controller' in sys.modules)")
    assert _probe(code) == "False"
