"""Host-clock attribution: fold a cProfile table into this repo's layers.

Every profiled function is a span whose self time (``tottime``) is
exclusive by construction, so folding self time by source path gives
per-layer shares that sum to 1.  A layer is a package (or a named group
of modules) of ``repro``; everything outside the repository — builtins,
numpy, the standard library — is ``pyrt``; the benchmark's own files are
``bench``.
"""

from __future__ import annotations

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
PACKAGE_DIR = REPO_ROOT / "src" / "repro"

#: Path prefixes under ``src/repro`` -> layer, most specific first.
_PREFIXES = (
    ("sim/", "sim"),
    ("bus/", "bus"),
    ("onfi/", "onfi"),
    ("flash/", "flash"),
    ("dram/", "dram"),
    ("core/softenv/", "core.softenv"),
    ("core/executor.py", "core.executor"),
    ("core/ufsm/", "core.ufsm"),
    ("core/backend.py", "core.backend"),
    ("core/opir/", "core.opir"),
    ("core/fastops.py", "core.fastops"),
    ("core/ops/", "core.ops"),
    ("core/", "core.ctrl"),
    ("ftl/persist.py", "ftl.persist"),
    ("ftl/spor.py", "ftl.spor"),
    ("ftl/", "ftl"),
    ("host/", "host"),
    ("config/", "config"),
    ("baselines/", "baselines"),
    ("analysis/", "repro.other"),
    ("obs/", "repro.other"),
    ("faults/", "repro.other"),
    ("sanitize/", "repro.other"),
    ("ecc/", "repro.other"),
    ("calibration/", "repro.other"),
    ("cli/", "repro.other"),
    ("__init__.py", "repro.other"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer in _PREFIXES)) + (
    "pyrt", "bench")

#: Where self time of a ``repro`` file no prefix names would land; the
#: runner fails when it holds more than 1 % of the profile.
UNMAPPED = "unmapped"


def layer_of(filename: str) -> str:
    """The layer a profiled code object's file belongs to."""
    path = Path(filename)
    if PACKAGE_DIR in path.parents:
        relative = path.relative_to(PACKAGE_DIR).as_posix()
        for prefix, layer in _PREFIXES:
            if relative.startswith(prefix):
                return layer
        return UNMAPPED
    if BENCH_DIR in path.parents:
        return "bench"
    return "pyrt"


def fold(profile) -> tuple[dict, list]:
    """Fold a finished ``cProfile.Profile`` by layer.

    Returns ``(layers, functions)``: ``layers[name]`` is
    ``{"calls", "host_self_s"}``; ``functions`` is the raw per-function
    table ``[file, line, name, calls, self_s]`` sorted by self time.
    """
    layers = {name: {"calls": 0, "host_self_s": 0.0}
              for name in LAYERS + (UNMAPPED,)}
    functions = []
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):       # a builtin: "<built-in method ...>"
            filename, line, name = "~", 0, code
        else:
            filename, line, name = (code.co_filename, code.co_firstlineno,
                                    code.co_name)
        cell = layers[layer_of(filename)]
        cell["calls"] += entry.callcount
        cell["host_self_s"] += entry.inlinetime
        functions.append([filename, line, name, entry.callcount,
                          entry.inlinetime])
    functions.sort(key=lambda row: (-row[4], row[0], row[1], row[2]))
    return layers, functions
