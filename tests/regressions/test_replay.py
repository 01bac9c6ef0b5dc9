"""Replay every minimized failure kept in this directory.

Each ``*.json`` file here is an experiment spec that once failed; its
``description`` says how.  A replay builds the spec's stack, runs its
workload to the end, and requires every command to complete.
"""

from pathlib import Path

import pytest

from repro.config import build_experiment, load_spec

SPECS = sorted(Path(__file__).parent.glob("*.json"))


@pytest.mark.parametrize("path", SPECS, ids=[p.stem for p in SPECS])
def test_regression_spec_replays_clean(path):
    spec = load_spec(str(path))
    built = build_experiment(spec, auto_dram=True)
    result = built.run_workload()
    assert result.commands == spec.workload.io_count
    assert built.ftl.mapped_count == built.ftl.logical_pages
    for shard in built.ftl.shards:
        shard.map.check_invariants()
        shard.check_invariants()
