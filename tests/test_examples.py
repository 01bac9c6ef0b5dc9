"""The examples are the op library's public callers: each must run.

Every script in ``examples/`` runs in a fresh interpreter with ``src``
on its path, the way the README tells a reader to run it, and must exit
0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
EXAMPLES = SRC.parent / "examples"


@pytest.mark.parametrize("script", [
    path.name for path in sorted(EXAMPLES.glob("*.py"))])
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(EXAMPLES / script)],
                          capture_output=True, text=True, env=env,
                          cwd=SRC.parent, timeout=120)
    assert done.returncode == 0, done.stderr
