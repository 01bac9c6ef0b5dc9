"""One handle per registered op program, and nothing else.

``repro.core.ops`` exports an ``X_op`` handle for each ``@op_program``
in the registry: same name, a generator function underneath its span
decorator, carrying the program's name.
"""

import inspect

import repro.core.ops as ops
from repro.core.opir.registry import list_ops


def _handles() -> list:
    return [getattr(ops, name) for name in dir(ops) if name.endswith("_op")]


def test_every_registered_program_has_one_handle():
    handles = _handles()
    names = [handle.program_name for handle in handles]
    assert len(names) == len(set(names))
    assert set(names) == set(list_ops())


def test_a_handle_is_named_after_its_program_and_runs_lazily():
    for handle in _handles():
        assert handle.__name__ == f"{handle.program_name}_op"
        assert inspect.isgeneratorfunction(inspect.unwrap(handle))
