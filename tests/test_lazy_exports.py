"""Every package re-exports its names one way: :func:`repro._lazy.lazy_exports`.

A package ``__init__`` names each public name once, with its home
submodule; nothing loads until a name is first read.  These tests pin
that the tables are complete and correct (each name is the home
submodule's object, ``dir()`` and ``import *`` see every name, an
unknown name is an ``AttributeError`` naming the package), and that no
``__init__`` goes back to importing its submodules eagerly.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent
INITS = sorted(ROOT.rglob("__init__.py"))


def _package(init: Path) -> str:
    return ".".join(init.parent.relative_to(ROOT.parent).parts)


def _homes(init: Path) -> dict:
    """The ``{name: submodule}`` table the ``__init__`` passes to
    ``lazy_exports``."""
    tree = ast.parse(init.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{init} does not call lazy_exports")


PACKAGES = {_package(init): init for init in INITS}


def test_every_package_is_covered():
    assert {"repro", "repro.analysis", "repro.cli", "repro.core.opir",
            "repro.sanitize"} <= set(PACKAGES)


@pytest.mark.parametrize("name", sorted(PACKAGES))
def test_each_name_is_its_home_submodules_object(name):
    package = importlib.import_module(name)
    homes = _homes(PACKAGES[name])
    assert package.__all__ == list(homes)
    for export, home in homes.items():
        module = importlib.import_module(f"{name}.{home}")
        assert getattr(package, export) is getattr(module, export), export


@pytest.mark.parametrize("name", sorted(PACKAGES))
def test_dir_and_star_import_see_every_name(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export)


@pytest.mark.parametrize("name", sorted(PACKAGES))
def test_an_unknown_name_is_an_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=repr(name)):
        package.no_such_export


@pytest.mark.parametrize("name", sorted(PACKAGES))
def test_no_export_is_shadowed_by_a_submodule(name):
    """Importing ``pkg.x`` binds ``pkg.x`` to the submodule, so an export
    named like a submodule would change meaning with import order."""
    submodules = {path.stem for path in PACKAGES[name].parent.glob("*.py")}
    submodules |= {path.parent.name
                   for path in PACKAGES[name].parent.glob("*/__init__.py")}
    assert not set(_homes(PACKAGES[name])) & submodules


@pytest.mark.parametrize("name", sorted(PACKAGES))
def test_no_init_imports_eagerly_or_rolls_its_own(name):
    """The AST guard: at module level an ``__init__`` imports only the
    helper, and defines no ``__getattr__`` of its own."""
    tree = ast.parse(PACKAGES[name].read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Import):
            raise AssertionError(f"{name}: import {node.names[0].name}")
        if isinstance(node, ast.ImportFrom):
            assert node.module in ("__future__", "repro._lazy"), (
                f"{name}: from {'.' * node.level}{node.module} import ...")
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            raise AssertionError(f"{name}: defines {node.name}")
