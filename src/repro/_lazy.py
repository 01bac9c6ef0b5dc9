"""Lazy package exports: the one way a ``repro`` package re-exports names.

A package ``__init__`` names each public name once, with the submodule
that defines it::

    from repro._lazy import lazy_exports

    __getattr__, __dir__ = lazy_exports(globals(), {
        "Channel": "channel",
        "ChannelPhy": "phy",
    })

``__all__`` is the dict's keys.  The first access to a name imports its
home submodule and caches the value in the package globals (PEP 562), so
importing a package loads none of its submodules, and a run loads only
the modules whose names it touches.
"""

from __future__ import annotations

import importlib
from typing import Callable


def lazy_exports(namespace: dict, homes: dict[str, str]) -> tuple[Callable, Callable]:
    """Set ``namespace["__all__"]`` and return the package's
    ``(__getattr__, __dir__)``; ``homes`` maps each public name to its
    submodule, relative to the package (``"core.controller"`` from
    ``repro``)."""
    package = namespace["__name__"]
    namespace["__all__"] = list(homes)

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{home}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(homes))

    return __getattr__, __dir__
