"""The op-program registry: name -> program builder, with vendor overrides.

A *builder* is a plain function taking the operation's keyword
arguments (minus hooks — callables are routed to the interpreter as
hooks) and returning an :class:`~repro.core.opir.nodes.OpProgram`.
The builder runs at "compile time": it encodes addresses, unrolls
data-independent loops, and resolves geometry, so the interpreter's
hot path touches no codec.

Vendor profiles override operations wholesale by carrying
``op_overrides`` pairs (:meth:`~repro.flash.vendors.VendorProfile.with_op_override`);
:func:`resolve_builder` consults the target vendor first — the paper's
new-package bring-up story (Section IV-C) as a table change.

Built programs are memoized per (builder, kwargs) when the kwargs are
hashable, so a repeated (address, DRAM target) pair replays the cached
node tree.  An FTL rarely repeats one; the TLM template runner
(:mod:`repro.core.fastops`) therefore does not build per submission at
all for a builder that declares its *shape* (``op_program(..., plan=)``)
— it builds once per shape, and only an undeclared builder (a vendor
override) is built per submission there.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.opir.interp import run_program
from repro.core.opir.nodes import OpProgram

_BUILDERS: dict[str, Callable[..., OpProgram]] = {}
_PROGRAM_CACHE: dict = {}
_PROGRAM_CACHE_MAX = 512
# (op name, id(vendor)) -> (vendor, builder): memoized override
# resolution so the hot dispatch path never rescans ``op_overrides``.
# The vendor is kept in the value both to pin its id against reuse and
# to validate the hit (`is` check) before trusting it.
_RESOLVE_CACHE: dict = {}
_RESOLVE_CACHE_MAX = 256
_programs_loaded = False

#: Hot-path cache counters — how often the dispatch path reused a
#: resolved builder / a built program.  ``repro perf`` records their
#: movement per sweep cell (``cells.*.host.opir_cache``).
CACHE_STATS = {
    "resolve_hits": 0,
    "resolve_misses": 0,
    "program_hits": 0,
    "program_misses": 0,
}


def op_program(name: str, plan: Optional[Callable[..., tuple]] = None):
    """Register a program builder under ``name`` (decorator).

    ``plan`` declares the builder's *shape*: a pure function of the same
    kwargs returning ``(shape_key, operands)`` — the hashable values the
    program's structure depends on, and the leaves that vary per call
    (address-latch byte tuples, DMA targets, inline payloads) in program
    order.  It lands on the builder as ``builder.plan``; the TLM template
    runner (:mod:`repro.core.fastops`) submits a declared op without
    building its program.  The builder must take its leaves from the
    same function, and ``plan`` must raise what the builder raises.
    """

    def register(builder: Callable[..., OpProgram]) -> Callable[..., OpProgram]:
        builder.program_name = name
        if plan is not None:
            builder.plan = plan
        _BUILDERS[name] = builder
        return builder

    return register


def _ensure_programs() -> None:
    """Import the built-in program library exactly once (lazy: the
    programs module must not be imported while ``repro.core.ops`` is
    still initializing)."""
    global _programs_loaded
    if not _programs_loaded:
        import repro.core.opir.programs  # noqa: F401  (registers builders)

        _programs_loaded = True


def list_ops() -> list[str]:
    """Names of every registered built-in operation program."""
    _ensure_programs()
    return sorted(_BUILDERS)


def resolve_builder(name: str, vendor=None) -> Callable[..., OpProgram]:
    """The builder for ``name``, honouring ``vendor.op_overrides``."""
    if vendor is not None:
        for key, builder in getattr(vendor, "op_overrides", ()) or ():
            if key == name:
                return builder
    _ensure_programs()
    try:
        return _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"no operation program named {name!r}; known: {list_ops()}"
        ) from None


def build_program(name: str, vendor=None, **kwargs) -> OpProgram:
    """Build (uncached) the program for ``name`` with ``kwargs``."""
    return resolve_builder(name, vendor)(**kwargs)


def _cached_program(builder: Callable[..., OpProgram], kwargs: dict) -> OpProgram:
    try:
        key = (builder, tuple(sorted(kwargs.items())))
        program = _PROGRAM_CACHE.get(key)
    except TypeError:  # unhashable kwarg (lists of pages, ...): build fresh
        CACHE_STATS["program_misses"] += 1
        return builder(**kwargs)
    if program is None:
        CACHE_STATS["program_misses"] += 1
        program = builder(**kwargs)
        if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_MAX:
            _PROGRAM_CACHE.clear()
        _PROGRAM_CACHE[key] = program
    else:
        CACHE_STATS["program_hits"] += 1
    return program


def _resolved_builder(name: str, vendor) -> Callable[..., OpProgram]:
    """``resolve_builder`` behind a (name, vendor-identity) cache."""
    key = (name, id(vendor))
    hit = _RESOLVE_CACHE.get(key)
    if hit is not None and hit[0] is vendor:
        CACHE_STATS["resolve_hits"] += 1
        return hit[1]
    CACHE_STATS["resolve_misses"] += 1
    builder = resolve_builder(name, vendor)
    if len(_RESOLVE_CACHE) >= _RESOLVE_CACHE_MAX:
        _RESOLVE_CACHE.clear()
    _RESOLVE_CACHE[key] = (vendor, builder)
    return builder


def cache_stats() -> dict:
    """Snapshot of the dispatch-path cache counters (sorted keys)."""
    return dict(sorted(CACHE_STATS.items()))


def run_op(ctx, name: str, **kwargs):
    """Resolve, build, and interpret the program for ``name``.

    Callable kwargs become interpreter hooks (reachable from programs
    via ``E("hook", (kwarg_name, ...))``); everything else goes to the
    builder.  This is the body of every thin ``*_op`` wrapper.
    """
    hooks = None
    for value in kwargs.values():
        if callable(value):
            hooks = {k: v for k, v in kwargs.items() if callable(v)}
            kwargs = {k: v for k, v in kwargs.items() if k not in hooks}
            break
    builder = _resolved_builder(name, getattr(ctx, "vendor", None))
    program = _cached_program(builder, kwargs)
    result = yield from run_program(ctx, program, hooks=hooks)
    return result
