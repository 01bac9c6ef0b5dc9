"""The op-program registry: name -> program builder, with vendor overrides.

A *builder* is a plain function taking the operation's keyword
arguments (minus hooks — callables are routed to the executor as
hooks) and returning an :class:`~repro.core.opir.nodes.OpProgram`.
The builder runs at "compile time": it encodes addresses, unrolls
data-independent loops, and resolves geometry.

Vendor profiles override operations wholesale by carrying
``op_overrides`` pairs (:meth:`~repro.flash.vendors.VendorProfile.with_op_override`);
:func:`resolve_builder` consults the target vendor first — the paper's
new-package bring-up story (Section IV-C) as a table change.

A program is lowered (:func:`repro.core.opir.compile.lower`) once per
*shape*, and both tiers find the result through THE shape memo, which
lives on the controller's µFSM bank (``UfsmBank.lowered``, emptied by
``retarget``).  It is the one cache between an op's name and what runs:
a builder is called only when the memo misses.  A builder that declares
its shape (``op_program(..., plan=)``) is never built per call:
:func:`declared_shape` is the ``plan`` call plus one memo hit.  An
undeclared builder (``read_status``, a vendor override, anything with
control flow) is memoized per hashable kwargs, and built and lowered
afresh when they are unhashable; a pure wrapper is its callee's shape.
:func:`lowered_shape` is that one route: the waveform executor runs
what it returns, and the TLM template runner (:mod:`repro.core.fastops`)
reads templatability off the same steps and folds them onto the memo's
entry (``Lowered.template``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.opir.compile import Lowered, lower
from repro.core.opir.interp import run_lowered
from repro.core.opir.nodes import OpProgram, wrapper_callee
from repro.obs.instrument import traced_op

_BUILDERS: dict[str, Callable[..., OpProgram]] = {}
_programs_loaded = False


def op_program(name: str, plan: Optional[Callable[..., tuple]] = None):
    """Register a program builder under ``name`` (decorator).

    ``plan`` declares the builder's *shape*: a pure function of the same
    kwargs returning ``(shape_key, operands)`` — the hashable values the
    program's structure depends on, and the leaves that vary per call
    (address-latch byte tuples, DMA targets, inline payloads) in program
    order.  It lands on the builder as ``builder.plan``; both tiers run a
    declared op without building its program (:func:`declared_shape`).
    The builder must take its leaves from the same function, and
    ``plan`` must raise what the builder raises.
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
    if vendor is not None and vendor.op_overrides:
        builder = vendor.op_override(name)
        if builder is not None:
            return builder
    if not _programs_loaded:
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


#: Memo state of a declared wrapper whose callee declares no shape (an
#: undeclared vendor override): its declaration stands for the stock
#: callee only, so every call takes the undeclared route.
PINNED = object()
_SHAPE_MEMO_MAX = 512  # undeclared kwargs are open-ended: bound the memo


def _remember(bank, key: tuple, value):
    if len(bank.lowered) >= _SHAPE_MEMO_MAX:
        bank.lowered.clear()
    bank.lowered[key] = value
    return value


def declared_shape(bank, vendor, builder, kwargs: dict) -> Optional[tuple]:
    """``(Lowered, operands)`` of one call of a builder that declares its
    shape: the ``plan`` call and one hit in the bank's memo — no program
    built, no node visited.  None for a builder with no declaration (or
    a pinned wrapper): :func:`lowered_shape` takes its undeclared route.

    The first call of a shape builds the program, checks the declared
    operands against the leaves the lowering found, and lowers it; a pure
    wrapper around a declared callee *is* its callee's shape
    (``Lowered.alias``), run under the wrapper's own operands.
    """
    plan = getattr(builder, "plan", None)
    if plan is None:
        return None
    shape_key, operands = plan(**kwargs)
    lowered = bank.lowered.get((builder, shape_key))
    if lowered is None:
        program = builder(**kwargs)
        callee = wrapper_callee(program)
        if callee is not None and not hasattr(
                resolve_builder(callee[0], vendor), "plan"):
            lowered, leaves = PINNED, operands
        else:
            lowered, leaves = program_shape(bank, vendor, program)
        if leaves != operands:
            raise AssertionError(
                f"{program.name}: declared operands {operands!r} are not the "
                f"built program's leaves {leaves!r}")
        _remember(bank, (builder, shape_key), lowered)
    return None if lowered is PINNED else (lowered, operands)


def lowered_shape(bank, vendor, builder, kwargs: dict) -> tuple:
    """``(Lowered, operands)`` of one call: THE way both tiers find an
    op's shape.  A declared builder is its ``plan`` call and one memo hit
    (:func:`declared_shape`).  An undeclared builder (``read_status``, a
    vendor override, anything with control flow) is built and lowered
    once per kwargs, and afresh when the kwargs are unhashable.  A pure
    wrapper is its callee's shape (``Lowered.alias``), whether its
    declaration holds or is pinned."""
    shape = declared_shape(bank, vendor, builder, kwargs)
    if shape is None:
        try:
            key = (builder, tuple(sorted(kwargs.items())))
            shape = bank.lowered.get(key)
        except TypeError:
            return program_shape(bank, vendor, builder(**kwargs))
        if shape is None:
            shape = _remember(bank, key, program_shape(
                bank, vendor, builder(**kwargs)))
    return shape


def program_shape(bank, vendor, program: OpProgram) -> tuple:
    """``(Lowered, operands)`` of a built program: its lowering, or —
    for a pure wrapper — its callee's shape (``Lowered.alias``)."""
    callee = wrapper_callee(program)
    if callee is not None:
        lowered, operands = lowered_shape(
            bank, vendor, resolve_builder(callee[0], vendor), callee[1])
        if lowered.alias is None:  # a wrapper of a wrapper runs its CALL
            return Lowered((), program, alias=(
                traced_op(run_lowered, name=f"{callee[0]}_op"), lowered)
            ), operands
    return lower(bank, program)


def resolved_op(ctx, name: str, kwargs: dict) -> tuple:
    """``(run, lowered, operands)`` of one call of ``name`` — the vendor's
    override, the shape memo, a pure wrapper's callee — to be run as
    ``run(ctx, lowered, operands)``; the status poll loop decides once."""
    vendor = getattr(ctx, "vendor", None)
    lowered, operands = lowered_shape(
        ctx.ufsm, vendor, resolve_builder(name, vendor), kwargs)
    if lowered.alias is not None:
        run_callee, lowered = lowered.alias
        return run_callee, lowered, operands
    return run_lowered, lowered, operands


def _frozen(value: list) -> tuple:
    """A list kwarg as nested tuples, so the shape memo can key on it."""
    return tuple(_frozen(item) if type(item) is list else item
                 for item in value)


def run_op(ctx, name: str, **kwargs):
    """Resolve the program for ``name`` to its lowered shape and run it.

    Callable kwargs become hooks (reachable from programs via
    ``E("hook", (kwarg_name, ...))``); list kwargs become nested tuples;
    everything else goes to the builder as given.  This is the body of
    every ``X_op`` handle (:mod:`repro.core.ops.library`); it returns
    the generator the handle delegates to.
    """
    hooks = None
    for key, value in kwargs.items():
        if type(value) is list:
            kwargs[key] = _frozen(value)
        elif callable(value):
            if hooks is None:
                hooks = {}
            hooks[key] = value
    if hooks is not None:
        kwargs = {k: v for k, v in kwargs.items() if k not in hooks}
    run, lowered, operands = resolved_op(ctx, name, kwargs)
    if run is run_lowered:
        return run_lowered(ctx, lowered, operands, hooks)
    return run(ctx, lowered, operands)
