"""The TLM template runner: straight-line data-plane ops without the runtime.

The generic execution path is faithful to the paper's software stack:
every transaction crosses the modeled runtime (admission, scheduler
iterations, context switches, completion wakeups), every segment is on
the bus and every status poll is a full round trip — on both fidelity
tiers.  A scale-out throughput workload pays that per-op machinery
millions of times without reading anything from it.

For operations submitted through the FTL-facing convenience wrappers
(``controller.read_page`` and friends) there is therefore one other way
to run an op under TLM, and it is all that ``fidelity="tlm"`` adds.
A straight-line program — transactions, handle declarations, polls,
sleeps, a return — is lowered once per *shape* by
the lowering the waveform tier runs (:mod:`repro.core.opir.compile`,
memoized on the µFSM bank by
:func:`repro.core.opir.registry.lowered_shape`), and a
:class:`_Template` is the *fold* of those steps: per transaction, the
sum of its segment recipes, plus the closed-form software cost.
Running a template is one channel-mutex hold plus one ``Timeout`` per
transaction, and the transaction reaches the die as a *die
transaction*: one :meth:`~repro.flash.lun.Lun.apply_transaction` call
that composes the same LUN effect handlers the waveform tier uses, at
their exact logical nanoseconds, with each command latch resolved once
per shape (:func:`~repro.flash.lun.die_latch`).  Same handlers, same
order, same RNG draws — die state, payload bytes, status bits, LUN-side
fault hooks and array aging are identical to the waveform tier; only
the bus-segment *objects*, the per-latch table lookups and the
runtime's per-event machinery are gone.  Each poll site becomes a
ready-wait: sleep to :meth:`~repro.flash.lun.Lun.ready_at` — now, if
the polled bit is already set, else the die's next pending completion
— then one real STATUS round trip
(:meth:`~repro.flash.lun.Lun.status_round_trip`).  So a template sees
ready when the device would report it: a program chain's queue cycle
behind a CACHE PROGRAM still in the array is seen at once, and the
pair's next page loads during that tPROG, not after it.

This module touches a die through those two calls and ``ready_at``
only — the die's private state stays behind
``repro.flash`` — and the per-LUN :meth:`PlanExecutor._runner` is the
one generator frame a wake-up resumes: the channel is taken with the
non-generator ``Mutex.try_acquire`` (``acquire`` only when contended)
and fixed waits are ``Timeout`` commands built once per phase.

Submission finds the op's shape on the one route both tiers share,
:func:`~repro.core.opir.registry.lowered_shape`: a declared builder's
``plan`` call and one memo hit; a builder with no declaration (a vendor
override) is lowered and folded once per distinct kwargs; a pure
wrapper is its callee's shape, and runs its callee's template.

Admission is not here.  A planned op enters the software environment's
one admission queue with its plan (``Task.plan``), so templates and
generic ops on one die run one at a time, the lowest ``priority`` class
first and FIFO within a class; an admitted planned task comes back to
its LUN's runner (:meth:`PlanExecutor.admit`), and the runner finishes
it through the environment.  The environment's one pairing rule
(``SoftwareEnvironment._pair_up``) asks :meth:`PlanExecutor.pair_plan`
for a pair's template, or :meth:`PlanExecutor.head_plan` for a program
chain's first step; the runner then asks the environment's chain rule
(``SoftwareEnvironment.chain_next``) what confirms each pair a step
leaves loaded — the next step's CACHE PROGRAM or the chain's end — and
finishes each pair's tasks once their status is read.  On a vendor
that supports SUSPEND, a planned op that the environment's one
erase-preemption rule (``SoftwareEnvironment._urgent``) takes in — a
read, or a full-page PROGRAM with its plane partner as one paired
PROGRAM, of a lower class than the erase — cuts into an erasing
template: before the template's first transaction (never between the
plane latches of a multi-plane erase), or in the erase's busy wait,
which wakes for it and runs it inside a SUSPEND / RESUME pair, the
templates of the ``suspend`` / ``resume`` shapes; a generic op waits
the template erase out.  Data and status match the generic path; the
suspended ops' times match to within one poll period (the generic path
sees the op at its next poll round).

The decision is made once per submission, in
:meth:`PlanExecutor.plan`, and once per shape on its steps
(:func:`template_blockers`, which the static verifier reports as
OPV501).  Anything a template cannot reproduce takes the generic path,
which is the waveform tier's run, suspended ops included: programs with
control flow, callees, gang masks or hook kwargs, polls under a vendor
``read_status`` that is not the stock round trip, cache reads, and
every op submitted while something is watching bus segments that a
template never creates — a tracer, a channel fault hook, or (for ops
that move data) a DDR PHY trim outside the sampling eye.  Attach
observers before submitting the ops they should see; an op already
queued finishes as a template.  A watchdog or runtime sanitizers stand
the whole runner down (see ``BabolController``).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Generator, NamedTuple, Optional

from repro.core.opir.compile import (
    ADDR,
    DATA_OUT,
    HANDLE,
    POLL,
    RETURN,
    SLEEP,
    STEP_NAMES,
    TXN,
    UNFOLDED,
)
from repro.core.opir.registry import lowered_shape, resolve_builder
from repro.core.ops.base import ERASE_POLL, POLLS, poll_budget_exhausted
from repro.core.recovery import RecoverableOpError
from repro.core.softenv.base import Task, TaskState
from repro.flash.lun import (
    DIE_ADDR,
    DIE_CMD,
    DIE_DATA_IN,
    DIE_DATA_OUT,
    die_latch,
)
from repro.onfi.commands import CMD
from repro.onfi.signals import CommandLatch
from repro.sim import Timeout, Trigger, WaitTrigger

#: The latches that open (0x80) or close a PROGRAM's load: a template
#: whose last one is 0x80 leaves a page awaiting its confirm.
_PROGRAM_LATCHES = (CMD.PROGRAM_1ST, CMD.PROGRAM_2ND, CMD.MP_PROGRAM_2ND,
                    CMD.CACHE_PROGRAM_2ND)

# Template phase tags (first element of each phase tuple).
_PH_TXN = 0
_PH_HANDLE = 1
_PH_POLL = 2
_PH_SLEEP = 3


def _timeout(ns: int) -> Optional[Timeout]:
    """A ``Timeout`` built once, at fold time, and yielded by every run
    of the phase (the kernel reads ``.delay`` at the yield and keeps no
    reference); None for a zero-length wait, which is not yielded."""
    return Timeout(ns) if ns else None


class _Template(NamedTuple):
    """The fold of a straight-line shape's lowered steps.

    Phases are tuples tagged by ``_PH_*``.  A transaction phase is a
    *die transaction* — per segment, the die ops
    :meth:`repro.flash.lun.Lun.apply_transaction` takes, offsets
    relative to the transaction start — plus the ``Timeout`` of its
    channel hold and the batched channel-stats delta ``(segments,
    busy_ns, bytes_in, bytes_out, per-kind counts)``.  Like the steps it
    folds, a template bakes nothing that varies per call: die ops and
    handle phases index the op's *operands*.  DMA handles are minted
    per run, so concurrent runs never alias one.
    """

    software: Optional[Timeout]  # the closed-form software cost
    phases: tuple
    result: Optional[Callable]  # the Return, lowered to f(regs, handles)
    has_data: bool
    erases: bool  # waits on a suspendable erase: ops may cut in
    # Leaves a PROGRAM loaded, awaiting its confirm: a program chain's
    # step, after which the chain rule decides what confirms it.
    awaits_confirm: bool
    # The software cost charged after the first transaction, for a
    # program that starts by confirming the PROGRAM the op before it
    # loaded (``OpProgram.continues``): the die waits for that confirm,
    # so only the transaction's own software precedes it, as on the
    # generic runtime; ``software`` is then that share alone.
    late_software: Optional[Timeout]


class PlanExecutor:
    """Runs templatable op-IR programs without the generic runtime.

    It plans a submission (:meth:`plan`) and runs the planned tasks the
    environment's one admission hands back (:meth:`admit`), so ops on
    one die run one at a time, templates and generic ops alike, and ops
    on different dies contend only for the channel mutex.  A planned op
    the environment's erase-preemption rule takes in (a read, or a
    full-page PROGRAM, of a lower class) cuts into an erase the vendor
    can suspend: before its first latch, or by suspending it during its
    busy wait (:meth:`_erase_wait`).
    """

    def __init__(self, controller):
        self.controller = controller
        self.sim = controller.sim
        self.env = controller.env
        self.channel = controller.channel
        cpu = controller.cpu
        costs = controller.env.costs
        # The software cost is modeled — charged in closed form.
        self.pre_txn_ns = cpu.cycles_to_ns(costs.serialized_txn_cycles())
        self.wakeup_ns = cpu.cycles_to_ns(costs.wakeup)
        # A poll that saw "busy": one more round's runtime cost, then —
        # when the die is opaque — the minimum legal re-poll period.
        self._extra_round = _timeout(self.pre_txn_ns + self.wakeup_ns)
        timing = controller.config.vendor.timing
        self._repoll = Timeout(max(timing.t_poll_min_ns, 1))
        # An erase's nominal time, and the penalty a RESUME adds to it.
        self._t_bers = timing.t_bers_ns
        self._t_resume = timing.t_resume_ns
        # LUNs whose runner is finishing a task -> the task admission
        # handed it to run next in the same frame (None: none yet).
        self._following: dict[int, Optional[Task]] = {}
        self.ops_planned = 0
        self.ops_declined = 0
        # Planned ops a template ran: all but a planned op that a generic
        # erase ran inside its suspension, on the generic runtime.
        self.ops_templated = 0
        self.shapes_compiled = 0
        # ``(op name, finished pages)`` -> the memo key of a shape whose
        # operands the runner assembles for a pair of queued programs
        # (``_pair_shape``), once its first call checked them; whether
        # pairs start program chains (settled by the first pair); address
        # column cycles.
        self._pair_keys: dict[tuple, tuple] = {}
        self.chains: Optional[bool] = None
        self._col_cycles = controller.config.vendor.geometry.col_cycles

    # -- submission and admission ----------------------------------------

    def plan(self, op_name: str, lun_position: int,
             kwargs: dict) -> Optional[tuple]:
        """The ``(template, operands)`` a submission runs as (its
        ``Task.plan``), or None: it takes the generic path."""
        planned = self._plan(op_name, lun_position, kwargs)
        if planned is None:
            self.ops_declined += 1
        else:
            self.ops_planned += 1
        return planned

    def admit(self, task: Task) -> None:
        """Run a planned task the environment admitted: next in the frame
        of the LUN's runner when that runner is finishing the task
        before it (no kernel event), else on a new runner."""
        lun_position = task.lun_position
        if lun_position in self._following:
            self._following[lun_position] = task
        else:
            self.sim.spawn(self._runner(task),
                           name=f"tlm-plan-lun{lun_position}")

    def _plan(self, op_name: str, lun_position: int,
              kwargs: dict) -> Optional[tuple]:
        """``(template, operands)`` when this submission runs as a
        template, None when it needs the generic runtime."""
        channel = self.channel
        if self.sim._tracer is not None or channel._fault_hook is not None:
            return None  # bus-level observers need real segments
        for value in kwargs.values():
            if callable(value):
                return None  # hooks need the generic runtime
        controller = self.controller
        vendor = controller.config.vendor
        try:
            lowered, operands = lowered_shape(
                controller.ufsm, vendor, resolve_builder(op_name, vendor),
                kwargs)
        except AssertionError:
            raise  # a wrong declaration stops the shape's first submission
        except Exception:
            return None  # bad args: let the generic path report
        if lowered.alias is not None:  # a pure wrapper is its callee's shape
            lowered = lowered.alias[1]
        template = lowered.template
        if template is UNFOLDED:  # the shape's first submission
            template = lowered.template = self._fold(lowered)
        if template is None:
            return None
        if template.has_data and channel.interface.ddr \
                and not channel.phy.data_reliable(lun_position):
            return None  # the PHY corrupts bursts per segment
        return template, operands

    # -- template folding ----------------------------------------------

    def _fold(self, lowered) -> Optional[_Template]:
        """Fold a shape's lowered steps into a template: per transaction,
        the sum of its segment recipes.  None when
        :func:`template_blockers` finds a reason the steps have none."""
        bank = self.controller.ufsm
        vendor = self.controller.config.vendor
        if template_blockers(bank, vendor, lowered):
            return None
        self.shapes_compiled += 1
        packetizer = self.controller.packetizer
        phases = []
        result = None
        has_data = False
        erases = False
        awaits_confirm = False
        txns = 0
        polls = 0
        for step in lowered.steps:
            tag = step[0]
            if tag == TXN:
                phase = self._fold_txn(step[3])
                has_data = has_data or phase[2][3] or phase[2][2]
                for ops in phase[3]:
                    for op in ops:
                        if op[0] == DIE_CMD and op[2] in _PROGRAM_LATCHES:
                            awaits_confirm = op[2] == CMD.PROGRAM_1ST
                txns += 1
            elif tag == HANDLE:  # mint(operand, nbytes) on our Packetizer
                phase = (_PH_HANDLE, step[1], partial(step[2], packetizer),
                         step[3], step[4])
            elif tag == POLL:  # a ready-wait, then the stock round trip
                _, hold, stats, ((latch,), (burst,)) = _stock_status(
                    bank, vendor)
                what, mask = POLLS[step[2]]
                phase = (_PH_POLL, mask, step[3], step[5], what, hold,
                         stats[1], latch[1], burst[1], stats[4])
                erases = erases or (step[1] is ERASE_POLL
                                    and vendor.supports_suspend)
                polls += 1
            elif tag == SLEEP:
                phase = (_PH_SLEEP, Timeout(step[1]))
            else:  # RETURN
                result = step[1]
                break
            phases.append(phase)
        sw_ns = self.pre_txn_ns * (txns + polls) + self.wakeup_ns * polls
        first_ns = self.pre_txn_ns if lowered.program.continues else sw_ns
        return _Template(_timeout(first_ns), tuple(phases), result, has_data,
                         erases, awaits_confirm, _timeout(sw_ns - first_ns))

    @staticmethod
    def _fold_txn(recipes: tuple) -> tuple:
        hold = 0
        bytes_in = 0
        bytes_out = 0
        kinds: dict[str, int] = {}
        segs = []
        for _, kind, duration, actions, _, _, _, _ in recipes:
            kinds[kind.value] = kinds.get(kind.value, 0) + 1
            ops = []
            for action in actions:
                at = hold + action[0]
                if len(action) == 2:
                    if isinstance(action[1], CommandLatch):
                        # static legality, proved once for the shape
                        ops.append(die_latch(at, action[1].opcode))
                    continue  # IdleWait: pure time, no die effect
                _, what, a, name, column = action
                if what == ADDR:
                    ops.append((DIE_ADDR, at, a))
                elif what == DATA_OUT:
                    bytes_out += a
                    ops.append((DIE_DATA_OUT, at, a, name))
                else:
                    bytes_in += a
                    ops.append((DIE_DATA_IN, at, a, name, column))
            segs.append(tuple(ops))
            hold += duration
        stats = (len(recipes), hold, bytes_in, bytes_out,
                 tuple(kinds.items()))
        return (_PH_TXN, _timeout(hold), stats, tuple(segs))

    # -- the per-LUN runner --------------------------------------------

    def _runner(self, task: Task, inside: Optional[tuple] = None
                ) -> Generator:
        """Run ``task`` and the planned tasks admitted after it on its
        LUN in one generator frame: every wake-up resumes this frame and
        nothing under it (a contended channel, and an erase's busy wait,
        excepted).  The die is touched through its transaction-level
        entry only, and each task finishes through the environment's
        ``_finish_task``.  ``inside``: ``task`` is a planned task waiting
        for the LUN the caller's erase holds, ``(the erase's class, its
        ns left)``; take it in (a PROGRAM with its partner, as one paired
        PROGRAM), and each one the environment's rule still takes in
        (``_urgent``), then return."""
        lun_position = task.lun_position
        sim = self.sim
        env = self.env
        following = self._following
        channel = self.channel
        mutex = channel.mutex
        lun = channel.luns[lun_position]
        while True:
            if inside is not None:
                env._take_inside(task, True)
            task.state = TaskState.RUNNING
            template, operands = task.plan
            partner = task.partner
            self.ops_templated += 1 if partner is None else 2
            label = task.label
            # A program chain: the pair loaded, awaiting its confirm, and
            # the pair the chain rule took behind it.
            loaded = behind = None
            try:
                while True:  # a program chain: one template per step
                    erases = cut_in = template.erases
                    regs: dict = {}
                    handles: dict = {}
                    result = None
                    late = template.late_software
                    if template.software is not None:
                        yield template.software
                    for phase in template.phases:
                        tag = phase[0]
                        if tag == _PH_TXN:
                            _, hold, stats, segs = phase
                            if not mutex.try_acquire(label):
                                yield from mutex.acquire(label)
                            if cut_in:
                                # An op the erase would take in that
                                # arrives before its first latch runs
                                # first.  Only then: once a plane's erase
                                # is queued on the die, a read's or a
                                # program's confirm would take its row.
                                cut_in = False
                                ahead = (task.priority, self._t_bers)
                                urgent = env._urgent(lun_position, *ahead,
                                                     True)
                                if urgent is not None:
                                    channel.release()
                                    yield from self._runner(urgent, ahead)
                                    if not mutex.try_acquire(label):
                                        yield from mutex.acquire(label)
                            if erases:
                                nominal = sim.now + self._t_bers
                            lun.apply_transaction(segs, sim.now, operands,
                                                  handles)
                            chan_stats = channel.stats
                            chan_stats.segments += stats[0]
                            chan_stats.busy_ns += stats[1]
                            chan_stats.data_bytes_in += stats[2]
                            chan_stats.data_bytes_out += stats[3]
                            per_kind = chan_stats.per_kind
                            for key, count in stats[4]:
                                per_kind[key] += count
                            if hold is not None:
                                yield hold
                            channel.release()
                            if late is not None:
                                yield late
                                late = None
                        elif tag == _PH_POLL:
                            (_, mask, dest, max_polls, what, hold, busy,
                             cmd_off, sample_off, kinds) = phase
                            # The die knows when a bit of the mask can
                            # next be set (now, if one is); sleeping there
                            # first makes the common case exactly one
                            # status round trip.  (Under load the waveform
                            # tier's poll count converges to the same
                            # one-poll floor, because contention stretches
                            # each round trip past the remaining busy
                            # time.)
                            polls = 0
                            while True:
                                end = lun.ready_at(mask)
                                now = sim.now
                                if end is not None and end > now:
                                    if erases:
                                        nominal = yield from self._erase_wait(
                                            task, lun, mask, nominal)
                                    else:
                                        yield Timeout(end - now)
                                elif polls:
                                    # an opaque (hung) die: re-poll on
                                    # the minimum legal grid, keeping the
                                    # generic path's poll-budget escape
                                    yield self._repoll
                                if not mutex.try_acquire(label):
                                    yield from mutex.acquire(label)
                                now = sim.now
                                status = lun.status_round_trip(
                                    now + cmd_off, now + sample_off)
                                chan_stats = channel.stats
                                chan_stats.segments += 2
                                chan_stats.busy_ns += busy
                                chan_stats.data_bytes_out += 1
                                per_kind = chan_stats.per_kind
                                for key, count in kinds:
                                    per_kind[key] += count
                                yield hold
                                channel.release()
                                polls += 1
                                if status & mask:
                                    if dest:
                                        regs[dest] = status
                                    break
                                if polls >= max_polls:
                                    raise poll_budget_exhausted(what)
                                # Not ready: charge the extra round's
                                # runtime cost before looking again.
                                if self._extra_round is not None:
                                    yield self._extra_round
                        elif tag == _PH_HANDLE:
                            _, name, mint, nbytes, slot = phase
                            handles[name] = mint(operands[slot], nbytes)
                        else:  # _PH_SLEEP
                            yield phase[1]
                    if template.result is not None:
                        result = template.result(regs, handles)
                    if not template.awaits_confirm:
                        break
                    # A program chain's step left a pair loaded: the
                    # chain rule picks the pair behind it, before the
                    # tasks of the pair the step confirmed finish.
                    after = env.chain_next(lun_position, True)
                    if loaded is None:  # the first step loaded the pair
                        loaded = (operands[0:2], operands[2:4])
                    else:  # it confirmed task's pair, read its status
                        env._finish_task(partner, result[1])
                        env._finish_task(task, result[0])
                        task, partner = behind
                        self.ops_templated += 2
                        loaded = (task.plan[1], partner.plan[1])
                    behind = after
                    if behind is None:
                        template, operands = self._pair_shape(
                            "program_chain_end", (), loaded, pages=loaded)
                    else:
                        pages = (behind[0].plan[1], behind[1].plan[1])
                        template, operands = self._pair_shape(
                            "program_chain_step", pages, loaded,
                            pages=pages, finished=loaded)
            except RecoverableOpError as exc:
                if behind is not None:  # loaded behind the failed pair
                    # A RESET task settles both pairs and holds the die.
                    env.drop_behind(lun_position, behind, (task, partner),
                                    exc)
                    return
                result = None
                task.error = exc
                env.tasks_failed += 1
                if partner is not None:
                    partner.error = exc
                    env.tasks_failed += 1
            if partner is not None:
                passed = result
                result = None if passed is None else passed[0]
                env._finish_task(partner,
                                 None if passed is None else passed[1])
            if inside is not None:
                env._finish_task(task, result)
                task = env._urgent(lun_position, *inside, True)
                if task is None:
                    return
            else:
                following[lun_position] = None
                env._finish_task(task, result)
                task = following[lun_position]
                del following[lun_position]
                if task is None:
                    return

    def pair_plan(self, task: Task, other: Task) -> Optional[tuple]:
        """The plan of ``task``'s full-page PROGRAM run with ``other``'s
        as one ``paired_program`` (the environment's ``_pair_up`` asks),
        or None when the pair has no template.  Where the die chains
        programs, the first pair also settles ``chains``: whether a
        program chain's three shapes have templates too."""
        pages = (task.plan[1], other.plan[1])
        if self.chains is None:
            self.chains = self.env.chains_programs and None not in (
                self._pair_shape("program_chain_step", pages, (),
                                 pages=pages),
                self._pair_shape("program_chain_step", pages, pages,
                                 pages=pages, finished=pages),
                self._pair_shape("program_chain_end", (), pages,
                                 pages=pages))
        return self._pair_shape("paired_program", pages, pages, pages=pages)

    def head_plan(self, task: Task, other: Task) -> tuple:
        """The plan of a program chain's first step, which loads
        ``task``'s and ``other``'s pages; the runner runs the chain on."""
        pages = (task.plan[1], other.plan[1])
        return self._pair_shape("program_chain_step", pages, (), pages=pages)

    def _pair_shape(self, name: str, loads: tuple, reads: tuple,
                    **kwargs) -> Optional[tuple]:
        """``(template, operands)`` of the declared shape ``name`` that
        loads ``loads`` and reads the status of ``reads`` — page
        operands ``(dram_address, address_bytes)`` of queued full-page
        PROGRAMs — or None when the shape has no template.  The operands
        are assembled from the pages'
        (:func:`~repro.core.opir.programs.program_chain_leaves`); the
        template is the shape's memo entry.  The shape's first call
        finds it through the declared plan of ``kwargs`` (the builder's
        page arguments, as page operands), which checks the assembled
        operands against the built program."""
        from repro.core.opir.programs import program_chain_leaves

        leaves = program_chain_leaves(loads, reads, self._col_cycles)
        key = self._pair_keys.get((name, len(reads)))
        controller = self.controller
        lowered = controller.ufsm.lowered.get(key) if key is not None \
            else None
        if lowered is None:
            vendor = controller.config.vendor
            builder = resolve_builder(name, vendor)
            if not hasattr(builder, "plan"):
                return None
            decode = controller.codec.decode
            kwargs = {arg: tuple((decode(address_bytes), dram_address)
                                 for dram_address, address_bytes in value)
                      for arg, value in kwargs.items()}
            kwargs["codec"] = controller.codec
            lowered, operands = lowered_shape(controller.ufsm, vendor,
                                              builder, kwargs)
            if operands != leaves:
                raise AssertionError(
                    f"{name}: assembled operands {leaves!r} are not the "
                    f"declared {operands!r}")
            self._pair_keys[name, len(reads)] = (
                builder, builder.plan(**kwargs)[0])
        if lowered.template is UNFOLDED:
            lowered.template = self._fold(lowered)
        template = lowered.template
        return None if template is None else (template, leaves)

    # -- erase suspension ----------------------------------------------

    def _erase_wait(self, task: Task, lun, mask: int,
                    nominal: int) -> Generator:
        """Wait out the erase ``task`` runs on ``lun``, letting the ops
        the environment's rule takes in (``_urgent``) cut in.

        Sleeps until the die would show a bit of the poll's ``mask``
        (:meth:`~repro.flash.lun.Lun.ready_at`), or until the
        environment's ``submit`` queues a planned task the erase may
        take in.  Then, if the rule takes one with the erase ending at
        ``nominal`` (its own estimate of its end, not the die's jittered
        one), SUSPEND -> the tasks the rule takes -> RESUME, and wait
        again.  Returns the erase's nominal end once the die shows the
        bit (or never will: a hung die)."""
        sim = self.sim
        env = self.env
        waking = env._waking
        lun_position = task.lun_position
        holder = task.priority
        while True:
            end = lun.ready_at(mask)
            if end is None or end <= sim.now:
                return nominal
            urgent = env._urgent(lun_position, holder, nominal - sim.now,
                                 True)
            if urgent is None:
                wake = waking[lun_position] = Trigger(sim)
                timer = sim.schedule(end - sim.now, wake.fire)
                yield WaitTrigger(wake)
                waking.pop(lun_position, None)
                timer.cancel()
                continue
            if not lun.erasing_past(sim.now):
                # The die is busy with a plane's queue cycle (tDBSY), not
                # the erase.
                yield Timeout(end - sim.now)
                return nominal
            suspend, resume = self._suspension_phases()
            at = yield from self._transmit(lun, suspend, guarded=True)
            if at is None:  # the erase ends before a SUSPEND could land
                end = lun.ready_at(mask)
                if end is not None and end > sim.now:
                    yield Timeout(end - sim.now)
                return nominal
            left = nominal - at
            urgent = env._urgent(lun_position, holder, left, True)
            if urgent is not None:  # the first now, which may have changed
                yield from self._runner(urgent, (holder, left))
            at = yield from self._transmit(lun, resume)
            nominal = at + left + self._t_resume

    def _suspension_phases(self) -> list:
        """The SUSPEND and RESUME templates: the ``suspend`` / ``resume``
        shapes' memo entries, folded on first use like every template,
        so a data-mode change (which empties the memo) re-prices them."""
        bank = self.controller.ufsm
        vendor = self.controller.config.vendor
        templates = []
        for name in ("suspend", "resume"):
            lowered = lowered_shape(bank, vendor, resolve_builder(name, vendor),
                                    {})[0]
            if lowered.template is UNFOLDED:
                lowered.template = self._fold(lowered)
            templates.append(lowered.template)
        return templates

    def _transmit(self, lun, template: _Template, guarded: bool = False
                  ) -> Generator:
        """Run a SUSPEND or RESUME template the way the runner runs a
        template's transaction, after its software cost; returns the
        nanosecond it reached the die.  ``guarded``: only if the die is
        still erasing when the transaction ends (None when not: nothing
        is sent).  The runner inlines these steps rather than call this:
        a frame per transaction is a call per op."""
        sim = self.sim
        channel = self.channel
        mutex = channel.mutex
        _, hold, stats, segs = template.phases[0]
        if template.software is not None:
            yield template.software
        if not mutex.try_acquire("suspend"):
            yield from mutex.acquire("suspend")
        at = sim.now
        if guarded and not lun.erasing_past(at + stats[1]):
            channel.release()
            return None
        lun.apply_transaction(segs, at, (), {})
        chan_stats = channel.stats
        chan_stats.segments += stats[0]
        chan_stats.busy_ns += stats[1]
        per_kind = chan_stats.per_kind
        for key, count in stats[4]:
            per_kind[key] += count
        if hold is not None:
            yield hold
        channel.release()
        return at


# -- templatability: the one step check --------------------------------

#: Command latches that keep an otherwise templatable op on the generic
#: runtime, and why.  A cache read polls ARDY once per page: a template
#: sleeps to each busy window's end and polls once, where the runtime
#: polls on its round-trip grid and sees ready up to a round late, so
#: the template would end about a quarter early on the coroutine
#: runtime.  It is templated once templates poll on that grid.
_KEPT_GENERIC = dict.fromkeys(
    (CMD.READ_CACHE_SEQ, CMD.READ_CACHE_END),
    "a cache read polls once per page; a template would end it early "
    "(its polls skip the runtime's round-trip grid)")


def template_blockers(bank, vendor, lowered) -> list[tuple[str, str]]:
    """``(step path, reason)`` for each reason ``lowered``'s steps have
    no template; empty when the runner folds them.  The runner decides
    on it once per shape (:meth:`PlanExecutor._fold`) and the static
    verifier reports it as OPV501, so both read one check off the
    lowering the waveform tier runs.

    A template is straight-line: transactions, handle declarations,
    polls, fixed sleeps and a return, against the op's one die, with
    each poll a round trip of the stock ``read_status`` shape."""
    blockers = []
    polls = False
    for index, step in enumerate(lowered.steps):
        tag = step[0]
        where = f"steps[{index}]"
        if tag == TXN:
            for seg, recipe in enumerate(step[3]):
                if recipe[5] is not None or recipe[7]:
                    blockers.append((
                        f"{where}.recipes[{seg}]",
                        "segment re-targets dies (chip_mask / Chip "
                        "Control); a template drives the op's one die"))
                for _, action in recipe.prototype.actions:
                    reason = isinstance(action, CommandLatch) \
                        and _KEPT_GENERIC.get(action.opcode)
                    if reason:
                        blockers.append((f"{where}.recipes[{seg}]", reason))
        elif tag == POLL:
            polls = True
            if step[4] is not None:
                blockers.append((where, "gang-masked poll needs the "
                                        "generic runtime"))
        elif tag == SLEEP:
            if type(step[1]) is not int:
                blockers.append((where, "sleep length is computed at run "
                                        "time"))
        elif tag == RETURN:
            break
        elif tag != HANDLE:
            blockers.append((where, f"a {STEP_NAMES[tag]} step has no "
                                    f"template (templates are "
                                    f"straight-line)"))
    if polls and _stock_status(bank, vendor) is None:
        blockers.append(("read_status", "the vendor's read_status is not "
                                        "the stock round trip (one 70h "
                                        "latch, one 1-byte burst) a "
                                        "template's poll runs"))
    return blockers


def _stock_status(bank, vendor) -> Optional[tuple]:
    """The vendor's ``read_status``, folded, when it is the stock round
    trip: one READ STATUS (70h) latch and one 1-byte burst on the op's
    die — all :meth:`~repro.flash.lun.Lun.status_round_trip` models.
    None when an override makes it anything else."""
    steps = lowered_shape(bank, vendor,
                          resolve_builder("read_status", vendor),
                          {"chip_mask": None})[0].steps
    if [step[0] for step in steps] != [HANDLE, TXN, RETURN]:
        return None
    recipes = steps[1][3]
    status = PlanExecutor._fold_txn(recipes)
    if any(recipe[5] is not None or recipe[7] for recipe in recipes) or [
            [(op[0], op[2]) for op in ops] for ops in status[3]] != [
            [(DIE_CMD, CMD.READ_STATUS)], [(DIE_DATA_OUT, 1)]]:
        return None
    return status
