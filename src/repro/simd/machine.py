"""The meta-state SIMD machine.

"Once a program has been converted into the form of a meta-state
automaton, it is no longer necessary for each PE to fetch and decode
instructions, nor is it necessary that each PE have a copy of the
program in local memory. Only the SIMD control unit needs to have a
copy of the meta-state automaton; PEs merely hold data." (section 1.3)

The machine therefore pays *no* fetch/decode cost. Per emitted node it
executes the CSI-scheduled guarded body (enable mask = "my pc bit is in
the guard"), applies each member's terminator under its own guard, and
dispatches on the hash-encoded ``globalor`` aggregate (sections
3.2.2-3.2.4). Spawn/halt follow section 3.2.5. PE state is vectorized
with numpy across the PE axis.

``pc`` values: a block id while live, ``PC_DONE`` after ``Ret``,
``PC_IDLE`` when in the free pool. Only live pcs contribute to the
aggregate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.codegen.emit import SimdProgram
from repro.codegen import plan as planmod
from repro.errors import MachineError
from repro.hashenc.search import key_of_members
from repro.ir.block import CondBr, Fall, Halt, Return, SpawnT
from repro.ir.instr import DEFAULT_COSTS, CostModel
from repro.simd import shards as shardsmod
from repro.simd import vecops

PC_DONE = -2
PC_IDLE = -1


@dataclass
class SimdResult:
    """Outcome + accounting of a meta-state SIMD run.

    ``cycles`` is control-unit time; ``body_cycles`` of it executed
    user operations, ``transition_cycles`` paid for ``globalor`` +
    hash dispatch (the only control overhead MSC retains).
    ``enabled_pe_cycles / (npes * cycles)`` is PE utilization;
    ``meta_transitions`` counts automaton steps, and ``node_visits``
    the per-node execution counts.

    ``backend_used`` names the executor that actually ran: it equals
    the requested backend unless the machine had to fall back (trace
    enabled, no C toolchain, no compiled kernels, or a foreign cost
    model — each downgrade also emits a :class:`RuntimeWarning`).
    ``shards`` is the shard count the run used: always 1 for
    ``interp``, and 1 when the small-node guard demoted a sharded
    request (:func:`repro.simd.shards.inline_threshold`).
    """

    npes: int
    poly: np.ndarray
    mono: np.ndarray
    returns: np.ndarray
    pc: np.ndarray
    cycles: int
    body_cycles: int
    transition_cycles: int
    enabled_pe_cycles: int
    meta_transitions: int
    node_visits: dict[frozenset, int]
    backend_used: str = "interp"
    shards: int = 1
    trace: dict | None = None  # per-PE [(block id, meta step)] when enabled

    @property
    def utilization(self) -> float:
        if self.cycles <= 0 or self.npes == 0:
            return 1.0
        return self.enabled_pe_cycles / (self.npes * self.cycles)

    @property
    def overhead_fraction(self) -> float:
        """Share of control-unit time spent on meta-state transitions."""
        if self.cycles <= 0:
            return 0.0
        return self.transition_cycles / self.cycles


#: The selectable node-body executors, fastest first — all three
#: produce bit-identical :class:`SimdResult`\s. ``native`` runs
#: C kernels (:mod:`repro.codegen.native`) loaded through ``ctypes``;
#: ``native`` and ``kernels`` also shard the PE axis across a worker
#: pool when given ``shards > 1`` (:mod:`repro.simd.shards`).
BACKENDS = ("native", "kernels", "interp")

#: Where a backend falls back when it cannot run a program here (see
#: :meth:`SimdMachine._unavailable`); ``interp``, the oracle, always
#: runs.
FALLBACK = {"native": "kernels", "kernels": "interp"}


class SimdMachine:
    """A MasPar-like SIMD machine executing a
    :class:`~repro.codegen.emit.SimdProgram`.

    Parameters
    ----------
    npes:
        Number of processing elements.
    costs:
        Cycle-cost model (``globalor_cost`` and ``dispatch_cost`` price
        the transitions).
    stack_depth / rstack_depth:
        Operand and return-selector stack sizes per PE.
    backend:
        Which executor runs the node bodies — all three produce
        bit-identical :class:`SimdResult`\\ s:

        - ``"native"``: C generated by :mod:`repro.codegen.native`,
          compiled once per program into a content-addressed shared
          library that ``ctypes`` loads (:mod:`repro.simd.nativert`),
          with the GIL released in C. A serial run makes one C call:
          the meta-step loop itself runs in C (``msc_run``), when the
          program allows it
          (:attr:`~repro.codegen.native.NativeProgram.loop`). A
          sharded run, or a program the loop cannot hold, steps in
          Python and calls one C function per node, with its arguments
          bound once per run and per shard. Falls back to
          ``"kernels"`` with a :class:`RuntimeWarning` when unavailable
          (no C compiler, ``REPRO_NATIVE_DISABLE=1``, build failure,
          lazy conversion, or a foreign cost model); the fallback
          cascades through the ``"kernels"`` check below.
        - ``"kernels"`` (default): fused per-node functions generated by
          :mod:`repro.codegen.kernels` — one compiled kernel executes a
          whole node. The loop reads them from ``prog.kernels().fns``,
          which an eager program fills at generation and a lazy one
          (:mod:`repro.codegen.lazy`) as its nodes are discovered.
          Falls back to ``"interp"`` with a :class:`RuntimeWarning`
          when the kernels fold a cost model other than the machine's.
        - ``"interp"``: the interpretive executor over
          :func:`repro.simd.vecops.exec_instr` — the differential
          oracle, and the walk for any node that has no kernel.

        Tracing runs ``"native"`` and ``"kernels"`` requests on
        ``"interp"`` (they record no per-PE trace), also with a
        warning; :attr:`SimdResult.backend_used` records what actually
        ran.
    shards:
        PE-axis shard count for ``"kernels"`` and ``"native"``: every
        shardable node runs on that many contiguous slices of the PE
        axis on a worker pool (:mod:`repro.simd.shards`). Default
        ``None`` means ``$REPRO_SHARDS``, else 1 (the serial path); the
        count is clamped to ``npes``. ``"interp"`` runs one shard (an
        explicit ``shards > 1`` warns).
    """

    BACKENDS = BACKENDS

    def __init__(self, npes: int, costs: CostModel = DEFAULT_COSTS,
                 stack_depth: int = 64, rstack_depth: int = 256,
                 trace: bool = False, backend: str = "kernels",
                 shards: int | None = None):
        if npes < 1:
            raise MachineError("need at least one PE")
        if backend not in BACKENDS:
            raise MachineError(
                f"unknown backend {backend!r}; expected one of "
                f"{', '.join(BACKENDS)}"
            )
        self.npes = npes
        self.costs = costs
        self.stack_depth = stack_depth
        self.rstack_depth = rstack_depth
        self.trace_enabled = trace
        self.backend = backend
        self.nshards = shardsmod.resolve_shard_count(shards, npes)
        if backend == "interp":
            if shards is not None and shards > 1:
                warnings.warn(
                    f"shards={shards} has no effect with the {backend!r} "
                    f"backend, which runs one shard", RuntimeWarning,
                    stacklevel=2)
            self.nshards = 1

    # ------------------------------------------------------------------
    def run(self, prog: SimdProgram, active: int | None = None,
            max_steps: int = 1_000_000,
            plan: "planmod.ProgramPlan | None" = None,
            miss_handler=None) -> SimdResult:
        """Run ``prog`` with ``active`` PEs starting in the start meta
        state (default: all) and the rest idle in the free pool.

        ``plan`` supplies a precompiled
        :class:`~repro.codegen.plan.ProgramPlan` for ``prog`` (e.g. the
        one the stage pipeline produced and cached), whose shardable
        flags and ``globalor`` bit weights the Python step loop reads;
        when omitted the program's own cached plan is used — either
        way nothing is rebuilt per run. The ``interp`` backend and the
        C loop of a serial ``native`` run ignore it.

        ``miss_handler`` enables lazy conversion: a
        :class:`~repro.codegen.lazy.LazyProgram` whose ``fetch(state,
        want_kernel)`` is called before every meta step to expand,
        compile, and register the state into ``prog.nodes`` /
        ``plan.nodes`` / ``prog.kernels()`` in place (and to enforce the
        resident-node bound). ``prog`` and ``plan`` must then be the
        handler's own partial ``program`` and incremental plan."""
        if active is None:
            active = self.npes
        if not (1 <= active <= self.npes):
            raise MachineError(f"active={active} out of range 1..{self.npes}")

        backend, fns = self._resolve(prog, miss_handler)
        nshards = self.nshards if fns is not None else 1
        if nshards > 1 and \
                -(-self.npes // nshards) < shardsmod.inline_threshold():
            # Small-node guard: each shard would hold fewer lanes than
            # the pool handoff is worth, so run serially (the label
            # stays; the result reports shards=1).
            nshards = 1
        replayed: tuple = (shardsmod.ShardError,)
        if backend == "native":
            from repro.simd import nativert

            replayed += (nativert.NativeKernelError,)
        try:
            if backend == "native" and nshards == 1 and prog.native().loop:
                return self._run_native(prog, active, max_steps)
            return self._loop(prog, active, max_steps, plan, backend, fns,
                              nshards, miss_handler)
        except replayed as err:
            # Exact in-order error reconstruction: a shard worker or a
            # C kernel (which reports only an error code) failed. The
            # run is deterministic and failing runs discard machine
            # state, so replaying serially on the kernels surfaces
            # exactly the serial MachineError — message and position
            # across shard boundaries included.
            self._loop(prog, active, max_steps, plan, "kernels",
                       prog.kernels().fns, 1, miss_handler)
            cause = (err.errors[0] if isinstance(err, shardsmod.ShardError)
                     else err)
            raise MachineError(str(cause)) from err  # replay passed

    def _resolve(self, prog: SimdProgram, miss_handler=None):
        """The backend that will actually run ``prog`` and its per-node
        callables (``None`` for ``interp``) — warning on every downgrade
        along :data:`FALLBACK`, so a fallback can never mislabel a
        run."""
        backend = self.backend
        if self.trace_enabled and backend in FALLBACK:
            warnings.warn(
                f"backend {backend!r} records no per-PE trace; running "
                f"'interp' instead", RuntimeWarning, stacklevel=3)
            return "interp", None
        while backend in FALLBACK:
            reason = self._unavailable(backend, prog, miss_handler)
            if reason is None and backend == "kernels":
                return backend, prog.kernels().fns
            if reason is None:
                from repro.simd import nativert

                # Looked up on the module per run, so a caller can wrap
                # the loader.
                try:
                    return backend, nativert.load_native(prog.native())
                except nativert.NativeBuildError as err:
                    reason = f"native kernel build failed: {err}"
            warnings.warn(
                f"{reason}; running {FALLBACK[backend]!r} instead",
                RuntimeWarning, stacklevel=3)
            backend = FALLBACK[backend]
        return backend, None

    def _unavailable(self, backend: str, prog: SimdProgram,
                     miss_handler=None) -> str | None:
        """Why ``backend`` (``"native"`` or ``"kernels"``) cannot run
        ``prog`` on this machine, or ``None`` when it can."""
        if backend == "native":
            if miss_handler is not None:
                # Documented per-node fallback: lazy conversion
                # discovers nodes mid-run, and invoking the C compiler
                # per discovered node would cost far more than it
                # saves, so lazy runs use the NumPy kernel JIT.
                return ("lazy conversion compiles nodes as they are "
                        "discovered, which the native backend does not "
                        "support")
            from repro.simd import nativert

            reason = nativert.unavailable_reason()
            if reason is not None:
                return reason
            compiled, what = prog.native(), "native kernels"
        else:
            compiled, what = prog.kernels(), "kernels"
        if compiled.costs != self.costs:
            return (f"{what} fold a different cost model into their "
                    f"constants than this machine's")
        return None

    def _initial_state(self, prog: SimdProgram,
                       active: int) -> tuple[vecops.PeState, np.ndarray]:
        """Fresh PE state and ``pc``. Return-selector rows are allocated
        only when the program pushes a selector (256 rows are 64 MB at
        32,768 PEs). The operand stack keeps ``stack_depth`` rows:
        freeing that 16 MB array is what raises glibc's dynamic mmap
        threshold, and with a peak-sized stack the 256 KB temporaries of
        a wide kernel fault in fresh pages on every request."""
        st = vecops.PeState(
            self.npes, prog.n_poly, prog.n_mono, self.stack_depth,
            self.rstack_depth if prog.entry_depths.rpush else 0)
        pc = np.full(self.npes, PC_IDLE, dtype=np.int64)
        (start_bid,) = prog.start if len(prog.start) == 1 else (None,)
        if start_bid is None:
            raise MachineError("start meta state must be a singleton (SPMD)")
        pc[:active] = start_bid
        return st, pc

    def _run_native(self, prog: SimdProgram, active: int,
                    max_steps: int) -> SimdResult:
        """A serial native run in one C call: ``msc_run`` steps the
        whole automaton exactly as :meth:`_loop` does."""
        from repro.simd import nativert

        nat = prog.native()
        st, pc = self._initial_state(prog, active)
        counts, steps = nativert.run_program(nat, pc, st, max_steps)
        visits = {prog.nodes[key].entry_members: steps[k]
                  for key, k in nat.entry_index.items() if steps[k]}
        return self._result(prog, st, pc, counts, visits, "native", 1, None)

    def _loop(self, prog: SimdProgram, active: int, max_steps: int,
              plan: "planmod.ProgramPlan | None", backend: str,
              fns: dict | None, nshards: int,
              miss_handler=None) -> SimdResult:
        """The meta-step loop. Each step runs the current node on one
        of three executors — its kernel or native callable from ``fns``
        on the full arrays; the same callable fanned out over
        ``nshards`` PE shards (:class:`~repro.simd.shards.ShardFan`,
        shardable nodes only); or the interpretive segment walk
        (:meth:`_exec_node`, also for nodes with no callable) — then
        charges the transition and dispatches on the ``globalor``
        aggregate (sections 3.2.2-3.2.4). Native callables take the
        run's binding (:func:`repro.simd.nativert.bind`) in place of
        the state, made here once and once per shard view."""
        st, pc = self._initial_state(prog, active)
        if backend == "interp":
            plan = None
        elif plan is None:
            plan = prog.plan()
        bind, arg = None, st
        if backend == "native":
            from repro.simd import nativert

            bind = nativert.bind
            arg = bind(pc, st)
        fan = (shardsmod.ShardFan(st, pc, nshards, plan.bit_weights, bind)
               if nshards > 1 else None)
        trace = ({p: [] for p in range(self.npes)}
                 if self.trace_enabled else None)
        barrier_mask = key_of_members(prog.barrier_ids)
        costs = self.costs

        cycles = 0
        body_cycles = 0
        transition_cycles = 0
        enabled_pe_cycles = 0
        transitions = 0
        visits: dict = {}

        current = prog.start
        steps = 0
        # One floating-point error scope for the whole run: kernels
        # enter none of their own, and the interp walk's casts of
        # non-finite router and array indices stay silent until the
        # range check raises (shard workers hold the same scope).
        with np.errstate(**vecops.ERRSTATE):
            while True:
                steps += 1
                if steps > max_steps:
                    raise MachineError(
                        f"SIMD run exceeded {max_steps} meta steps")
                if miss_handler is not None:
                    miss_handler.fetch(current, want_kernel=fns is not None)
                node = prog.nodes[current]
                visits[node.entry_members] = \
                    visits.get(node.entry_members, 0) + 1

                apc = None
                fn = fns.get(current) if fns is not None else None
                if fn is None:
                    b, t, e, exited = self._exec_node(
                        node, pc, st, prog.entry_depths, trace, steps)
                elif fan is None or not plan.nodes[current].shardable:
                    # Full width: serial runs, and the cross-lane nodes
                    # (mono store, router, spawn) of sharded ones.
                    b, t, e, exited = fn(pc, arg)
                else:
                    b, t, e, exited, apc = fan(
                        fn, node.barrier_target is not None
                        or node.encoding is not None)
                cycles += b + t
                body_cycles += b
                transition_cycles += t
                enabled_pe_cycles += e
                if exited:
                    break

                transitions += 1
                if node.barrier_target is not None:
                    # Compressed graphs: the all-at-barrier entry is a
                    # runtime check on the aggregate (section 3.2.4).
                    if apc is None:
                        apc = self._globalor(pc, plan)
                    cycles += costs.globalor_cost
                    transition_cycles += costs.globalor_cost
                    if apc == 0:
                        break
                    if apc & ~barrier_mask == 0:
                        current = node.barrier_target
                        continue
                if node.encoding is not None:
                    if apc is None:
                        apc = self._globalor(pc, plan)
                    cost = costs.globalor_cost + costs.dispatch_cost
                    cycles += cost
                    transition_cycles += cost
                    if apc == 0:
                        break
                    # Section 3.2.4: unless everyone is at a barrier,
                    # the parked barrier bits are masked out of the
                    # aggregate.
                    if apc & ~barrier_mask:
                        key = apc & ~barrier_mask
                    else:
                        key = apc
                    current = node.encoding.lookup(key)
                elif node.single_target is not None:
                    cycles += costs.branch_cost
                    transition_cycles += costs.branch_cost
                    current = node.single_target
                else:
                    # Terminal node: everyone returned.
                    break

        return self._result(prog, st, pc,
                            (cycles, body_cycles, transition_cycles,
                             enabled_pe_cycles, transitions),
                            visits, backend, nshards, trace)

    def _result(self, prog: SimdProgram, st: vecops.PeState,
                pc: np.ndarray, counts: tuple, visits: dict,
                backend: str, nshards: int, trace) -> SimdResult:
        """The :class:`SimdResult` of a finished run; ``counts`` is
        ``(cycles, body, transition, enabled, meta transitions)``."""
        returns = np.full(self.npes, np.nan)
        if prog.ret_slot is not None:
            done = pc == PC_DONE
            returns[done] = st.poly[prog.ret_slot, done]
        cycles, body, transition, enabled, transitions = counts
        return SimdResult(
            npes=self.npes,
            poly=st.poly,
            mono=st.mono,
            returns=returns,
            pc=pc,
            cycles=cycles,
            body_cycles=body,
            transition_cycles=transition,
            enabled_pe_cycles=enabled,
            meta_transitions=transitions,
            node_visits=visits,
            backend_used=backend,
            shards=nshards,
            trace=trace,
        )

    def _exec_node(self, node, pc: np.ndarray, st: vecops.PeState,
                   depths: dict, trace: dict | None = None,
                   step: int = 0) -> tuple[int, int, int, bool]:
        """The interpretive segment walk over one whole node, with the
        kernel return convention ``(body, transition, enabled,
        exited)``: a segment that can exit pays one ``globalor`` to
        test for a live PE. ``depths`` is the program's ``bid -> entry
        depth`` map (kernels keep no ``st.sp``)."""
        body = 0
        tcost = 0
        enabled = 0
        for seg in node.segments:
            c, e = self._exec_segment(seg, pc, st, depths, trace, step)
            body += c
            enabled += e
            if seg.can_exit:
                tcost += self.costs.globalor_cost
                if not (pc >= 0).any():
                    return body, tcost, enabled, True
        return body, tcost, enabled, False

    # ------------------------------------------------------------------
    def _globalor(self, pc: np.ndarray, plan=None) -> int:
        """The hardware ``globalor``: OR of ``1 << pc`` over live PEs.

        With a compiled plan this is one gather of every lane through
        the precomputed bit-weight table, whose trailing zeros weigh the
        ``PC_DONE`` and ``PC_IDLE`` sentinels (no live mask), plus a
        ``bitwise_or`` reduction; without one (``interp``) a loop over
        the distinct live pcs stays as the slow reference."""
        if plan is not None:
            return shardsmod.shard_globalor(pc, plan.bit_weights)
        apc = 0
        for bid in np.unique(pc[pc >= 0]):
            apc |= 1 << int(bid)
        return apc

    def _exec_segment(self, seg, pc: np.ndarray, st: vecops.PeState,
                      depths: dict, trace: dict | None = None,
                      step: int = 0) -> tuple[int, int]:
        """Execute one segment: guarded body then guarded terminators.
        Returns (control-unit cycles, enabled-PE cycles). Each member's
        lanes enter at the block's entry depth, which sets their
        ``st.sp`` here: this walk is its only reader."""
        cycles = 0
        enabled = 0
        member_list = sorted(seg.members)
        # pc moves only at the end, so each member's lanes hold
        # throughout.
        lanes = {bid: (pc == bid).nonzero()[0] for bid in member_list}
        for bid in member_list:
            st.sp[lanes[bid]] = depths[bid]
            if trace is not None:
                for pe in lanes[bid]:
                    trace[int(pe)].append((bid, step))
        # Body: each schedule entry runs once, on the PEs whose pc bit
        # is in its guard.
        for entry in seg.schedule.entries:
            idxs = np.isin(pc, list(entry.guards)).nonzero()[0]
            c = self.costs.cost(entry.instr)
            cycles += c
            enabled += c * idxs.size
            vecops.exec_instr(entry.instr, idxs, st)

        # Terminators, one guarded group per member.
        new_pc = pc.copy()
        spawn_requests: list[tuple[np.ndarray, int]] = []
        for bid in member_list:
            term, is_barrier = seg.terminators[bid]
            idxs = lanes[bid]
            c = self.costs.branch_cost
            cycles += c
            enabled += c * idxs.size
            if idxs.size == 0:
                continue
            if is_barrier:
                # Executing the barrier state itself = everyone arrived;
                # proceed through its single exit.
                assert isinstance(term, Fall)
                new_pc[idxs] = term.target
            elif isinstance(term, Fall):
                new_pc[idxs] = term.target
            elif isinstance(term, CondBr):
                if (st.sp[idxs] < 1).any():
                    raise MachineError("branch on empty stack")
                cond = st.stack[st.sp[idxs] - 1, idxs]
                st.sp[idxs] -= 1
                new_pc[idxs] = np.where(cond != 0, term.on_true, term.on_false)
            elif isinstance(term, Return):
                new_pc[idxs] = PC_DONE
            elif isinstance(term, Halt):
                new_pc[idxs] = PC_IDLE
                st.reset_pes(idxs)
            elif isinstance(term, SpawnT):
                spawn_requests.append((idxs, term.child))
                new_pc[idxs] = term.cont
            else:
                raise AssertionError(f"unknown terminator {term!r}")

        # Spawns activate idle PEs after all pc updates are staged, so a
        # child cannot be re-claimed within the same segment.
        for idxs, child in spawn_requests:
            free = (new_pc == PC_IDLE).nonzero()[0]
            if free.size < idxs.size:
                raise MachineError(
                    "spawn: not enough free PEs (section 3.2.5 requires "
                    "spawns not to exceed the number of processors)"
                )
            children = free[: idxs.size]
            st.poly[:, children] = st.poly[:, idxs]
            st.reset_pes(children)
            new_pc[children] = child
        pc[:] = new_pc
        return cycles, enabled
