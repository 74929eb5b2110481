"""Lazy meta-state compilation: discover, compile, and cache automaton
nodes while the SIMD machine runs.

Eager conversion materializes the whole up-to-``3^n`` automaton before
a single PE cycle executes, so explosion-prone programs cannot compile
at all (the MSC030 budget aborts them). :class:`LazyProgram` instead
hands the runtime a *partial* program plus the live
:class:`~repro.core.convert.ConversionEngine`, and serves the
machine's miss-handler protocol: right before each meta step the
machine calls :meth:`fetch`, which

1. **prepares** — asks the engine to (re)prepare the state when it is
   new or stale (barrier parking grew): the engine decides its
   transition kind without expanding its row, and every compiled
   artifact the growth staled is invalidated;
2. **compiles** — JITs the state's :class:`~repro.codegen.emit.
   MetaNode` (trivial one-state layout; a multiway transition
   dispatches through the arcs resolved so far and resolves a new
   aggregate through the engine on a miss), its
   :class:`~repro.codegen.plan.NodePlan`, and —
   on the kernel backends — its fused kernel, registering all three
   into the same dispatch dicts the machine loops read
   (``program.nodes`` / ``plan.nodes`` / :attr:`kfns`), so the step
   loop resumes with plain dict hits;
3. **bounds residency** — with ``max_resident_meta`` set, an LRU of
   compiled nodes is maintained and the least-recently-dispatched
   node's artifacts are dropped. The engine's graph keeps the state's
   members, parked set, and resolved arcs, so re-entering the node
   simply re-runs step 2 — deterministically: the schedule, row
   dispatch, plan, and kernel depend only on the CFG, the members and
   their arcs, and the cost model.

The native C backend does not participate: compiling one shared
library per just-discovered node would put the C compiler on the hot
path of every miss. ``backend="native"`` under lazy conversion warns
and runs the NumPy kernels instead (the machine records
``backend_used``), a documented fallback covered by
``tests/test_native.py``.

The chain layout is the trivial one (one node per meta state, the
``-O0`` layout): chain straightening needs whole-graph predecessor
counts, which a partial automaton cannot know. An eager compile at
``opt_level=0`` over the same options is therefore the cycle-exact
twin of a lazy run — what the differential tests compare against.

A :class:`LazyProgram` is rebuilt cheaply from a pickled engine
(the content-addressed cache stores the engine snapshot instead of an
eager program — see :mod:`repro.stages.driver`), so a warm compile
resumes with every previously visited state prepared and every
previously taken arc resolved.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.codegen.emit import MetaNode, SimdProgram, compile_node
from repro.codegen.kernels import compile_node_kernel
from repro.codegen.plan import compile_node_plan, incremental_plan
from repro.core.convert import ConversionEngine


class LazyProgram:
    """The incremental compilation manager lazy mode hands to
    :class:`~repro.simd.machine.SimdMachine` as ``miss_handler``.

    ``options`` is a :class:`~repro.pipeline.ConversionOptions`;
    ``engine`` resumes a previous (possibly cache-loaded) engine
    instead of starting from the entry state.
    """

    def __init__(self, cfg, options, engine: ConversionEngine | None = None):
        self.cfg = cfg
        self.options = options
        self.costs = options.costs
        self.use_csi = options.use_csi
        if engine is None:
            engine = ConversionEngine(cfg, options.convert_options())
        self.engine = engine
        self.graph = engine.graph
        self.plan = incremental_plan(cfg)
        self.program = SimdProgram(
            nodes={},
            start=self.graph.start,
            barrier_ids=self.graph.barrier_ids,
            n_poly=len(cfg.poly_slots),
            n_mono=len(cfg.mono_slots),
            ret_slot=cfg.ret_slot,
            compressed=self.graph.compressed,
            costs=self.costs,
        )
        # The step loop resolves prog.plan() when no plan is passed;
        # point it at the incremental plan (never compile_plan on a partial
        # program — its n_bids would be wrong for nodes still to come).
        self.program._plan = self.plan
        self.program._kernels = None
        #: entry meta state -> compiled kernel fn; the kernel backends
        #: read this dict in the step loop (the lazy twin of
        #: ``KernelProgram.fns``).
        self.kfns: dict = {}
        self._kernel_names: dict = {}
        # Nodes whose kernel generation raised KernelUnsupported: they
        # stay on the interpretive segment walk for good, exactly like
        # an eager KernelProgram that skipped them.
        self._kernel_failed: set = set()
        self._lru: OrderedDict = OrderedDict()
        self.max_resident = int(getattr(options, "max_resident_meta", 0) or 0)
        self.materialized = 0
        self.evictions = 0
        #: High-water mark of simultaneously resident compiled nodes.
        #: (``lazy_max_resident`` used to report the *configured cap* —
        #: 0 for unbounded runs — instead of this observed peak.)
        self.max_resident_seen = 0

    # ------------------------------------------------------------------
    @property
    def supports_kernels(self) -> bool:
        """Whether per-node kernels can be generated at all (the lazy
        twin of ``compile_kernels`` returning ``None``: static stack
        depths must be resolvable from the CFG)."""
        return self.plan.static_depths is not None

    def fetch(self, key, want_kernel: bool = False) -> MetaNode:
        """The miss-handler: make ``key`` dispatchable and return its
        node. Mutates ``program.nodes`` / ``plan.nodes`` / ``kfns`` in
        place — the machine's loops re-read them every step."""
        engine = self.engine
        if engine.prepare(key):
            # Any artifact compiled before this (re)preparation baked in
            # the old transition kind and row.
            self._drop(key)
        for stale in engine.take_dirty():
            self._drop(stale)
        node = self.program.nodes.get(key)
        if node is None or (want_kernel and self.supports_kernels
                            and key not in self.kfns
                            and key not in self._kernel_failed):
            node = self._materialize(key, want_kernel)
        self._touch(key)
        return node

    def stats(self) -> dict:
        """Discovered-vs-materialized accounting for the stage report
        and ``--timings``. ``lazy_discovered`` counts the states
        registered by resolved arcs and by full-row expansions (the
        compile-time start state, the frontier verifier);
        ``lazy_expanded`` the states with a recorded row, prepared or
        expanded; ``lazy_resolved`` the arcs resolved on demand."""
        return {
            "lazy_discovered": len(self.graph.states),
            "lazy_expanded": len(self.graph.table),
            "lazy_resolved": self.engine.resolved,
            "lazy_materialized": self.materialized,
            "lazy_resident": len(self.program.nodes),
            "lazy_evictions": self.evictions,
            "lazy_max_resident": self.max_resident_seen,
            "lazy_kernels": len(self.kfns),
        }

    # ------------------------------------------------------------------
    def _materialize(self, key, want_kernel: bool) -> MetaNode:
        node = compile_node(self.cfg, self.engine, key, self.costs,
                            self.use_csi)
        nplan = compile_node_plan(node, self.plan.n_bids,
                                  self.plan.static_depths)
        self.program.nodes[key] = node
        self.plan.nodes[key] = nplan
        self.materialized += 1
        if want_kernel and self.supports_kernels \
                and key not in self._kernel_failed:
            idx = self._kernel_names.setdefault(key, len(self._kernel_names))
            fn = compile_node_kernel(self.program, self.plan, key, idx)
            if fn is None:
                self._kernel_failed.add(key)
            else:
                self.kfns[key] = fn
        return node

    def _drop(self, key) -> None:
        """Drop a state's compiled artifacts (stale row, or evicted);
        the next fetch of ``key`` compiles it like a first visit."""
        self.program.nodes.pop(key, None)
        self.plan.nodes.pop(key, None)
        self.kfns.pop(key, None)
        self._kernel_failed.discard(key)
        self._lru.pop(key, None)

    def _touch(self, key) -> None:
        self._lru[key] = True
        self._lru.move_to_end(key)
        if self.max_resident > 0:
            while len(self._lru) > self.max_resident:
                self._drop(next(iter(self._lru)))
                self.evictions += 1
        # Post-trim, so a bounded run's peak never exceeds its cap.
        self.max_resident_seen = max(self.max_resident_seen,
                                     len(self.program.nodes))
