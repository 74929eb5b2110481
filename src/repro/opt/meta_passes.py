"""Meta-graph-level optimization passes (section 4.2 step 4).

The paper's step 4 — "the resulting meta-state graph is straightened" —
used to happen on the fly inside :mod:`repro.codegen.emit`; here it is
an explicit pass producing a :class:`StraightenedGraph` artifact that
:func:`repro.codegen.emit.encode_program` consumes. The layout choice
is what ``-O0`` vs ``-O1`` means at this level: ``-O0`` emits one chain
per meta state (every transition pays the multiway dispatch), while
``-O1`` merges single-successor/single-predecessor runs so interior
transitions fall through.

An ``unreachable``-state pruning pass runs first at ``-O1``+: meta
states the start state cannot reach (none are produced by the current
subset construction, but passes and hand-built graphs can leave some)
are dropped, and the graph's derived-structure caches are invalidated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metastate import MetaStateGraph, format_members
from repro.errors import ConversionError
from repro.opt.manager import MetaContext, Pass, PassManager


@dataclass(frozen=True, eq=False)
class StraightenedGraph:
    """A meta-state graph plus its chain layout.

    ``chains`` partitions ``graph.states`` into execution-ordered runs:
    each chain's head is entered through the multiway dispatch, interior
    states are reached only by falling through from their unique
    predecessor. This is exactly the contract
    :func:`repro.codegen.emit.encode_program` compiles — interior states
    get no dispatch entry of their own.
    """

    graph: MetaStateGraph
    chains: tuple                   # tuple[tuple[MetaId, ...], ...]

    @classmethod
    def from_graph(cls, graph: MetaStateGraph) -> "StraightenedGraph":
        """Straighten per section 4.2 step 4 (the ``-O1`` layout)."""
        return cls(graph, tuple(tuple(c) for c in graph.straightened_chains()))

    @classmethod
    def trivial(cls, graph: MetaStateGraph) -> "StraightenedGraph":
        """One single-state chain per meta state (the ``-O0`` layout)."""
        return cls(graph, tuple(
            (m,) for m in sorted(graph.states, key=lambda s: sorted(s))))

    # ------------------------------------------------------------------
    @property
    def heads(self) -> set:
        """The dispatch targets: first state of every chain."""
        return {chain[0] for chain in self.chains}

    def chain_count(self) -> int:
        return len(self.chains)

    def merged_states(self) -> int:
        """How many states were absorbed into a predecessor's chain."""
        return self.graph.num_states() - len(self.chains)

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Check the layout contract against the underlying graph."""
        g = self.graph
        seen: set = set()
        for chain in self.chains:
            if not chain:
                raise ConversionError("empty chain in straightened graph")
            for m in chain:
                if m in seen:
                    raise ConversionError(
                        f"state {format_members(m)} appears in two chains")
                seen.add(m)
        if seen != g.states:
            raise ConversionError(
                "chains do not partition the meta-state set")
        preds = g.predecessors()
        for chain in self.chains:
            for prev, m in zip(chain, chain[1:]):
                if m == g.start:
                    raise ConversionError(
                        "start meta state straightened into a chain interior")
                if m == prev:
                    raise ConversionError(
                        f"self-loop state {format_members(m)} straightened")
                if g.successors(prev) != {m}:
                    raise ConversionError(
                        f"chain interior {format_members(m)} is not the sole "
                        f"successor of {format_members(prev)}")
                if preds[m] != {prev}:
                    raise ConversionError(
                        f"chain interior {format_members(m)} has multiple "
                        "predecessors")
        heads = self.heads
        interior = seen - heads
        for m in g.states:
            for t in g.successors(m):
                if t in interior and preds[t] != {m}:
                    raise ConversionError(
                        f"dispatch target {format_members(t)} is a chain "
                        "interior")
        if g.start not in heads:
            raise ConversionError("start meta state is not a chain head")


def straightened_for_level(graph: MetaStateGraph,
                           opt_level: int) -> StraightenedGraph:
    """The chain layout an ``-O`` level produces (used by paths that
    bypass the driver, e.g. lazy :meth:`ConversionResult.simd_program`)."""
    if opt_level <= 0:
        return StraightenedGraph.trivial(graph)
    return StraightenedGraph.from_graph(graph)


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def _prune_pass(ctx: MetaContext) -> dict:
    g = ctx.graph
    reachable = {g.start}
    work = [g.start]
    while work:
        for t in g.successors(work.pop()):
            if t not in reachable:
                reachable.add(t)
                work.append(t)
    dead = g.states - reachable
    for m in dead:
        g.states.discard(m)
        g.table.pop(m, None)
        g.can_exit.discard(m)
        g.parked_possible.pop(m, None)
        g.barrier_entry.pop(m, None)
    if dead:
        g.invalidate_caches()
    return {"states_pruned": len(dead)}


def _dead_meta_prune_pass(ctx: MetaContext) -> dict:
    """Drop registered meta states no execution can dispatch.

    The uncompressed converter over-approximates barrier releases by
    enumerating every subset of the possibly-parked set, so the
    automaton can carry aggregates that are reachable in the graph yet
    dead at runtime.  :func:`repro.verify.frontier.realizable_states`
    re-walks the CFG with the parked set kept exact; everything the
    walk never dispatches is dropped before encoding.  Skipped for
    compressed graphs (compression abandons the populated-members
    invariant the walk needs) and when the walk overflows its cap —
    both conservative: keeping dead states is always sound.
    """
    g = ctx.graph
    if ctx.cfg is None or g.compressed:
        return {"unrealizable_pruned": 0}
    from repro.verify.frontier import realizable_states

    realizable = realizable_states(ctx.cfg)
    if realizable is None:
        return {"unrealizable_pruned": 0, "realizability_capped": 1}
    dead = {m for m in g.states if m not in realizable and m != g.start}
    if not dead:
        return {"unrealizable_pruned": 0}
    for m in dead:
        g.states.discard(m)
        g.table.pop(m, None)
        g.can_exit.discard(m)
        g.parked_possible.pop(m, None)
        g.barrier_entry.pop(m, None)
    for tab in g.table.values():
        for key in [k for k, t in tab.items() if t in dead]:
            del tab[key]
    for m in [m for m, t in g.barrier_entry.items() if t in dead]:
        del g.barrier_entry[m]
    g.invalidate_caches()
    return {"unrealizable_pruned": len(dead)}


def _uniform_branch_pass(ctx: MetaContext) -> dict:
    """Drop aggregates only a divergent split of a *uniform* branch
    could reach.

    The subset construction gives every two-exit member three choices —
    true arm, false arm, both — but a branch whose condition is uniform
    moves every co-resident PE down the same arm, so its "both" choice
    is never realizable.  That argument needs the co-resident PEs'
    store histories to be synchronized, which holds when nothing can
    skew their progress before the branch: the eligible set is the
    uniform branches whose barrier-free region contains no divergent
    branch and no spawn (PEs enter a region together — at program
    start or a barrier release — and without divergence inside it they
    stay in lockstep).  The restricted realizability walk then prunes
    the two-arm aggregates exactly like ``dead-meta-prune`` prunes
    parked-set over-approximation.
    """
    g = ctx.graph
    if ctx.cfg is None or g.compressed:
        return {"uniform_pruned": 0}
    from repro.absint.graph import barrier_free_regions
    from repro.absint.uniformity import analyze_uniformity
    from repro.ir.block import CondBr, SpawnT
    from repro.verify.frontier import realizable_states

    cfg = ctx.cfg
    uni = analyze_uniformity(cfg)
    reachable = set(uni.entry_depths)
    eligible: set[int] = set()
    for region in barrier_free_regions(cfg):
        members = region & reachable
        if any(b in uni.divergent_branches
               or isinstance(cfg.blocks[b].terminator, SpawnT)
               for b in members):
            continue
        eligible.update(
            b for b in members
            if isinstance(cfg.blocks[b].terminator, CondBr)
        )
    if not eligible:
        return {"uniform_pruned": 0}
    realizable = realizable_states(
        cfg, uniform_branches=frozenset(eligible))
    if realizable is None:
        return {"uniform_pruned": 0, "realizability_capped": 1}
    dead = {m for m in g.states if m not in realizable and m != g.start}
    if not dead:
        return {"uniform_pruned": 0}
    for m in dead:
        g.states.discard(m)
        g.table.pop(m, None)
        g.can_exit.discard(m)
        g.parked_possible.pop(m, None)
        g.barrier_entry.pop(m, None)
    for tab in g.table.values():
        for key in [k for k, t in tab.items() if t in dead]:
            del tab[key]
    for m in [m for m, t in g.barrier_entry.items() if t in dead]:
        del g.barrier_entry[m]
    g.invalidate_caches()
    return {"uniform_pruned": len(dead)}


def _straighten_pass(ctx: MetaContext) -> dict:
    ctx.straightened = StraightenedGraph.from_graph(ctx.graph)
    return {"chains": ctx.straightened.chain_count(),
            "chains_merged": ctx.straightened.merged_states()}


def _trivial_layout_pass(ctx: MetaContext) -> dict:
    ctx.straightened = StraightenedGraph.trivial(ctx.graph)
    return {"chains": ctx.straightened.chain_count(),
            "chains_merged": 0}


# ----------------------------------------------------------------------
# pipelines
# ----------------------------------------------------------------------
def meta_pass_list(opt_level: int) -> list[Pass]:
    """The meta-graph pipeline for an ``-O`` level. Every level must
    end with a layout pass — encoding needs the chains artifact."""
    if opt_level <= 0:
        return [Pass("layout", _trivial_layout_pass)]
    if opt_level >= 2:
        return [Pass("prune", _prune_pass),
                Pass("dead-meta-prune", _dead_meta_prune_pass),
                Pass("uniform-branch", _uniform_branch_pass),
                Pass("straighten", _straighten_pass)]
    return [Pass("prune", _prune_pass),
            Pass("straighten", _straighten_pass)]


def run_meta_passes(graph: MetaStateGraph, options,
                    valid_blocks: set | None = None, cfg=None):
    """Run the meta-graph pipeline selected by ``options.opt_level``;
    returns ``(StraightenedGraph, per-pass records, summed counters)``."""
    ctx = MetaContext(graph=graph, options=options, valid_blocks=valid_blocks,
                      cfg=cfg)
    manager = PassManager(
        meta_pass_list(getattr(options, "opt_level", 1)),
        verify_passes=getattr(options, "verify_passes", False),
    )
    records, totals = manager.run(ctx)
    return ctx.straightened, records, totals
