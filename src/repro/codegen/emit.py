"""Encode a meta-state automaton as an executable SIMD program.

Per meta state (section 3):

- the member MIMD states' bodies are merged into one guarded schedule
  by common subexpression induction (section 3.1) — in Listing 5 these
  are the ``if (pc & (BIT(2)|BIT(6))) { ... }`` regions;
- each member's terminator runs under its own guard (``JumpF``/``Ret``/
  ``Halt``/spawn, section 3.2);
- the transition is a multiway branch on the ``globalor`` aggregate,
  encoded with a customized hash function (section 3.2.3), with the
  barrier mask adjustment of section 3.2.4; single-exit states jump
  unconditionally ("all entries to compressed meta states fall into
  this category", section 3.2.2).

Meta-graph straightening (section 4.2 step 4) merges single-exit /
single-entry chains into one emitted node of several segments; the
dispatch between them disappears.

Lazy conversion builds one node at a time (:func:`compile_node`) and
prints no switch, so its multiway transitions dispatch through the
arcs of the transition row resolved so far (:class:`RowDispatch`),
resolving a new aggregate through the conversion engine on a miss; the
hash encoding is what eager emission prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.metastate import MetaStateGraph, format_members
from repro.csi.dag import ThreadCode
from repro.csi.schedule import Schedule, csi_schedule, serial_schedule
from repro.errors import ConversionError
from repro.hashenc.search import (
    BranchEncoding,
    encode_branch,
    key_of_members,
    members_of_key,
)
from repro.ir.block import Terminator
from repro.ir.cfg import Cfg
from repro.ir.instr import DEFAULT_COSTS, CostModel

if TYPE_CHECKING:
    from repro.core.convert import ConversionEngine


@dataclass
class Segment:
    """One former meta state inside an emitted node: its guarded body
    schedule and the per-member terminators that run after it.

    ``terminators`` maps member block id -> (terminator, is_barrier).
    ``can_exit`` marks segments after which all PEs may be gone (the
    machine must check the aggregate for emptiness even when the
    transition out is unconditional — see DESIGN.md on how compressed
    self-loops still terminate).
    """

    members: frozenset
    schedule: Schedule
    terminators: dict[int, tuple[Terminator, bool]]
    can_exit: bool = False


@dataclass
class RowDispatch:
    """A lazy node's multiway transition: the arcs of its transition
    row resolved so far, ``{aggregate key: successor}``. A miss asks
    ``miss`` for the successor (the conversion engine resolves the
    aggregate by the full row's rules and records the arc) and keeps
    it; an aggregate outside the full row raises
    :class:`~repro.errors.ConversionError`, as an empty jump-table slot
    does."""

    cases: dict[int, frozenset]
    miss: Callable[[int], frozenset]

    def lookup(self, key: int) -> frozenset:
        target = self.cases.get(key)
        if target is None:
            target = self.cases[key] = self.miss(key)
        return target


@dataclass
class MetaNode:
    """One emitted SIMD code node (a straightened chain of meta states).

    ``encoding`` dispatches the final multiway transition: the
    Listing-5 hash in eager programs, the :class:`RowDispatch` row in
    lazy ones. It is ``None`` when the node has at most one successor,
    in which case ``single_target`` names it (or is ``None`` for a pure
    exit node).
    """

    name: str
    segments: list[Segment]
    encoding: BranchEncoding | RowDispatch | None = None
    single_target: frozenset | None = None
    #: Runtime all-at-barrier target (compressed graphs, section 2.5 +
    #: 2.6 combined): taken when the live aggregate is entirely barrier
    #: bits, checked before the normal transition.
    barrier_target: frozenset | None = None

    @property
    def entry_members(self) -> frozenset:
        return self.segments[0].members

    @property
    def width(self) -> int:
        return max(len(s.members) for s in self.segments)


@dataclass
class SimdProgram:
    """The complete encoded program the SIMD machine executes.

    Only the control unit holds this structure — the PEs hold data
    only, which is the paper's memory argument against interpretation.
    """

    nodes: dict[frozenset, MetaNode]       # keyed by entry meta state
    start: frozenset
    barrier_ids: frozenset
    n_poly: int
    n_mono: int
    ret_slot: int | None
    compressed: bool
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    #: Compiled plan tables (see :mod:`repro.codegen.plan`), built
    #: once per program and cached; pure derived data.
    _plan: object = field(default=None, repr=False, compare=False)
    #: Fused per-node kernels (see :mod:`repro.codegen.kernels`):
    #: ``"unbuilt"`` until first use, then a ``KernelProgram`` or
    #: ``None`` when generation is unsupported for this program.
    _kernels: object = field(default="unbuilt", repr=False, compare=False)
    #: Native C emission (see :mod:`repro.codegen.native`): ``"unbuilt"``
    #: until first use, then a ``NativeProgram`` (C source only — the
    #: shared library is built separately, content-addressed by source
    #: and compiler) or ``None`` when generation is unsupported.
    _native: object = field(default="unbuilt", repr=False, compare=False)
    #: The kernel IR (see :meth:`lowering`) while only one of the two
    #: printers has run; never pickled.
    _kir: object = field(default=None, repr=False, compare=False)

    def plan(self):
        """The precompiled :class:`~repro.codegen.plan.ProgramPlan` for
        this program — the dense guard, depth and terminator tables the
        kernel lowering reads, and the bit weights and shardable flags
        the SIMD machine's step loop reads. Compiled on first use and
        cached (the program is immutable once emitted)."""
        if self._plan is None:
            from repro.codegen.plan import compile_plan

            self._plan = compile_plan(self)
        return self._plan

    def kernels(self):
        """The fused per-node execution kernels
        (:class:`~repro.codegen.kernels.KernelProgram`) for this
        program, generated on first use and cached — like :meth:`plan`
        the generated source travels with the program artifact, so a
        warm compile-cache hit loads it without regenerating. ``None``
        when kernel generation does not support this program (static
        stack depths unresolvable)."""
        if self._kernels == "unbuilt":
            from repro.codegen.kernels import compile_kernels

            self._kernels = compile_kernels(self)
        return self._kernels

    def native(self):
        """The C emission (:class:`~repro.codegen.native.NativeProgram`)
        for this program — one translation unit of per-node lane loops,
        generated on first use and cached so the source travels with the
        pickled program artifact. Compilation to a shared library is a
        separate, host-local step (:mod:`repro.simd.nativert`). ``None``
        when native generation does not support this program (same
        precondition as :meth:`kernels`: static stack depths must
        resolve)."""
        if self._native == "unbuilt":
            from repro.codegen.native import compile_native

            self._native = compile_native(self)
        return self._native

    def lowering(self):
        """The kernel IR (:func:`repro.codegen.kir.lower_program`) for
        the printer about to run. Both the NumPy and the C printer read
        it, so the first of :meth:`kernels` / :meth:`native` to build
        keeps it for the other, which releases it."""
        lowered, self._kir = self._kir, None
        if lowered is None:
            from repro.codegen.kir import lower_program

            lowered = lower_program(self)
            if self._kernels == "unbuilt" and self._native == "unbuilt":
                self._kir = lowered
        return lowered

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_kir"] = None
        return state

    def node_count(self) -> int:
        return len(self.nodes)

    def control_unit_instructions(self) -> int:
        """Size of the program as instruction slots in the control unit
        (for the memory comparison against the interpreter)."""
        total = 0
        for node in self.nodes.values():
            for seg in node.segments:
                total += len(seg.schedule.entries) + len(seg.terminators)
            total += 1  # the transition switch / jump
        return total

    def hash_stats(self) -> dict:
        """Multiway-branch encoding statistics: how many nodes dispatch
        through a hash, total and worst-case jump-table slots, and how
        many fell back to the division hash (section 3.2.3's quality
        measure — the stage report surfaces these per compile)."""
        encoded = [n.encoding for n in self.nodes.values()
                   if n.encoding is not None]
        return {
            "hash_branches": len(encoded),
            "hash_table_slots": sum(e.table_size for e in encoded),
            "hash_max_table": max((e.table_size for e in encoded), default=0),
            "hash_mod_fallbacks": sum(1 for e in encoded
                                      if e.fn.kind == "mod"),
        }

    def csi_totals(self) -> tuple[int, int, int]:
        """(scheduled cost, serialized cost, lower bound) summed over
        all multi-member segments — the CSI win."""
        cost = serial = bound = 0
        for node in self.nodes.values():
            for seg in node.segments:
                if len(seg.members) > 1:
                    cost += seg.schedule.cost
                    serial += seg.schedule.serial_cost
                    bound += seg.schedule.lower_bound
        return cost, serial, bound


def encode_program(cfg: Cfg, graph,
                   costs: CostModel = DEFAULT_COSTS,
                   use_csi: bool = True) -> SimdProgram:
    """Encode a straightened meta-state graph over ``cfg`` into a
    :class:`SimdProgram`.

    ``graph`` is the :class:`~repro.opt.StraightenedGraph` artifact the
    ``opt-meta`` pass stage produced — the chain layout decides which
    states get a dispatch entry. A bare :class:`MetaStateGraph` is also
    accepted (convenience for tests and hand-built graphs) and gets the
    default ``-O1`` layout.

    ``use_csi=False`` serializes the threads of each meta state instead
    of running common subexpression induction — the ablation baseline
    for measuring what CSI buys (section 3.1).
    """
    from repro.opt.meta_passes import StraightenedGraph

    if isinstance(graph, MetaStateGraph):
        straightened = StraightenedGraph.from_graph(graph)
    else:
        straightened = graph
        graph = straightened.graph
    chains = straightened.chains
    nodes: dict[frozenset, MetaNode] = {}
    for chain in chains:
        segments = [_make_segment(cfg, graph, m, costs, use_csi)
                    for m in chain]
        name = "+".join(format_members(m) for m in chain)
        node = MetaNode(name=name, segments=segments)
        _set_transition(node, graph, chain[-1])
        nodes[chain[0]] = node

    prog = SimdProgram(
        nodes=nodes,
        start=graph.start,
        barrier_ids=graph.barrier_ids,
        n_poly=len(cfg.poly_slots),
        n_mono=len(cfg.mono_slots),
        ret_slot=cfg.ret_slot,
        compressed=graph.compressed,
        costs=costs,
    )
    _verify_program(prog, graph)
    return prog


def compile_node(cfg: Cfg, engine: ConversionEngine, members: frozenset,
                 costs: CostModel = DEFAULT_COSTS,
                 use_csi: bool = True) -> MetaNode:
    """Emit the single-state :class:`MetaNode` for ``members`` — the
    per-state twin of :func:`encode_program` that lazy conversion uses
    to materialize nodes as the runtime discovers them.

    Single-state means the trivial (``-O0``) chain layout: one segment,
    no straightening (chain merging needs global predecessor counts,
    which a partial automaton cannot know yet). ``members`` must
    already be prepared or expanded in ``engine``, which decided its
    transition kind.

    A multiway transition dispatches through the arcs recorded so far
    (:class:`RowDispatch`) instead of a searched hash, and a miss
    resolves the aggregate through the engine: the machine charges the
    same flat ``dispatch_cost`` either way, and lazy mode prints no
    switch.
    """
    graph = engine.graph
    node = MetaNode(
        name=format_members(members),
        segments=[_make_segment(cfg, graph, members, costs, use_csi)],
    )
    row = graph.table.get(members, {})
    if members in engine.multiway:
        node.encoding = RowDispatch(
            {key_of_members(key): target for key, target in row.items()},
            lambda key: engine.resolve(members, members_of_key(key)),
        )
    elif row:
        (node.single_target,) = row.values()
    node.barrier_target = graph.barrier_entry.get(members)
    return node


def _set_transition(node: MetaNode, graph: MetaStateGraph,
                    last: frozenset) -> None:
    """Attach the transition out of ``last``, the node's final state:
    the Listing 5 hash of ``{aggregate key: successor}`` when the row
    has several cases."""
    table = graph.table.get(last, {})
    distinct_targets = set(table.values())
    if len(table) > 1:
        node.encoding = encode_branch({
            key_of_members(key): target for key, target in table.items()
        })
    elif len(distinct_targets) == 1:
        (node.single_target,) = distinct_targets
    node.barrier_target = graph.barrier_entry.get(last)


def _make_segment(cfg: Cfg, graph: MetaStateGraph, members: frozenset,
                  costs: CostModel, use_csi: bool = True) -> Segment:
    threads = []
    terminators: dict[int, tuple[Terminator, bool]] = {}
    for bid in sorted(members):
        blk = cfg.blocks[bid]
        threads.append(ThreadCode.of(bid, blk.code))
        terminators[bid] = (blk.terminator, blk.is_barrier_wait)
    if use_csi:
        schedule = csi_schedule(threads, costs)
    else:
        schedule = serial_schedule([t for t in threads if t.code], costs)
    return Segment(
        members=members,
        schedule=schedule,
        terminators=terminators,
        can_exit=members in graph.can_exit,
    )


def _verify_program(prog: SimdProgram, graph: MetaStateGraph) -> None:
    """Every transition target must be the entry of an emitted node or
    an interior segment of one (interior segments are only entered by
    falling through their chain, never by dispatch)."""
    interior: set[frozenset] = set()
    for node in prog.nodes.values():
        for seg in node.segments[1:]:
            interior.add(seg.members)
    for node in prog.nodes.values():
        targets: list[frozenset] = []
        if node.encoding is not None:
            targets.extend(node.encoding.cases.values())
        elif node.single_target is not None:
            targets.append(node.single_target)
        if node.barrier_target is not None:
            targets.append(node.barrier_target)
        for t in targets:
            if t in interior:
                raise ConversionError(
                    f"transition targets straightened-away state {set(t)}"
                )
            if t not in prog.nodes:
                raise ConversionError(
                    f"transition targets unknown node {set(t)}"
                )
    if prog.start not in prog.nodes:
        raise ConversionError("start meta state was straightened away")
