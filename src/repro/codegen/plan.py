"""Precompiled node tables for the kernel lowering and the step loop.

A :class:`~repro.codegen.emit.SimdProgram` is fixed once emitted — the
guard of every schedule entry, the terminator of every member, the
operand-stack depth at every point of every block body, and the bit
weight of every ``pc`` value are all compile-time constants. The plan
layer lowers that structure into dense tables once per program (the
same fixed-transition-structure observation data-parallel automata
runners exploit). Two consumers read them: the kernel lowering of
:mod:`repro.codegen.kir`, which turns each node's tables into the
NumPy and C kernels, and the meta-step loop of
:class:`~repro.simd.machine.SimdMachine`:

- **guard members and relative depths** — per schedule entry, the
  members in its guard and each one's operand-stack depth relative to
  its segment-entry depth;
- **terminator tables** — per-member (kind code, on_true, on_false)
  triples and the net body stack delta;
- **absolute entry depths** — every member's operand-stack depth at
  segment entry is a compile-time constant: the ``bid -> depth`` map
  that :meth:`~repro.ir.cfg.Cfg.verify` returns, which the program
  carries (``SimdProgram.entry_depths``; spawn children restart at
  depth 0). Each entry's stack row is then a precomputed scalar — or,
  when a CSI entry is shared by members at different depths, a
  precomputed per-bid table — so the kernels neither read nor store
  ``st.sp``;
- **bit weights** — the ``bid -> 1 << bid`` table (object dtype once
  ids exceed an int64 word), indexed directly by ``pc``: two trailing
  zeros weigh the ``PC_DONE`` (-2) and ``PC_IDLE`` (-1) sentinels, so
  the step loop's ``globalor`` is one gather of every lane plus one
  ``bitwise_or.reduce``, with no live mask;
- **shardability** — whether a node's work is lane-private, so the
  step loop may fan it out over PE shards (:mod:`repro.simd.shards`).

Plans change *nothing* about the simulated cost model. A node with no
kernel runs on the interpretive segment walk, and
``SimdMachine(backend="interp")`` keeps that walk over
:func:`repro.simd.vecops.exec_instr` as the differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ir.block import CondBr, Fall, Halt, Return, SpawnT
from repro.ir.instr import Op

#: Terminator kind codes. ``K_FALL`` covers barrier waits too —
#: executing the barrier state means everyone arrived, so it proceeds
#: through its single exit.
K_FALL = 1
K_COND = 2
K_RET = 3
K_HALT = 4
K_SPAWN = 5

#: Ops whose effect is visible across lanes: mono writes (broadcast,
#: highest-indexed writer wins over the whole enabled set) and router
#: reads/writes. Everything else touches only the executing PE's column
#: of the state arrays. A node containing one of these (or a spawn
#: terminator, which claims PEs from the global free pool) is not
#: *shardable*: the sharded executor of :mod:`repro.simd.shards` runs
#: it serially on the full arrays instead.
CROSSLANE_OPS = frozenset({Op.STM, Op.STMI, Op.LDR, Op.STR})


@dataclass
class SegmentPlan:
    """Dense tables for one emitted segment.

    Member-indexed fields are aligned with ``member_bids`` (sorted).
    Entry-indexed fields are aligned with the schedule entries.
    """

    member_bids: tuple          # sorted member block ids
    instrs: tuple               # schedule entries' instructions, in order
    guard_members: tuple        # per entry: member indices in its guard
    rel_depths: tuple           # per entry: depth before it, per guard member,
                                # relative to the member's segment-entry depth
    total_delta: tuple          # per member: net body stack delta
    kinds: tuple                # per member: terminator kind code
    on_true: tuple              # per member: Fall target / CondBr on_true / spawn child
    on_false: tuple             # per member: CondBr on_false / spawn cont
    #: Per member: absolute operand-stack depth at segment entry.
    entry_depths: tuple
    #: Per entry: the absolute stack depth before it as a scalar when
    #: every guard member agrees, else ``None`` (see ``depth_tables``).
    depth_scalars: tuple
    #: Per entry: a ``bid -> absolute depth`` int64 table for the
    #: mixed-depth case (dispatch chains), else ``None``. Exactly one of
    #: ``depth_scalars[e]`` / ``depth_tables[e]`` is set per entry.
    depth_tables: tuple


@dataclass
class NodePlan:
    """Plans for the segments of one emitted node, index-aligned with
    ``MetaNode.segments``."""

    segments: list
    #: Every instruction of every segment is lane-private and no member
    #: spawns: the node may execute on disjoint slices of the PE axis
    #: (see :data:`CROSSLANE_OPS` and :mod:`repro.simd.shards`).
    shardable: bool = False


@dataclass
class ProgramPlan:
    """The compiled plan of a whole program."""

    n_bids: int                     # block ids span 0 .. n_bids - 1
    #: ``(n_bids + 2,)``: ``1 << bid``, then 0 at -2 and -1 for the
    #: sentinel pcs; object dtype when wide.
    bit_weights: np.ndarray
    nodes: dict = field(default_factory=dict)  # entry meta state -> NodePlan

    def stats(self) -> dict:
        """Plan-size counters for the stage report."""
        segments = [sp for np_ in self.nodes.values() for sp in np_.segments]
        return {
            "plan_nodes": len(self.nodes),
            "plan_segments": len(segments),
            "plan_entries": sum(len(sp.instrs) for sp in segments),
            "plan_depth_tables": sum(
                1 for sp in segments for t in sp.depth_tables
                if t is not None
            ),
            "plan_shardable_nodes": sum(
                1 for np_ in self.nodes.values() if np_.shardable
            ),
        }


def compile_plan(prog) -> ProgramPlan:
    """Compile ``prog`` (a :class:`~repro.codegen.emit.SimdProgram`)
    into a :class:`ProgramPlan`. Pure structure lowering — no cost
    model involved."""
    plan = _empty_plan(_max_bid(prog) + 1)
    for key, node in prog.nodes.items():
        plan.nodes[key] = compile_node_plan(node, plan.n_bids,
                                            prog.entry_depths)
    return plan


def incremental_plan(cfg) -> ProgramPlan:
    """An empty :class:`ProgramPlan` sized for *any* program over
    ``cfg`` — the starting point of lazy compilation.

    Eager compiles derive ``n_bids`` from the finished program
    (:func:`_max_bid`); a partial program grows, so the lazy manager
    sizes the bit-weight and depth tables from the CFG's largest block
    id up front (every meta-state member is a CFG block, so the bound
    holds for every node that can ever appear)."""
    return _empty_plan(max(cfg.blocks) + 1)


def _empty_plan(n_bids: int) -> ProgramPlan:
    # Aggregates wider than a machine word keep exact Python ints.
    weights = np.array([1 << b for b in range(n_bids)] + [0, 0],
                       dtype=np.int64 if n_bids <= 63 else object)
    return ProgramPlan(n_bids=n_bids, bit_weights=weights)


def compile_node_plan(node, n_bids: int, depths: dict) -> NodePlan:
    """Compile the :class:`NodePlan` of a single emitted node — the
    per-node step of :func:`compile_plan`, which lazy compilation calls
    as the runtime discovers nodes. ``depths`` is the ``bid -> entry
    depth`` map of :meth:`~repro.ir.cfg.Cfg.verify`."""
    segments = [_compile_segment(seg, depths, n_bids)
                for seg in node.segments]
    return NodePlan(segments=segments, shardable=_node_shardable(segments))


def _node_shardable(segments: list[SegmentPlan]) -> bool:
    """Whether every segment of a node is lane-private: no cross-lane
    instruction and no spawn terminator (spawn fills scan the *global*
    free pool)."""
    for sp in segments:
        if any(instr.op in CROSSLANE_OPS for instr in sp.instrs):
            return False
        if K_SPAWN in sp.kinds:
            return False
    return True


def _term_fact(term) -> tuple[int, int, int]:
    """``(kind code, on_true, on_false)`` of a block terminator."""
    if isinstance(term, Fall):
        return K_FALL, term.target, 0
    if isinstance(term, CondBr):
        return K_COND, term.on_true, term.on_false
    if isinstance(term, Return):
        return K_RET, 0, 0
    if isinstance(term, Halt):
        return K_HALT, 0, 0
    if isinstance(term, SpawnT):
        return K_SPAWN, term.child, term.cont
    raise AssertionError(f"unknown terminator {term!r}")


def _compile_segment(seg, depths: dict, n_bids: int) -> SegmentPlan:
    members = tuple(sorted(seg.members))
    index_of = {bid: j for j, bid in enumerate(members)}

    guard_members = []
    rel_depths = []
    depth = {bid: 0 for bid in members}
    for entry in seg.schedule.entries:
        guards = sorted(entry.guards)
        guard_members.append(tuple(index_of[b] for b in guards))
        rel_depths.append(tuple(depth[b] for b in guards))
        delta = entry.instr.stack_delta()
        for b in guards:
            depth[b] += delta

    terms = []
    for bid in members:
        term, is_barrier = seg.terminators[bid]
        # Executing the barrier state itself = everyone arrived;
        # proceed through its single exit.
        assert not is_barrier or isinstance(term, Fall)
        terms.append(_term_fact(term))
    kinds, on_true, on_false = zip(*terms)

    # Each entry's absolute stack depth: a scalar when the guard
    # members agree, else a ``bid -> depth`` gather table (the
    # mixed-depth dispatch-chain case).
    entry = tuple(depths[bid] for bid in members)
    scalars: list = []
    tables: list = []
    for gm, rel in zip(guard_members, rel_depths):
        abs_depths = [entry[j] + r for j, r in zip(gm, rel)]
        if len(set(abs_depths)) == 1:
            scalars.append(abs_depths[0])
            tables.append(None)
        else:
            table = np.zeros(n_bids, dtype=np.int64)
            for j, d in zip(gm, abs_depths):
                table[members[j]] = d
            scalars.append(None)
            tables.append(table)

    return SegmentPlan(
        member_bids=members,
        instrs=tuple(e.instr for e in seg.schedule.entries),
        guard_members=tuple(guard_members),
        rel_depths=tuple(rel_depths),
        total_delta=tuple(depth[bid] for bid in members),
        kinds=kinds,
        on_true=on_true,
        on_false=on_false,
        entry_depths=entry,
        depth_scalars=tuple(scalars),
        depth_tables=tuple(tables),
    )


def _max_bid(prog) -> int:
    """Largest block id mentioned anywhere in the program (members and
    transition targets; the latter are always members of some node, but
    scanning both keeps the bound robust)."""
    top = 0
    for node in prog.nodes.values():
        for seg in node.segments:
            top = max(top, max(seg.members))
            for bid, (term, _) in seg.terminators.items():
                top = max(top, bid, *term.successors(), 0)
    for members in prog.nodes:
        top = max(top, max(members))
    return top
