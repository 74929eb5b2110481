"""Precompiled execution plans for the SIMD machine hot path.

A :class:`~repro.codegen.emit.SimdProgram` is fixed once emitted — the
guard of every schedule entry, the terminator of every member, the
operand-stack depth at every point of every block body, and the bit
weight of every ``pc`` value are all compile-time constants. The plan
layer lowers that structure into dense tables once per program so the
per-meta-step work of the simulator becomes array gathers instead of
per-entry ``np.isin`` calls and per-member ``isinstance`` chains (the
same fixed-transition-structure observation data-parallel automata
runners exploit):

- **entry sources** — each schedule entry is classified as
  single-member, all-members, or a guard row (a ``pc``-indexed uint8
  mask); at run time the enabled index set is reused from the
  per-member lane lists for the first two (the overwhelmingly common
  cases) and is one small-table gather for the third;
- **static depths** — the operand-stack depth of every guard member at
  every entry is precompiled relative to the segment entry, so body
  execution never reads or scatters the per-PE stack pointers;
  they are written back once per member at the segment boundary
  (:func:`repro.simd.vecops.exec_instr_at` is the sp-free twin of
  ``exec_instr``);
- **terminator tables** — per-member (kind code, on_true, on_false)
  triples replacing the ``isinstance`` dispatch;
- **bit weights** — the ``bid -> 1 << bid`` table (object dtype once
  ids exceed an int64 word) making ``globalor`` one
  ``bitwise_or.reduce`` over the live lanes;
- **absolute entry depths** — a whole-program dataflow over the plan
  resolves every member's operand-stack depth at segment entry to a
  compile-time constant (the CFG verifier guarantees consistency; spawn
  children restart at depth 0). Each entry's stack row is then a
  precomputed scalar — or, when a CSI entry is shared by members at
  different depths, a precomputed per-bid table — so neither the plan
  executor nor the fused kernels (:mod:`repro.codegen.kernels`) ever
  reads ``st.sp`` during a body.

Plans change *nothing* about the simulated cost model: the machine
charges exactly the same cycles per entry and per terminator; only the
host-side bookkeeping gets cheaper. ``SimdMachine(backend="interp")``
keeps the original interpretive executor as a differential oracle.
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

#: Entry-source codes: where the enabled lane set of a schedule entry
#: comes from.
SRC_SINGLE = 0   # one member: reuse its lane list
SRC_ALL = 1      # every member: reuse the segment's live-lane list
SRC_SUBSET = 2   # a strict subset: gather the guard row by pc

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
    src_modes: tuple            # per entry: SRC_SINGLE / SRC_ALL / SRC_SUBSET
    src_args: tuple             # per entry: member index | None | uint8 guard row
    guard_members: tuple        # per entry: member indices in its guard
    rel_depths: tuple           # per entry: depth before it, per guard member,
                                # relative to the member's segment-entry depth
    total_delta: tuple          # per member: net body stack delta
    kinds: tuple                # per member: terminator kind code
    on_true: tuple              # per member: Fall target / CondBr on_true / spawn child
    on_false: tuple             # per member: CondBr on_false / spawn cont
    #: Static absolute operand-stack depth of each member at segment
    #: entry (aligned with ``member_bids``), or ``None`` when the
    #: program-level dataflow could not resolve them (hand-built
    #: programs with inconsistent paths).
    entry_depths: tuple | None = None
    #: Per entry: the absolute stack depth before it as a scalar when
    #: every guard member agrees, else ``None`` (see ``depth_tables``).
    depth_scalars: tuple | None = None
    #: Per entry: a ``bid -> absolute depth`` int64 table for the
    #: mixed-depth case (dispatch chains), else ``None``. Exactly one of
    #: ``depth_scalars[e]`` / ``depth_tables[e]`` is set per entry.
    depth_tables: tuple | None = None


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
    bit_weights: np.ndarray         # (n_bids,) 1 << bid; object dtype when wide
    nodes: dict = field(default_factory=dict)  # entry meta state -> NodePlan
    #: ``bid -> absolute stack depth at block entry`` resolved by
    #: :func:`_entry_depth_dataflow`, or ``None`` when unresolvable.
    static_depths: dict | None = None

    def stats(self) -> dict:
        """Plan-size counters for the stage report."""
        segments = [sp for np_ in self.nodes.values() for sp in np_.segments]
        return {
            "plan_nodes": len(self.nodes),
            "plan_segments": len(segments),
            "plan_entries": sum(len(sp.instrs) for sp in segments),
            "plan_guard_rows": sum(
                1 for sp in segments for m in sp.src_modes if m == SRC_SUBSET
            ),
            "plan_static_depths": int(self.static_depths is not None),
            "plan_depth_tables": sum(
                1 for sp in segments for t in (sp.depth_tables or ())
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
    n_bids = _max_bid(prog) + 1
    if n_bids <= 63:
        weights = np.array([1 << b for b in range(n_bids)], dtype=np.int64)
    else:
        # Aggregates wider than a machine word: keep exact Python ints.
        weights = np.array([1 << b for b in range(n_bids)], dtype=object)
    plan = ProgramPlan(n_bids=n_bids, bit_weights=weights)
    for key, node in prog.nodes.items():
        segments = [_compile_segment(seg, n_bids) for seg in node.segments]
        plan.nodes[key] = NodePlan(
            segments=segments,
            shardable=_node_shardable(segments),
        )
    plan.static_depths = _entry_depth_dataflow(prog, plan)
    if plan.static_depths is not None:
        for nplan in plan.nodes.values():
            for sp in nplan.segments:
                _attach_static_depths(sp, plan.static_depths, n_bids)
    return plan


def incremental_plan(cfg) -> ProgramPlan:
    """An empty :class:`ProgramPlan` sized for *any* program over
    ``cfg`` — the starting point of lazy compilation.

    Eager compiles derive ``n_bids`` from the finished program
    (:func:`_max_bid`); a partial program grows, so the lazy manager
    sizes the bit-weight and guard tables from the CFG's largest block
    id up front (every meta-state member is a CFG block, so the bound
    holds for every node that can ever appear). ``static_depths``
    comes from :func:`cfg_entry_depths`, the whole-CFG twin of
    :func:`_entry_depth_dataflow`."""
    n_bids = max(cfg.blocks) + 1
    if n_bids <= 63:
        weights = np.array([1 << b for b in range(n_bids)], dtype=np.int64)
    else:
        weights = np.array([1 << b for b in range(n_bids)], dtype=object)
    plan = ProgramPlan(n_bids=n_bids, bit_weights=weights)
    plan.static_depths = cfg_entry_depths(cfg)
    return plan


def compile_node_plan(node, n_bids: int,
                      static_depths: dict | None = None) -> NodePlan:
    """Compile the :class:`NodePlan` of a single emitted node — the
    per-node twin of :func:`compile_plan` that lazy compilation calls
    as the runtime discovers nodes. ``static_depths`` is the
    program-wide (or CFG-wide, see :func:`cfg_entry_depths`) entry
    depth map; when given, the per-entry depth scalars/tables are
    attached exactly as the eager path does."""
    segments = [_compile_segment(seg, n_bids) for seg in node.segments]
    nplan = NodePlan(segments=segments, shardable=_node_shardable(segments))
    if static_depths is not None:
        for sp in segments:
            _attach_static_depths(sp, static_depths, n_bids)
    return nplan


def cfg_entry_depths(cfg) -> dict | None:
    """Resolve ``bid -> absolute operand-stack depth at block entry``
    from the CFG alone, before any meta state exists.

    This is the lazy-mode twin of :func:`_entry_depth_dataflow`: the
    plan segments mirror the CFG blocks instruction for instruction
    (each member's schedule entries are exactly its block's code), so
    propagating each block's net stack delta through the terminators
    (Fall keeps the final depth, CondBr pops the condition, spawn
    children restart at 0) yields the same fixpoint the eager dataflow
    reaches over the finished plan. Returns ``None`` when any block is
    reachable at two different depths or a depth goes negative."""
    deltas = {
        bid: sum(instr.stack_delta() for instr in blk.code)
        for bid, blk in cfg.blocks.items()
    }
    depths: dict[int, int] = {cfg.entry: 0}
    work = [cfg.entry]
    while work:
        bid = work.pop()
        fin = depths[bid] + deltas[bid]
        term = cfg.blocks[bid].terminator
        if isinstance(term, Fall):
            targets = ((term.target, fin),)
        elif isinstance(term, CondBr):
            targets = ((term.on_true, fin - 1), (term.on_false, fin - 1))
        elif isinstance(term, SpawnT):
            targets = ((term.child, 0), (term.cont, fin))
        else:  # Return / Halt: no live successor
            targets = ()
        for t, td in targets:
            if td < 0:
                return None
            prev = depths.get(t)
            if prev is None:
                depths[t] = td
                work.append(t)
            elif prev != td:
                return None
    return depths


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


def _entry_depth_dataflow(prog, plan: ProgramPlan) -> dict | None:
    """Resolve the absolute operand-stack depth at entry of every member
    block by propagating from the start state through the terminator
    tables (Fall keeps the body's final depth, CondBr pops the
    condition, spawn children restart at 0 — they are fresh PEs).

    Returns ``bid -> depth`` covering every member of every segment, or
    ``None`` when any block is reached at two different depths, a depth
    goes negative, or some member is never reached (only possible for
    hand-built programs — CFG-verified compiles are always consistent).
    """
    depths: dict[int, int] = {bid: 0 for bid in prog.start}
    changed = True
    while changed:
        changed = False
        for nplan in plan.nodes.values():
            for sp in nplan.segments:
                for j, bid in enumerate(sp.member_bids):
                    d = depths.get(bid)
                    if d is None:
                        continue
                    fin = d + sp.total_delta[j]
                    kind = sp.kinds[j]
                    if kind == K_FALL:
                        targets = ((sp.on_true[j], fin),)
                    elif kind == K_COND:
                        targets = ((sp.on_true[j], fin - 1),
                                   (sp.on_false[j], fin - 1))
                    elif kind == K_SPAWN:
                        targets = ((sp.on_true[j], 0),
                                   (sp.on_false[j], fin))
                    else:  # K_RET / K_HALT: no live successor
                        targets = ()
                    for t, td in targets:
                        if td < 0:
                            return None
                        prev = depths.get(t)
                        if prev is None:
                            depths[t] = td
                            changed = True
                        elif prev != td:
                            return None
    for nplan in plan.nodes.values():
        for sp in nplan.segments:
            for bid in sp.member_bids:
                if bid not in depths:
                    return None
    return depths


def _attach_static_depths(sp: SegmentPlan, depths: dict,
                          n_bids: int) -> None:
    """Precompute each entry's absolute stack depth for ``sp``: a scalar
    when the guard members agree, else a ``bid -> depth`` gather table
    (the mixed-depth dispatch-chain case)."""
    entry = tuple(depths[bid] for bid in sp.member_bids)
    scalars: list = []
    tables: list = []
    for e in range(len(sp.instrs)):
        gm = sp.guard_members[e]
        rel = sp.rel_depths[e]
        abs_depths = [entry[j] + rel[k] for k, j in enumerate(gm)]
        if len(set(abs_depths)) == 1:
            scalars.append(abs_depths[0])
            tables.append(None)
        else:
            table = np.zeros(n_bids, dtype=np.int64)
            for k, j in enumerate(gm):
                table[sp.member_bids[j]] = abs_depths[k]
            scalars.append(None)
            tables.append(table)
    sp.entry_depths = entry
    sp.depth_scalars = tuple(scalars)
    sp.depth_tables = tuple(tables)


def _compile_segment(seg, n_bids: int) -> SegmentPlan:
    members = tuple(sorted(seg.members))
    index_of = {bid: j for j, bid in enumerate(members)}
    all_set = frozenset(members)

    src_modes = []
    src_args = []
    guard_members = []
    rel_depths = []
    depth = {bid: 0 for bid in members}
    for entry in seg.schedule.entries:
        guards = sorted(entry.guards)
        if len(guards) == 1:
            src_modes.append(SRC_SINGLE)
            src_args.append(index_of[guards[0]])
        elif entry.guards == all_set:
            src_modes.append(SRC_ALL)
            src_args.append(None)
        else:
            row = np.zeros(n_bids + 1, dtype=np.uint8)
            row[list(guards)] = 1
            src_modes.append(SRC_SUBSET)
            src_args.append(row)
        guard_members.append(tuple(index_of[b] for b in guards))
        rel_depths.append(tuple(depth[b] for b in guards))
        delta = entry.instr.stack_delta()
        for b in guards:
            depth[b] += delta

    kinds = []
    on_true = []
    on_false = []
    for bid in members:
        term, is_barrier = seg.terminators[bid]
        if is_barrier:
            # Executing the barrier state itself = everyone arrived;
            # proceed through its single exit.
            assert isinstance(term, Fall)
            kinds.append(K_FALL)
            on_true.append(term.target)
            on_false.append(0)
        elif isinstance(term, Fall):
            kinds.append(K_FALL)
            on_true.append(term.target)
            on_false.append(0)
        elif isinstance(term, CondBr):
            kinds.append(K_COND)
            on_true.append(term.on_true)
            on_false.append(term.on_false)
        elif isinstance(term, Return):
            kinds.append(K_RET)
            on_true.append(0)
            on_false.append(0)
        elif isinstance(term, Halt):
            kinds.append(K_HALT)
            on_true.append(0)
            on_false.append(0)
        elif isinstance(term, SpawnT):
            kinds.append(K_SPAWN)
            on_true.append(term.child)
            on_false.append(term.cont)
        else:
            raise AssertionError(f"unknown terminator {term!r}")

    return SegmentPlan(
        member_bids=members,
        instrs=tuple(e.instr for e in seg.schedule.entries),
        src_modes=tuple(src_modes),
        src_args=tuple(src_args),
        guard_members=tuple(guard_members),
        rel_depths=tuple(rel_depths),
        total_delta=tuple(depth[bid] for bid in members),
        kinds=tuple(kinds),
        on_true=tuple(on_true),
        on_false=tuple(on_false),
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
