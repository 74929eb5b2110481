"""Whole-program facts distilled from the absint fixpoints.

:func:`compute_facts` runs the interval and must-init domains plus the
uniform/varying classification and packages everything downstream
consumers ask for: per-slot value ranges (the hypothesis differential
test checks the MIMD oracle never observes a value outside them),
use-before-def reads (MSC060), dead router stores (MSC061), barriers
whose pass counts a divergent loop exit skews (MSC062), and the
uniform-branch set that tightens the explosion estimator and drives
the ``uniform-branch`` meta pass.

:func:`certificates` is the deliberately *lightweight* subset — no
interval solving — that the meta-phase ``certify`` analyzer can afford
to recompute when the pipeline hands it a fresh context: sound
race-freedom and deadlock-freedom arguments that hold for the whole
program, not just the subgraph a truncated (MSC050) frontier explored.

Two certificate routes exist, both polynomial:

``lockstep``
    No spawn and no divergent branch means every PE takes the same arm
    of every branch in the same superstep, so each reachable aggregate
    is a singleton — co-residence (the precondition of every MSC02x
    race) and asymmetric barrier arrival (MSC01x) are impossible.

``no-conflicts`` / ``no-barriers``
    :data:`CONFLICT_RULE` asked of *every* two distinct reachable
    blocks: when no two conflict on a mono slot or router-shared poly
    slot, no reachable meta state can exhibit a race regardless of
    which aggregates are realizable.  Deadlock-freedom holds trivially
    when the program has no ``wait`` at all.

The race analyzer (:mod:`repro.lint.races`) applies the same rule to
the block pairs that can share a meta state, so the certificate and
the MSC020/MSC021 findings cannot drift apart.  Both speak about
conflicts between *distinct* co-resident blocks — the pairwise sense
of Attie's normal form (PAPERS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.absint.domains import (
    _U_LD,
    _U_LDI,
    _U_LDM,
    _U_LDMI,
    _U_LDR,
    _U_PUSH,
    _U_ST,
    _U_STI,
    _U_STM,
    _U_STMI,
    _U_STR,
    ZERO,
    InitDomain,
    Interval,
    IntervalDomain,
    MicroOp,
)
from repro.absint.graph import predecessor_map
from repro.absint.solver import _reverse_postorder, solve
from repro.absint.uniformity import UniformityInfo, analyze_uniformity
from repro.ir.block import CondBr, SpawnT
from repro.ir.cfg import Cfg


@dataclass(frozen=True)
class UninitRead:
    """A poly slot read on some path before any store to it."""

    slot: int
    name: str
    block: int
    line: int


@dataclass(frozen=True)
class DeadRouterStore:
    """A ``StR`` to a slot no instruction anywhere ever reads."""

    slot: int
    name: str
    block: int
    line: int


@dataclass(frozen=True)
class DivergentCycleBarrier:
    """A barrier inside a cycle whose exit branch is divergent."""

    barrier: int
    branch: int
    line: int
    branch_line: int


@dataclass(frozen=True)
class Certificates:
    """Sound whole-program guarantees (``None`` = not established).

    Each certificate is a short ``route: reason`` string naming the
    argument that proves it.
    """

    race_free: str | None = None
    deadlock_free: str | None = None


@dataclass
class AbsintFacts:
    """Everything the absint analyzers and the optimizer consume."""

    #: Reachable ``CondBr`` blocks proven to take one arm on all PEs.
    uniform_branches: frozenset[int]
    #: Reachable ``CondBr`` blocks whose condition may vary across PEs.
    divergent_branches: frozenset[int]
    #: Poly slots whose copies cross the router (flow-insensitive).
    escaped_slots: frozenset[int]
    #: Per-poly-slot whole-program value range (zero-init included).
    poly_ranges: dict[int, Interval]
    #: Per-mono-slot whole-program value range.
    mono_ranges: dict[int, Interval]
    uninit_reads: tuple[UninitRead, ...]
    dead_router_stores: tuple[DeadRouterStore, ...]
    divergent_cycle_barriers: tuple[DivergentCycleBarrier, ...]
    certificates: Certificates
    #: Transfer applications the interval fixpoint took.
    solver_iterations: int

    def counters(self) -> dict[str, int]:
        """Integer fact counts for the per-analyzer ``--timings`` row."""
        return {
            "uniform_branches": len(self.uniform_branches),
            "divergent_branches": len(self.divergent_branches),
            "escaped_slots": len(self.escaped_slots),
            "solver_iterations": self.solver_iterations,
            "certificates": sum(
                1 for c in (self.certificates.race_free,
                            self.certificates.deadlock_free) if c
            ),
        }


# ----------------------------------------------------------------------
# slot names
# ----------------------------------------------------------------------
def _poly_name(cfg: Cfg, slot: int) -> str:
    for info in cfg.poly_slots:
        if info.index == slot:
            return info.name
    return f"slot{slot}"


# ----------------------------------------------------------------------
# shared-memory footprints and the conflict rule
# ----------------------------------------------------------------------
#: Stand-in for "some non-constant value" among a mono slot's stores.
_UNKNOWN = object()


@dataclass
class Footprint:
    """Shared-memory footprint of one basic block.

    Mono slots have one copy machine-wide.  Poly slots are accessed
    through the router (``LdR``/``StR`` reach *other* PEs' copies) or
    locally (the executing PE's own copy).
    """

    mono_writes: set[int] = field(default_factory=set)
    mono_reads: set[int] = field(default_factory=set)
    remote_writes: set[int] = field(default_factory=set)
    remote_reads: set[int] = field(default_factory=set)
    local_writes: set[int] = field(default_factory=set)
    local_reads: set[int] = field(default_factory=set)
    #: mono slot -> stored values: the constant of the push just before
    #: an ``StM``, else ``_UNKNOWN``.
    mono_values: dict[int, set[object]] = field(default_factory=dict)


def block_footprint(ops: list[MicroOp]) -> Footprint:
    """The footprint of one block's micro-ops
    (:func:`repro.absint.domains.compile_code`)."""
    fp = Footprint()
    prev: MicroOp | None = None
    for op in ops:
        tag, a1, a2 = op
        if tag == _U_STM:
            value: object = _UNKNOWN
            if prev is not None and prev[0] == _U_PUSH \
                    and prev[1].lo == prev[1].hi:
                value = prev[1].lo
            fp.mono_writes.add(a1)
            fp.mono_values.setdefault(a1, set()).add(value)
        elif tag == _U_STMI:
            for s in range(a1, a1 + a2):
                fp.mono_writes.add(s)
                fp.mono_values.setdefault(s, set()).add(_UNKNOWN)
        elif tag == _U_LDM:
            fp.mono_reads.add(a1)
        elif tag == _U_LDMI:
            fp.mono_reads.update(range(a1, a1 + a2))
        elif tag == _U_STR:
            fp.remote_writes.add(a1)
        elif tag == _U_LDR:
            fp.remote_reads.add(a1)
        elif tag == _U_ST:
            fp.local_writes.add(a1)
        elif tag == _U_STI:
            fp.local_writes.update(range(a1, a1 + a2))
        elif tag == _U_LD:
            fp.local_reads.add(a1)
        elif tag == _U_LDI:
            fp.local_reads.update(range(a1, a1 + a2))
        prev = op
    return fp


#: The conflict rule between two distinct blocks ``a`` and ``b``: each
#: row is a conflict kind (``ww`` write-write, ``rw`` read-write), a
#: storage class, and the ``(access of a, access of b)`` pairs whose
#: common slots conflict.  Every mono access reaches the one shared
#: copy; a router access can touch any PE's copy, so a remote write
#: conflicts with any access of the slot and a remote read with any
#: write.  Local-local pairs never conflict: each PE touches only its
#: own copy and executes one member block at a time.
CONFLICT_RULE: tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...] = (
    ("ww", "mono", (("mono_writes", "mono_writes"),)),
    ("rw", "mono", (("mono_writes", "mono_reads"),)),
    ("rw", "mono", (("mono_reads", "mono_writes"),)),
    ("ww", "poly", (("remote_writes", "remote_writes"),
                    ("remote_writes", "local_writes"))),
    ("ww", "poly", (("local_writes", "remote_writes"),)),
    ("rw", "poly", (("remote_writes", "remote_reads"),
                    ("remote_writes", "local_reads"))),
    ("rw", "poly", (("remote_reads", "remote_writes"),
                    ("local_reads", "remote_writes"))),
    ("rw", "poly", (("remote_reads", "local_writes"),
                    ("local_writes", "remote_reads"))),
)

#: Every access kind the rule reads.
_ACCESSES = sorted({x for _k, _s, pairs in CONFLICT_RULE
                    for pair in pairs for x in pair})


def pair_conflicts(
    a: Footprint, b: Footprint
) -> list[tuple[str, int, str, bool]]:
    """:data:`CONFLICT_RULE` applied to two blocks' footprints.

    Returns ``(kind, slot, storage, benign)`` tuples, rule row by rule
    row, slots ascending.  A mono write-write conflict is benign when
    both blocks store the same single compile-time constant: the merged
    schedule stores that value whatever the order.
    """
    out: list[tuple[str, int, str, bool]] = []
    for kind, storage, accesses in CONFLICT_RULE:
        slots: set[int] = set()
        for x, y in accesses:
            slots |= getattr(a, x) & getattr(b, y)
        for slot in sorted(slots):
            benign = False
            if kind == "ww" and storage == "mono":
                va, vb = a.mono_values[slot], b.mono_values[slot]
                benign = len(va) == 1 and va == vb and _UNKNOWN not in va
            out.append((kind, slot, storage, benign))
    return out


def any_conflict(footprints: Iterable[tuple[int, Footprint]]) -> bool:
    """Do any two distinct blocks conflict under :data:`CONFLICT_RULE`?

    Indexes the blocks by access and slot, so the answer costs one pass
    over the footprints rather than one rule check per block pair.
    """
    index: dict[str, dict[int, set[int]]] = {a: {} for a in _ACCESSES}
    for bid, fp in footprints:
        for access, slots in index.items():
            for slot in getattr(fp, access):
                slots.setdefault(slot, set()).add(bid)
    for _kind, _storage, accesses in CONFLICT_RULE:
        for x, y in accesses:
            for slot, blocks in index[x].items():
                other = index[y].get(slot)
                if other and len(blocks | other) >= 2:
                    return True
    return False


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------
def certificates(cfg: Cfg, uniformity: UniformityInfo) -> Certificates:
    """Race-/deadlock-freedom certificates (see module docstring)."""
    reachable = set(uniformity.entry_depths)
    has_spawn = any(
        isinstance(cfg.blocks[b].terminator, SpawnT) for b in reachable
    )
    has_barrier = any(
        cfg.blocks[b].is_barrier_wait for b in reachable
    )
    race: str | None = None
    deadlock: str | None = None
    if not has_spawn and not uniformity.divergent_branches:
        why = ("every reachable branch is uniform and nothing spawns, "
               "so all PEs advance in lockstep and every reachable "
               "aggregate is a singleton")
        race = f"lockstep: {why} — distinct blocks are never co-resident"
        deadlock = f"lockstep: {why} — all PEs reach each barrier together"
    if race is None and not any_conflict(
            (b, block_footprint(uniformity.compiled[b]))
            for b in sorted(reachable)):
        race = ("no-conflicts: no two blocks conflict on a mono slot or "
                "router-shared poly slot, so no aggregate can race")
    if deadlock is None and not has_barrier:
        deadlock = "no-barriers: the program contains no wait barriers"
    return Certificates(race_free=race, deadlock_free=deadlock)


# ----------------------------------------------------------------------
# MSC060/061/062 fact extraction
# ----------------------------------------------------------------------
def _uninit_reads(
    cfg: Cfg,
    reachable: set[int],
    init_entry: dict[int, frozenset[int]],
    compiled: dict[int, list[MicroOp]],
) -> tuple[UninitRead, ...]:
    """First ``Ld`` of each poly slot that some entry path reaches
    before any store (array ``LdI`` and router ``LdR`` reads are
    exempt: partial array init and remote snapshots are idiomatic).

    Walks the interval domain's compiled micro-ops — same instruction
    order, slot indices already decoded."""
    out: list[UninitRead] = []
    flagged: set[int] = set()
    for bid in sorted(reachable):
        init = set(init_entry.get(bid, frozenset()))
        for tag, a1, a2 in compiled[bid]:
            if tag == _U_LD:
                if a1 not in init and a1 not in flagged:
                    flagged.add(a1)
                    out.append(UninitRead(
                        slot=a1, name=_poly_name(cfg, a1),
                        block=bid, line=cfg.blocks[bid].src_line or 0))
            elif tag == _U_ST or (tag == _U_STI and a2 == 1):
                init.add(a1)
    return tuple(out)


def _dead_router_stores(
    cfg: Cfg, reachable: set[int],
    compiled: dict[int, list[MicroOp]],
) -> tuple[DeadRouterStore, ...]:
    """``StR`` targets no instruction anywhere reads (locally, via the
    router, or through an array window covering the slot)."""
    read_slots: set[int] = set()
    stores: list[tuple[int, int, int]] = []  # (slot, block, line)
    for bid in sorted(reachable):
        for tag, a1, a2 in compiled[bid]:
            if tag == _U_LD or tag == _U_LDR:
                read_slots.add(a1)
            elif tag == _U_LDI:
                read_slots.update(range(a1, a1 + a2))
            elif tag == _U_STR:
                stores.append((a1, bid, cfg.blocks[bid].src_line or 0))
    out: list[DeadRouterStore] = []
    flagged: set[int] = set()
    for slot, bid, line in stores:
        if slot in read_slots or slot in flagged:
            continue
        flagged.add(slot)
        out.append(DeadRouterStore(slot=slot, name=_poly_name(cfg, slot),
                                   block=bid, line=line))
    return tuple(out)


def _sccs(cfg: Cfg, reachable: set[int]) -> list[set[int]]:
    """Tarjan's strongly connected components, iteratively."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    comps: list[set[int]] = []

    for root in sorted(reachable):
        if root in index:
            continue
        work: list[tuple[int, list[int]]] = [
            (root, [s for s in sorted(cfg.blocks[root].successors())
                    if s in reachable])
        ]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            bid, succs = work[-1]
            if succs:
                s = succs.pop()
                if s not in index:
                    index[s] = low[s] = counter
                    counter += 1
                    stack.append(s)
                    on_stack.add(s)
                    work.append(
                        (s, [t for t in sorted(cfg.blocks[s].successors())
                             if t in reachable])
                    )
                elif s in on_stack:
                    low[bid] = min(low[bid], index[s])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[bid])
                if low[bid] == index[bid]:
                    comp: set[int] = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == bid:
                            break
                    comps.append(comp)
    return comps


def _divergent_cycle_barriers(
    cfg: Cfg,
    reachable: set[int],
    divergent_branches: frozenset[int],
) -> tuple[DivergentCycleBarrier, ...]:
    """Barriers in a cycle some PEs exit earlier than others.

    A barrier inside a nontrivial SCC executes once per trip around the
    cycle; when a *divergent* branch in the same SCC has an arm leaving
    it, PEs can take differing trip counts, so their barrier pass
    counts diverge.  A uniform exit (``phase < nproc``) keeps the
    counts equal — that is what exempts the library's barrier loops.
    """
    out: list[DivergentCycleBarrier] = []
    for comp in _sccs(cfg, reachable):
        nontrivial = len(comp) > 1 or any(
            s in comp for b in comp for s in cfg.blocks[b].successors()
        )
        if not nontrivial:
            continue
        barriers = sorted(b for b in comp if cfg.blocks[b].is_barrier_wait)
        if not barriers:
            continue
        exits = sorted(
            b for b in comp
            if b in divergent_branches
            and isinstance(cfg.blocks[b].terminator, CondBr)
            and any(s not in comp for s in cfg.blocks[b].successors())
        )
        if not exits:
            continue
        branch = exits[0]
        for b in barriers:
            out.append(DivergentCycleBarrier(
                barrier=b, branch=branch,
                line=cfg.blocks[b].src_line or 0,
                branch_line=cfg.blocks[branch].src_line or 0))
    return tuple(out)


# ----------------------------------------------------------------------
# the main entry point
# ----------------------------------------------------------------------
def compute_facts(
    cfg: Cfg, *, uniformity: UniformityInfo | None = None
) -> AbsintFacts:
    """Run both fixpoint domains and distill :class:`AbsintFacts`."""
    uni = uniformity if uniformity is not None else analyze_uniformity(cfg)
    reachable = set(uni.entry_depths)
    uniform_branches = frozenset(
        b for b in reachable
        if isinstance(cfg.blocks[b].terminator, CondBr)
        and b not in uni.divergent_branches
    )

    preds = predecessor_map(cfg, reachable)
    rpo = _reverse_postorder(cfg, reachable)
    interval_dom = IntervalDomain(cfg, uni.entry_depths,
                                  compiled=uni.compiled or None)
    ivals = solve(cfg, interval_dom, reachable=reachable,
                  preds=preds, rpo=rpo)
    init = solve(cfg, InitDomain(cfg, compiled=interval_dom.compiled),
                 reachable=reachable, preds=preds, rpo=rpo)

    poly_ranges: dict[int, Interval] = {}
    for slot in range(len(cfg.poly_slots)):
        if slot in interval_dom.escaped:
            poly_ranges[slot] = interval_dom.poly_global.get(slot, ZERO)
            continue
        # Idle PEs keep the zero fill, so the entry state's [0, 0] is
        # part of every slot's observable range.
        joined = ZERO
        for state in ivals.entry.values():
            joined = joined.join(state[slot])
        for state in ivals.exit.values():
            joined = joined.join(state[slot])
        poly_ranges[slot] = joined
    mono_ranges = dict(interval_dom.mono_global)

    return AbsintFacts(
        uniform_branches=uniform_branches,
        divergent_branches=frozenset(uni.divergent_branches),
        escaped_slots=interval_dom.escaped,
        poly_ranges=poly_ranges,
        mono_ranges=mono_ranges,
        uninit_reads=_uninit_reads(cfg, reachable, init.entry,
                                   interval_dom.compiled),
        dead_router_stores=_dead_router_stores(cfg, reachable,
                                               interval_dom.compiled),
        divergent_cycle_barriers=_divergent_cycle_barriers(
            cfg, reachable, frozenset(uni.divergent_branches)),
        certificates=certificates(cfg, uni),
        solver_iterations=ivals.iterations,
    )


__all__ = [
    "AbsintFacts",
    "Certificates",
    "DeadRouterStore",
    "DivergentCycleBarrier",
    "UninitRead",
    "certificates",
    "compute_facts",
]
