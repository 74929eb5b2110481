"""CFG structure shared by the analyzers and the ``-O2`` optimizer.

Predecessor lists and backward closures over the reachable subgraph,
postdominators and control dependence, the barrier-free regions that
bound meta-state explosion, and one memoized walk over the acyclic
paths of a branch arm.

Control dependence is the classic postdominance formulation: ``x`` is
control dependent on branch ``b`` iff ``x`` postdominates some
successor of ``b`` but does not strictly postdominate ``b``.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

from repro.ir.cfg import Cfg

T = TypeVar("T")

#: Virtual exit node: the single sink behind every Return/Halt.
EXIT = -1


def predecessor_map(cfg: Cfg, reachable: set[int]) -> dict[int, list[int]]:
    """Predecessor lists over the reachable subgraph — the substrate of
    the solver's joins and of every backward walk in the analyzers."""
    preds: dict[int, list[int]] = {b: [] for b in reachable}
    for bid in reachable:
        for s in cfg.blocks[bid].successors():
            if s in preds:
                preds[s].append(bid)
    return preds


def backward_closure(
    cfg: Cfg,
    preds: dict[int, list[int]],
    seeds: Iterable[int],
    *,
    cross_barriers: bool = True,
) -> set[int]:
    """Blocks that can reach some seed block (seeds included).

    With ``cross_barriers=False`` the walk refuses to step back onto a
    barrier-wait block, so the closure only contains blocks reaching a
    seed along a barrier-free path — the "can run to exit without
    synchronizing" query of the deadlock detector.
    """
    work = list(seeds)
    seen = set(work)
    while work:
        bid = work.pop()
        for p in preds.get(bid, ()):
            if p in seen:
                continue
            if not cross_barriers and cfg.blocks[p].is_barrier_wait:
                continue
            seen.add(p)
            work.append(p)
    return seen


def postdominator_sets(cfg: Cfg) -> dict[int, set[int]]:
    """``pdom[b]`` = ids postdominating ``b`` (including ``b`` and
    :data:`EXIT`), over the blocks reachable from the entry."""
    blocks = sorted(cfg.reachable())
    succ: dict[int, list[int]] = {}
    for bid in blocks:
        succs = list(cfg.blocks[bid].successors())
        succ[bid] = succs if succs else [EXIT]
    universe = set(blocks) | {EXIT}
    pdom: dict[int, set[int]] = {b: set(universe) for b in blocks}
    pdom[EXIT] = {EXIT}
    changed = True
    while changed:
        changed = False
        for b in blocks:
            new = {b} | set.intersection(*(pdom[s] for s in succ[b]))
            if new != pdom[b]:
                pdom[b] = new
                changed = True
    return pdom


def immediate_postdominator(pdom: dict[int, set[int]], bid: int) -> int:
    """The closest strict postdominator of ``bid`` (:data:`EXIT` when
    control only rejoins at program exit).

    Strict postdominators of a node form a chain; the immediate one is
    the chain element with the largest postdominator set (exit has the
    smallest).
    """
    strict = pdom[bid] - {bid}
    if not strict:
        return EXIT
    return max(strict, key=lambda x: (len(pdom.get(x, {x})), x))


def control_dependents(
    cfg: Cfg, pdom: dict[int, set[int]], bid: int
) -> set[int]:
    """Blocks control dependent on the two-arc (or spawn) block ``bid``."""
    deps: set[int] = set()
    spdom = pdom[bid] - {bid}
    for s in cfg.blocks[bid].successors():
        for x in pdom.get(s, set()):
            if x != EXIT and x not in spdom:
                deps.add(x)
    return deps


def barrier_free_regions(cfg: Cfg) -> list[set[int]]:
    """Weakly-connected components of the barrier-free subgraph.

    Barriers reset the aggregate — every PE parks until all arrive, so
    meta states never span one — which makes each region the unit of
    meta-state explosion and of PE lockstep.
    """
    reachable = cfg.reachable()
    nodes = [b for b in reachable if not cfg.blocks[b].is_barrier_wait]
    adj: dict[int, set[int]] = {b: set() for b in nodes}
    for bid in nodes:
        for s in cfg.blocks[bid].successors():
            if s in adj:
                adj[bid].add(s)
                adj[s].add(bid)
    regions: list[set[int]] = []
    seen: set[int] = set()
    for bid in nodes:
        if bid in seen:
            continue
        comp: set[int] = set()
        work = [bid]
        while work:
            b = work.pop()
            if b in comp:
                continue
            comp.add(b)
            work.extend(adj[b] - comp)
        seen |= comp
        regions.append(comp)
    return regions


def fold_arm(
    cfg: Cfg,
    start: int,
    join: int,
    reachable: set[int],
    zero: T,
    step: Callable[[int, list[T]], T | None],
) -> T | None:
    """Fold a per-block value over the acyclic paths from the branch arm
    ``start`` to ``join``, the branch's immediate postdominator.

    ``join`` and blocks outside ``reachable`` fold to ``zero``; a block
    with no successors (a path that exits inside the arm) folds as if
    it went on to ``join``.  ``step(bid, subs)`` combines block ``bid``
    with the folds of its successors, memoized per block, and returns
    ``None`` to give up.  The walk is ``None`` when the arm contains a
    cycle (a loop makes the static fold unbounded) or a step gives up.
    """
    memo: dict[int, T] = {}
    on_path: set[int] = set()

    def walk(bid: int) -> T | None:
        if bid == join or bid not in reachable:
            return zero
        if bid in memo:
            return memo[bid]
        if bid in on_path:
            return None
        on_path.add(bid)
        subs: list[T] = []
        for s in cfg.blocks[bid].successors() or (join,):
            sub = walk(s)
            if sub is None:
                return None
            subs.append(sub)
        on_path.discard(bid)
        folded = step(bid, subs)
        if folded is not None:
            memo[bid] = folded
        return folded

    return walk(start)
