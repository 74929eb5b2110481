"""Generic worklist fixpoint solver over the MIMDC CFG.

One solver, many lattices: a :class:`Domain` packages the abstract
state (entry value, join, widening, per-block transfer), and
:func:`solve` iterates block-level transfer functions to a fixpoint
over the reachable subgraph, joining over the predecessor lists of
:func:`repro.absint.graph.predecessor_map`.  Blocks are seeded in
reverse postorder so acyclic stretches converge in one sweep; loops
re-enqueue successors until their entry states stabilize, with
widening applied after :data:`WIDEN_AFTER` visits of the same block so
interval chains cannot climb forever.

Domains may also carry *flow-insensitive* shared facts (the interval
domain keeps one global cell per mono slot and per router-escaped poly
slot — any PE can observe those at any program point; the uniformity
domain keeps nothing but shared facts).  A transfer that grows a
shared fact flips the domain's dirty flag; the solver polls it after
each drain and restarts the sweep, so per-block states absorb the
enlarged globals before the result is declared stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Protocol, TypeVar

from repro.absint.graph import predecessor_map
from repro.ir.cfg import Cfg

S = TypeVar("S")

#: Visits of one block before joins at its entry switch to widening.
#: Two plain joins let constant-bound loop patterns converge before
#: acceleration kicks in; a third buys no extra precision on any
#: library workload but costs a full sweep.
WIDEN_AFTER = 2

#: Hard iteration backstop; the lattices here are finite-height after
#: widening, so hitting it indicates a broken transfer function.
MAX_ITERATIONS = 100_000


class Domain(Protocol[S]):
    """One abstract lattice the solver can run.

    ``S`` must support ``==`` (stability test); values are treated as
    immutable — transfer returns a fresh state.
    """

    def entry_state(self) -> S:
        """Abstract state at the program entry block."""
        ...

    def join(self, a: S, b: S) -> S:
        """Least upper bound of two states."""
        ...

    def widen(self, old: S, new: S) -> S:
        """Accelerated join used after :data:`WIDEN_AFTER` visits."""
        ...

    def transfer(self, bid: int, state: S) -> S:
        """Abstractly execute block ``bid`` from entry state ``state``."""
        ...

    def poll_dirty(self) -> bool:
        """Drain the shared-fact dirty flag (see module docstring)."""
        ...

    def dirty_scope(self) -> frozenset[int] | None:
        """Blocks whose transfer can observe grown shared facts, or
        ``None`` for all of them (see module docstring)."""
        ...


@dataclass
class FixpointResult(Generic[S]):
    """Post-fixpoint abstract states, per reachable block."""

    #: State at each block's entry (join over predecessors).
    entry: dict[int, S]
    #: State after each block's body.
    exit: dict[int, S]
    #: Total transfer applications (bench / sanity metric).
    iterations: int


def _reverse_postorder(cfg: Cfg, reachable: set[int]) -> list[int]:
    """Iterative DFS postorder, reversed; deterministic via sorted
    successor visits."""
    order: list[int] = []
    seen: set[int] = set()
    for root in sorted(reachable):
        if root in seen:
            continue
        stack: list[tuple[int, list[int]]] = [
            (root, sorted(cfg.blocks[root].successors(), reverse=True))
        ]
        seen.add(root)
        while stack:
            bid, succs = stack[-1]
            advanced = False
            while succs:
                s = succs.pop()
                if s in reachable and s not in seen:
                    seen.add(s)
                    stack.append(
                        (s, sorted(cfg.blocks[s].successors(), reverse=True))
                    )
                    advanced = True
                    break
            if not advanced:
                order.append(bid)
                stack.pop()
    order.reverse()
    return order


def solve(
    cfg: Cfg,
    domain: Domain[S],
    *,
    reachable: set[int] | None = None,
    preds: dict[int, list[int]] | None = None,
    rpo: list[int] | None = None,
) -> FixpointResult[S]:
    """Run ``domain`` to a fixpoint over ``cfg``'s reachable subgraph.

    ``preds`` / ``rpo`` may be passed in when the caller runs several
    domains over the same graph (they depend only on the CFG)."""
    if reachable is None:
        reachable = cfg.reachable()
    if preds is None:
        preds = predecessor_map(cfg, reachable)
    if rpo is None:
        rpo = _reverse_postorder(cfg, reachable)
    position = {bid: i for i, bid in enumerate(rpo)}

    entry: dict[int, S] = {}
    exit_: dict[int, S] = {}
    visits: dict[int, int] = {b: 0 for b in rpo}
    iterations = 0

    pending: set[int] = set(rpo)
    #: Blocks that must re-run transfer even with an unchanged entry
    #: state (shared facts grew underneath them).
    forced: set[int] = set()
    while pending:
        work = sorted(pending, key=lambda b: position[b])
        pending.clear()
        for bid in work:
            if bid == cfg.entry:
                incoming = domain.entry_state()
                for p in preds[bid]:
                    if p in exit_:
                        incoming = domain.join(incoming, exit_[p])
            else:
                states = [exit_[p] for p in preds[bid] if p in exit_]
                if not states:
                    # No predecessor processed yet (back-edge-only
                    # entry); wait for one.
                    continue
                incoming = states[0]
                for s in states[1:]:
                    incoming = domain.join(incoming, s)
            old = entry.get(bid)
            if old is not None:
                visits[bid] += 1
                if visits[bid] >= WIDEN_AFTER:
                    incoming = domain.widen(old, incoming)
                else:
                    incoming = domain.join(old, incoming)
                if (incoming is old or incoming == old) \
                        and bid in exit_ and bid not in forced:
                    continue
            forced.discard(bid)
            entry[bid] = incoming
            iterations += 1
            if iterations > MAX_ITERATIONS:  # pragma: no cover - backstop
                raise AssertionError("absint solver failed to converge")
            new_exit = domain.transfer(bid, incoming)
            if exit_.get(bid) == new_exit and old is not None:
                continue
            exit_[bid] = new_exit
            for s in cfg.blocks[bid].successors():
                if s in preds:
                    pending.add(s)
        if not pending and domain.poll_dirty():
            # Shared facts grew mid-sweep: re-transfer the blocks that
            # read them so per-block states absorb the enlarged
            # globals (growth then propagates through ``pending``).
            scope = domain.dirty_scope()
            refresh = {b for b in rpo if b in entry
                       and (scope is None or b in scope)}
            pending.update(refresh)
            forced.update(refresh)
    return FixpointResult(entry=entry, exit=exit_, iterations=iterations)
