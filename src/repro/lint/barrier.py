"""Barrier-deadlock and barrier-count-mismatch detection (MSC010/011).

Section 3.2.4: at a barrier the SIMD automaton parks PEs until every
*live* PE has arrived.  A PE that exits (``return`` / ``halt``) is no
longer live, so the paper's semantics release a barrier when all
remaining PEs reach it — but a PE spinning forever, or a *program*
where one divergent arm waits while the other runs to exit, hinges on
every PE taking the right arm.  Statically we flag a divergent branch
where one arm can reach a barrier while the other can run to program
exit without passing any barrier (MSC010): if any PE takes the
barrier arm while the rest exit, the parked PE waits on peers that
will never arrive with no one left to release it.

MSC011 is the milder structural cousin: two arms of a divergent branch
that rejoin after executing *different* static numbers of barriers.
The converted automaton then synchronizes PEs at different textual
barriers against each other — legal, but almost always a logic bug
(the paper's barrier semantics match *dynamic* barrier counts, not
textual ones).

Uniform branches are exempt (all PEs agree on the arm), and ``spawn``
is exempt by construction: its child PEs are expected to ``halt``
while the parent continues — that is the paper's own idiom (Listing 2).
"""

from __future__ import annotations

from repro.absint.graph import (
    EXIT,
    backward_closure,
    fold_arm,
    immediate_postdominator,
    predecessor_map,
)
from repro.ir.block import CondBr, Halt, Return
from repro.ir.cfg import Cfg
from repro.lint.diagnostics import Diagnostic, Severity, Span
from repro.lint.driver import LintContext
from repro.verify.witness import WitnessSeed

#: Cap on distinct static barrier counts tracked per branch arm before
#: the mismatch check gives up (keeps the DP linear).
_MAX_COUNTS = 8

#: The count set at the join: no further barriers before rejoining.
_NO_BARRIERS = frozenset({0})


def _arm_counts(cfg: Cfg, start: int, join: int,
                reachable: set[int]) -> frozenset[int] | None:
    """Static barrier counts along the paths ``start -> join`` (a path
    that exits inside the arm counts the barriers it passed); ``None``
    when the arm has a loop or more than :data:`_MAX_COUNTS` counts."""

    def step(bid: int, subs: list[frozenset[int]]) -> frozenset[int] | None:
        here = 1 if cfg.blocks[bid].is_barrier_wait else 0
        out = frozenset(here + c for sub in subs for c in sub)
        return out if len(out) <= _MAX_COUNTS else None

    return fold_arm(cfg, start, join, reachable, _NO_BARRIERS, step)


def analyze_barriers(ctx: LintContext) -> list[Diagnostic]:
    """MSC010 (deadlock) and MSC011 (count mismatch) over the CFG."""
    cfg = ctx.cfg
    assert cfg is not None
    uni = ctx.uniformity()
    reachable = set(uni.entry_depths)
    if not any(cfg.blocks[b].is_barrier_wait for b in reachable):
        return []
    preds = predecessor_map(cfg, reachable)
    # Blocks from which some barrier block is reachable (inclusive).
    rb = backward_closure(
        cfg, preds,
        (b for b in reachable if cfg.blocks[b].is_barrier_wait),
    )
    # Blocks that can reach return/halt along a barrier-free path.
    ef = backward_closure(
        cfg, preds,
        (
            b for b in reachable
            if isinstance(cfg.blocks[b].terminator, (Return, Halt))
            and not cfg.blocks[b].is_barrier_wait
        ),
        cross_barriers=False,
    )
    seeds = ctx.scratch.setdefault("witness_seeds", [])
    out: list[Diagnostic] = []
    for bid in sorted(uni.divergent_branches):
        blk = cfg.blocks[bid]
        term = blk.terminator
        if not isinstance(term, CondBr):
            continue
        t, f = term.on_true, term.on_false
        span = Span(blk.src_line) if blk.src_line else None
        deadlock = ((t in rb and f in ef and f not in rb)
                    or (f in rb and t in ef and t not in rb))
        if deadlock:
            waits, exits = (t, f) if t in rb else (f, t)
            out.append(Diagnostic(
                code="MSC010",
                severity=Severity.WARNING,
                message=(
                    f"possible barrier deadlock: divergent branch at "
                    f"block {bid} has one arm (block {waits}) that "
                    f"reaches a barrier while the other (block {exits}) "
                    f"can run to exit without one; PEs taking the "
                    f"barrier arm park forever if their peers exit"
                ),
                span=span,
                hint="make both arms reach the barrier, or move the "
                     "wait out of divergent control flow",
            ))
            seeds.append(WitnessSeed(code="MSC010",
                                     blocks=(bid, waits, exits)))
            continue
        # Count mismatch only when both arms rejoin through barriers.
        join = immediate_postdominator(uni.pdom, bid)
        if join == EXIT:
            continue
        counts_t = _arm_counts(cfg, t, join, reachable)
        counts_f = _arm_counts(cfg, f, join, reachable)
        if counts_t is None or counts_f is None:
            continue
        if len(counts_t) == 1 and len(counts_f) == 1:
            (ct,), (cf,) = counts_t, counts_f
            if ct != cf and (ct or cf):
                out.append(Diagnostic(
                    code="MSC011",
                    severity=Severity.WARNING,
                    message=(
                        f"barrier count mismatch: the arms of the "
                        f"divergent branch at block {bid} execute "
                        f"{ct} vs {cf} barrier(s) before rejoining, so "
                        f"PEs synchronize different textual barriers "
                        f"against each other"
                    ),
                    span=span,
                    hint="balance the number of wait statements on "
                         "both arms of the branch",
                ))
                seeds.append(WitnessSeed(code="MSC011",
                                         blocks=(bid, t, f)))
    return out
