"""Meta-state explosion estimation (MSC030) and time-split candidate
lint (MSC031).

Section 2.3: from a meta state whose members include ``n`` two-arc
blocks, ``reach`` can produce up to ``3^n`` successors (each branch
member contributes "true arm", "false arm", or "both").  Barriers
reset the aggregate — every PE parks until all arrive, so meta states
never span a barrier — which makes the *barrier-free region* the unit
of explosion.  This analyzer bounds the state count per region by
``3^b`` (``2^b`` when compression takes both arms of every branch,
leaving only progress skew) where ``b`` is the region's branch count,
warning at a soft threshold and erroring — *before* ``convert`` ever
runs — when the bound dwarfs the configured ``max_meta_states`` cap.

MSC031 (severity *info*) names time-split candidates: branch arms
whose straight-line costs differ enough that the time-splitting
criteria of :mod:`repro.core.timesplit` would split them (Figures
3-5).  Imbalance is not an error — it is exactly what ``--time-split``
exists for — so the lint only points at where the option would help.
"""

from __future__ import annotations

from repro.absint.graph import (
    EXIT,
    barrier_free_regions,
    fold_arm,
    immediate_postdominator,
    postdominator_sets,
)
from repro.ir.block import CondBr
from repro.ir.cfg import Cfg
from repro.ir.timing import block_time
from repro.lint.diagnostics import Diagnostic, Severity, Span
from repro.lint.driver import LintContext

#: Soft bound: warn when a region's estimate crosses this.
SOFT_THRESHOLD = 50_000

#: Hard floor for the error bound (scaled by the state cap, below).
HARD_FLOOR = 1_000_000


def estimate_states(
    cfg: Cfg, compressed: bool,
    uniform_branches: frozenset[int] | set[int] = frozenset(),
) -> tuple[int, tuple[int, ...], int]:
    """``(bound, worst_branches, regions)`` for the whole program.

    ``bound`` is the largest per-region estimate: ``3^b`` uncompressed
    (each branch member yields true/false/both successor sets), ``2^b``
    compressed (both arms are always taken together; only progress skew
    across branches multiplies).  Branches in ``uniform_branches``
    (proven by the absint uniformity facts to move every PE down one
    arm) never contribute the "both" choice, so uncompressed they
    multiply by 2, not 3 — the estimate tightens without losing
    soundness.  ``worst_branches`` lists, ascending, the branch blocks
    of the first region reaching ``bound`` (empty when no region
    branches): MSC030 counts them and MSC063 ranks the ones outside
    ``uniform_branches``.  ``regions`` counts the barrier-free regions.
    """
    bound = 1
    worst: tuple[int, ...] = ()
    regions = barrier_free_regions(cfg)
    for region in regions:
        branches = sorted(
            b for b in region if isinstance(cfg.blocks[b].terminator, CondBr)
        )
        if compressed:
            estimate = 2 ** len(branches)
        else:
            uniform = sum(1 for b in branches if b in uniform_branches)
            estimate = (3 ** (len(branches) - uniform)) * (2 ** uniform)
        if estimate > bound:
            bound, worst = estimate, tuple(branches)
    return bound, worst, len(regions)


def analyze_explosion(ctx: LintContext) -> list[Diagnostic]:
    """MSC030: pre-convert bound on ``reach`` growth, tightened by the
    shared uniformity facts (a uniform branch multiplies by 2, not 3)."""
    cfg = ctx.cfg
    assert cfg is not None
    options = ctx.options
    compressed = bool(getattr(options, "compress", False))
    cached = ctx.scratch.get("explosion_estimate")
    if (isinstance(cached, tuple) and len(cached) == 3
            and cached[0] is cfg and cached[1] == compressed):
        # The absint analyzer already estimated with its (identical)
        # uniform-branch tightening earlier in this phase.
        bound, worst, regions = cached[2]
    else:
        uni = ctx.uniformity()
        uniform_branches = frozenset(
            b for b in uni.entry_depths
            if isinstance(cfg.blocks[b].terminator, CondBr)
            and b not in uni.divergent_branches
        )
        bound, worst, regions = estimate_states(
            cfg, compressed, uniform_branches=uniform_branches)
    branches = len(worst)
    out: list[Diagnostic] = []
    hard = max(10 * int(getattr(options, "max_meta_states", 0) or 0),
               HARD_FLOOR)
    if bound > hard:
        lazy = bool(getattr(options, "lazy", False))
        hints = ["insert wait barriers to cut the region"]
        if not compressed:
            hints.append("--compress takes both arms per branch "
                         "(2^b instead of 3^b)")
        hints.append("--time-split rebalances the split states")
        if not lazy:
            hints.append("--lazy converts incrementally, materializing "
                         "only the states execution reaches")
        if lazy:
            # Lazy conversion only materializes states execution
            # reaches, so the eager bound is no longer fatal — keep it
            # visible as a warning (runtime could still walk the whole
            # space on adversarial inputs).
            out.append(Diagnostic(
                code="MSC030",
                severity=Severity.WARNING,
                message=(
                    f"meta-state explosion bound ~{bound:.3g} from a "
                    f"barrier-free region with {branches} branch "
                    f"blocks; lazy conversion materializes only "
                    f"reachable states, but adversarial inputs can "
                    f"still walk the whole space"
                ),
                hint="--max-resident-meta bounds resident compiled "
                     "states; " + "; ".join(hints),
            ))
        else:
            out.append(Diagnostic(
                code="MSC030",
                severity=Severity.ERROR,
                message=(
                    f"meta-state explosion: a barrier-free region with "
                    f"{branches} branch blocks bounds reach at "
                    f"~{bound:.3g} meta states "
                    f"(cap {getattr(options, 'max_meta_states', 0)}); "
                    f"conversion would not terminate usefully"
                ),
                hint="; ".join(hints),
            ))
    elif bound > SOFT_THRESHOLD:
        out.append(Diagnostic(
            code="MSC030",
            severity=Severity.WARNING,
            message=(
                f"large meta-state space: a barrier-free region with "
                f"{branches} branch blocks bounds reach at "
                f"~{bound:.3g} meta states across {regions} region(s)"
            ),
            hint=("consider --compress or adding wait barriers to "
                  "limit state growth"),
        ))
    out.extend(_unbalanced_blocks(ctx, cfg))
    return out


def _unbalanced_blocks(ctx: LintContext, cfg: Cfg) -> list[Diagnostic]:
    """MSC031: branch arms the time splitter would split."""
    options = ctx.options
    if bool(getattr(options, "time_split", False)):
        return []  # splitting already requested; nothing to suggest
    delta = int(getattr(options, "split_delta", 4))
    percent = int(getattr(options, "split_percent", 50))
    costs = getattr(options, "costs", None)
    pdom = ctx.scratch.get("pdom")
    if pdom is None:
        pdom = postdominator_sets(cfg)
        ctx.scratch["pdom"] = pdom
    reachable = cfg.reachable()
    out: list[Diagnostic] = []
    times: dict[int, int] = {}  # block self-costs, shared across arms

    def longest(bid: int, subs: list[int]) -> int:
        """Block ``bid``'s cost plus its costliest continuation."""
        if bid not in times:
            times[bid] = (block_time(cfg, bid, costs) if costs is not None
                          else block_time(cfg, bid))
        return times[bid] + max(subs)

    for bid in sorted(reachable):
        blk = cfg.blocks[bid]
        if not isinstance(blk.terminator, CondBr):
            continue
        # Max cost over the acyclic paths of each arm; an arm with a
        # loop, or a branch that only rejoins at exit, has no static
        # arm cost.
        join = immediate_postdominator(pdom, bid)
        if join == EXIT:
            continue
        cost_t = fold_arm(cfg, blk.terminator.on_true, join, reachable,
                          0, longest)
        cost_f = fold_arm(cfg, blk.terminator.on_false, join, reachable,
                          0, longest)
        if cost_t is None or cost_f is None:
            continue
        tmin, tmax = sorted((cost_t, cost_f))
        # The time splitter's own gates (timesplit.py): skip noise and
        # well-utilized pairs.
        if tmin + delta > tmax:
            continue
        if tmin > (percent * tmax) // 100:
            continue
        out.append(Diagnostic(
            code="MSC031",
            severity=Severity.INFO,
            message=(
                f"unbalanced branch arms at block {bid}: "
                f"{tmin} vs {tmax} cycles; PEs on the short arm idle "
                f"while the long arm executes"
            ),
            span=Span(blk.src_line) if blk.src_line else None,
            hint="--time-split splits the long arm into restartable "
                 "pieces (paper Figures 3-5)",
        ))
    return out
