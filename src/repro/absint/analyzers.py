"""The MSC06x analyzer family over the absint facts.

``absint`` (``cfg`` phase) runs both fixpoint domains once, publishes
the resulting :class:`~repro.absint.facts.AbsintFacts` in the context
scratch — the explosion estimator reads the uniform-branch set from
there within the same phase — and reports:

- **MSC060** (warning): a poly slot read on some entry path before any
  store.  The machine zero-fills memory, so the read deterministically
  yields ``0`` — legal, and almost always a bug.
- **MSC061** (warning): a ``StR`` whose target slot no instruction
  anywhere reads; the router transfer is dead weight.
- **MSC062** (warning): a barrier inside a cycle whose exit branch is
  divergent — PEs provably pass the barrier differing numbers of
  times (the mismatched-count sibling of the acyclic MSC011).
- **MSC063** (info): the divergent-branch explosion ranking — which
  branches actually multiply the worst barrier-free region's bound,
  once uniform branches are discounted to a factor of 2.

``certify`` (``meta`` phase, after ``frontier``) re-derives the
lightweight certificates when the facts are not in scratch (``absint``
deselected, or a driver that does not share scratch across phases),
publishes them for the race analyzer's suppression check, and — only
when the exploration truncated (MSC050) — reports MSC064/MSC065
(info): the whole-program race-/deadlock-freedom guarantees
enumeration could not provide.
"""

from __future__ import annotations

from repro.absint.facts import (
    AbsintFacts,
    Certificates,
    certificates,
    compute_facts,
)
from repro.ir.cfg import Cfg
from repro.lint.diagnostics import Diagnostic, Severity, Span
from repro.lint.driver import LintContext


def publish_fact_counters(
    ctx: LintContext, analyzer: str, counters: dict[str, int]
) -> None:
    """Expose per-analyzer fact counts; the driver merges them into the
    analyzer's :class:`~repro.stages.report.StageRecord` counters, so
    they surface as ``--timings`` / ``--report-json`` sub-rows."""
    ctx.scratch.setdefault("fact_counters", {})[analyzer] = dict(counters)


def _span(line: int) -> Span | None:
    return Span(line) if line else None


# ----------------------------------------------------------------------
# cfg phase: absint
# ----------------------------------------------------------------------
def analyze_absint(ctx: LintContext) -> list[Diagnostic]:
    """Run the fixpoint domains; report MSC060-MSC063."""
    cfg = ctx.cfg
    assert cfg is not None
    facts = compute_facts(cfg, uniformity=ctx.uniformity())
    ctx.scratch["absint"] = facts
    ctx.scratch["certificates"] = facts.certificates
    publish_fact_counters(ctx, "absint", facts.counters())

    out: list[Diagnostic] = []
    for read in facts.uninit_reads:
        out.append(Diagnostic(
            code="MSC060",
            severity=Severity.WARNING,
            message=(
                f"poly slot {read.slot} ({read.name!r}) may be read "
                f"before initialization: block {read.block} loads it, "
                f"but some path from entry stores nothing there first"
            ),
            span=_span(read.line),
            hint="memory is zero-filled, so the read yields 0 on the "
                 "uninitialized paths; store an explicit initial value "
                 "before the first branch",
        ))
    for store in facts.dead_router_stores:
        out.append(Diagnostic(
            code="MSC061",
            severity=Severity.WARNING,
            message=(
                f"dead router store: block {store.block} writes poly "
                f"slot {store.slot} ({store.name!r}) through the "
                f"router, but no instruction ever reads that slot"
            ),
            span=_span(store.line),
            hint="drop the remote store or read the transferred value",
        ))
    for cyc in facts.divergent_cycle_barriers:
        out.append(Diagnostic(
            code="MSC062",
            severity=Severity.WARNING,
            message=(
                f"mismatched barrier counts: the barrier at block "
                f"{cyc.barrier} sits in a loop whose exit branch at "
                f"block {cyc.branch} (line {cyc.branch_line}) is "
                f"divergent, so PEs pass the barrier differing numbers "
                f"of times"
            ),
            span=_span(cyc.line),
            hint="make the trip count uniform or hoist the wait out of "
                 "the divergent loop",
        ))
    out.extend(_explosion_ranking(cfg, ctx, facts))
    return out


def _explosion_ranking(
    cfg: Cfg, ctx: LintContext, facts: AbsintFacts
) -> list[Diagnostic]:
    """MSC063: which divergent branches drive the worst region's bound."""
    from repro.lint.explosion import SOFT_THRESHOLD, estimate_states

    compressed = bool(getattr(ctx.options, "compress", False))
    est = estimate_states(
        cfg, compressed, uniform_branches=facts.uniform_branches)
    # The explosion analyzer runs next in the same phase with the same
    # tightened inputs; the cfg tag guards against graph swaps.
    ctx.scratch["explosion_estimate"] = (cfg, compressed, est)
    bound, worst, _ = est
    if bound <= SOFT_THRESHOLD:
        return []
    divergent = [b for b in worst if b not in facts.uniform_branches]
    if not divergent:
        return []
    uniform_n = len(worst) - len(divergent)
    factor = 2 if compressed else 3
    shown = divergent[:4]
    splitters = ", ".join(
        f"block {b}" + (f" (line {cfg.blocks[b].src_line})"
                        if cfg.blocks[b].src_line else "")
        for b in shown
    )
    if len(divergent) > len(shown):
        splitters += f", +{len(divergent) - len(shown)} more"
    return [Diagnostic(
        code="MSC063",
        severity=Severity.INFO,
        message=(
            f"explosion ranking: the worst barrier-free region bounds "
            f"reach at ~{bound:.3g} from {len(divergent)} divergent "
            f"branch(es) (x{factor} each) and {uniform_n} uniform "
            f"branch(es) (x2 each); divergent splitters: {splitters}"
        ),
        hint="uniform trip counts, --compress, or a wait between the "
             "splitters shrink the dominant factor",
    )]


# ----------------------------------------------------------------------
# meta phase: certify
# ----------------------------------------------------------------------
def analyze_certify(ctx: LintContext) -> list[Diagnostic]:
    """Publish certificates; MSC064/MSC065 when the frontier truncated."""
    cfg = ctx.cfg
    assert cfg is not None
    facts = ctx.scratch.get("absint")
    if isinstance(facts, AbsintFacts):
        certs = facts.certificates
    else:
        # absint deselected, or a driver without a cross-phase scratch:
        # recompute the (cheap, interval-free) subset.
        certs = certificates(cfg, ctx.uniformity())
    ctx.scratch["certificates"] = certs
    publish_fact_counters(ctx, "certify", {
        "race_free": int(bool(certs.race_free)),
        "deadlock_free": int(bool(certs.deadlock_free)),
    })

    frontier = ctx.scratch.get("frontier")
    truncated = bool(getattr(frontier, "truncated", False))
    if not truncated:
        return []
    return certificate_diagnostics(certs)


def certificate_diagnostics(certs: Certificates) -> list[Diagnostic]:
    """MSC064/MSC065 info findings for the certificates that hold."""
    out: list[Diagnostic] = []
    if certs.race_free:
        out.append(Diagnostic(
            code="MSC064",
            severity=Severity.INFO,
            message=(
                f"race-freedom certified for the whole program without "
                f"state enumeration ({certs.race_free}); the truncated "
                f"exploration loses no MSC020/MSC021 findings"
            ),
        ))
    if certs.deadlock_free:
        out.append(Diagnostic(
            code="MSC065",
            severity=Severity.INFO,
            message=(
                f"deadlock-freedom certified for the whole program "
                f"without state enumeration ({certs.deadlock_free})"
            ),
        ))
    return out
