"""Meta-state race detection (MSC020/MSC021).

Section 3.2: CSI merges the bodies of all blocks resident in one meta
state into a single SIMD instruction schedule.  The *relative order*
of memory operations issued by two different member blocks is a
scheduling artifact, not program semantics — so when two distinct
blocks co-resident in some reachable meta state touch the same shared
location and at least one writes it, the result is schedule-dependent:
a write-write race (MSC020) or a read-write race (MSC021).

Following Attie (PAPERS.md), the check is pairwise — a conflict is a
property of two processes — but the pair enumeration is no longer: the
co-resident pairs come from the shared explored frontier's bitset
co-occurrence query (:mod:`repro.verify.frontier`), refined by the
exact-parked lockstep walk, so the analyzer scales to frontiers the
old nested per-state member loops could not touch and reports over
exactly the subgraph an incremental (``--lazy``) verification explored.

Each pair is judged by :data:`repro.absint.facts.CONFLICT_RULE` over
the blocks' shared-memory footprints, the rule the race-free
certificate asks of every block pair.  Shared locations are mono slots
(one copy machine-wide) and poly slots accessed through the router
(``LdR``/``StR`` reach *other* PEs' copies); purely local poly
accesses from two blocks never conflict.  A write-write conflict where
both blocks store the same compile-time constant is classified benign
(severity *info*): the merged schedule stores the same value
regardless of order.
"""

from __future__ import annotations

from repro.absint.domains import compile_code
from repro.absint.facts import Footprint, block_footprint, pair_conflicts
from repro.ir.cfg import Cfg
from repro.lint.diagnostics import Diagnostic, Severity, Span
from repro.lint.driver import LintContext
from repro.verify.frontier import lockstep_pairs
from repro.verify.witness import WitnessSeed


def _slot_name(cfg: Cfg, slot: int, storage: str) -> str:
    slots = cfg.mono_slots if storage == "mono" else cfg.poly_slots
    for info in slots:
        if info.index == slot:
            return f"{storage} slot {slot} ({info.name!r})"
    return f"{storage} slot {slot}"


def analyze_races(ctx: LintContext) -> list[Diagnostic]:
    """Query the explored frontier's co-occurrence bitset, pairwise."""
    cfg, graph = ctx.cfg, ctx.graph
    assert cfg is not None and graph is not None
    counters = ctx.scratch.setdefault("fact_counters", {}).setdefault(
        "races", {})
    # A race-free certificate (see repro.absint.facts) holds for the
    # whole program, truncated frontier or not — the pairwise scan
    # cannot find anything it has not already excluded.
    certs = ctx.scratch.get("certificates")
    if certs is not None and getattr(certs, "race_free", None):
        counters["suppressed_by_certificate"] = 1
        return []
    footprints: dict[int, Footprint] = {}

    def footprint(bid: int) -> Footprint:
        if bid not in footprints:
            footprints[bid] = block_footprint(
                compile_code(cfg.blocks[bid].code))
        return footprints[bid]

    pairs = ctx.frontier().block_pairs(valid_blocks=set(cfg.blocks))
    realizable = lockstep_pairs(cfg)
    if realizable is not None:
        pairs &= realizable
    counters["pairs_checked"] = len(pairs)
    seeds = ctx.scratch.setdefault("witness_seeds", [])
    out: list[Diagnostic] = []
    reported: set[tuple[str, int, str, frozenset[int]]] = set()
    for pair in sorted(pairs, key=sorted):
        bid_a, bid_b = sorted(pair)
        for kind, slot, storage, benign in pair_conflicts(
                footprint(bid_a), footprint(bid_b)):
            key = (kind, slot, storage, pair)
            if key in reported:
                continue
            reported.add(key)
            code = "MSC020" if kind == "ww" else "MSC021"
            what = ("write-write" if kind == "ww"
                    else "read-write")
            name = _slot_name(cfg, slot, storage)
            line = (cfg.blocks[bid_a].src_line
                    or cfg.blocks[bid_b].src_line)
            span = Span(line) if line else None
            if benign:
                out.append(Diagnostic(
                    code=code,
                    severity=Severity.INFO,
                    message=(
                        f"benign {what} conflict on {name}: "
                        f"blocks {bid_a} and {bid_b} are "
                        f"co-resident in a meta state and both "
                        f"store the same constant"
                    ),
                    span=span,
                ))
            else:
                out.append(Diagnostic(
                    code=code,
                    severity=Severity.WARNING,
                    message=(
                        f"{what} race on {name}: blocks "
                        f"{bid_a} and {bid_b} are co-resident "
                        f"in a meta state, so the CSI schedule "
                        f"decides the access order"
                    ),
                    span=span,
                    hint="separate the accesses with a wait "
                         "barrier so the blocks can never "
                         "share a meta state",
                ))
            seeds.append(WitnessSeed(code=code, blocks=(bid_a, bid_b),
                                     detail=name))
    return out
