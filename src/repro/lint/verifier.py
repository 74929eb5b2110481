"""Verifier analyzers: IR / meta-graph / plan invariants
(MSC001/MSC002/MSC003) and the frontier exploration (MSC050).

``frontier`` runs first among the ``meta``-phase analyzers and
publishes the phase's explored frontier (:meth:`LintContext.frontier`)
for the certificates and the race detector.  Under ``--lazy`` the
exploration drives the live conversion engine, bounded by
``ConversionOptions.verify_budget`` — that is what makes
``repro lint --lazy`` finish on explosion-scale programs: the
diagnostics then cover the explored subgraph, and MSC050 (info) says
so.

The others re-check, as lint findings, the invariants the pipeline
asserts internally: the CFG structural verifier (terminator targets, two-arc
precondition, static stack depths), the meta-graph and emitted-program
consistency checks, the execution plan's alignment with the program it
was compiled from, and the injectivity of every customized hash
encoding (section 3.3 — a colliding hash would dispatch two different
aggregates to the same jump-table slot).

The pipeline already refuses to produce broken artifacts, so on a
healthy compile these analyzers report nothing; their value is (a)
turning internal assertion failures into positioned ``MSC00x``
diagnostics when an optimizer pass or a future backend change breaks
an invariant, and (b) double-entry bookkeeping for the plan, whose
invariants are otherwise only exercised at machine run time.
"""

from __future__ import annotations

from repro.codegen.emit import SimdProgram, _verify_program
from repro.codegen.plan import (
    K_COND,
    K_FALL,
    K_HALT,
    K_RET,
    K_SPAWN,
    ProgramPlan,
)
from repro.errors import ConversionError
from repro.ir.block import CondBr, Fall, Halt, Return, SpawnT, Terminator
from repro.lint.diagnostics import Diagnostic, Severity, Span
from repro.lint.driver import LintContext


def analyze_frontier(ctx: LintContext) -> list[Diagnostic]:
    """Explore the meta graph; MSC050 when the exploration truncated."""
    result = ctx.frontier()
    ctx.scratch.setdefault("fact_counters", {})["frontier"] = {
        "explored": result.explored,
        "discovered": result.discovered,
        "truncated": int(result.truncated),
    }
    if not result.truncated:
        return []
    detail = f"explored {result.explored} of {result.discovered} " \
             f"discovered meta states"
    if result.aborted is not None:
        detail += f"; conversion stopped: {result.aborted}"
    elif result.skipped_wide:
        detail += (
            f"; {result.skipped_wide} state(s) left unexpanded past the "
            f"per-state expansion bound"
        )
    return [Diagnostic(
        code="MSC050",
        severity=Severity.INFO,
        message=(
            f"incremental verification truncated: {detail}; meta-phase "
            f"diagnostics cover the explored subgraph only"
        ),
        hint="raise --verify-budget to widen the explored frontier",
    )]


def verify_cfg(ctx: LintContext) -> list[Diagnostic]:
    """MSC001: CFG structural invariants, as a lint pass."""
    cfg = ctx.cfg
    assert cfg is not None
    out: list[Diagnostic] = []
    try:
        ctx.scratch["entry_depths"] = cfg.verify()
    except ConversionError as exc:
        span = Span(exc.line) if exc.line else None
        out.append(Diagnostic(
            code="MSC001",
            severity=Severity.ERROR,
            message=f"CFG invariant violation: {exc.message}",
            span=span,
        ))
        return out
    for bid in sorted(cfg.reachable()):
        blk = cfg.blocks[bid]
        if blk.is_barrier_wait and (blk.code or
                                    not isinstance(blk.terminator, Fall)):
            out.append(Diagnostic(
                code="MSC001",
                severity=Severity.ERROR,
                message=(
                    f"CFG invariant violation: barrier block {bid} must "
                    f"be empty with a single fall-through exit"
                ),
                span=Span(blk.src_line) if blk.src_line else None,
            ))
    return out


def _expected_kind(term: Terminator) -> int:
    if isinstance(term, Fall):
        return K_FALL
    if isinstance(term, CondBr):
        return K_COND
    if isinstance(term, Return):
        return K_RET
    if isinstance(term, Halt):
        return K_HALT
    if isinstance(term, SpawnT):
        return K_SPAWN
    raise AssertionError(f"unknown terminator {term!r}")


def _check_plan(prog: SimdProgram, plan: ProgramPlan) -> list[Diagnostic]:
    """MSC002: the compiled plan must mirror the program it came from."""
    out: list[Diagnostic] = []
    if set(plan.nodes) != set(prog.nodes):
        out.append(Diagnostic(
            code="MSC002",
            severity=Severity.ERROR,
            message=(
                f"plan/program mismatch: plan covers {len(plan.nodes)} "
                f"node(s), program has {len(prog.nodes)}"
            ),
        ))
        return out
    for entry, node in prog.nodes.items():
        nplan = plan.nodes[entry]
        if len(nplan.segments) != len(node.segments):
            out.append(Diagnostic(
                code="MSC002",
                severity=Severity.ERROR,
                message=(
                    f"plan/program mismatch in node {node.name}: "
                    f"{len(nplan.segments)} vs {len(node.segments)} "
                    f"segment(s)"
                ),
            ))
            continue
        for si, (seg, splan) in enumerate(zip(node.segments,
                                              nplan.segments)):
            members = tuple(sorted(seg.members))
            if splan.member_bids != members:
                out.append(Diagnostic(
                    code="MSC002",
                    severity=Severity.ERROR,
                    message=(
                        f"plan segment {si} of node {node.name} has "
                        f"members {splan.member_bids}, program has "
                        f"{members}"
                    ),
                ))
                continue
            for bid, kind in zip(members, splan.kinds):
                term, is_barrier = seg.terminators[bid]
                want = K_FALL if is_barrier else _expected_kind(term)
                if kind != want:
                    out.append(Diagnostic(
                        code="MSC002",
                        severity=Severity.ERROR,
                        message=(
                            f"plan terminator kind mismatch for block "
                            f"{bid} in node {node.name}: plan says "
                            f"{kind}, program implies {want}"
                        ),
                    ))
            if any(b >= plan.n_bids for b in members):
                out.append(Diagnostic(
                    code="MSC002",
                    severity=Severity.ERROR,
                    message=(
                        f"plan bit-weight table too narrow: node "
                        f"{node.name} has a member >= n_bids="
                        f"{plan.n_bids}"
                    ),
                ))
    return out


def _check_encodings(prog: SimdProgram) -> list[Diagnostic]:
    """MSC003: every hash encoding must be injective over its cases and
    agree with the jump table it indexes."""
    out: list[Diagnostic] = []
    for node in prog.nodes.values():
        enc = node.encoding
        if enc is None:
            continue
        seen: dict[int, int] = {}
        for key, payload in enc.cases.items():
            h = enc.fn.apply(key)
            if not 0 <= h < len(enc.table):
                out.append(Diagnostic(
                    code="MSC003",
                    severity=Severity.ERROR,
                    message=(
                        f"hash encoding of node {node.name} maps key "
                        f"{key} outside its table "
                        f"(index {h}, size {len(enc.table)})"
                    ),
                ))
                continue
            if h in seen and seen[h] != key:
                out.append(Diagnostic(
                    code="MSC003",
                    severity=Severity.ERROR,
                    message=(
                        f"hash encoding of node {node.name} is not "
                        f"injective: keys {seen[h]} and {key} collide "
                        f"at table slot {h}"
                    ),
                ))
                continue
            seen[h] = key
            if enc.table[h] != payload:
                out.append(Diagnostic(
                    code="MSC003",
                    severity=Severity.ERROR,
                    message=(
                        f"hash table of node {node.name} disagrees "
                        f"with its case map at slot {h}"
                    ),
                ))
    return out


def verify_meta(ctx: LintContext) -> list[Diagnostic]:
    """MSC002/MSC003: meta graph, emitted program, plan, encodings.

    Lazy (incremental) lint runs have a partially-explored graph and no
    emitted program/plan: only the graph invariants apply then.
    """
    cfg, graph, program = ctx.cfg, ctx.graph, ctx.program
    assert cfg is not None and graph is not None
    out: list[Diagnostic] = []
    try:
        graph.verify(set(cfg.blocks))
    except ConversionError as exc:
        out.append(Diagnostic(
            code="MSC002",
            severity=Severity.ERROR,
            message=f"meta-state graph invariant violation: {exc.message}",
        ))
        return out
    if program is None:
        return out
    try:
        _verify_program(program, graph)
    except ConversionError as exc:
        out.append(Diagnostic(
            code="MSC002",
            severity=Severity.ERROR,
            message=f"emitted program invariant violation: {exc.message}",
        ))
        return out
    if ctx.plan is not None:
        out.extend(_check_plan(program, ctx.plan))
    out.extend(_check_encodings(program))
    return out
