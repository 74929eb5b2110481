"""Analyzer dispatch, modeled on :mod:`repro.opt.manager`.

An :class:`Analyzer` is a named function over a :class:`LintContext`
returning diagnostics.  The :class:`AnalysisDriver` runs a phase's
analyzers from a tuple (:func:`default_analyzers`), times each one,
applies the ``--select`` / ``--ignore`` code filters, and returns
per-analyzer :class:`~repro.stages.report.StageRecord` rows — exactly
the shape the ``opt-*`` stages use, so ``--timings`` and
``--report-json`` show one indented row per analyzer with no extra
plumbing.

Two phases exist:

``cfg``
    After ``opt-cfg``, before ``convert``: the CFG verifier, the
    barrier-deadlock detector, the explosion estimator, and the
    source-level lints.  Running *before* conversion lets the explosion
    estimator stop a ``3^n`` bomb from ever reaching ``reach``.
``meta``
    After ``plan``: the frontier exploration, the certificates, the
    meta-graph/program/plan verifier and the meta-state race detector,
    which need the converted graph.

Both phases run as stages of the compiler pipeline
(:func:`repro.stages.driver.stages_for`); ``repro lint`` runs the same
stage list and stops before ``kernels``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.lint.diagnostics import Diagnostic, filter_diagnostics
from repro.stages.report import StageRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.absint.uniformity import UniformityInfo
    from repro.codegen.emit import SimdProgram
    from repro.codegen.plan import ProgramPlan
    from repro.core.convert import ConversionEngine
    from repro.core.metastate import MetaStateGraph
    from repro.ir.cfg import Cfg
    from repro.lang.ast import Program
    from repro.lang.sema import SemaInfo
    from repro.pipeline import ConversionOptions
    from repro.verify.frontier import FrontierResult


@dataclass
class LintContext:
    """Everything an analyzer may look at.

    The pre-convert (``cfg``) phase fills ``ast`` / ``sema`` / ``cfg``;
    the post-convert (``meta``) phase additionally has ``graph`` /
    ``program`` / ``plan``.  ``cfg`` always refers to the *current*
    graph — after time splitting it is the split CFG the meta graph was
    converted from.
    """

    source: str
    options: "ConversionOptions"
    ast: "Program | None" = None
    sema: "SemaInfo | None" = None
    cfg: "Cfg | None" = None
    graph: "MetaStateGraph | None" = None
    program: "SimdProgram | None" = None
    plan: "ProgramPlan | None" = None
    #: Live conversion engine of a lazy compile: the frontier analyzer
    #: drives it to verify the discovered subgraph incrementally.
    engine: "ConversionEngine | None" = None
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Cross-analyzer memo (entry depths, postdominator sets, ...) so
    #: analyzers sharing a phase don't recompute each other's inputs.
    scratch: dict = field(default_factory=dict)

    def uniformity(self) -> "UniformityInfo":
        """The uniform/varying classification of the current CFG,
        computed once and cached in the scratch (the absint, barrier,
        and explosion analyzers all key off it)."""
        from repro.absint.uniformity import analyze_uniformity

        cfg = self.cfg
        assert cfg is not None
        tag = self.scratch.get("uniformity_cfg")
        if tag is cfg:
            cached: UniformityInfo = self.scratch["uniformity"]
            return cached
        if tag is not None:
            # The scratch outlives CFG swaps (time splitting replaces
            # the graph between the analyze phases): drop derived
            # caches.
            self.scratch.pop("entry_depths", None)
            self.scratch.pop("pdom", None)
        info = analyze_uniformity(
            cfg, entry_depths=self.scratch.get("entry_depths"),
            pdom=self.scratch.get("pdom"))
        self.scratch["uniformity"] = info
        self.scratch["uniformity_cfg"] = cfg
        self.scratch.setdefault("entry_depths", info.entry_depths)
        self.scratch.setdefault("pdom", info.pdom)
        return info

    def frontier(self) -> "FrontierResult":
        """The phase's one explored meta frontier, computed on first use
        and cached in the scratch, so the verifier and the race
        detector query one exploration instead of re-walking the graph
        each.  Under ``--lazy`` the exploration drives the live
        conversion engine, bounded by ``verify_budget``."""
        from repro.verify.frontier import FrontierResult, explore

        got = self.scratch.get("frontier")
        if isinstance(got, FrontierResult):
            return got
        assert self.graph is not None
        if self.engine is not None and getattr(self.options, "lazy", False):
            budget = int(getattr(self.options, "verify_budget", 0)) or None
            result = explore(self.graph, engine=self.engine, budget=budget)
        else:
            result = explore(self.graph)
        self.scratch["frontier"] = result
        return result


@dataclass(frozen=True)
class Analyzer:
    """One named analysis over a :class:`LintContext`.

    ``run`` returns the diagnostics it found; the driver stamps each
    with the analyzer name and collects per-analyzer counters from the
    count of findings.
    """

    name: str
    phase: str  # "cfg" | "meta"
    run: Callable[[LintContext], list[Diagnostic]]
    description: str = ""


@dataclass
class AnalysisDriver:
    """Run a phase's analyzers over a context, timed and filtered."""

    analyzers: tuple[Analyzer, ...]
    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()

    def run_phase(
        self, ctx: LintContext, phase: str
    ) -> tuple[list[Diagnostic], list[StageRecord]]:
        """Execute every analyzer of ``phase``, in tuple order.

        Diagnostics surviving the ``select`` / ``ignore`` filters are
        appended to ``ctx.diagnostics`` and returned, together with one
        timed :class:`StageRecord` per analyzer (the ``--timings``
        sub-rows).
        """
        found: list[Diagnostic] = []
        records: list[StageRecord] = []
        for analyzer in self.analyzers:
            if analyzer.phase != phase:
                continue
            t0 = time.perf_counter()
            raw = analyzer.run(ctx)
            seconds = time.perf_counter() - t0
            stamped = [
                d if d.analyzer else
                Diagnostic(code=d.code, message=d.message,
                           severity=d.severity, span=d.span, hint=d.hint,
                           analyzer=analyzer.name)
                for d in raw
            ]
            kept = filter_diagnostics(stamped, self.select, self.ignore)
            counters = {"findings": len(kept)}
            dropped = len(stamped) - len(kept)
            if dropped:
                counters["filtered"] = dropped
            # Analyzers publish fact counts (uniform branches, explored
            # states, certificates, ...) through the scratch; merged
            # here they surface as --timings / --report-json sub-rows.
            facts = ctx.scratch.get("fact_counters", {})
            for key, value in facts.get(analyzer.name, {}).items():
                counters.setdefault(key, value)
            records.append(StageRecord(name=analyzer.name, seconds=seconds,
                                       counters=counters))
            found.extend(kept)
        ctx.diagnostics.extend(found)
        return found, records


def default_analyzers() -> tuple[Analyzer, ...]:
    """The standard analyzer suite, pipeline order within each phase.

    Built on call rather than at import: the analyzer modules import
    this one, and they load NumPy and the verifier, which
    ``import repro.lint`` (the CLI's error rendering) does without.
    """
    from repro.absint.analyzers import analyze_absint, analyze_certify
    from repro.lint.barrier import analyze_barriers
    from repro.lint.explosion import analyze_explosion
    from repro.lint.races import analyze_races
    from repro.lint.srclint import analyze_source
    from repro.lint.verifier import analyze_frontier, verify_cfg, verify_meta

    return (
        Analyzer("verify-cfg", "cfg", verify_cfg,
                 "re-check CFG structural invariants (MSC001)"),
        Analyzer("absint", "cfg", analyze_absint,
                 "abstract-interpretation facts (MSC060-MSC063)"),
        Analyzer("barrier", "cfg", analyze_barriers,
                 "barrier deadlock / count mismatch (MSC010, MSC011)"),
        Analyzer("explosion", "cfg", analyze_explosion,
                 "meta-state explosion estimate (MSC030, MSC031)"),
        Analyzer("source", "cfg", analyze_source,
                 "source-level lints (MSC040, MSC041, MSC042)"),
        Analyzer("frontier", "meta", analyze_frontier,
                 "shared meta-frontier exploration (MSC050)"),
        Analyzer("certify", "meta", analyze_certify,
                 "whole-program certificates (MSC064, MSC065)"),
        Analyzer("verify-meta", "meta", verify_meta,
                 "meta graph / program / plan invariants (MSC002, MSC003)"),
        Analyzer("races", "meta", analyze_races,
                 "meta-state slot races (MSC020, MSC021)"),
    )
