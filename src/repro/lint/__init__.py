"""repro.lint — whole-program static analyzers over the MSC pipeline.

The paper's two hardest failure modes are silent at compile time:
barrier misuse (section 3.2.4 — a PE that halts or loops without ever
reaching a barrier deadlocks every parked peer) and the ``3^n``
meta-state explosion of ``reach`` (section 2.3).  CSI scheduling
(section 3.2) additionally makes the order of remote stores issued by
*different* blocks resident in one meta state schedule-dependent.

This package detects those scenarios statically and reports them as
:class:`~repro.lint.diagnostics.Diagnostic` records with stable
``MSC0xx`` codes, source spans and fix-it hints, instead of letting the
conversion explode or the program compute schedule-dependent answers.

Analyzers run over the artifacts the pipeline already produces (AST,
CFG, :class:`~repro.core.metastate.MetaStateGraph`, ``SimdProgram``,
``ProgramPlan``); :func:`~repro.lint.driver.default_analyzers` lists
them as one tuple of :class:`~repro.lint.driver.Analyzer` records, and
an :class:`~repro.lint.driver.AnalysisDriver` runs a phase's share of
it which, like :class:`repro.opt.manager.PassManager`, times every
analyzer and collects counters so ``--timings`` shows per-analyzer
rows.  The CFG analysis the analyzers share with the ``-O2``
optimizer — uniformity, postdominators, footprints and the conflict
rule, the arm walk — lives in :mod:`repro.absint`.

See ``docs/diagnostics.md`` for the full code catalogue.
"""

from repro.lint.api import LintResult, lint_source
from repro.lint.diagnostics import (
    Diagnostic,
    Severity,
    Span,
    render_json,
    render_source_error,
    render_text,
)
from repro.lint.driver import (
    AnalysisDriver,
    Analyzer,
    LintContext,
    default_analyzers,
)

__all__ = [
    "AnalysisDriver",
    "Analyzer",
    "Diagnostic",
    "LintContext",
    "LintResult",
    "Severity",
    "Span",
    "default_analyzers",
    "lint_source",
    "render_json",
    "render_source_error",
    "render_text",
]
