"""One-call lint entry point: run the analyzer suite over a source
string without caching or code emission side effects.

``lint_source`` runs the compiler's own stage list
(:func:`repro.stages.driver.stages_for`) with ``analyze`` on and stops
before ``kernels``: parse → sema → lower → opt-cfg, the pre-convert
(``cfg``-phase) analyzers, then convert → opt-meta → encode → plan and
the ``meta``-phase analyzers (races, program/plan verifier) over the
real converted artifacts.  An error-severity finding ends the run the
way it ends a compile, through :class:`~repro.errors.LintError`, so
the eager back half never runs on, say, an MSC030 explosion.
Front-end failures (parse or semantic errors) propagate as the usual
:class:`~repro.errors.SourceError` subclasses; the ``repro lint`` CLI
renders them with their source span.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from repro.lint.diagnostics import Diagnostic, Severity
from repro.stages.report import StageRecord

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.pipeline import ConversionOptions


@dataclass
class LintResult:
    """Outcome of :func:`lint_source`."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: One timed :class:`StageRecord` per analyzer that ran.
    records: list[StageRecord] = field(default_factory=list)
    #: Pipeline stages that executed to feed the analyzers.
    stages_run: list[str] = field(default_factory=list)
    #: Paths of counterexample files written by ``emit_witness_dir``.
    witnesses: list[str] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(1 for d in self.diagnostics
                   if d.severity == Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for d in self.diagnostics
                   if d.severity == Severity.WARNING)

    @property
    def notes(self) -> int:
        return sum(1 for d in self.diagnostics
                   if d.severity == Severity.INFO)

    def ok(self, werror: bool = False) -> bool:
        """Clean under the given strictness?"""
        if self.errors:
            return False
        return not (werror and self.warnings)


def lint_source(
    source: str,
    options: "ConversionOptions | None" = None,
    *,
    filename: str = "<source>",
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
    emit_witness_dir: str | None = None,
) -> LintResult:
    """Run the full analyzer suite over ``source``.

    ``options`` is a :class:`~repro.pipeline.ConversionOptions`; the
    defaults are used when omitted.  ``select`` / ``ignore`` are code
    prefixes (``MSC02`` matches both race codes).  Parse and semantic
    errors raise; analyzer findings never do — inspect the result.
    With ``emit_witness_dir`` set, every MSC010/011/020/021 finding the
    MIMD oracle can reproduce is written there as a replayable
    ``.mimdc`` counterexample (see :mod:`repro.verify.witness`).
    """
    from repro.errors import LintError
    from repro.pipeline import ConversionOptions
    from repro.stages.driver import CompileContext, stages_for

    options = replace(options or ConversionOptions(), analyze=True,
                      lint_select=tuple(select), lint_ignore=tuple(ignore))
    ctx = CompileContext(source=source, options=options)
    stages_run: list[str] = []
    try:
        for stage in stages_for(options):
            if stage.name == "kernels":
                break
            stages_run.append(stage.name)
            stage.run(ctx)
    except LintError:
        pass  # error-severity findings end the run, as in a compile
    result = LintResult(
        diagnostics=list(ctx.diagnostics),
        records=[*ctx.pass_records.get("analyze", ()),
                 *ctx.pass_records.get("analyze-meta", ())],
        stages_run=stages_run,
    )
    if emit_witness_dir is not None and ctx.cfg is not None:
        from pathlib import Path

        from repro.verify.witness import emit_witnesses

        result.witnesses = emit_witnesses(
            source,
            ctx.cfg,
            ctx.lint_scratch.get("witness_seeds", []),
            emit_witness_dir,
            stem=Path(filename).stem if filename != "<source>" else "witness",
            frontier=ctx.lint_scratch.get("frontier"),
            costs=options.costs,
            opt_level=options.opt_level,
        )
    return result
