"""The stage-based compiler driver.

Section 4.2 describes the prototype as an explicit tool chain — parse,
straighten, convert, split-and-restart, encode — and this module gives
the reproduction the same shape: a declarative list of named stages,
each consuming and producing artifacts on a :class:`CompileContext`,
with per-stage wall time and counters recorded in a
:class:`~repro.stages.report.StageReport`.

The stages, in order::

    parse     MIMDC text            -> AST
    sema      AST                   -> analyzed AST (SemaInfo)
    lower     SemaInfo              -> raw CFG
    opt-cfg   CFG                   -> optimized CFG (repro.opt passes)
    convert   CFG                   -> meta-state automaton
              (time splitting restarts the conversion inside this stage)
    opt-meta  automaton             -> StraightenedGraph (repro.opt passes)
    encode    CFG + chains          -> SimdProgram (CSI + hash encoding)
    plan      SimdProgram           -> ProgramPlan (dense node tables)
    kernels   ProgramPlan           -> KernelProgram (fused per-node code)
    native    ProgramPlan           -> NativeProgram (per-node C source;
              compiled to a shared library lazily at run time)

The two ``opt-*`` stages run the :mod:`repro.opt` pass pipeline chosen
by ``ConversionOptions.opt_level``; their per-pass timing/counter rows
are nested under the stage record (``subrecords``) so ``--timings`` can
show them indented.

Every artifact past ``lower`` is serializable, so the whole chain is
memoizable: with a :class:`~repro.stages.cache.CompileCache`, a compile
whose content key (source + options + cost model + code version) was
seen before loads ``cfg``/``graph``/``program``/``plan`` and runs no
stage at all — the report then shows one cached record per stage and
zero executed stages. That holds for every hit, analyzed ones
included: an analyzed bundle, eager or lazy, carries its diagnostics
and ``analyze`` rows, and the hit replays them.

To add a stage: write a ``_stage_<name>(ctx)`` function that reads and
writes ``CompileContext`` fields and returns a counters dict, append a
``Stage`` entry to :data:`PIPELINE_STAGES` in dependency order, and (if
the stage affects the artifacts) bump
:data:`repro.stages.cache.CACHE_VERSION`.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.stages.cache import CachedCompile, CompileCache, compile_key, resolve_cache
from repro.stages.report import StageRecord, StageReport


@dataclass
class CompileContext:
    """Mutable artifact bag threaded through the stages."""

    source: str
    options: object                 # ConversionOptions
    ast: object = None
    sema: object = None
    cfg: object = None
    graph: object = None
    straightened: object = None     # repro.opt.StraightenedGraph
    restarts: int = 0
    program: object = None
    plan: object = None
    engine: object = None           # ConversionEngine (lazy compiles)
    split_stats: dict = field(default_factory=dict)
    #: Per-pass StageRecord rows keyed by stage name, filled by the
    #: ``opt-*`` stages and nested under their stage records.
    pass_records: dict = field(default_factory=dict)
    #: Lint diagnostics accumulated by the ``analyze`` stages.
    diagnostics: list = field(default_factory=list)
    #: Cross-phase analyzer memo (uniformity, absint facts, the
    #: explored frontier, witness seeds, ...): ``analyze-meta`` reuses
    #: what ``analyze`` computed, and :func:`repro.lint.api.lint_source`
    #: reads the witness seeds from it.
    lint_scratch: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Stage:
    """One named pass: ``run(ctx)`` computes the stage's artifact(s)
    from earlier ones and returns its counters."""

    name: str
    run: Callable

    def execute(self, ctx: CompileContext, report: StageReport) -> None:
        t0 = time.perf_counter()
        counters = self.run(ctx)
        report.add(self.name, time.perf_counter() - t0, counters=counters,
                   subrecords=ctx.pass_records.get(self.name))


# ----------------------------------------------------------------------
# stage bodies
# ----------------------------------------------------------------------
def _stage_parse(ctx: CompileContext) -> dict:
    from repro.lang.parser import parse

    ctx.ast = parse(ctx.source)
    return {
        "source_lines": ctx.source.count("\n") + 1,
        "functions": len(ctx.ast.functions),
    }


def _stage_sema(ctx: CompileContext) -> dict:
    from repro.lang.sema import analyze

    ctx.sema = analyze(ctx.ast)
    return {
        "functions": len(ctx.sema.functions),
        "recursive_functions": len(ctx.sema.recursive_functions()),
        "globals": len(ctx.sema.globals),
    }


def _stage_lower(ctx: CompileContext) -> dict:
    from repro.ir.lowering import lower_program

    # Raw lowering: cleanup that used to hide in here is now the
    # explicit opt-cfg stage.
    ctx.cfg = lower_program(ctx.sema, normalize=False)
    return {
        "blocks": len(ctx.cfg.blocks),
        "branch_blocks": len(ctx.cfg.branch_blocks()),
        "barrier_blocks": sum(
            1 for b in ctx.cfg.blocks.values() if b.is_barrier_wait
        ),
        "poly_slots": len(ctx.cfg.poly_slots),
        "mono_slots": len(ctx.cfg.mono_slots),
    }


def _stage_opt_cfg(ctx: CompileContext) -> dict:
    from repro.opt import run_cfg_passes

    ctx.cfg, records, totals = run_cfg_passes(ctx.cfg, ctx.options)
    ctx.pass_records["opt-cfg"] = records
    return totals


def _stage_convert(ctx: CompileContext) -> dict:
    from repro.core.convert import convert
    from repro.core.timesplit import TimeSplitOptions, convert_with_time_splitting

    options = ctx.options
    convert_options = options.convert_options()
    if getattr(options, "lazy", False):
        return _stage_convert_lazy(ctx, convert_options)
    if options.time_split:
        split_options = TimeSplitOptions(
            split_delta=options.split_delta,
            split_percent=options.split_percent,
        )
        ctx.graph, ctx.cfg, ctx.restarts = convert_with_time_splitting(
            ctx.cfg, convert_options, split_options, options.costs,
            stats=ctx.split_stats,
        )
    else:
        ctx.graph = convert(ctx.cfg, convert_options)
        ctx.restarts = 0
    counters = {
        "meta_states": ctx.graph.num_states(),
        "meta_arcs": ctx.graph.num_arcs(),
        "restarts": ctx.restarts,
        "blocks_split": ctx.split_stats.get("blocks_split", 0),
        "worklist_passes": ctx.graph.stats.get("worklist_passes", 0),
    }
    return counters


def _stage_convert_lazy(ctx: CompileContext, convert_options) -> dict:
    """Lazy conversion: build the incremental engine and expand only
    the entry state. Everything downstream (straightening, encoding,
    plans, kernels) is deferred to runtime discovery — see
    :class:`repro.codegen.lazy.LazyProgram`. Time splitting needs the
    full automaton to pick split points, so the two are incompatible."""
    from repro.core.convert import ConversionEngine
    from repro.errors import ConversionError

    if ctx.options.time_split:
        raise ConversionError(
            "lazy conversion is incompatible with time splitting "
            "(splitting selects states from the completed automaton); "
            "drop --time-split or --lazy"
        )
    engine = ConversionEngine(ctx.cfg, convert_options)
    engine.ensure(engine.graph.start)
    ctx.engine = engine
    ctx.graph = engine.graph
    ctx.restarts = 0
    return {
        "lazy": 1,
        "meta_states": ctx.graph.num_states(),
        "meta_states_expanded": len(ctx.graph.table),
        "restarts": 0,
        "worklist_passes": engine.passes,
    }


def _stage_opt_meta(ctx: CompileContext) -> dict:
    from repro.opt import run_meta_passes

    if getattr(ctx.options, "lazy", False):
        # A partial automaton has no global layout to optimize; lazy
        # execution always uses the trivial one-node-per-state layout.
        return {"lazy_deferred": 1}
    ctx.straightened, records, totals = run_meta_passes(
        ctx.graph, ctx.options, valid_blocks=set(ctx.cfg.blocks),
        cfg=ctx.cfg,
    )
    ctx.pass_records["opt-meta"] = records
    return totals


def _stage_encode(ctx: CompileContext) -> dict:
    from repro.codegen.emit import encode_program

    options = ctx.options
    if getattr(options, "lazy", False):
        return {"lazy_deferred": 1}
    ctx.program = encode_program(
        ctx.cfg, ctx.straightened, costs=options.costs,
        use_csi=options.use_csi,
    )
    csi_cost, csi_serial, csi_bound = ctx.program.csi_totals()
    counters = {
        "nodes": ctx.program.node_count(),
        "cu_instructions": ctx.program.control_unit_instructions(),
        "csi_cost": csi_cost,
        "csi_serial_cost": csi_serial,
        "csi_lower_bound": csi_bound,
    }
    counters.update(ctx.program.hash_stats())
    return counters


def _stage_plan(ctx: CompileContext) -> dict:
    if getattr(ctx.options, "lazy", False):
        return {"lazy_deferred": 1}
    ctx.plan = ctx.program.plan()
    return ctx.plan.stats()


def _stage_kernels(ctx: CompileContext) -> dict:
    if getattr(ctx.options, "lazy", False):
        return {"lazy_deferred": 1}
    return ctx.program.kernels().stats()


def _stage_native(ctx: CompileContext) -> dict:
    """Generate (not compile) the per-node C source. Text-only: the
    NativeProgram travels in the cache bundle with the program, while
    compilation to a shared library is a host-local runtime step
    (:mod:`repro.simd.nativert`) — keeping cached bundles relocatable
    and this stage independent of whether a toolchain exists."""
    if getattr(ctx.options, "lazy", False):
        return {"lazy_deferred": 1}
    return ctx.program.native().stats()


# ----------------------------------------------------------------------
# optional analyze stages (repro.lint)
# ----------------------------------------------------------------------
_analyzers = None


def _preload_lint():
    """Build (once) the analyzer tuple outside the timed stage bodies,
    so the ``analyze`` rows measure analysis rather than first-import
    cost."""
    global _analyzers
    if _analyzers is None:
        from repro.lint.driver import default_analyzers

        _analyzers = default_analyzers()
    return _analyzers


def _lint_driver(options):
    from repro.lint.driver import AnalysisDriver

    return AnalysisDriver(
        _preload_lint(),
        select=tuple(getattr(options, "lint_select", ()) or ()),
        ignore=tuple(getattr(options, "lint_ignore", ()) or ()),
    )


def _lint_counters(found) -> dict:
    errors = sum(1 for d in found if d.severity == "error")
    warnings = sum(1 for d in found if d.severity == "warning")
    return {"diagnostics": len(found), "errors": errors,
            "warnings": warnings}


def _raise_on_lint_errors(ctx: CompileContext, found) -> None:
    from repro.errors import LintError

    errors = [d for d in found if d.severity == "error"]
    if errors:
        raise LintError(
            f"{errors[0].code}: {errors[0].message}", ctx.diagnostics)


def _stage_analyze(ctx: CompileContext) -> dict:
    """Pre-convert analyzers: CFG verifier, barrier deadlocks,
    explosion estimate, source lints.  Error-severity findings abort
    the compile here — before ``convert`` can explode."""
    from repro.lint.driver import LintContext

    lc = LintContext(source=ctx.source, options=ctx.options,
                     ast=ctx.ast, sema=ctx.sema, cfg=ctx.cfg,
                     scratch=ctx.lint_scratch)
    found, records = _lint_driver(ctx.options).run_phase(lc, "cfg")
    ctx.pass_records["analyze"] = records
    ctx.diagnostics.extend(found)
    _raise_on_lint_errors(ctx, found)
    return _lint_counters(found)


def _stage_analyze_meta(ctx: CompileContext) -> dict:
    """Post-convert analyzers: meta graph/program/plan verifier and the
    meta-state race detector (needs the converted graph).

    Under ``--lazy`` the frontier verifier expands the states it walks,
    so it explores a copy of the engine: the compile's own engine, which
    the cache stores and the run resumes, keeps only what conversion
    discovered."""
    from repro.lint.driver import LintContext

    engine, graph = ctx.engine, ctx.graph
    if engine is not None:
        engine = copy.deepcopy(engine, {id(ctx.cfg): ctx.cfg})
        graph = engine.graph
    lc = LintContext(source=ctx.source, options=ctx.options,
                     ast=ctx.ast, sema=ctx.sema, cfg=ctx.cfg,
                     graph=graph, program=ctx.program, plan=ctx.plan,
                     engine=engine, scratch=ctx.lint_scratch)
    found, records = _lint_driver(ctx.options).run_phase(lc, "meta")
    ctx.pass_records["analyze-meta"] = records
    ctx.diagnostics.extend(found)
    _raise_on_lint_errors(ctx, found)
    return _lint_counters(found)


def _check_werror(options, diagnostics: list) -> None:
    from repro.errors import LintError

    if not getattr(options, "werror", False):
        return
    offenders = [d for d in diagnostics
                 if d.severity in ("warning", "error")]
    if offenders:
        raise LintError(
            f"--Werror: {len(offenders)} warning(s) treated as errors",
            diagnostics)


#: The pipeline, dependency order. Names are stable API — tests, the
#: CLI table, and the JSON report all key on them.
PIPELINE_STAGES: tuple[Stage, ...] = (
    Stage("parse", _stage_parse),
    Stage("sema", _stage_sema),
    Stage("lower", _stage_lower),
    Stage("opt-cfg", _stage_opt_cfg),
    Stage("convert", _stage_convert),
    Stage("opt-meta", _stage_opt_meta),
    Stage("encode", _stage_encode),
    Stage("plan", _stage_plan),
    Stage("kernels", _stage_kernels),
    Stage("native", _stage_native),
)

STAGE_NAMES: tuple[str, ...] = tuple(s.name for s in PIPELINE_STAGES)

#: The optional analyzer stages, spliced in by :func:`stages_for`.
ANALYZE_STAGE = Stage("analyze", _stage_analyze)
ANALYZE_META_STAGE = Stage("analyze-meta", _stage_analyze_meta)


def stages_for(options) -> tuple[Stage, ...]:
    """The stage list for ``options``: the fixed ten-stage pipeline,
    plus — when ``options.analyze`` is set — the ``analyze`` stage
    after ``opt-cfg`` (so explosion errors abort before ``convert``)
    and ``analyze-meta`` after ``plan`` (races need the meta graph;
    kernel generation runs only on lint-clean programs). Lazy compiles
    run ``analyze-meta`` too: the meta analyzers then verify the
    engine's discovered frontier incrementally, driven (and bounded)
    by the shared frontier analyzer — see
    :meth:`repro.lint.driver.LintContext.frontier`.  ``repro lint``
    (:func:`repro.lint.api.lint_source`) runs this same list up to
    ``kernels``."""
    if not getattr(options, "analyze", False):
        return PIPELINE_STAGES
    _preload_lint()
    out: list[Stage] = []
    for stage in PIPELINE_STAGES:
        out.append(stage)
        if stage.name == "opt-cfg":
            out.append(ANALYZE_STAGE)
        elif stage.name == "plan":
            out.append(ANALYZE_META_STAGE)
    return tuple(out)


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def run_pipeline(source: str, options, cache=None):
    """Compile ``source`` through every stage (or load the whole bundle
    from ``cache``) and return a
    :class:`~repro.pipeline.ConversionResult` carrying the program,
    plan, and :class:`~repro.stages.report.StageReport`.
    """
    from repro.pipeline import ConversionResult

    cache = resolve_cache(cache)
    report = StageReport()
    if cache is not None:
        report.key = compile_key(source, options)
        t0 = time.perf_counter()
        payload = cache.load(report.key)
        report.load_seconds = time.perf_counter() - t0
        if payload is not None:
            report.cache = "hit"
            _record_cached_stages(report, payload)
            if getattr(options, "analyze", False):
                report.records.extend(payload.analysis)
                report.diagnostics = list(payload.diagnostics)
                _check_werror(options, report.diagnostics)
            result = ConversionResult(
                source=source, cfg=payload.cfg, graph=payload.graph,
                options=options, restarts=payload.restarts,
            )
            result._program = payload.program
            result._engine = payload.lazy_engine
            result.report = report
            return result
        report.cache = "miss"

    ctx = CompileContext(source=source, options=options)
    for stage in stages_for(options):
        stage.execute(ctx, report)
    report.diagnostics = list(ctx.diagnostics)
    # Only lint-passing compiles are worth caching under --Werror.
    _check_werror(options, report.diagnostics)

    if cache is not None:
        t0 = time.perf_counter()
        payload = CachedCompile(
            cfg=ctx.cfg, graph=ctx.graph, restarts=ctx.restarts,
            program=ctx.program, lazy_engine=ctx.engine,
        )
        if getattr(options, "analyze", False):
            payload.diagnostics, payload.analysis = _analysis_of(report)
        cache.store(report.key, payload)
        report.store_seconds = time.perf_counter() - t0

    result = ConversionResult(
        source=source, cfg=ctx.cfg, graph=ctx.graph, options=options,
        restarts=ctx.restarts,
    )
    result._program = ctx.program
    result._engine = ctx.engine
    result.report = report
    return result


def store_lazy_progress(cache, result) -> bool:
    """Re-store a lazy compile's cache bundle after a run, folding the
    states the runtime discovered back into the content-addressed
    entry — the next compile of the same source + options resumes from
    them instead of rediscovering. No-op for eager results or when
    caching is off."""
    cache = resolve_cache(cache)
    engine = getattr(result, "_engine", None)
    if cache is None or engine is None:
        return False
    key = compile_key(result.source, result.options)
    payload = CachedCompile(
        cfg=result.cfg, graph=result.graph, restarts=result.restarts,
        program=None, lazy_engine=engine,
    )
    if getattr(result.options, "analyze", False):
        # The analysis is the compile's, whatever the run discovered.
        payload.diagnostics, payload.analysis = _analysis_of(result.report)
    return cache.store(key, payload)


def _as_cached(rec: StageRecord) -> StageRecord:
    """``rec`` as a cache hit replays it: its counters, no time."""
    return StageRecord(rec.name, cached=True, counters=dict(rec.counters),
                       subrecords=[_as_cached(sub) for sub in rec.subrecords])


def _analysis_of(report: StageReport) -> tuple[list, tuple]:
    """What an analyzed bundle carries for its hits to replay: the
    diagnostics, and the ``analyze`` and ``analyze-meta`` rows as
    cached rows."""
    return list(report.diagnostics), tuple(
        _as_cached(report.stage(stage.name))
        for stage in (ANALYZE_STAGE, ANALYZE_META_STAGE))


def _record_cached_stages(report: StageReport, payload: CachedCompile) -> None:
    """On a cache hit, record every stage as skipped, with the counters
    that are cheaply re-derivable from the loaded artifacts (so a warm
    ``--timings`` table still shows the program's shape)."""
    if payload.program is None:
        # Lazy bundle: only the engine snapshot travels in the cache.
        derived = {
            "opt-cfg": lambda: {"blocks": len(payload.cfg.blocks)},
            "convert": lambda: {
                "lazy": 1,
                "meta_states": payload.graph.num_states(),
                "meta_states_expanded": len(payload.graph.table),
                "restarts": payload.restarts,
            },
        }
    else:
        derived = {
            "opt-cfg": lambda: {"blocks": len(payload.cfg.blocks)},
            "convert": lambda: {
                "meta_states": payload.graph.num_states(),
                "restarts": payload.restarts,
            },
            "opt-meta": lambda: {"chains": payload.program.node_count()},
            "encode": lambda: {
                "nodes": payload.program.node_count(),
                "cu_instructions":
                    payload.program.control_unit_instructions(),
            },
            # The generated kernel source travels inside the cached
            # program (see KernelProgram.__getstate__) — a warm hit
            # reports its stats without regenerating anything.
            "kernels": lambda: payload.program.kernels().stats(),
            "native": lambda: payload.program.native().stats(),
        }
    for name in STAGE_NAMES:
        counters = derived.get(name, dict)()
        report.add(name, 0.0, cached=True, counters=counters)
