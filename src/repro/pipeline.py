"""High-level conversion pipeline — the public one-call API.

Mirrors section 4.2's outline of the prototype:

1. parse the MIMDC source into a control-flow graph (normalized form);
2. straighten and remove empty nodes;
3. apply the meta-state conversion algorithm (optionally with
   compression and/or time splitting);
4. straighten the meta-state graph and encode it for SIMD execution
   (CSI scheduling + hash-encoded multiway branches).

Since PR 2 the implementation is the explicit stage pipeline of
:mod:`repro.stages`: :func:`convert_source` drives the named
parse→sema→lower→opt-cfg→convert→opt-meta→encode→plan stages, records
per-stage wall time and counters in a
:class:`~repro.stages.report.StageReport` (available as
``result.report``), and — when given a ``cache`` — keys the whole
artifact bundle by content hash so a repeated compile skips every
stage. The two ``opt-*`` stages run the :mod:`repro.opt` pass pipeline
selected by :attr:`ConversionOptions.opt_level` and nest per-pass
timing rows under their stage records.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.convert import ConvertOptions
from repro.core.metastate import MetaStateGraph
from repro.ir.cfg import Cfg
from repro.ir.instr import DEFAULT_COSTS, CostModel

#: Single source of truth for the conversion knobs that
#: :class:`ConversionOptions` mirrors (they used to be maintained in
#: both dataclasses and could drift).
_CONVERT_DEFAULTS = ConvertOptions()


def _default_opt_level() -> int:
    """The ``-O`` level used when none is given: ``REPRO_OPT_LEVEL`` if
    set (CI runs the tier-1 suite under ``-O0`` this way), else 1."""
    try:
        level = int(os.environ.get("REPRO_OPT_LEVEL", "1"))
    except ValueError:
        return 1
    return min(max(level, 0), 2)


def _default_lazy() -> bool:
    """Lazy conversion by default when ``REPRO_LAZY`` is a nonzero
    integer (the CI matrix leg that runs the differential suites under
    lazy mode sets ``REPRO_LAZY=1``)."""
    try:
        return bool(int(os.environ.get("REPRO_LAZY", "0")))
    except ValueError:
        return False


@dataclass(frozen=True)
class ConversionOptions:
    """Options controlling the whole pipeline.

    Attributes
    ----------
    compress:
        Meta-state compression (section 2.5).
    time_split:
        MIMD state time splitting (section 2.4).
    split_delta / split_percent:
        Time-splitting thresholds (see
        :class:`repro.core.timesplit.TimeSplitOptions`).
    max_meta_states:
        State-space cap for the conversion.
    max_parked:
        Cap on simultaneously parked barrier states (the all-at-barrier
        closure enumerates subsets of this set — see
        :class:`repro.core.convert.ConvertOptions`).
    use_csi:
        Schedule meta-state bodies with common subexpression induction
        (section 3.1); ``False`` serializes the threads — the ablation
        baseline.
    opt_level:
        ``-O`` level selecting the :mod:`repro.opt` pass pipelines:
        0 = no optimization (unreachable-block removal only, one chain
        per meta state), 1 = the paper's normalizations (default),
        2 = adds constant folding, copy propagation, dead-code and
        dead-slot elimination. Defaults to ``REPRO_OPT_LEVEL`` when the
        environment variable is set.
    verify_passes:
        Run every optimization pass's verifier on its output (debug
        mode for developing passes).
    costs:
        Cycle-cost model shared by splitting, scheduling, and the
        simulators.
    analyze:
        Run the :mod:`repro.lint` analyzer suite as extra pipeline
        stages (``analyze`` after ``opt-cfg``, ``analyze-meta`` after
        ``plan``); findings land on the stage report.
    werror:
        With ``analyze``, treat warning-severity findings as compile
        errors (:class:`~repro.errors.LintError`).
    lint_select / lint_ignore:
        Diagnostic-code prefixes to keep / drop (``MSC02`` matches the
        whole race family).
    lazy:
        Incremental (lazy) meta-state conversion: compile only the
        entry state up front and hand the live
        :class:`~repro.core.convert.ConversionEngine` to the runtime,
        which expands / encodes / JIT-compiles meta states as execution
        first reaches them. Explosion-prone programs whose *reachable*
        state set is small run this way without materializing the
        up-to-``3^n`` automaton; the eager explosion diagnostic
        (``MSC030``) downgrades to a warning. Chain straightening is
        skipped (a partial automaton has no global layout), so cycle
        counts match an eager ``-O0`` compile exactly. Defaults to
        ``REPRO_LAZY`` when the environment variable is set.
    max_resident_meta:
        With ``lazy``, bound on compiled meta nodes resident at once
        (0 = unbounded). Beyond it the least-recently-dispatched node's
        compiled artifacts are evicted; re-entering it re-compiles
        deterministically from the retained conversion graph. Runtime
        memory knob only — results and cycle counts are unaffected, and
        it is excluded from the compile-cache fingerprint.
    verify_budget:
        With ``analyze`` under ``lazy``, cap on *new* meta states the
        incremental frontier verifier may expand beyond what execution
        already discovered (0 = unbounded). When the cap truncates the
        exploration, meta-phase diagnostics cover the explored subgraph
        and MSC050 (info) reports the truncation. Ignored by eager
        compiles, whose automaton is already complete.
    """

    compress: bool = _CONVERT_DEFAULTS.compress
    time_split: bool = False
    split_delta: int = 4
    split_percent: int = 50
    max_meta_states: int = _CONVERT_DEFAULTS.max_meta_states
    max_parked: int = _CONVERT_DEFAULTS.max_parked
    use_csi: bool = True
    opt_level: int = field(default_factory=_default_opt_level)
    verify_passes: bool = False
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    analyze: bool = False
    werror: bool = False
    lint_select: tuple = ()
    lint_ignore: tuple = ()
    lazy: bool = field(default_factory=_default_lazy)
    max_resident_meta: int = 0
    verify_budget: int = 5_000

    def convert_options(self) -> ConvertOptions:
        """The :class:`~repro.core.convert.ConvertOptions` view of these
        options — the one place the two dataclasses meet."""
        return ConvertOptions(
            compress=self.compress,
            max_meta_states=self.max_meta_states,
            max_parked=self.max_parked,
        )


@dataclass
class ConversionResult:
    """Everything the pipeline produced.

    ``cfg`` is the MIMD state graph (after any time splitting), ``graph``
    the meta-state automaton, ``program`` the encoded SIMD program (lazy;
    see :meth:`simd_program`), ``options`` the options used, and
    ``report`` the per-stage :class:`~repro.stages.report.StageReport`
    of the compile (``None`` for results built by hand).
    """

    source: str
    cfg: Cfg
    graph: MetaStateGraph
    options: ConversionOptions
    restarts: int = 0
    _program: object = field(default=None, init=False, repr=False,
                             compare=False)
    #: Live ConversionEngine of a lazy compile (also the cache-loaded
    #: snapshot on a warm hit); ``None`` for eager results.
    _engine: object = field(default=None, init=False, repr=False,
                            compare=False)
    #: Cached LazyProgram manager, built on first simulation so repeated
    #: runs keep their compiled nodes (the warm steady state).
    _lazy: object = field(default=None, init=False, repr=False,
                          compare=False)
    report: object = field(default=None, repr=False, compare=False)

    def simd_program(self):
        """The executable SIMD encoding (CSI-scheduled, hash-dispatched),
        built on first use (:func:`convert_source` pre-builds it, so
        this only compiles for hand-assembled results). Lazy results
        have no complete program — use :meth:`lazy_program`."""
        if self._program is None:
            from repro.codegen.emit import encode_program
            from repro.errors import ConversionError
            from repro.opt import straightened_for_level

            if getattr(self.options, "lazy", False):
                raise ConversionError(
                    "lazy compile has no complete SIMD program (states "
                    "materialize at runtime); use lazy_program() / "
                    "simulate_simd(), or recompile without lazy"
                )
            straightened = straightened_for_level(
                self.graph, self.options.opt_level)
            self._program = encode_program(
                self.cfg, straightened, costs=self.options.costs,
                use_csi=self.options.use_csi,
            )
        return self._program

    def lazy_program(self):
        """The :class:`~repro.codegen.lazy.LazyProgram` manager of a
        lazy compile — built on first use around the compile's engine
        (or the cache-loaded engine snapshot) and kept on the result, so
        states stay expanded and compiled across repeated simulations."""
        if self._lazy is None:
            from repro.codegen.lazy import LazyProgram

            self._lazy = LazyProgram(self.cfg, self.options,
                                     engine=self._engine)
            self._engine = self._lazy.engine
        return self._lazy

    def exec_plan(self):
        """The precompiled :class:`~repro.codegen.plan.ProgramPlan` of
        :meth:`simd_program` (cached on the program)."""
        return self.simd_program().plan()

    def mpl_text(self) -> str:
        """MPL-like C rendering of the automaton (the paper's Listing 5)."""
        from repro.codegen.mpl import render_mpl

        return render_mpl(self.simd_program())


def convert_source(
    source: str, options: ConversionOptions | None = None, *, cache=None
) -> ConversionResult:
    """Compile MIMDC ``source`` into a meta-state automaton.

    ``cache`` enables the content-addressed compile cache: ``True``
    uses the default directory (``~/.cache/repro-msc``, overridable via
    ``REPRO_MSC_CACHE``), a path roots a cache there, and a
    :class:`~repro.stages.cache.CompileCache` is used as-is. On a cache
    hit every stage is skipped and the loaded program (plan included)
    goes straight to simulation; ``result.report`` records which.

    Raises front-end errors (:class:`~repro.errors.LexError`,
    :class:`~repro.errors.ParseError`,
    :class:`~repro.errors.SemanticError`) or
    :class:`~repro.errors.ConversionError` on state-space blowup.
    """
    from repro.stages.driver import run_pipeline

    if options is None:
        options = ConversionOptions()
    return run_pipeline(source, options, cache=cache)


def simulate_simd(result: ConversionResult, npes: int, *,
                  active: int | None = None, max_steps: int = 1_000_000,
                  backend: str = "kernels", shards: int | None = None):
    """Execute the converted program on the SIMD machine simulator.

    ``active`` limits how many PEs start in ``main`` (the rest sit in
    the free pool for ``spawn`` to claim); default all. ``backend``
    picks the executor: ``"kernels"`` (fused generated code, the
    default), ``"native"`` (cffi-compiled C kernels, falling back to
    ``"kernels"`` with a warning when no toolchain is available), or
    ``"interp"`` (the interpretive reference) — bit-identical results
    across all three; the returned result's ``backend_used`` records
    which one actually ran (a downgrade also warns). ``shards`` splits
    the PE axis of a ``kernels`` or ``native`` run over that many
    worker threads (default ``$REPRO_SHARDS``, else 1). The
    precompiled plan, the
    generated kernel source, and the generated C source travel with
    the program artifact, so repeated (and warm-cache) runs never
    rebuild them (the native shared library is host-local, built once
    per content address under the same cache root).
    """
    from repro.simd.machine import SimdMachine

    machine = SimdMachine(npes=npes, costs=result.options.costs,
                          backend=backend, shards=shards)
    if getattr(result.options, "lazy", False):
        mgr = result.lazy_program()
        out = machine.run(mgr.program, active=active, max_steps=max_steps,
                          plan=mgr.plan, miss_handler=mgr)
        _record_lazy_stats(result, mgr)
        return out
    prog = result.simd_program()
    plan = result.exec_plan() if backend != "interp" else None
    return machine.run(prog, active=active, max_steps=max_steps, plan=plan)


def _record_lazy_stats(result: ConversionResult, mgr) -> None:
    """Fold the manager's discovered-vs-materialized counters into the
    stage report as a ``lazy-exec`` record (replacing the previous
    run's row, not accumulating), so ``--timings`` and
    ``--report-json`` surface them alongside the compile stages."""
    report = result.report
    if report is None:
        return
    rec = report.stage("lazy-exec")
    if rec is None:
        rec = report.add("lazy-exec")
    rec.counters = mgr.stats()


def simulate_mimd(result: ConversionResult, nprocs: int, *,
                  active: int | None = None, max_steps: int = 1_000_000):
    """Execute the original MIMD state graph on the reference MIMD
    machine (the semantic oracle — no meta states involved)."""
    from repro.mimd.machine import MimdMachine

    machine = MimdMachine(nprocs=nprocs, costs=result.options.costs)
    return machine.run(result.cfg, active=active, max_steps=max_steps)
