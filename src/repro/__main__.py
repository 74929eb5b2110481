"""Command-line interface: ``python -m repro``.

Subcommands mirror the prototype tool chain of section 4:

- ``compile``  : MIMDC source -> meta-state automaton; print the graph,
  the MPL-like SIMD code, or Graphviz dot.
- ``run``      : convert and execute on the SIMD machine (optionally
  cross-checking against the MIMD reference).
- ``compare``  : the section-1 duel — MSC vs the interpreter baseline.
- ``lint``     : run the :mod:`repro.lint` analyzer suite and print the
  diagnostics (text or JSON) without emitting code; ``--emit-witness``
  writes oracle-confirmed findings as replayable counterexamples.
- ``replay``   : re-run emitted witness files against the MIMD oracle.
- ``cache``    : inspect or clear the compile cache.

Compiles go through the stage pipeline and (unless ``--no-cache``) the
content-addressed compile cache, so a repeated ``compile``/``run`` of
an unchanged source skips parse-through-plan. ``--timings`` prints the
per-stage table; ``--report-json PATH`` writes it machine-readably.

Examples::

    python -m repro compile prog.mimdc --emit mpl
    python -m repro compile prog.mimdc --compress --emit graph
    python -m repro compile prog.mimdc --timings --report-json stages.json
    python -m repro compile prog.mimdc -O2 --emit dot-opt
    python -m repro compile prog.mimdc --analyze --Werror
    python -m repro run prog.mimdc --npes 64 --check
    python -m repro run prog.mimdc --npes 16384 --backend native --shards 4
    python -m repro compare prog.mimdc --npes 1024
    python -m repro lint prog.mimdc --format json --ignore MSC04
    python -m repro lint prog.mimdc --emit-witness witnesses/
    python -m repro replay witnesses/prog--MSC020--00.mimdc
    python -m repro cache info
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import ConversionOptions, convert_source, simulate_mimd, simulate_simd
from repro.analysis.compare import compare_msc_vs_interpreter, format_table
from repro.analysis.stagetime import format_stage_table
from repro.errors import LintError, MscError, SourceError
from repro.stages.cache import CompileCache, default_cache_root
from repro.viz.dot import ascii_graph, cfg_to_dot, meta_graph_to_dot


def _options(args: argparse.Namespace) -> ConversionOptions:
    return ConversionOptions(
        compress=args.compress,
        time_split=args.time_split,
        split_delta=args.split_delta,
        split_percent=args.split_percent,
        max_meta_states=args.max_meta_states,
        max_parked=args.max_parked,
        use_csi=not getattr(args, "no_csi", False),
        verify_passes=args.verify_passes,
        analyze=getattr(args, "analyze", False),
        werror=getattr(args, "werror", False),
        lint_select=tuple(getattr(args, "select", None) or ()),
        lint_ignore=tuple(getattr(args, "ignore", None) or ()),
        max_resident_meta=getattr(args, "max_resident_meta", 0) or 0,
        verify_budget=getattr(args, "verify_budget", 5_000),
        # None = not given on the command line: let the dataclass
        # defaults (REPRO_OPT_LEVEL / REPRO_LAZY) decide.
        **({} if args.opt_level is None else {"opt_level": args.opt_level}),
        **({} if not getattr(args, "lazy", False) else {"lazy": True}),
    )


def _cache(args: argparse.Namespace):
    if args.no_cache:
        return None
    if args.cache_dir:
        return CompileCache(root=args.cache_dir)
    return CompileCache()


def _add_conversion_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--compress", action="store_true",
                   help="meta-state compression (section 2.5)")
    p.add_argument("--time-split", action="store_true",
                   help="MIMD state time splitting (section 2.4)")
    p.add_argument("--split-delta", type=int, default=4,
                   help="time-splitting noise threshold (cycles)")
    p.add_argument("--split-percent", type=int, default=50,
                   help="time-splitting acceptable-utilization percent")
    p.add_argument("--no-csi", action="store_true",
                   help="serialize meta-state bodies (CSI ablation)")
    p.add_argument("-O", "--opt-level", type=int, choices=[0, 1, 2],
                   default=None,
                   help="optimization level: 0 none, 1 the paper's "
                        "normalizations (default), 2 adds block-body "
                        "optimizations; default honors $REPRO_OPT_LEVEL")
    p.add_argument("--verify-passes", action="store_true",
                   help="verify the IR after every optimization pass")
    p.add_argument("--max-meta-states", type=int, default=100_000)
    p.add_argument("--max-parked", type=int, default=8,
                   help="cap on simultaneously parked barrier states")
    p.add_argument("--lazy", action="store_true", default=None,
                   help="incremental conversion: discover, encode, and "
                        "JIT-compile meta states as execution reaches "
                        "them (explosion-prone programs run without "
                        "materializing the whole automaton); default "
                        "honors $REPRO_LAZY")
    p.add_argument("--max-resident-meta", type=int, default=0,
                   help="with --lazy, bound on compiled meta nodes kept "
                        "resident (LRU eviction + deterministic "
                        "re-expansion; 0 = unbounded)")
    p.add_argument("--verify-budget", type=int, default=5_000,
                   help="with --analyze --lazy, cap on new meta states "
                        "the incremental frontier verifier may expand "
                        "(0 = unbounded; truncation reports MSC050)")


def _add_lint_filters(p: argparse.ArgumentParser) -> None:
    p.add_argument("--select", action="append", metavar="CODE",
                   default=None,
                   help="only keep diagnostics whose code starts with "
                        "CODE (repeatable; MSC02 = the whole family)")
    p.add_argument("--ignore", action="append", metavar="CODE",
                   default=None,
                   help="drop diagnostics whose code starts with CODE "
                        "(repeatable)")
    p.add_argument("--Werror", dest="werror", action="store_true",
                   help="treat warning diagnostics as errors")


def _add_backend_flags(p: argparse.ArgumentParser) -> None:
    from repro.simd.machine import BACKENDS

    p.add_argument("--backend", choices=BACKENDS, default="kernels",
                   help="SIMD executor: C kernels loaded through "
                        "ctypes (falls back to kernels when no C "
                        "compiler is present), fused generated NumPy "
                        "kernels (default), or the interpretive "
                        "reference — identical results")
    p.add_argument("--shards", type=int, default=None,
                   help="PE-axis shard count for the native and kernels "
                        "backends (default $REPRO_SHARDS, else 1: the "
                        "serial path)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("source", help="MIMDC source file ('-' for stdin)")
    _add_conversion_flags(p)
    p.add_argument("--analyze", action="store_true",
                   help="run the repro.lint analyzer stages during the "
                        "compile (diagnostics go to stderr and the "
                        "stage report)")
    _add_lint_filters(p)
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the compile cache")
    p.add_argument("--cache-dir", default=None,
                   help="compile-cache root (default ~/.cache/repro-msc "
                        "or $REPRO_MSC_CACHE)")
    p.add_argument("--timings", action="store_true",
                   help="print the per-stage compile-time table")
    p.add_argument("--report-json", metavar="PATH", default=None,
                   help="write the stage report as JSON to PATH")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _convert(args: argparse.Namespace):
    result = convert_source(_read(args.source), _options(args),
                            cache=_cache(args))
    return result


def _emit_report(args: argparse.Namespace, result) -> None:
    diags = getattr(result.report, "diagnostics", None)
    if diags:
        from repro.lint import render_text

        print(render_text(diags, source=result.source,
                          filename=args.source), file=sys.stderr)
    if args.timings:
        print(format_stage_table(result.report))
    if args.report_json:
        result.report.write_json(args.report_json)


def cmd_compile(args: argparse.Namespace) -> int:
    result = _convert(args)
    if args.emit == "mpl":
        print(result.mpl_text())
    elif args.emit == "kernel":
        print(result.simd_program().kernels().source)
    elif args.emit == "c":
        print(result.simd_program().native().c_source)
    elif args.emit == "graph":
        print(ascii_graph(result.graph))
    elif args.emit == "dot":
        unrealizable = None
        if getattr(args, "mark_unrealizable", False) and \
                not result.graph.compressed:
            from repro.verify.frontier import realizable_states

            realizable = realizable_states(result.cfg)
            if realizable is not None:
                unrealizable = {m for m in result.graph.states
                                if m not in realizable
                                and m != result.graph.start}
        print(meta_graph_to_dot(result.graph, unrealizable=unrealizable))
    elif args.emit == "dot-opt":
        from repro.opt import straightened_for_level
        from repro.viz.dot import straightened_to_dot

        print(straightened_to_dot(straightened_for_level(
            result.graph, result.options.opt_level)))
    elif args.emit == "cfg":
        print(result.cfg)
    elif args.emit == "cfg-dot":
        print(cfg_to_dot(result.cfg))
    else:  # summary
        from repro.analysis.stats import graph_stats

        stats = graph_stats(result.cfg, result.graph)
        for key, value in stats.as_row().items():
            print(f"{key:>16}: {value}")
    _emit_report(args, result)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    result = _convert(args)
    simd = simulate_simd(result, npes=args.npes, active=args.active,
                         max_steps=args.max_steps,
                         backend=args.backend, shards=args.shards)
    print(f"returns: {simd.returns}")
    print(f"cycles: {simd.cycles} (body {simd.body_cycles}, "
          f"transitions {simd.transition_cycles})")
    print(f"utilization: {simd.utilization:.1%}; "
          f"meta transitions: {simd.meta_transitions}")
    print(f"backend: {simd.backend_used} (shards {simd.shards})")
    if getattr(result.options, "lazy", False):
        stats = result.lazy_program().stats()
        print(f"lazy: {stats['lazy_discovered']} states discovered, "
              f"{stats['lazy_expanded']} prepared, "
              f"{stats['lazy_resolved']} arcs resolved, "
              f"{stats['lazy_materialized']} compiled "
              f"({stats['lazy_resident']} resident, "
              f"{stats['lazy_evictions']} evicted)")
        # Fold runtime discovery back into the compile cache: the next
        # run of the same source + options resumes from these states.
        from repro.stages.driver import store_lazy_progress

        store_lazy_progress(_cache(args), result)
    _emit_report(args, result)
    if args.check:
        mimd = simulate_mimd(result, nprocs=args.npes, active=args.active,
                             max_steps=args.max_steps)
        if np.array_equal(simd.returns, mimd.returns, equal_nan=True) and \
                np.array_equal(simd.poly, mimd.poly, equal_nan=True):
            print("check: SIMD == MIMD reference")
        else:
            print("check: MISMATCH against the MIMD reference", file=sys.stderr)
            return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    result = _convert(args)
    row = compare_msc_vs_interpreter(args.source, result, npes=args.npes,
                                     active=args.active,
                                     backend=args.backend,
                                     shards=args.shards)
    print(format_table([row]))
    _emit_report(args, result)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import lint_source, render_json, render_text

    source = _read(args.source)
    filename = "<stdin>" if args.source == "-" else args.source
    result = lint_source(source, _options(args), filename=filename,
                         select=tuple(args.select or ()),
                         ignore=tuple(args.ignore or ()),
                         emit_witness_dir=args.emit_witness)
    if args.format == "json":
        print(render_json(result.diagnostics, filename=filename))
    else:
        print(render_text(result.diagnostics, source=source,
                          filename=filename))
    if args.facts:
        width = max((len(r.name) for r in result.records), default=0)
        for rec in result.records:
            shown = ", ".join(
                f"{k}={v}" for k, v in sorted(rec.counters.items()))
            print(f"{rec.name.ljust(width)}  {shown}".rstrip())
    for path in result.witnesses:
        print(f"witness: {path}", file=sys.stderr)
    return 0 if result.ok(werror=args.werror) else 1


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.verify.witness import replay_witness

    failures = 0
    for path in args.witness:
        report = replay_witness(path)
        status = "ok" if report.ok else "FAIL"
        print(f"{status}: {path}: {report.code} @ {report.nprocs} "
              f"processors: {report.message}")
        if not report.ok:
            failures += 1
    return 1 if failures else 0


def cmd_cache(args: argparse.Namespace) -> int:
    cache = CompileCache(root=args.cache_dir) if args.cache_dir \
        else CompileCache()
    if args.action == "dir":
        print(cache.root)
    elif args.action == "info":
        print(f"root: {cache.root}")
        print(f"version: v{cache.version}")
        print(f"entries: {cache.entry_count()}")
    else:  # clear
        print(f"removed {cache.clear()} entries from {cache.root}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Meta-State Conversion (Dietz 1993) tool chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="convert and print an artifact")
    _add_common(p)
    p.add_argument("--emit", default="summary",
                   choices=["summary", "mpl", "kernel", "c", "graph",
                            "dot", "dot-opt", "cfg", "cfg-dot"])
    p.add_argument("--mark-unrealizable", action="store_true",
                   help="with --emit dot, draw meta states no execution "
                        "can dispatch (dead-meta-prune candidates) "
                        "dotted and gray")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="execute on the SIMD machine")
    _add_common(p)
    p.add_argument("--npes", type=int, default=16)
    p.add_argument("--active", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=1_000_000)
    _add_backend_flags(p)
    p.add_argument("--check", action="store_true",
                   help="cross-check against the MIMD reference machine")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="MSC vs interpreter baseline")
    _add_common(p)
    p.add_argument("--npes", type=int, default=16)
    p.add_argument("--active", type=int, default=None)
    _add_backend_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("lint", help="run the static analyzers only")
    p.add_argument("source", help="MIMDC source file ('-' for stdin)")
    _add_conversion_flags(p)
    _add_lint_filters(p)
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="diagnostic output format")
    p.add_argument("--emit-witness", metavar="DIR", default=None,
                   help="write every oracle-confirmed MSC010/011/020/021 "
                        "finding to DIR as a replayable .mimdc "
                        "counterexample (see the replay subcommand)")
    p.add_argument("--facts", action="store_true",
                   help="print each analyzer's fact and finding "
                        "counters (uniform branches, solver iterations, "
                        "certificates, explored states, ...)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("replay",
                       help="re-run emitted .mimdc counterexample "
                            "witnesses against the MIMD oracle")
    p.add_argument("witness", nargs="+",
                   help="witness file(s) produced by lint --emit-witness")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("cache", help="inspect or clear the compile cache")
    p.add_argument("action", choices=["info", "clear", "dir"])
    p.add_argument("--cache-dir", default=None,
                   help=f"cache root (default {default_cache_root()})")
    p.set_defaults(func=cmd_cache)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LintError as exc:
        from repro.lint import render_text

        if exc.diagnostics:
            print(render_text(exc.diagnostics, source=_source_of(args),
                              filename=getattr(args, "source", "<source>")),
                  file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SourceError as exc:
        from repro.lint import render_source_error

        print(render_source_error(
            exc, source=_source_of(args),
            filename=getattr(args, "source", "<source>") or "<source>",
        ), file=sys.stderr)
        return 2
    except MscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _source_of(args: argparse.Namespace) -> str | None:
    """Best-effort re-read of the input for error excerpts (stdin is
    gone by the time an error propagates here)."""
    path = getattr(args, "source", None)
    if not path or path == "-":
        return None
    try:
        return _read(path)
    except OSError:
        return None


if __name__ == "__main__":
    sys.exit(main())
