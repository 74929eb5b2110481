"""Tests for the content-addressed compile cache.

Hit/miss behaviour of the key (source, options, cost model, version),
corruption fallback, and the acceptance property: cold and warm
compiles produce bit-identical simulation results on every standard
workload while the warm compile runs zero stages.
"""

import os
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import ConversionOptions, convert_source, simulate_simd
from repro.errors import LintError
from repro.ir.instr import CostModel
from repro.stages.cache import (
    CACHE_VERSION,
    CompileCache,
    compile_key,
    default_cache_root,
)
from repro.workloads import all_sources

from tests.helpers import LISTING1_RUNNABLE


class TestCompileKey:
    def test_stable(self):
        opts = ConversionOptions()
        assert compile_key(LISTING1_RUNNABLE, opts) == \
            compile_key(LISTING1_RUNNABLE, opts)

    def test_source_edit_changes_key(self):
        opts = ConversionOptions()
        assert compile_key(LISTING1_RUNNABLE, opts) != \
            compile_key(LISTING1_RUNNABLE + "\n", opts)

    def test_option_change_changes_key(self):
        base = compile_key(LISTING1_RUNNABLE, ConversionOptions())
        assert base != compile_key(
            LISTING1_RUNNABLE, ConversionOptions(compress=True))
        assert base != compile_key(
            LISTING1_RUNNABLE, ConversionOptions(max_parked=4))

    def test_cost_model_changes_key(self):
        base = compile_key(LISTING1_RUNNABLE, ConversionOptions())
        costly = ConversionOptions(costs=CostModel(globalor_cost=99))
        assert base != compile_key(LISTING1_RUNNABLE, costly)

    def test_default_root_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_MSC_CACHE", str(tmp_path / "x"))
        assert default_cache_root() == tmp_path / "x"


class TestHitMiss:
    def test_hit_on_identical_compile(self, tmp_path):
        cache = CompileCache(root=tmp_path)
        r1 = convert_source(LISTING1_RUNNABLE, cache=cache)
        r2 = convert_source(LISTING1_RUNNABLE, cache=cache)
        assert (r1.report.cache, r2.report.cache) == ("miss", "hit")
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1
        assert r2.report.cache_hits == len(r2.report.records)
        assert r2.report.cache_misses == 0

    def test_miss_on_source_edit(self, tmp_path):
        cache = CompileCache(root=tmp_path)
        convert_source(LISTING1_RUNNABLE, cache=cache)
        r = convert_source(LISTING1_RUNNABLE + "\n", cache=cache)
        assert r.report.cache == "miss"

    def test_miss_on_option_change(self, tmp_path):
        cache = CompileCache(root=tmp_path)
        convert_source(LISTING1_RUNNABLE, cache=cache)
        r = convert_source(LISTING1_RUNNABLE,
                           ConversionOptions(use_csi=False), cache=cache)
        assert r.report.cache == "miss"

    def test_miss_on_version_bump(self, tmp_path):
        cache = CompileCache(root=tmp_path)
        convert_source(LISTING1_RUNNABLE, cache=cache)
        bumped = CompileCache(root=tmp_path, version=CACHE_VERSION + 1)
        r = convert_source(LISTING1_RUNNABLE, cache=bumped)
        assert r.report.cache == "miss"

    def test_results_equal_across_hit(self, tmp_path):
        cache = CompileCache(root=tmp_path)
        r1 = convert_source(LISTING1_RUNNABLE, cache=cache)
        r2 = convert_source(LISTING1_RUNNABLE, cache=cache)
        assert r1 == r2  # same source/cfg/graph/options/restarts
        assert r2.simd_program().node_count() == \
            r1.simd_program().node_count()


class TestCorruption:
    def test_corrupt_entry_falls_back_to_recompile(self, tmp_path):
        cache = CompileCache(root=tmp_path)
        r1 = convert_source(LISTING1_RUNNABLE, cache=cache)
        path = cache.path_for(r1.report.key)
        assert path.is_file()
        path.write_bytes(b"not a pickle")
        r2 = convert_source(LISTING1_RUNNABLE, cache=cache)
        assert r2.report.cache == "miss"
        assert cache.evictions == 1
        assert not path.exists() or path.stat().st_size > 20
        # The recompile re-stored a good entry; third time is a hit.
        r3 = convert_source(LISTING1_RUNNABLE, cache=cache)
        assert r3.report.cache == "hit"

    def test_wrong_payload_type_evicted(self, tmp_path):
        import pickle

        cache = CompileCache(root=tmp_path)
        key = compile_key(LISTING1_RUNNABLE, ConversionOptions())
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "an artifact"}))
        r = convert_source(LISTING1_RUNNABLE, cache=cache)
        assert r.report.cache == "miss"
        assert cache.evictions == 1

    def test_concurrent_writers_leave_one_loadable_entry(self, tmp_path):
        # Four threads compile one source into one cache at once: every
        # compile succeeds, the racing stores (temp file + os.replace)
        # leave one entry that loads, and no temp file is left behind.
        cache = CompileCache(root=tmp_path)
        start = threading.Barrier(4, timeout=120)

        def compile_once(_):
            start.wait()
            return convert_source(LISTING1_RUNNABLE, cache=cache).mpl_text()

        with ThreadPoolExecutor(max_workers=4) as pool:
            texts = list(pool.map(compile_once, range(4)))
        assert len(set(texts)) == 1
        assert [p.name for p in tmp_path.rglob("*.pkl")] == \
            [cache.path_for(compile_key(LISTING1_RUNNABLE,
                                        ConversionOptions())).name]
        assert list(tmp_path.rglob("*.tmp")) == []
        key = compile_key(LISTING1_RUNNABLE, ConversionOptions())
        assert CompileCache(root=tmp_path).load(key) is not None

    def test_clear_and_count(self, tmp_path):
        cache = CompileCache(root=tmp_path)
        convert_source(LISTING1_RUNNABLE, cache=cache)
        assert cache.entry_count() == 1
        assert cache.clear() == 1
        assert cache.entry_count() == 0


def _result_fields(res):
    return {
        "poly": res.poly, "mono": res.mono, "returns": res.returns,
        "pc": res.pc, "cycles": res.cycles, "body_cycles": res.body_cycles,
        "transition_cycles": res.transition_cycles,
        "enabled_pe_cycles": res.enabled_pe_cycles,
        "meta_transitions": res.meta_transitions,
        "node_visits": res.node_visits,
    }


@pytest.mark.parametrize("name", sorted(all_sources()))
def test_cold_and_warm_runs_bit_identical(name, tmp_path):
    """The acceptance property: on every standard workload, a
    warm-cache compile runs zero stages yet simulates bit-identically
    to the cold compile."""
    source = all_sources()[name]
    cache = CompileCache(root=tmp_path)
    cold = convert_source(source, cache=cache)
    warm = convert_source(source, cache=cache)
    assert cold.report.cache == "miss"
    assert warm.report.cache == "hit"
    assert warm.report.executed_stages() == []
    assert all(rec.cached for rec in warm.report.records)

    kwargs = {"npes": 8, "active": 4} if name == "spawn_waves" \
        else {"npes": 8}
    a = simulate_simd(cold, **kwargs)
    b = simulate_simd(warm, **kwargs)
    fa, fb = _result_fields(a), _result_fields(b)
    for field_name, va in fa.items():
        vb = fb[field_name]
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb, equal_nan=True), field_name
        else:
            assert va == vb, field_name


class TestLintOptionsInKey:
    def test_lint_fields_ignored_when_analyze_off(self):
        base = compile_key(LISTING1_RUNNABLE, ConversionOptions())
        noisy = ConversionOptions(werror=True,
                                  lint_select=("MSC01",),
                                  lint_ignore=("MSC04",))
        assert base == compile_key(LISTING1_RUNNABLE, noisy)

    def test_analyze_mode_gets_distinct_keys(self):
        base = compile_key(LISTING1_RUNNABLE, ConversionOptions())
        keys = {
            base,
            compile_key(LISTING1_RUNNABLE,
                        ConversionOptions(analyze=True)),
            compile_key(LISTING1_RUNNABLE,
                        ConversionOptions(analyze=True, werror=True)),
            compile_key(LISTING1_RUNNABLE,
                        ConversionOptions(analyze=True,
                                          lint_ignore=("MSC04",))),
        }
        assert len(keys) == 4

    def test_cache_version_covers_lint(self):
        # The lint package joined _COMPILER_PACKAGES and the entry
        # format carries its fingerprint; v3 invalidates older roots.
        assert CACHE_VERSION >= 3

    def test_warm_hit_with_analyze_reproduces_diagnostics(self, tmp_path):
        source = all_sources()["odd_even_sort"]
        cache = CompileCache(root=tmp_path)
        opts = ConversionOptions(analyze=True)
        cold = convert_source(source, opts, cache=cache)
        warm = convert_source(source, opts, cache=cache)
        assert (cold.report.cache, warm.report.cache) == ("miss", "hit")
        assert [d.to_json() for d in warm.report.diagnostics] == \
            [d.to_json() for d in cold.report.diagnostics]


CORPUS = Path(__file__).parent / "lint_corpus"

#: The analyzed-hit matrix: the lint corpus and the library programs.
ANALYZED = ([f"corpus/{p.stem}" for p in sorted(CORPUS.glob("*.mimdc"))]
            + sorted(all_sources()))


def _analyzed_source(name: str) -> str:
    if name.startswith("corpus/"):
        return (CORPUS / f"{name[len('corpus/'):]}.mimdc").read_text()
    return all_sources()[name]


def _analyze_rows(report) -> list:
    return [(rec.name, rec.counters,
             [(sub.name, sub.counters) for sub in rec.subrecords])
            for rec in report.records
            if rec.name in ("analyze", "analyze-meta")]


def _eager_analyzed(**kwargs) -> ConversionOptions:
    return ConversionOptions(lazy=False, analyze=True, **kwargs)


class TestAnalyzedHits:
    """An eager analyzed hit replays the analysis its bundle carries:
    the cold compile's diagnostics and analyze rows, with no analyzer
    run and no parse."""

    @pytest.mark.parametrize("name", ANALYZED)
    def test_hit_replays_the_cold_analysis(self, name, tmp_path):
        source = _analyzed_source(name)
        cache = CompileCache(root=tmp_path)
        for opt_level in (1, 2):
            for compress in (False, True):
                opts = _eager_analyzed(opt_level=opt_level,
                                       compress=compress)
                stores = cache.stores
                try:
                    cold = convert_source(source, opts, cache=cache)
                except LintError:
                    assert cache.stores == stores  # never cached
                    continue
                warm = convert_source(source, opts, cache=cache)
                assert warm.report.cache == "hit"
                assert warm.report.executed_stages() == []
                assert [d.to_json() for d in warm.report.diagnostics] == \
                    [d.to_json() for d in cold.report.diagnostics]
                assert _analyze_rows(warm.report) == \
                    _analyze_rows(cold.report)
                for stage in ("analyze", "analyze-meta"):
                    rec = warm.report.stage(stage)
                    assert all(r.cached and r.seconds == 0.0
                               for r in (rec, *rec.subrecords))

    def test_hit_runs_no_analysis(self, tmp_path, monkeypatch):
        from repro.lang import parser
        from repro.lint.driver import AnalysisDriver

        source = all_sources()["barrier_phases"]
        cache = CompileCache(root=tmp_path)
        cold = convert_source(source, _eager_analyzed(), cache=cache)

        def boom(*args, **kwargs):
            raise AssertionError("an eager hit did analysis work")

        monkeypatch.setattr(parser, "parse", boom)
        monkeypatch.setattr(AnalysisDriver, "run_phase", boom)
        warm = convert_source(source, _eager_analyzed(), cache=cache)
        assert warm.report.cache == "hit"
        assert [d.to_json() for d in warm.report.diagnostics] == \
            [d.to_json() for d in cold.report.diagnostics]

    def test_hit_imports_no_analyzer(self, tmp_path):
        # A fresh process, so that no earlier test's imports count.
        source = tmp_path / "prog.mimdc"
        source.write_text(all_sources()["barrier_phases"])
        opts = _eager_analyzed(opt_level=2)
        convert_source(source.read_text(), opts,
                       cache=CompileCache(root=tmp_path / "cache"))
        code = textwrap.dedent("""
            import sys
            from pathlib import Path
            from repro import ConversionOptions, convert_source
            r = convert_source(
                Path(sys.argv[1]).read_text(),
                ConversionOptions(lazy=False, analyze=True, opt_level=2),
                cache=sys.argv[2])
            assert r.report.cache == "hit", r.report.cache
            print(sorted(m for m in sys.modules if m in {
                "repro.lang.parser", "repro.absint", "repro.verify",
                "repro.mimd", "repro.lint.verifier"}))
        """)
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(source), str(tmp_path / "cache")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[]"

    def test_lazy_hit_replays_the_cold_analysis(self, tmp_path):
        # The frontier walk of an analyzed lazy compile discovers about
        # 95K states; it explores a copy of the engine, so the bundle
        # keeps the 4 that conversion discovered, and a hit, also after
        # a run re-stored the bundle, replays the cold diagnostics word
        # for word instead of re-walking.
        from repro.stages.driver import store_lazy_progress

        source = (CORPUS / "explosion_branch_tree.mimdc").read_text()
        opts = ConversionOptions(lazy=True, analyze=True)
        cache = CompileCache(root=tmp_path)
        t0 = time.perf_counter()
        cold = convert_source(source, opts, cache=cache)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = convert_source(source, opts, cache=cache)
        warm_s = time.perf_counter() - t0
        assert warm.report.cache == "hit"
        assert warm.report.executed_stages() == []
        assert warm_s < cold_s
        cold_diags = [d.to_json() for d in cold.report.diagnostics]
        assert [d.to_json() for d in warm.report.diagnostics] == cold_diags
        assert any("left unexpanded" in d.message
                   for d in warm.report.diagnostics)
        assert _analyze_rows(warm.report) == _analyze_rows(cold.report)
        assert warm.graph.num_states() == \
            cold.report.stage("convert").counters["meta_states"]

        simulate_simd(warm, npes=8)
        assert store_lazy_progress(cache, warm)
        again = convert_source(source, opts, cache=cache)
        assert again.report.executed_stages() == []
        assert [d.to_json() for d in again.report.diagnostics] == cold_diags
        assert _analyze_rows(again.report) == _analyze_rows(cold.report)