"""Lazy meta-state conversion: the incremental ConversionEngine, the
LazyProgram miss-handler, and their differential contract against
eager compilation.

The contract has two tiers (docs/internals.md section 14):

- *cold* lazy runs are result-identical to the MIMD oracle (returns and
  memory), but on barrier-parking programs a state's first-visit table
  row can have fewer cases than the eager parked fixpoint row, so
  transition-cycle accounting may differ;
- once the parked fixpoint over the visited region is reached (any
  *warm* run), every counter is bit-identical to the eager compile laid
  out with the trivial (single-state-chain) layout — the layout a
  partial automaton is constrained to.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import ConversionOptions, convert_source, simulate_mimd, simulate_simd
from repro import workloads
from repro.codegen.emit import encode_program
from repro.core.convert import (
    ConversionEngine,
    ConvertOptions,
    _ConvertMemo,
    candidate_unions,
    convert,
)
from repro.errors import ConversionError
from repro.hashenc.search import key_of_members, members_of_key
from repro.ir.lowering import lower_program
from repro.lang.parser import parse
from repro.lang.sema import analyze
from repro.opt.meta_passes import StraightenedGraph
from repro.simd.machine import SimdMachine

from tests.helpers import LISTING3_SHAPE, assert_equivalent
from tests.test_properties import COMMON_SETTINGS, programs, shared_programs

NPES = 8
ROOT = Path(__file__).resolve().parent.parent


def lower(src: str):
    return lower_program(analyze(parse(src)))


def _active(name: str):
    # spawn_waves needs free PEs for its workers (tests/test_workloads).
    return 4 if name == "spawn_waves" else None


def _bit_identical(a, b) -> None:
    assert a.cycles == b.cycles
    assert a.body_cycles == b.body_cycles
    assert a.transition_cycles == b.transition_cycles
    assert a.enabled_pe_cycles == b.enabled_pe_cycles
    assert a.meta_transitions == b.meta_transitions
    assert a.node_visits == b.node_visits
    assert a.backend_used == b.backend_used
    np.testing.assert_array_equal(a.returns, b.returns)


# ----------------------------------------------------------------------
# Warm lazy vs eager at the trivial layout: full bit-identity
# ----------------------------------------------------------------------

class TestWarmDifferential:
    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "compress"])
    @pytest.mark.parametrize("name", sorted(workloads.STANDARD))
    def test_warm_lazy_matches_eager_trivial_layout(self, name, compress):
        src = workloads.STANDARD[name]()
        active = _active(name)
        opts = ConversionOptions(compress=compress, lazy=False)
        eager = convert_source(src, opts, cache=False)
        # The twin: same CFG and meta graph, single-state chain layout —
        # exactly the layout lazy materialization is constrained to.
        twin = encode_program(eager.cfg,
                              StraightenedGraph.trivial(eager.graph),
                              costs=opts.costs, use_csi=opts.use_csi)
        lazy = convert_source(src, ConversionOptions(compress=compress,
                                                     lazy=True), cache=False)
        # Warm the manager: one run reaches the parked fixpoint over
        # the visited region, after which accounting is exact.
        simulate_simd(lazy, NPES, active=active, backend="interp")
        for shards in (1, 2):
            machine = SimdMachine(NPES, costs=opts.costs,
                                  backend="kernels", shards=shards)
            ref = machine.run(twin, active=active)
            got = simulate_simd(lazy, NPES, active=active,
                                backend="kernels", shards=shards)
            _bit_identical(ref, got)
            assert got.backend_used == "kernels"
            assert got.shards == shards

    def test_kernel_run_after_interp_compiles_only_kernels(self,
                                                           monkeypatch):
        # A node made resident by an interp run and reached again by a
        # kernels run gains its kernel alone: its node (with its CSI
        # schedule) and its plan are not compiled twice.
        from repro.codegen import lazy as lazymod

        compiled: dict = {}
        real = lazymod.compile_node

        def counting(cfg, engine, key, *args, **kwargs):
            compiled[key] = compiled.get(key, 0) + 1
            return real(cfg, engine, key, *args, **kwargs)

        monkeypatch.setattr(lazymod, "compile_node", counting)
        lazy = convert_source(workloads.branch_tree(4),
                              ConversionOptions(lazy=True), cache=False)
        simulate_simd(lazy, NPES, backend="interp")
        simulate_simd(lazy, NPES, backend="kernels")
        stats = lazy.lazy_program().stats()
        assert set(compiled.values()) == {1}
        assert stats["lazy_materialized"] == stats["lazy_resident"] \
            == len(compiled)
        assert stats["lazy_kernels"] == stats["lazy_resident"]

    def test_unsupported_kernel_lowered_once(self, monkeypatch):
        # A node whose kernel lowering is unsupported runs on the interp
        # walk, and later kernels runs do not try to lower it again.
        from repro.codegen import kernels
        from repro.codegen.kir import KernelUnsupported

        tried: dict = {}
        real = kernels.lower_node

        def lower_odd_only(prog, plan, key):
            tried[key] = tried.get(key, 0) + 1
            if min(key) % 2 == 0:
                raise KernelUnsupported("no kernel for this node")
            return real(prog, plan, key)

        monkeypatch.setattr(kernels, "lower_node", lower_odd_only)
        src = workloads.branch_tree(4)
        lazy = convert_source(src, ConversionOptions(lazy=True), cache=False)
        runs = [simulate_simd(lazy, NPES, backend="kernels")
                for _ in range(2)]
        ref = simulate_simd(convert_source(src, ConversionOptions(lazy=True),
                                           cache=False), NPES,
                            backend="interp")
        for got in runs:
            assert got.backend_used == "kernels"
            assert got.cycles == ref.cycles
            assert got.node_visits == ref.node_visits
            np.testing.assert_array_equal(got.returns, ref.returns)
        assert set(tried.values()) == {1}
        unsupported = [key for key in tried if min(key) % 2 == 0]
        assert 0 < len(unsupported) < len(tried)
        assert lazy.lazy_program().stats()["lazy_kernels"] == \
            len(tried) - len(unsupported)


# ----------------------------------------------------------------------
# Cold lazy vs the MIMD oracle: result identity
# ----------------------------------------------------------------------

class TestColdOracle:
    @pytest.mark.parametrize("name", sorted(workloads.STANDARD))
    def test_cold_lazy_matches_mimd(self, name):
        src = workloads.STANDARD[name]()
        active = _active(name)
        lazy = convert_source(src, ConversionOptions(lazy=True), cache=False)
        simd = simulate_simd(lazy, NPES, active=active)
        mimd = simulate_mimd(lazy, nprocs=NPES, active=active)
        assert_equivalent(simd, mimd)

    def test_lazy_result_has_no_simd_program(self):
        lazy = convert_source(workloads.divergent_loops(3),
                              ConversionOptions(lazy=True), cache=False)
        with pytest.raises(ConversionError):
            lazy.simd_program()

    def test_lazy_exec_stats_recorded(self):
        lazy = convert_source(workloads.divergent_loops(3),
                              ConversionOptions(lazy=True), cache=False)
        simulate_simd(lazy, NPES)
        rec = next(r for r in lazy.report.records if r.name == "lazy-exec")
        assert rec.counters["lazy_materialized"] > 0
        assert (rec.counters["lazy_materialized"]
                <= rec.counters["lazy_discovered"])


# ----------------------------------------------------------------------
# Both tiers on generated programs
# ----------------------------------------------------------------------

class TestGeneratedPrograms:
    """The two contract tiers on the generated programs of
    ``tests/test_properties.py``. The cold tier draws race-free
    programs only: a racy mono store or router write may resolve
    differently on the MIMD oracle."""

    NPES = 5
    LAZY = ConversionOptions(lazy=True, max_meta_states=400)
    EAGER = ConversionOptions(lazy=False, max_meta_states=400)

    @given(src=programs())
    @settings(max_examples=30, **COMMON_SETTINGS)
    def test_cold_matches_mimd(self, src):
        lazy = convert_source(src, self.LAZY, cache=False)
        try:
            simd = simulate_simd(lazy, self.NPES)
        except ConversionError:
            assume(False)
        assert_equivalent(simd, simulate_mimd(lazy, nprocs=self.NPES))

    @given(src=st.one_of(programs(), shared_programs()))
    @settings(max_examples=30, **COMMON_SETTINGS)
    def test_warm_matches_eager_trivial_layout(self, src):
        try:
            eager = convert_source(src, self.EAGER, cache=False)
        except ConversionError:
            assume(False)
        costs = self.EAGER.costs
        twin = encode_program(eager.cfg,
                              StraightenedGraph.trivial(eager.graph),
                              costs=costs, use_csi=self.EAGER.use_csi)
        lazy = convert_source(src, self.LAZY, cache=False)
        simulate_simd(lazy, self.NPES, backend="interp")
        for shards in (1, 2):
            ref = SimdMachine(self.NPES, costs=costs, backend="kernels",
                              shards=shards).run(twin)
            got = simulate_simd(lazy, self.NPES, backend="kernels",
                                shards=shards)
            _bit_identical(ref, got)


# ----------------------------------------------------------------------
# Row dispatch: exactly the transition row dispatches
# ----------------------------------------------------------------------

class TestRowDispatch:
    def test_out_of_row_aggregates_raise(self):
        lazy = convert_source(workloads.divergent_loops(3),
                              ConversionOptions(lazy=True, opt_level=1),
                              cache=False)
        simulate_simd(lazy, NPES)
        mgr = lazy.lazy_program()
        # The nodes hold only the arcs the run resolved: check them
        # against the full rows of a drained engine.
        drained = ConversionEngine(lazy.cfg,
                                   lazy.options.convert_options()).drain()
        multiway = [(key, node) for key, node in mgr.program.nodes.items()
                    if node.encoding is not None]
        assert multiway
        for key, node in multiway:
            row = {key_of_members(union): target
                   for union, target in drained.table[key].items()}
            aliased = []
            for probe in range(1, 2**12):
                try:
                    target = node.encoding.lookup(probe)
                except ConversionError:
                    assert probe not in row, (node.name, probe)
                    continue
                if row.get(probe) != target:
                    aliased.append(probe)
            assert aliased == [], node.name
            assert len(node.encoding.cases) == len(row)


# ----------------------------------------------------------------------
# Demand resolution reproduces the full row
# ----------------------------------------------------------------------

def _probe_engine(cfg, options, members, parked):
    """A fresh engine that holds ``members`` at ``parked``."""
    engine = ConversionEngine(cfg, options)
    engine.graph.states.add(members)
    engine.graph.parked_possible[members] = parked
    return engine


#: Every aggregate over the first 12 MIMD states.
PROBES = [members_of_key(probe) for probe in range(1, 2**12)]


def _resolution_mismatches(cfg, options):
    """Drain ``cfg`` and, for every state at its fixpoint parked set,
    compare demand preparation and resolution against a full-row
    expansion: same kind and exit flag, same target and parked growth
    for every row key, and a ConversionError for every other probe."""
    graph = ConversionEngine(cfg, options).drain()
    # Past the highest block id, every probe names a state that does
    # not exist.
    probes = PROBES[:2 ** min(12, max(cfg.blocks) + 1) - 1]
    bad = []
    for m in sorted(graph.states, key=sorted):
        parked = graph.parked_possible[m]
        full = _probe_engine(cfg, options, m, parked)
        full.expand(m)
        row = full.graph.table[m]
        demand = _probe_engine(cfg, options, m, parked)
        demand.prepare(m)
        if (m in demand.graph.can_exit) != (m in full.graph.can_exit):
            bad.append((m, "can_exit"))
        if (m in demand.multiway) != (len(row) > 1):
            bad.append((m, "multiway"))
        if len(row) <= 1 and demand.graph.table[m] != row:
            bad.append((m, "single arc"))
        for key, target in row.items():
            if demand.resolve(m, key) != target:
                bad.append((m, key))
        if demand.graph.parked_possible != full.graph.parked_possible:
            bad.append((m, "parked growth"))
        for key in probes:
            if key in row:
                continue
            try:
                demand.resolve(m, key)
            except ConversionError:
                continue
            bad.append((m, key))
    return bad


class TestResolution:
    @pytest.mark.parametrize("name", sorted(workloads.STANDARD))
    def test_resolve_matches_full_row(self, name):
        cfg = lower(workloads.STANDARD[name]())
        assert _resolution_mismatches(cfg, ConvertOptions()) == []

    @pytest.mark.parametrize("name", sorted(workloads.STANDARD))
    def test_compressed_prepare_expands_whole_row(self, name):
        cfg = lower(workloads.STANDARD[name]())
        options = ConvertOptions(compress=True)
        graph = ConversionEngine(cfg, options).drain()
        for m in graph.states:
            demand = _probe_engine(cfg, options, m, graph.parked_possible[m])
            demand.prepare(m)
            assert demand.fresh(m)
            assert demand.graph.table[m] == graph.table[m]
            assert demand.graph.barrier_entry.get(m) == \
                graph.barrier_entry.get(m)

    @given(src=st.one_of(programs(), shared_programs()))
    @settings(max_examples=30, **COMMON_SETTINGS)
    def test_generated_programs(self, src):
        cfg = lower(src)
        try:
            mismatches = _resolution_mismatches(
                cfg, ConvertOptions(max_meta_states=200))
        except ConversionError:
            assume(False)
        assert mismatches == []

    @pytest.mark.parametrize("name", sorted(workloads.STANDARD))
    def test_parked_growth_reenters_resolved_arcs(self, name):
        # Resolve a state's row with nothing parked, then grow its
        # parked set to the fixpoint's: re-preparing must hand the
        # growth to every resolved successor, as re-expanding does.
        cfg = lower(workloads.STANDARD[name]())
        options = ConvertOptions()
        graph = ConversionEngine(cfg, options).drain()
        for m in graph.states:
            parked = graph.parked_possible[m]
            if not parked:
                continue
            full = _probe_engine(cfg, options, m, frozenset())
            demand = _probe_engine(cfg, options, m, frozenset())
            full.expand(m)
            demand.prepare(m)
            for key in full.graph.table[m]:
                demand.resolve(m, key)
            for engine in (full, demand):
                engine._enter(m, parked)
                assert m in engine.take_dirty()
            full.ensure(m)
            demand.prepare(m)
            for key in demand.graph.table[m]:
                assert (demand.graph.parked_possible[key]
                        == full.graph.parked_possible[key]), (m, key)

    def test_parked_cap_boundary(self):
        # LISTING3_SHAPE parks PEs at one barrier: at cap 1 preparing
        # and resolving run clean, at cap 0 they raise exactly where a
        # full-row expansion does.
        cfg = lower(LISTING3_SHAPE)
        graph = ConversionEngine(cfg, ConvertOptions(max_parked=1)).drain()
        raised = 0
        for cap in (0, 1):
            options = ConvertOptions(max_parked=cap)
            for m in graph.states:
                parked = graph.parked_possible[m]
                try:
                    _probe_engine(cfg, options, m, parked).expand(m)
                    full_raises = False
                except ConversionError:
                    full_raises = True
                demand = _probe_engine(cfg, options, m, parked)
                if full_raises:
                    with pytest.raises(ConversionError, match="parked"):
                        demand.prepare(m)
                    raised += 1
                else:
                    demand.prepare(m)
                    for key in graph.table[m]:
                        demand.resolve(m, key)
        assert raised > 0
        assert not any(len(p) > 1 for p in graph.parked_possible.values())

    def test_lazy_run_records_resolved_arcs(self):
        lazy = convert_source(workloads.divergent_loops(3),
                              ConversionOptions(lazy=True), cache=False)
        simulate_simd(lazy, NPES)
        stats = lazy.lazy_program().stats()
        rec = next(r for r in lazy.report.records if r.name == "lazy-exec")
        assert rec.counters["lazy_resolved"] == stats["lazy_resolved"] > 0
        # The arcs sit in the engine's graph, so a warm process that
        # loads the snapshot dispatches them without resolving again.
        arcs = sum(len(row) for row in lazy.graph.table.values())
        assert stats["lazy_resolved"] <= arcs


# ----------------------------------------------------------------------
# Explosion workloads: eager aborts, lazy runs
# ----------------------------------------------------------------------

class TestExplosionWorkloads:
    @pytest.mark.parametrize("name", sorted(workloads.EXPLOSION))
    def test_eager_conversion_explodes(self, name):
        src = workloads.EXPLOSION[name]()
        with pytest.raises(ConversionError):
            convert_source(src, ConversionOptions(lazy=False), cache=False)

    @pytest.mark.parametrize("name", sorted(workloads.EXPLOSION))
    def test_lazy_matches_mimd_oracle(self, name):
        src = workloads.EXPLOSION[name]()
        lazy = convert_source(src, ConversionOptions(lazy=True), cache=False)
        simd = simulate_simd(lazy, NPES)
        mimd = simulate_mimd(lazy, nprocs=NPES)
        assert_equivalent(simd, mimd)
        mgr = lazy.lazy_program()
        stats = mgr.stats()
        # Discovery follows the run: every state the engine registered
        # is the start, in the start row the compile stage expands,
        # visited by the run, or the one successor of a visited
        # single-successor node.
        graph = mgr.graph
        reached = set(simd.node_visits) | {graph.start}
        reached |= set(graph.table[graph.start].values())
        reached |= {node.single_target for node in mgr.program.nodes.values()
                    if node.single_target is not None}
        assert graph.states <= reached
        assert stats["lazy_discovered"] == len(graph.states)
        # The high-water mark is an observed peak, not the configured
        # cap (which is 0 here — unbounded).
        assert stats["lazy_max_resident"] >= stats["lazy_resident"] > 0

    def test_wide_aggregate_runs_in_bounded_memory(self):
        # At 16 PEs branch_tree reaches states whose full row is a
        # union product too large to build; resolving the observed
        # aggregate costs O(members). A child process with a ~2 GB
        # address-space cap keeps a regression from exhausting the host.
        code = textwrap.dedent("""
            import resource
            cap = 2 << 30
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            from repro import (ConversionOptions, convert_source,
                               simulate_mimd, simulate_simd, workloads)
            from tests.helpers import assert_equivalent
            lazy = convert_source(workloads.branch_tree(6),
                                  ConversionOptions(lazy=True), cache=False)
            assert_equivalent(simulate_simd(lazy, 16),
                              simulate_mimd(lazy, nprocs=16))
        """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(ROOT / "src"), str(ROOT),
                                     os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], cwd=str(ROOT),
                              env=env, capture_output=True, text=True,
                              timeout=180)
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_bounded_residency_is_bit_identical(self):
        src = workloads.branch_tree(6)
        unbounded = convert_source(src, ConversionOptions(lazy=True),
                                   cache=False)
        bounded = convert_source(
            src, ConversionOptions(lazy=True, max_resident_meta=4),
            cache=False)
        ref = simulate_simd(unbounded, NPES)
        got = simulate_simd(bounded, NPES)
        _bit_identical(ref, got)
        stats = bounded.lazy_program().stats()
        assert stats["lazy_evictions"] > 0
        assert stats["lazy_resident"] <= 4
        assert stats["lazy_max_resident"] >= stats["lazy_resident"]
        assert stats["lazy_max_resident"] <= 4

    def test_eviction_rerun_stays_identical(self):
        # Deterministic re-expansion: a second run over an LRU-thrashed
        # manager re-materializes evicted states and must not drift.
        src = workloads.random_walks(12)
        lazy = convert_source(
            src, ConversionOptions(lazy=True, max_resident_meta=2),
            cache=False)
        first = simulate_simd(lazy, NPES)
        second = simulate_simd(lazy, NPES)
        _bit_identical(first, second)
        assert lazy.lazy_program().stats()["lazy_evictions"] > 0


# ----------------------------------------------------------------------
# ConversionEngine unit behaviour
# ----------------------------------------------------------------------

class TestConversionEngine:
    def test_drain_equals_eager_convert(self):
        cfg = lower(workloads.barrier_phases(3))
        engine = ConversionEngine(cfg)
        drained = engine.drain()
        eager = convert(lower(workloads.barrier_phases(3)))
        assert drained.table == eager.table
        assert drained.parked_possible == eager.parked_possible
        assert drained.can_exit == eager.can_exit

    def test_on_demand_expansion_converges_to_fixpoint(self):
        cfg = lower(workloads.spawn_waves(2))
        engine = ConversionEngine(cfg)
        dirtied = set()
        # BFS the whole graph through ensure(), the way the runtime
        # would; collect every stale-row notification on the way.
        seen = {engine.graph.start}
        frontier = [engine.graph.start]
        while frontier:
            m = frontier.pop()
            engine.ensure(m)
            dirtied |= engine.take_dirty()
            for s in engine.graph.successors(m):
                if s not in seen:
                    seen.add(s)
                    frontier.append(s)
        # Parked growth must have stale'd at least one expanded row on
        # a spawn/barrier program...
        assert dirtied
        # ...and re-ensuring every dirtied state leaves the graph at
        # the same fixpoint eager conversion reaches over these states.
        for m in dirtied:
            engine.ensure(m)
        eager = convert(lower(workloads.spawn_waves(2)))
        for m in seen:
            assert engine.graph.table[m] == eager.table[m]

    def test_fresh_tracks_parked_growth(self):
        cfg = lower(LISTING3_SHAPE)
        engine = ConversionEngine(cfg)
        start = engine.graph.start
        assert not engine.fresh(start)
        engine.ensure(start)
        assert engine.fresh(start)

    def test_expand_unregistered_state_raises(self):
        cfg = lower(LISTING3_SHAPE)
        engine = ConversionEngine(cfg)
        with pytest.raises(ConversionError):
            engine.expand(frozenset({999}))


# ----------------------------------------------------------------------
# candidate_unions / _ConvertMemo edge cases
# ----------------------------------------------------------------------

class TestCandidateUnionEdges:
    def test_empty_members_yield_single_empty_union(self):
        cfg = lower(LISTING3_SHAPE)
        assert candidate_unions(cfg, frozenset(), False) == {frozenset()}
        assert candidate_unions(cfg, frozenset(), True) == {frozenset()}

    def test_all_terminal_members_union_to_empty(self):
        cfg = lower("main() { poly int x; return (x); }")
        terminal = frozenset(
            b.bid for b in cfg.blocks.values() if b.is_terminal
        )
        assert candidate_unions(cfg, terminal, False) == {frozenset()}

    def test_memo_matches_uncached_and_caches(self):
        cfg = lower(workloads.divergent_loops(3))
        memo = _ConvertMemo(cfg)
        members = frozenset({cfg.entry})
        for compress in (False, True):
            assert (memo.unions(members, compress)
                    == candidate_unions(cfg, members, compress))
        # Cached per (members, compress): same object back.
        assert memo.unions(members, False) is memo.unions(members, False)
        assert memo.unions(members, False) is not memo.unions(members, True)

    def test_parked_cap_boundary(self):
        cfg = lower(LISTING3_SHAPE)
        # One barrier block parked: cap 1 is exactly enough...
        convert(cfg, ConvertOptions(max_parked=1))
        # ...and cap 0 is one short.
        with pytest.raises(ConversionError, match="parked"):
            convert(lower(LISTING3_SHAPE), ConvertOptions(max_parked=0))
