"""Tests for the shared frontier verifier (``repro.verify``).

Covers the exploration engine (exhaustiveness on eager graphs, BFS
path validity, the bitset co-residence query against a nested-loop
reference, deterministic budgeted truncation on lazy engines), the
realizability walk feeding ``dead-meta-prune``, witness emission and
replay (library + ``repro replay`` CLI), and the incremental lazy
lint contract over the whole ``tests/lint_corpus``: cfg-phase
diagnostics identical to eager everywhere, full diagnostics identical
on every program eager conversion can survive.
"""

from pathlib import Path

import numpy as np
import pytest

from repro import (
    ConversionOptions,
    convert_source,
    simulate_mimd,
    simulate_simd,
)
from repro.__main__ import main
from repro.lint import Severity, lint_source
from repro.verify import (
    WitnessSeed,
    confirm_seed,
    explore,
    lockstep_pairs,
    realizable_states,
    replay_witness,
)
from repro.workloads import all_sources

CORPUS = Path(__file__).parent / "lint_corpus"
CORPUS_FILES = sorted(CORPUS.glob("*.mimdc"))
EXPLOSION_STEMS = {"explosion_bomb", "explosion_branch_tree",
                   "explosion_random_walks", "explosion_uniform_tree"}
#: Corpus programs eager conversion completes on (the back half of the
#: lint pipeline runs, so *all* diagnostics are comparable to lazy).
TRACTABLE_FILES = [p for p in CORPUS_FILES
                   if p.stem not in EXPLOSION_STEMS]

#: cfg-phase analyzer codes the lazy path must reproduce exactly
#: (MSC03x excluded: the explosion hard cap legitimately differs in
#: *severity* between eager and lazy — pinned in test_lint.py).
CFG_CODES = ("MSC010", "MSC011", "MSC040", "MSC041", "MSC042")


def eager(source: str, **kw) -> "object":
    return convert_source(source, ConversionOptions(**kw), cache=None)


def pair_reference(graph) -> set:
    """Nested-loop co-residence: the query the bitset product replaces."""
    return {frozenset((a, b))
            for m in graph.states if len(m) >= 2
            for a in m for b in m if a < b}


class TestExplore:
    @pytest.mark.parametrize("name", sorted(all_sources()))
    def test_eager_exploration_is_exhaustive(self, name):
        result = eager(all_sources()[name])
        frontier = explore(result.graph)
        assert set(frontier.order) == result.graph.states
        assert frontier.discovered == len(result.graph.states)
        assert not frontier.truncated
        assert frontier.aborted is None

    @pytest.mark.parametrize("name", ["divergent_phases", "spawn_waves",
                                      "barrier_phases"])
    def test_path_to_walks_real_arcs(self, name):
        result = eager(all_sources()[name])
        graph = result.graph
        frontier = explore(graph)
        for m in frontier.order:
            path = frontier.path_to(m)
            assert path[0] == graph.start and path[-1] == m
            for src, dst in zip(path, path[1:]):
                assert dst in graph.successors(src), (src, dst)

    @pytest.mark.parametrize("name", sorted(all_sources()))
    def test_block_pairs_match_nested_reference(self, name):
        result = eager(all_sources()[name])
        frontier = explore(result.graph)
        assert frontier.block_pairs() == pair_reference(result.graph)

    def test_budgeted_lazy_exploration_is_deterministic(self):
        src = (CORPUS / "explosion_branch_tree.mimdc").read_text()

        def run():
            result = convert_source(src, ConversionOptions(lazy=True),
                                    cache=None)
            return explore(result.graph, engine=result._engine,
                           budget=200)

        a, b = run(), run()
        assert a.order == b.order
        assert a.truncated and b.truncated
        assert a.explored == b.explored == 200
        assert a.discovered == b.discovered > a.explored


class TestLockstep:
    def test_refines_graph_pairs(self):
        # The path-sensitive walk may only *remove* pairs the graph
        # over-approximates, never invent new ones.
        src = (CORPUS / "slot_race.mimdc").read_text()
        result = eager(src)
        pairs = lockstep_pairs(result.cfg)
        assert pairs is not None and pairs
        assert pairs <= explore(result.graph).block_pairs()

    def test_cap_overflow_returns_none(self):
        src = (CORPUS / "clean_barrier.mimdc").read_text()
        cfg = eager(src).cfg
        assert lockstep_pairs(cfg, cap=1) is None


class TestRealizability:
    @pytest.mark.parametrize("name", sorted(all_sources()))
    def test_realizable_subset_of_states(self, name):
        result = eager(all_sources()[name])
        realizable = realizable_states(result.cfg)
        assert realizable is not None
        assert realizable <= result.graph.states
        assert result.graph.start in realizable

    def test_dead_meta_prune_drops_unrealizable_states(self):
        # spawn_waves registers member-choice combinations no PE
        # population can dispatch; -O2 prunes them before encoding.
        src = all_sources()["spawn_waves"]
        o1 = eager(src, opt_level=1)
        o2 = eager(src, opt_level=2)
        realizable = realizable_states(o1.cfg)
        assert len(o2.graph.states) < len(o1.graph.states)
        assert o2.graph.states == realizable

    def test_dead_meta_prune_is_bit_identical(self):
        src = all_sources()["spawn_waves"]
        o1 = eager(src, opt_level=1)
        o2 = eager(src, opt_level=2)
        a = simulate_simd(o1, npes=8, active=4)
        b = simulate_simd(o2, npes=8, active=4)
        mimd = simulate_mimd(o2, nprocs=8, active=4)
        for got, want in ((a, b), (b, mimd)):
            assert np.array_equal(got.returns, want.returns,
                                  equal_nan=True)
            assert np.array_equal(got.poly, want.poly)
            assert np.array_equal(got.mono, want.mono)

    def test_prune_counter_reported(self):
        src = all_sources()["spawn_waves"]
        report = eager(src, opt_level=2).report
        record = next(r for r in report.records if r.name == "opt-meta")
        passes = {p.name: p for p in record.subrecords}
        assert passes["dead-meta-prune"].counters["unrealizable_pruned"] == 2

    def test_cap_overflow_returns_none(self):
        src = all_sources()["divergent_phases"]
        cfg = eager(src).cfg
        assert realizable_states(cfg, cap=2) is None


class TestWitness:
    def emit(self, stem, tmp_path, lazy=False):
        path = CORPUS / f"{stem}.mimdc"
        options = ConversionOptions(lazy=True) if lazy else None
        result = lint_source(path.read_text(), options,
                             filename=path.name,
                             emit_witness_dir=str(tmp_path))
        return result

    @pytest.mark.parametrize("stem,code", [
        ("slot_race", "MSC020"),
        ("read_write_race", "MSC021"),
        ("barrier_mismatch", "MSC011"),
        ("barrier_deadlock", "MSC010"),
    ])
    def test_emit_and_replay(self, stem, code, tmp_path):
        result = self.emit(stem, tmp_path)
        mine = [w for w in result.witnesses if f"--{code}--" in w]
        assert mine, (code, result.witnesses)
        for path in mine:
            report = replay_witness(path)
            assert report.ok, report.message
            assert report.code == code
            assert report.nprocs >= 2

    def test_witness_file_still_compiles(self, tmp_path):
        # `//` directives are comments to the lexer: the witness is a
        # drop-in corpus program.
        result = self.emit("slot_race", tmp_path)
        text = Path(result.witnesses[0]).read_text()
        assert "// msc-witness: code=MSC020" in text
        eager(text)

    def test_replay_cli_exit_codes(self, tmp_path, capsys):
        result = self.emit("slot_race", tmp_path)
        assert main(["replay", *result.witnesses]) == 0
        assert "ok:" in capsys.readouterr().out
        bogus = tmp_path / "not_a_witness.mimdc"
        bogus.write_text("main() { return (0); }\n")
        assert main(["replay", str(bogus)]) == 1
        assert "FAIL:" in capsys.readouterr().out

    def test_lint_cli_emits(self, tmp_path, capsys):
        # Warnings without --Werror exit 0; the point here is the
        # side-channel: witness files written and announced on stderr.
        out = tmp_path / "w"
        status = main(["lint", str(CORPUS / "slot_race.mimdc"),
                       "--emit-witness", str(out)])
        assert status == 0
        assert sorted(out.glob("*.mimdc"))
        assert "witness:" in capsys.readouterr().err

    def test_unconfirmed_seed_skipped(self):
        # A seed over blocks no schedule co-executes is dropped, not
        # emitted: emission never invents diagnostics.  The entry and
        # exit blocks run at strictly disjoint times on every PE.
        src = (CORPUS / "clean_barrier.mimdc").read_text()
        cfg = eager(src).cfg
        bids = sorted(cfg.blocks)
        seed = WitnessSeed(code="MSC020", blocks=(bids[0], bids[-1]))
        assert confirm_seed(cfg, seed) is None


def cfg_phase_codes(diagnostics):
    return sorted(d.code for d in diagnostics if d.code in CFG_CODES)


def full_signature(diagnostics):
    return sorted((d.code, d.severity, d.message,
                   (d.span.line, d.span.col) if d.span else None)
                  for d in diagnostics)


class TestLazyIncremental:
    @pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
    def test_cfg_phase_codes_match_eager(self, path):
        src = path.read_text()
        eager_result = lint_source(src, filename=path.name)
        lazy_result = lint_source(src, ConversionOptions(lazy=True),
                                  filename=path.name)
        assert (cfg_phase_codes(lazy_result.diagnostics)
                == cfg_phase_codes(eager_result.diagnostics))

    @pytest.mark.parametrize("path", TRACTABLE_FILES,
                             ids=lambda p: p.stem)
    def test_full_diagnostics_match_eager(self, path):
        # On programs eager conversion can complete, the incremental
        # meta phase must reproduce every diagnostic exactly — codes,
        # severities, messages, spans.
        src = path.read_text()
        eager_result = lint_source(src, filename=path.name)
        lazy_result = lint_source(src, ConversionOptions(lazy=True),
                                  filename=path.name)
        assert (full_signature(lazy_result.diagnostics)
                == full_signature(eager_result.diagnostics))

    def test_explosion_lint_completes_with_truncation_note(self):
        # 3^24 reachable states: eager conversion refuses outright; the
        # budgeted incremental verifier explores a prefix and says so.
        path = CORPUS / "explosion_random_walks.mimdc"
        result = lint_source(path.read_text(),
                             ConversionOptions(lazy=True),
                             filename=path.name)
        assert result.ok()
        notes = [d for d in result.diagnostics if d.code == "MSC050"]
        assert len(notes) == 1
        assert notes[0].severity == Severity.INFO
        assert "--verify-budget" in notes[0].hint

    def test_msc050_never_fires_eagerly(self):
        for path in TRACTABLE_FILES:
            result = lint_source(path.read_text(), filename=path.name)
            assert not any(d.code == "MSC050" for d in result.diagnostics)
