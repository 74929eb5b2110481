"""Trace-level equivalence: every PE takes the identical control path
through the MIMD state graph on both machines — the checkable core of
"preserves the relative timing properties of MIMD execution"."""

import pytest

from repro import ConversionOptions, convert_source
from repro.analysis.traces import (
    assert_same_paths,
    compare_traces,
    pe_paths_mimd,
    pe_paths_simd,
)
from repro.errors import MscError
from repro.mimd.machine import MimdMachine
from repro.simd.machine import SimdMachine

from tests.helpers import CORPUS, LISTING1_RUNNABLE


def traced_run(src: str, npes: int = 6, active=None,
               options=ConversionOptions()):
    result = convert_source(src, options)
    simd = SimdMachine(npes=npes, costs=options.costs, trace=True,
                       backend="interp").run(
        result.simd_program(), active=active, max_steps=500_000
    )
    mimd = MimdMachine(nprocs=npes, costs=options.costs, trace=True).run(
        result.cfg, active=active, max_steps=500_000
    )
    return result, simd, mimd


class TestPathEquality:
    @pytest.mark.parametrize("name,src", CORPUS)
    def test_corpus_paths_identical(self, name, src):
        _, simd, mimd = traced_run(src)
        cmp = assert_same_paths(mimd, simd)
        assert cmp.paths_equal
        assert cmp.total_visits > 0

    @pytest.mark.parametrize("name,src", CORPUS)
    def test_compressed_paths_identical(self, name, src):
        _, simd, mimd = traced_run(
            src, options=ConversionOptions(compress=True)
        )
        assert_same_paths(mimd, simd)

    def test_time_split_changes_blocks_but_projection_still_matches(self):
        # After splitting, both machines run the *split* graph, so the
        # paths (over split block ids) still match exactly.
        _, simd, mimd = traced_run(
            LISTING1_RUNNABLE, options=ConversionOptions(time_split=True)
        )
        assert_same_paths(mimd, simd)

    def test_partial_activation(self):
        _, simd, mimd = traced_run(LISTING1_RUNNABLE, npes=8, active=3)
        cmp = assert_same_paths(mimd, simd)
        paths = pe_paths_simd(simd)
        assert all(paths[p] == [] for p in range(3, 8))


class TestLockstep:
    def test_divergent_program_merges_threads(self):
        _, simd, _ = traced_run(LISTING1_RUNNABLE, npes=8)
        cmp = compare_traces(
            MimdMachine(nprocs=8, trace=True).run(
                convert_source(LISTING1_RUNNABLE).cfg
            ),
            simd,
        )
        # Divergent loops co-schedule different MIMD states.
        assert cmp.lockstep_fraction > 0

    def test_uniform_program_never_merges(self):
        src = "main() { poly int x; x = procnum * 2; return (x); }"
        _, simd, mimd = traced_run(src, npes=4)
        cmp = compare_traces(mimd, simd)
        assert cmp.lockstep_fraction == 0.0
        assert cmp.paths_equal


class TestDivergenceDetection:
    def test_forged_divergence_reported(self):
        _, simd, mimd = traced_run(LISTING1_RUNNABLE, npes=4)
        # Corrupt one PE's SIMD trace.
        simd.trace[2][1] = (999, simd.trace[2][1][1])
        cmp = compare_traces(mimd, simd)
        assert not cmp.paths_equal
        pe, idx, mb, sb = cmp.first_divergence
        assert pe == 2 and idx == 1 and sb == 999
        with pytest.raises(MscError, match="diverge"):
            assert_same_paths(mimd, simd)

    def test_untraced_runs_rejected(self):
        result = convert_source(LISTING1_RUNNABLE)
        simd = SimdMachine(npes=2).run(result.simd_program())
        mimd = MimdMachine(nprocs=2, trace=True).run(result.cfg)
        with pytest.raises(MscError, match="traced"):
            pe_paths_simd(simd)
        mimd_untraced = MimdMachine(nprocs=2).run(result.cfg)
        with pytest.raises(MscError, match="traced"):
            pe_paths_mimd(mimd_untraced)


class TestSpawnTraces:
    def test_spawned_pe_paths_match(self):
        from tests.helpers import SPAWN_WORKERS

        _, simd, mimd = traced_run(SPAWN_WORKERS, npes=8, active=4)
        assert_same_paths(mimd, simd)
        paths = pe_paths_simd(simd)
        # Only PE 0 spawns, so exactly one worker (PE 4, the lowest
        # idle) ran — a single block visit, the rest of the pool none.
        assert len(paths[4]) == 1
        for p in range(5, 8):
            assert paths[p] == []
