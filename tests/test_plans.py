"""Structure tests for the precompiled plan tables.

:mod:`repro.codegen.plan` lowers a :class:`~repro.codegen.emit.SimdProgram`
into the dense tables the kernel lowering (:mod:`repro.codegen.kir`)
and the SIMD machine's step loop read. The tables must mirror the
program they came from, and every member's entry depth must be the
one ``Cfg.verify()`` returns.
"""

import pytest

from repro.codegen.plan import compile_plan
from repro.pipeline import ConversionOptions, convert_source
from repro.simd import nativert
from repro.simd.machine import SimdMachine
from repro.stages import driver as stage_driver
from repro.workloads import STANDARD

from tests.test_kernels import assert_identical


class TestPlanStructure:
    def test_plan_is_cached_on_program(self):
        result = convert_source(STANDARD["divergent_loops"]())
        prog = result.simd_program()
        assert prog.plan() is prog.plan()

    def test_bit_weights_match_key_encoding(self):
        result = convert_source(STANDARD["barrier_phases"]())
        plan = result.simd_program().plan()
        for bid in range(plan.n_bids):
            assert int(plan.bit_weights[bid]) == 1 << bid

    def test_wide_programs_use_exact_weights(self):
        # The only program with more than 64 block ids: the step loop's
        # globalor gathers object-dtype weights, on every executor.
        from repro.workloads import barrier_phases

        result = convert_source(barrier_phases(6, n_phases=22))
        prog = result.simd_program()
        plan = prog.plan()
        assert plan.n_bids > 64
        assert plan.bit_weights.dtype == object
        top = plan.n_bids - 1
        assert int(plan.bit_weights[top]) == 1 << top

        def run(backend, shards=None):
            res = SimdMachine(npes=8, costs=result.options.costs,
                              backend=backend, shards=shards).run(prog)
            assert res.backend_used == backend
            return res

        ref = run("interp")
        runs = [("kernels", 1), ("kernels", 3)]
        if nativert.unavailable_reason() is None:
            # 73 ids is past the C loop: both runs call per node.
            assert not prog.native().loop
            runs += [("native", 1), ("native", 3)]
        for backend, shards in runs:
            res = run(backend, shards)
            assert res.shards == shards
            assert_identical(res, ref, ("wide", backend, shards))

    def test_segment_plans_align_with_segments(self):
        result = convert_source(STANDARD["odd_even_sort"]())
        prog = result.simd_program()
        plan = compile_plan(prog)
        assert set(plan.nodes) == set(prog.nodes)
        for key, node in prog.nodes.items():
            nplan = plan.nodes[key]
            assert len(nplan.segments) == len(node.segments)
            for seg, sp in zip(node.segments, nplan.segments):
                assert sp.member_bids == tuple(sorted(seg.members))
                assert len(sp.instrs) == len(seg.schedule.entries)


def compile_to_plan(source: str, options: ConversionOptions):
    """The pipeline up to its plan stage (no kernel or C generation):
    the final CFG and the program's plan."""
    ctx = stage_driver.CompileContext(source=source, options=options)
    for stage in stage_driver.PIPELINE_STAGES:
        stage.run(ctx)
        if stage.name == "plan":
            return ctx.cfg, ctx.plan
    raise AssertionError("no plan stage")


class TestEntryDepths:
    @pytest.mark.parametrize("name", sorted(STANDARD))
    @pytest.mark.parametrize("compress", (False, True))
    def test_program_walk_matches_cfg_walk(self, name, compress):
        # The plan reads every member's depth from the one walk,
        # Cfg.verify() over the final CFG.
        for level in (0, 1, 2):
            cfg, plan = compile_to_plan(STANDARD[name](), ConversionOptions(
                compress=compress, opt_level=level, lazy=False))
            depths = cfg.verify()
            for nplan in plan.nodes.values():
                for sp in nplan.segments:
                    assert sp.entry_depths == tuple(
                        depths[bid] for bid in sp.member_bids), level
