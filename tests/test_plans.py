"""Differential tests for the plan-compiled SIMD executor.

`SimdMachine(backend="plan")` runs the precompiled tables of
:mod:`repro.codegen.plan`; `backend="interp"` is the original
interpretive executor kept as the oracle. Every accounting field of
:class:`~repro.simd.machine.SimdResult` must be bit-identical between
the two — the plan layer is a host-side optimization and must not
perturb the simulated cost model.
"""

import numpy as np
import pytest

from repro.codegen.plan import compile_plan
from repro.pipeline import ConversionOptions, convert_source
from repro.simd.machine import SimdMachine
from repro.workloads import STANDARD

EXACT_FIELDS = (
    "cycles",
    "body_cycles",
    "transition_cycles",
    "enabled_pe_cycles",
    "meta_transitions",
)
ARRAY_FIELDS = ("pc", "poly", "mono")


def run_both(result, npes, active=None, trace=False):
    runs = []
    for backend in ("plan", "interp"):
        machine = SimdMachine(npes=npes, costs=result.options.costs,
                              trace=trace, backend=backend)
        runs.append(machine.run(result.simd_program(), active=active))
    return runs


def assert_identical(a, b, label):
    for fld in EXACT_FIELDS:
        assert getattr(a, fld) == getattr(b, fld), (label, fld)
    for fld in ARRAY_FIELDS:
        assert np.array_equal(getattr(a, fld), getattr(b, fld)), (label, fld)
    assert np.array_equal(a.returns, b.returns, equal_nan=True), label
    assert a.node_visits == b.node_visits, label
    assert abs(a.utilization - b.utilization) == 0, label


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(STANDARD))
    @pytest.mark.parametrize("compress", (False, True))
    def test_workload_bit_identical(self, name, compress):
        src = STANDARD[name]()
        result = convert_source(src, ConversionOptions(compress=compress))
        for npes in (8, 33):
            # Spawning workloads need idle PEs in the free pool.
            active = npes // 2 if "spawn" in src else None
            a, b = run_both(result, npes, active=active)
            assert_identical(a, b, (name, compress, npes))

    def test_traces_match(self):
        result = convert_source(STANDARD["divergent_loops"]())
        a, b = run_both(result, 8, trace=True)
        assert a.trace == b.trace

    def test_single_pe(self):
        result = convert_source(STANDARD["mandelbrot"]())
        a, b = run_both(result, 1)
        assert_identical(a, b, "single_pe")


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
        from repro.workloads import barrier_phases

        result = convert_source(barrier_phases(6, n_phases=22))
        plan = result.simd_program().plan()
        assert plan.n_bids > 64
        assert plan.bit_weights.dtype == object
        top = plan.n_bids - 1
        assert int(plan.bit_weights[top]) == 1 << top
        a, b = run_both(result, 8)
        assert_identical(a, b, "wide")

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
