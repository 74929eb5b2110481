"""Integration: the central correctness oracle.

For every corpus program and every option combination, the meta-state
SIMD execution, the interpreter baseline, and the reference MIMD
machine must produce identical per-PE results. This is the paper's
correctness claim — "the meta-state automaton is a SIMD program that
preserves the relative timing properties of MIMD execution" — checked
end to end.
"""

import numpy as np
import pytest

from repro import ConversionOptions, convert_source, simulate_mimd, simulate_simd
from repro.simd import nativert

from tests.helpers import (
    BOOL_OPERANDS,
    CORPUS,
    INT64_DIVISION,
    OPTION_MATRIX,
    assert_equivalent,
    run_all_machines,
)


@pytest.mark.parametrize("name,src", CORPUS)
@pytest.mark.parametrize(
    "options",
    OPTION_MATRIX,
    ids=["base", "compress", "timesplit", "compress+timesplit"],
)
def test_corpus_equivalence(name, src, options):
    result, simd, mimd, interp = run_all_machines(src, npes=8, options=options)
    assert_equivalent(simd, mimd, interp)


@pytest.mark.parametrize("name,src", [("int64_division", INT64_DIVISION),
                                      ("bool_operands", BOOL_OPERANDS)])
def test_value_spellings_on_every_backend(name, src):
    """The programs where the backends spell values differently (integer
    division at -2**63, bool operands) agree with the MIMD oracle on
    every backend this run can use, serial and sharded."""
    result = convert_source(src, ConversionOptions())
    mimd = simulate_mimd(result, nprocs=8)
    runs = [("kernels", 1), ("kernels", 3), ("interp", 1)]
    if not result.options.lazy and nativert.unavailable_reason() is None:
        runs += [("native", 1), ("native", 3)]
    for backend, shards in runs:
        simd = simulate_simd(result, npes=8, backend=backend, shards=shards)
        assert (simd.backend_used, simd.shards) == (backend, shards), name
        assert_equivalent(simd, mimd)


@pytest.mark.parametrize("npes", [1, 2, 3, 7, 16, 33])
def test_machine_width_sweep(npes):
    from tests.helpers import LISTING1_RUNNABLE

    _, simd, mimd, interp = run_all_machines(LISTING1_RUNNABLE, npes=npes)
    assert_equivalent(simd, mimd, interp)


@pytest.mark.parametrize("name,src", CORPUS)
def test_partial_activation(name, src):
    if "spawn" in src:
        pytest.skip("spawn corpus entries set their own activation")
    _, simd, mimd, interp = run_all_machines(src, npes=8, active=5)
    assert_equivalent(simd, mimd, interp)


def test_timing_claims_hold_across_corpus():
    """Direction of the paper's performance claims on every workload:
    interpretation costs more control-unit time than MSC, and only the
    interpreter pays per-PE program memory."""
    for name, src in CORPUS:
        result, simd, mimd, interp = run_all_machines(src, npes=8)
        assert interp.cycles > simd.cycles, name
        assert interp.program_bytes_per_pe > 0, name


def test_deterministic_reruns():
    from tests.helpers import KITCHEN_SINK

    _, a, _, _ = run_all_machines(KITCHEN_SINK, npes=8)
    _, b, _, _ = run_all_machines(KITCHEN_SINK, npes=8)
    np.testing.assert_array_equal(a.returns, b.returns)
    assert a.cycles == b.cycles


def test_mono_visible_after_barrier():
    src = """
mono int m;
main() {
    poly int x;
    x = procnum % 2;
    if (x == 0) {
        m = 41;
    } else {
        x = x + 1;
    }
    wait;
    return (m + 1);
}
"""
    _, simd, mimd, interp = run_all_machines(src, npes=8)
    assert_equivalent(simd, mimd, interp)
    assert (simd.returns == 42).all()


def test_cost_model_override_changes_cycles_not_results():
    from repro.ir.instr import CostModel

    from tests.helpers import LISTING1_RUNNABLE

    expensive = ConversionOptions(
        costs=CostModel(globalor_cost=50, dispatch_cost=50)
    )
    _, simd1, mimd1, _ = run_all_machines(LISTING1_RUNNABLE, npes=8)
    _, simd2, mimd2, _ = run_all_machines(
        LISTING1_RUNNABLE, npes=8, options=expensive
    )
    np.testing.assert_array_equal(simd1.returns, simd2.returns)
    assert simd2.cycles > simd1.cycles
