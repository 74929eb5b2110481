"""Infrastructure benchmark: SIMD simulator throughput vs machine width.

The paper's target is a 16K-PE MasPar MP-1. The simulator vectorizes PE
state with numpy, so wall-clock per meta step should grow far slower
than the PE count — this bench demonstrates the package simulates
MasPar-scale machines, and pytest-benchmark tracks the 16K-PE case.
"""

import time

from repro import convert_source, simulate_simd

WORKLOAD = """
main() {
    poly int x; poly int i;
    x = procnum % 7;
    for (i = 0; i < 8; i += 1) {
        if (x % 2) { x = x * 3 + 1; } else { x = x / 2 + i; }
    }
    return (x);
}
"""


def test_simulator_scaling(benchmark, paper_report):
    result = convert_source(WORKLOAD)
    prog = result.simd_program()  # encode once, outside the timed region
    prog.plan()
    prog.kernels()
    rows = []
    for npes in (16, 256, 4096, 16384):
        t0 = time.perf_counter()
        res = simulate_simd(result, npes=npes)
        dt = time.perf_counter() - t0
        rows.append((npes, dt, res.meta_transitions))
    # The fused kernels (the default) and the interpretive oracle over
    # the same program must agree on all simulated accounting (see
    # repro/codegen/kernels.py); the kernels must beat the oracle at 16K.
    walls = {}
    results = {}
    for backend in ("kernels", "interp"):
        t0 = time.perf_counter()
        results[backend] = simulate_simd(result, npes=16384,
                                         backend=backend)
        walls[backend] = time.perf_counter() - t0
    assert results["kernels"].cycles == results["interp"].cycles
    assert results["kernels"].utilization == results["interp"].utilization
    paper_report(
        "Simulator scaling (MasPar MP-1 = 16K PEs)",
        [
            (f"{npes} PEs", "sub-linear wall",
             f"{dt * 1e3:7.1f} ms, {steps} meta steps")
            for npes, dt, steps in rows
        ] + [
            ("kernels vs interp", ">= 1x",
             f"{walls['interp'] / walls['kernels']:.1f}x"),
        ],
    )
    # 1024x more PEs must cost far less than 1024x the time.
    assert rows[-1][1] < rows[0][1] * 256
    # Track the 16K-PE run (kernel backend, the default) in
    # pytest-benchmark.
    benchmark(simulate_simd, result, npes=16384)
