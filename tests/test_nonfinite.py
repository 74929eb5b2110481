"""Non-finite float literals (``1e999``, and the NaN that ``-O2``
folds ``1e999 - 1e999`` into) through every layer that spells or
decodes them: the NumPy and C kernel printers, which must round-trip
each double bit for bit (NaN sign included), and the abstract
interpreter behind ``-O2`` and ``analyze=True``.

:data:`PROGRAM` stays float-only up to a comparison. :data:`INT_PROGRAM`
stores inf, -inf and NaN to ``int`` variables: that conversion
truncates toward zero and passes non-finite values through, as
``np.trunc`` and C ``trunc`` do, on the SIMD backends, in the ``-O2``
constant folder and on the MIMD oracle alike. Integer *operations* on
values outside int64 are a separate open problem.
"""

import numpy as np
import pytest

from repro.pipeline import (ConversionOptions, convert_source,
                            simulate_mimd, simulate_simd)
from repro.simd.machine import BACKENDS, SimdMachine

from tests.test_kernels import HOST_BACKENDS

#: inf from a literal, a NaN folded (at -O2) from ``1e999 - 1e999``,
#: -inf, and NaN / inf produced at run time by ``0 * inf``, ``inf - inf``
#: and ``-inf * NaN``. The loop condition compares against the literal.
PROGRAM = """
main() {
    poly float f; poly float g; poly float h; poly float k;
    f = 1e999;
    g = 1e999 - 1e999;
    h = procnum * f;
    k = 0.0 - f;
    while (h > 1.0 && f == 1e999) {
        h = h - f;
        k = k * g;
    }
    return (h != h);
}
"""

#: +inf, -inf and NaN (inf - inf) stored to poly ints; each PE
#: returns one of the three.
INT_PROGRAM = """
main() {
    poly float f; poly int p; poly int m; poly int n;
    f = 1e999;
    p = f;
    m = 0.0 - f;
    n = f - f;
    return (procnum % 3 == 0 ? p : (procnum % 3 == 1 ? m : n));
}
"""

NPES = 5


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_bit_identical(a, b, label):
    assert np.array_equal(bits(a.returns), bits(b.returns)), label
    assert np.array_equal(bits(a.poly), bits(b.poly)), label
    assert (a.cycles, a.node_visits) == (b.cycles, b.node_visits), label


@pytest.mark.parametrize("opt_level", (1, 2))
@pytest.mark.parametrize("compress", (False, True))
def test_eager_backends_bit_identical(opt_level, compress):
    result = convert_source(PROGRAM, ConversionOptions(
        opt_level=opt_level, compress=compress))
    prog = result.simd_program()
    for stage, counter in (("kernels", "kernel_nodes"),
                           ("native", "native_nodes")):
        assert result.report.stage(stage).counters[counter] == \
            prog.node_count()
    runs = {be: SimdMachine(npes=NPES, costs=result.options.costs,
                            backend=be).run(prog)
            for be in HOST_BACKENDS}
    # Kernels enter no errstate scope of their own, so the shard
    # workers, threads with their own NumPy error state, must hold the
    # step loop's.
    runs["kernels@3"] = SimdMachine(npes=NPES, costs=result.options.costs,
                                    backend="kernels", shards=3).run(prog)
    assert runs["kernels@3"].shards == 3
    ref = runs["interp"]
    poly = bits(ref.poly)
    # The values under test really occur: +inf, -inf, and the
    # sign-bit NaN that x86 produces for inf - inf.
    assert {0x7FF0000000000000, 0xFFF0000000000000,
            0xFFF8000000000000} <= set(poly.ravel().tolist())
    for backend, res in runs.items():
        assert res.backend_used == backend.split("@")[0]
        assert_bit_identical(res, ref, (opt_level, compress, backend))


@pytest.mark.parametrize("opt_level", (0, 1, 2))
def test_int_conversion_passes_nonfinite_through(opt_level):
    result = convert_source(INT_PROGRAM,
                            ConversionOptions(opt_level=opt_level))
    prog = result.simd_program()
    runs = {be: SimdMachine(npes=NPES, costs=result.options.costs,
                            backend=be).run(prog)
            for be in HOST_BACKENDS}
    ref = runs["interp"]
    assert {0x7FF0000000000000, 0xFFF0000000000000} <= \
        set(bits(ref.returns).tolist())
    assert np.isnan(ref.returns).any()
    for backend, res in runs.items():
        assert res.backend_used == backend
        assert_bit_identical(res, ref, (opt_level, backend))
    mimd = simulate_mimd(result, nprocs=NPES)
    assert np.array_equal(ref.returns, mimd.returns, equal_nan=True)


def test_lazy_bit_identical():
    eager = simulate_simd(convert_source(PROGRAM), NPES, backend="interp")
    result = convert_source(PROGRAM, ConversionOptions(lazy=True))
    runs = {}
    for backend in BACKENDS:
        if backend == "native":
            # Lazy native is the documented fallback to the kernels JIT.
            with pytest.warns(RuntimeWarning, match="lazy conversion"):
                runs[backend] = simulate_simd(result, NPES, backend=backend)
            assert runs[backend].backend_used == "kernels"
        else:
            runs[backend] = simulate_simd(result, NPES, backend=backend)
    for backend, res in runs.items():
        assert_bit_identical(res, runs["interp"], ("lazy", backend))
        # Lazy layouts differ from eager ones in cycles, not in values.
        assert np.array_equal(bits(res.poly), bits(eager.poly)), backend
        assert np.array_equal(bits(res.returns), bits(eager.returns))


@pytest.mark.parametrize("opt_level", (1, 2))
def test_analyze_compiles(opt_level):
    result = convert_source(PROGRAM, ConversionOptions(
        opt_level=opt_level, analyze=True))
    assert result.simd_program().node_count() > 0
