"""Differential tests for the fused-kernel SIMD executor.

``SimdMachine(backend="kernels")`` runs one generated, compiled
function per automaton node (:mod:`repro.codegen.kernels`); the
``interp`` backend (the interpretive reference) stays available as the
differential oracle, and runs every node that has no kernel. The
kernels are a host-side optimization: every accounting field of
:class:`~repro.simd.machine.SimdResult` must be bit-identical across
the backends (``native`` too, where a C toolchain is available), and
the generated source must travel with the program artifact through
pickling and the compile cache.
"""

import pickle
import re
import sys

import numpy as np
import pytest

from repro.codegen.kernels import KernelProgram, compile_kernels
from repro.errors import MachineError
from repro.pipeline import ConversionOptions, convert_source, simulate_simd
from repro.simd import nativert
from repro.simd.machine import BACKENDS, SimdMachine
from repro.workloads import STANDARD, branch_tree

EXACT_FIELDS = (
    "cycles",
    "body_cycles",
    "transition_cycles",
    "enabled_pe_cycles",
    "meta_transitions",
)
ARRAY_FIELDS = ("pc", "poly", "mono")


#: Every backend this host can run without a fallback warning.
HOST_BACKENDS = tuple(be for be in BACKENDS if be != "native"
                      or nativert.unavailable_reason() is None)


def run_backends(result, npes, active=None, backends=HOST_BACKENDS):
    runs = {}
    for backend in backends:
        machine = SimdMachine(npes=npes, costs=result.options.costs,
                              backend=backend)
        runs[backend] = machine.run(result.simd_program(), active=active)
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
            runs = run_backends(result, npes, active=active)
            ref = runs["interp"]
            for backend, res in runs.items():
                assert_identical(res, ref, (name, compress, npes, backend))

    def test_single_pe(self):
        result = convert_source(STANDARD["mandelbrot"]())
        runs = run_backends(result, 1)
        assert_identical(runs["kernels"], runs["interp"], "single_pe")

    def test_trace_falls_back_to_interp(self):
        # Kernels record no per-PE trace; with trace=True the machine
        # must run the interp walk and still produce the oracle's trace.
        result = convert_source(STANDARD["divergent_loops"]())
        prog = result.simd_program()
        with pytest.warns(RuntimeWarning,
                          match="no per-PE trace; running 'interp'"):
            a = SimdMachine(npes=8, costs=result.options.costs, trace=True,
                            backend="kernels").run(prog)
        b = SimdMachine(npes=8, costs=result.options.costs, trace=True,
                        backend="interp").run(prog)
        assert a.backend_used == "interp"
        assert a.trace is not None
        assert a.trace == b.trace
        assert_identical(a, b, "trace")

    def test_foreign_cost_model_falls_back(self):
        # Kernels fold the compile-time cost model into constants, so a
        # machine with a different model must not use them — and must
        # still match the interpretive executor under that model.
        from dataclasses import replace

        from repro.ir.instr import DEFAULT_COSTS

        result = convert_source(STANDARD["divergent_loops"]())
        costs = replace(DEFAULT_COSTS,
                        globalor_cost=DEFAULT_COSTS.globalor_cost + 3)
        prog = result.simd_program()
        with pytest.warns(RuntimeWarning,
                          match="cost model.*running 'interp' instead"):
            a = SimdMachine(npes=8, costs=costs, backend="kernels").run(prog)
        b = SimdMachine(npes=8, costs=costs, backend="interp").run(prog)
        assert a.backend_used == "interp"
        assert_identical(a, b, "foreign_costs")
        # The folded-cost kernels would have produced different cycles.
        k = SimdMachine(npes=8, costs=result.options.costs,
                        backend="kernels").run(prog)
        assert k.cycles != a.cycles

    def test_constant_branch_empty_group(self):
        # A block body that reduces to a single forwarded scalar push
        # (here: the constant-false branch condition) emits no code at
        # all inside its lane guard; the generator must still produce a
        # syntactically valid suite (hypothesis-found regression).
        src = """
        main() {
            poly int a; poly int i0;
            a = procnum;
            for (i0 = 0; i0 < 1; i0 += 1) {
                if (0) { a = 0; }
            }
            return (0);
        }
        """
        result = convert_source(src)
        assert result.simd_program().kernels() is not None
        runs = run_backends(result, 8)
        ref = runs["interp"]
        for backend, res in runs.items():
            assert_identical(res, ref, ("empty_group", backend))

    def test_unknown_backend_rejected(self):
        from repro.errors import MachineError

        with pytest.raises(MachineError, match="unknown backend"):
            SimdMachine(npes=4, backend="jit")


class TestInterpFallback:
    """Nodes without a callable run on the interp segment walk, mixed
    with kernel nodes in one run."""

    @pytest.mark.parametrize("name", sorted(STANDARD))
    @pytest.mark.parametrize("compress", (False, True))
    def test_mixed_run_bit_identical(self, name, compress):
        # Every other node loses its kernel, so kernel nodes and interp
        # walks alternate: kernels keep no stack pointer, and the walk
        # sets it from the program's entry depths.
        src = STANDARD[name]()
        result = convert_source(src, ConversionOptions(compress=compress))
        prog = result.simd_program()
        fns = prog.kernels().fns
        for key in sorted(fns, key=lambda k: tuple(sorted(k)))[1::2]:
            del fns[key]
        for npes in (8, 33):
            active = npes // 2 if "spawn" in src else None
            ref = SimdMachine(npes=npes, costs=result.options.costs,
                              backend="interp").run(prog, active=active)
            for shards in (1, 3):
                res = SimdMachine(npes=npes, costs=result.options.costs,
                                  backend="kernels", shards=shards).run(
                    prog, active=active)
                assert res.backend_used == "kernels"
                assert res.shards == shards
                assert_identical(res, ref,
                                 (name, compress, npes, shards))


class TestMixedDepthDispatch:
    """Dispatch chains whose members enter an entry at *different* stack
    depths use the per-``pc`` depth tables precompiled on the plan (and
    baked into the kernels as ``_K*_D*`` constants)."""

    @pytest.mark.parametrize("name", ("divergent_phases", "collatz_depth"))
    def test_workload_has_depth_tables(self, name):
        result = convert_source(STANDARD[name](),
                                ConversionOptions(compress=False))
        plan = result.simd_program().plan()
        assert plan.stats()["plan_depth_tables"] > 0

    def test_mixed_depth_bit_identical(self):
        result = convert_source(STANDARD["divergent_phases"](),
                                ConversionOptions(compress=False))
        kern = result.simd_program().kernels()
        # The generated code actually takes the table-indexed path.
        assert "_D" in kern.source and "dv = " in kern.source
        runs = run_backends(result, 33)
        ref = runs["interp"]
        for backend, res in runs.items():
            assert_identical(res, ref, ("mixed_depth", backend))


class TestKernelProgram:
    def test_cached_on_program(self):
        prog = convert_source(STANDARD["divergent_loops"]()).simd_program()
        assert prog.kernels() is prog.kernels()

    def test_one_function_per_node(self):
        prog = convert_source(STANDARD["odd_even_sort"]()).simd_program()
        kern = prog.kernels()
        assert set(kern.sources) == set(prog.nodes)
        assert set(kern.fns) == set(prog.nodes)
        assert kern.stats()["kernel_nodes"] == prog.node_count()
        for key, (name, text) in kern.sources.items():
            assert f"def {name}(" in text
            assert kern.fns[key].__name__ == name

    def test_digest_deterministic(self):
        src = STANDARD["barrier_phases"]()
        a = compile_kernels(convert_source(src).simd_program())
        b = compile_kernels(convert_source(src).simd_program())
        assert a.sources == b.sources
        assert a.source == b.source

    def test_pickle_recompiles_functions(self):
        # Only the source text travels; functions are rebuilt lazily on
        # first use (never unpickled — code objects don't pickle).
        prog = convert_source(STANDARD["divergent_loops"]()).simd_program()
        kern = prog.kernels()
        clone = pickle.loads(pickle.dumps(kern))
        assert clone._fns is None
        assert clone.sources == kern.sources
        assert set(clone.fns) == set(kern.fns)

    def test_each_node_compiled_once(self, monkeypatch):
        # One loader: generation compiles every node on its own, a run
        # compiles nothing more, and an unpickled copy compiles each
        # node once, on its first fns access. No compile() input
        # defines more than one node function.
        from repro.codegen import kernels

        compiled = []

        def counting_compile(source, filename, *args, **kwargs):
            compiled.append(source)
            return compile(source, filename, *args, **kwargs)

        monkeypatch.setattr(kernels, "compile", counting_compile,
                            raising=False)
        result = convert_source(STANDARD["collatz_depth"](),
                                ConversionOptions(opt_level=2))
        prog = result.simd_program()
        texts = sorted(text for _, text in prog.kernels().sources.values())
        assert len(texts) == prog.node_count()
        assert sorted(compiled) == texts
        SimdMachine(npes=64, costs=result.options.costs,
                    backend="kernels").run(prog)
        assert len(compiled) == len(texts)

        clone = pickle.loads(pickle.dumps(prog.kernels()))
        assert len(compiled) == len(texts)
        assert set(clone.fns) == set(prog.nodes)
        assert clone.fns is clone.fns
        assert sorted(compiled[len(texts):]) == texts

        for source in compiled:
            assert len(re.findall(r"^def node_\d+\(", source, re.M)) == 1

    def test_program_pickle_carries_kernels(self):
        result = convert_source(STANDARD["mandelbrot"]())
        prog = result.simd_program()
        prog.kernels()
        clone = pickle.loads(pickle.dumps(prog))
        assert clone.kernels() is not None
        assert clone.kernels().sources == prog.kernels().sources
        a = SimdMachine(npes=8, costs=result.options.costs,
                        backend="kernels").run(prog)
        b = SimdMachine(npes=8, costs=result.options.costs,
                        backend="kernels").run(clone)
        assert_identical(a, b, "pickle")

    def test_version_stamped(self):
        from repro.codegen.kernels import KERNEL_VERSION

        kern = convert_source(STANDARD["divergent_loops"]()) \
            .simd_program().kernels()
        assert kern.version == KERNEL_VERSION
        assert kern.stats()["kernel_version"] == KERNEL_VERSION
        assert isinstance(kern, KernelProgram)


#: Spellings the printer must not emit: the ``np.flatnonzero`` and
#: ``np.any`` wrappers (the ``nonzero()`` / ``any()`` methods skip their
#: dispatch), a per-node ``np.errstate`` (the step loop and the shard
#: workers hold the scope), a 2-D index of a literal stack or poly
#: row (the row view is indexed first, then its lanes), ``np.abs``
#: (integer division goes through ``np.fmod``), a store to ``sp`` (no
#: kernel keeps the stack pointer), and a comparison cast to float64
#: (it stays a bool value).
SLOW_SPELLINGS = re.compile(
    r"np\.flatnonzero\(|np\.any\(|np\.errstate|\b(stack|poly)\[\d+, "
    r"|np\.abs\(|\bsp\[|\s(?:[<>]=?|[!=]=)\s.*\)\.astype\(np\.float64\)")

#: The branch that opens a node's full-width body.
FULL_BRANCH = "if m0_0.size == pc.shape[0]:"


def full_body_lines(source: str) -> list[int]:
    """The line numbers (from 1) of the full-width body in one node's
    ``source``: the lines indented below :data:`FULL_BRANCH`."""
    lines = source.splitlines()
    for i, line in enumerate(lines):
        if line.strip() == FULL_BRANCH:
            indent = len(line) - len(line.lstrip())
            body = []
            for k in range(i + 1, len(lines)):
                text = lines[k]
                if text.strip() and len(text) - len(text.lstrip()) <= indent:
                    break
                body.append(k + 1)
            return body
    return []


def full_bodies(source: str) -> list[str]:
    """The text of every full-width body in a kernel ``source``."""
    out = []
    for node in source.split("\ndef "):
        lines = node.splitlines()
        body = full_body_lines(node)
        if body:
            out.append("\n".join(lines[n - 1] for n in body))
    return out


def slow_spelling(source: str) -> str | None:
    """The first :data:`SLOW_SPELLINGS` match in a kernel ``source``, a
    full-width body that reads its entry member's lane set, or a bool
    value converted to float64 and then tested ``!= 0``.

    Inside a full-width body that set, ``m0_0``, holds every PE, and so
    does every set forwarded from it: no row, no ``pc`` and no split
    may be indexed by one, so the name must not appear at all."""
    hit = SLOW_SPELLINGS.search(source)
    if hit is not None:
        return hit.group()
    for body in full_bodies(source):
        for line in body.splitlines():
            if re.search(r"\bm0_0\b", line):
                return line.strip()
    for node in source.split("\ndef "):
        casts = set(re.findall(
            r"^\s*(t\d+) = t\d+\.astype\(np\.float64\)$", node, re.M))
        tested = casts & set(re.findall(r"\b(t\d+) != 0\b", node))
        if tested:
            return f"{min(tested)} != 0"
    return None


class TestStackSizing:
    """Return-selector rows are allocated only for a program that pushes
    a selector (``Cfg.verify()`` records it); a recursive program
    overflows them exactly as before."""

    def test_rows_follow_the_program(self):
        for name, make in sorted(STANDARD.items()):
            prog = convert_source(make(), ConversionOptions(
                lazy=False)).simd_program()
            rpush = prog.entry_depths.rpush
            assert rpush == (name == "collatz_depth"), name
            st, _ = SimdMachine(npes=4)._initial_state(prog, 4)
            assert st.stack.shape == (64, 4), name
            assert st.rstack.shape == (256 if rpush else 0, 4), name

    @pytest.mark.parametrize("backend", HOST_BACKENDS)
    def test_return_selector_overflow_unchanged(self, backend):
        from tests.helpers import RECURSIVE

        result = convert_source(RECURSIVE, ConversionOptions(lazy=False))
        assert result.simd_program().entry_depths.rpush
        with pytest.raises(MachineError,
                           match="return-selector stack overflow"):
            SimdMachine(npes=8, costs=result.options.costs,
                        backend=backend, rstack_depth=1).run(
                            result.simd_program())


class TestHotPathSpellings:
    @pytest.mark.parametrize("opt_level", (1, 2))
    def test_library_kernels(self, opt_level):
        for name, make in sorted(STANDARD.items()):
            source = convert_source(make(), ConversionOptions(
                opt_level=opt_level)).simd_program().kernels().source
            assert "def node_0(" in source, name
            assert slow_spelling(source) is None, (name, opt_level)

    @pytest.mark.parametrize("opt_level", (1, 2))
    def test_library_c_keeps_no_sp(self, opt_level):
        for name, make in sorted(STANDARD.items()):
            c = convert_source(make(), ConversionOptions(
                opt_level=opt_level)).simd_program().native().c_source
            assert "static i64 node_0(" in c, name
            assert re.search(r"\bsp\b", c) is None, (name, opt_level)

    def test_spellings_are_caught(self):
        for old in ("q = np.abs(ia) // 3",
                    "sp[m0_0] = 2",
                    "t3 = (t1 < t2).astype(np.float64)",
                    "t3 = t2.astype(np.float64)\n    tk = t3 != 0"):
            assert slow_spelling(old) is not None, old
        assert slow_spelling("t3 = t2.astype(np.float64)\n"
                             "    rsp[m0_0] = 0\n    tk = t2") is None
        full = ("def node_0(pc, st):\n"
                "    m0_0 = (pc == 4).nonzero()[0]\n"
                "    if m0_0.size == pc.shape[0]:\n"
                "        {}\n"
                "        return body, tcost, enabled, False\n"
                "    pc[m0_0] = 5\n")
        for old in ("pc[m0_0] = 5", "t0 = poly[1][m0_0]",
                    "m1_0 = m0_0", "m0_0t = m0_0[tk]",
                    "u1_0 = rt.union(pc.shape[0], m0_0, m1_1)"):
            assert slow_spelling(full.format(old)) is not None, old
        assert slow_spelling(full.format("pc.fill(5)")) is None

    def test_lazy_jit(self, monkeypatch):
        from repro.codegen import kernels

        sources = []

        def capturing_compile(source, filename, *args, **kwargs):
            sources.append(source)
            return compile(source, filename, *args, **kwargs)

        monkeypatch.setattr(kernels, "compile", capturing_compile,
                            raising=False)
        result = convert_source(branch_tree(6), ConversionOptions(lazy=True))
        res = simulate_simd(result, 8)
        assert res.backend_used == "kernels"
        assert len(sources) >= 8
        for source in sources:
            assert slow_spelling(source) is None


#: Every PE writes ``procnum + 1`` to PE 0 through the router.
ROUTER_CONFLICT = """
main() {
    poly int x;
    x[[0]] = procnum + 1;
    return (x);
}
"""

#: A router read or write whose PE index is +inf (int conversion passes
#: non-finite values through).
NONFINITE_ROUTER = {
    "read": """
main() {
    poly int x; poly int i;
    i = 1e999;
    x = x[[i]];
    return (x);
}
""",
    "write": """
main() {
    poly int x; poly int i;
    i = 1e999;
    x[[i]] = 1;
    return (x);
}
""",
}


class TestRouter:
    @pytest.mark.parametrize("backend,shards", [
        (be, n) for be in HOST_BACKENDS for n in (1, 3)
        if be != "interp" or n == 1])
    def test_write_conflict_highest_pid_wins(self, backend, shards):
        # The scatter assigns lanes in ascending order, so PE npes-1
        # writes last, as on the MIMD oracle.
        result = convert_source(ROUTER_CONFLICT)
        res = SimdMachine(npes=8, costs=result.options.costs,
                          backend=backend, shards=shards).run(
            result.simd_program())
        assert res.backend_used == backend
        assert res.returns.tolist() == [8.0] + [0.0] * 7

    @pytest.mark.parametrize("access", sorted(NONFINITE_ROUTER))
    def test_nonfinite_index_raises_machine_error(self, access):
        # The cast of +inf to an index stays silent inside the run's
        # error scope on both executors; the range check then raises.
        result = convert_source(NONFINITE_ROUTER[access])
        message = ("parallel read from out-of-range PE" if access == "read"
                   else "parallel write to out-of-range PE")
        for backend in ("interp", "kernels"):
            machine = SimdMachine(npes=4, costs=result.options.costs,
                                  backend=backend)
            with pytest.raises(MachineError, match=message):
                machine.run(result.simd_program())


class TestCacheIntegration:
    def test_warm_load_carries_kernel_source(self, tmp_path):
        src = STANDARD["divergent_loops"]()
        cold = convert_source(src, cache=str(tmp_path))
        assert cold.report.cache == "miss"
        cold_kern = cold.simd_program().kernels()
        warm = convert_source(src, cache=str(tmp_path))
        assert warm.report.cache == "hit"
        # The kernel source was loaded with the artifact — not rebuilt.
        assert warm.simd_program()._kernels is not None
        warm_kern = warm.simd_program().kernels()
        assert warm_kern.sources == cold_kern.sources
        assert warm_kern.source == cold_kern.source
        a = SimdMachine(npes=8, costs=cold.options.costs,
                        backend="kernels").run(cold.simd_program())
        b = SimdMachine(npes=8, costs=warm.options.costs,
                        backend="kernels").run(warm.simd_program())
        assert_identical(a, b, "warm_cache")

    def test_kernels_stage_reported(self):
        r = convert_source(STANDARD["divergent_loops"]())
        rec = r.report.stage("kernels")
        assert rec.counters["kernel_nodes"] == \
            r.simd_program().node_count()
        assert rec.counters["kernel_bytes"] > 0


#: The scaling loop of the ``wide_kernels`` benchmark workload (seed 0).
SCALING_LOOP = """
main() {
    poly int x; poly int i;
    x = (procnum + 0) % 7;
    for (i = 0; i < 8; i += 1) {
        if (x % 2) { x = x * 3 + 1; } else { x = x / 2 + i; }
    }
    return (x);
}
"""


def kernel_lines(run) -> set:
    """``(code file, line)`` of every line ``run()`` executes in a
    generated kernel on this thread."""
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return (local if frame.f_code.co_filename.startswith("<msc-kernel-")
                else None)

    old = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(old)
    return seen


class TestFullWidth:
    """A node whose first segment has one member also runs on whole
    rows, with no lane index, when that member holds every PE. Both
    bodies must equal the interpretive executor, at a width where the
    whole-row spellings differ from the indexed ones."""

    @pytest.mark.parametrize("name", sorted(STANDARD) + ["scaling_loop"])
    def test_both_bodies_bit_identical(self, name):
        src = SCALING_LOOP if name == "scaling_loop" else STANDARD[name]()
        # The interp run of odd_even_sort dominates at 1,024 PEs.
        npes = 256 if name == "odd_even_sort" else 1024
        result = convert_source(src)
        prog = result.simd_program()
        # Every PE active takes the full bodies (spawn_waves fills the
        # machine from half of it); one PE fewer never does.
        full = npes // 2 if "spawn" in src else npes
        for active in (full, full - 1):
            ref = SimdMachine(npes=npes, costs=result.options.costs,
                              backend="interp").run(prog, active=active)
            for shards in (1, 3):
                res = SimdMachine(npes=npes, costs=result.options.costs,
                                  backend="kernels", shards=shards).run(
                    prog, active=active)
                assert (res.backend_used, res.shards) == ("kernels", shards)
                assert_identical(res, ref, (name, active, shards))

    def test_full_body_runs_only_at_full_width(self):
        result = convert_source(SCALING_LOOP, ConversionOptions(
            opt_level=1, lazy=False))
        prog = result.simd_program()
        full = {(f"<msc-kernel-{fn}>", line)
                for fn, text in prog.kernels().sources.values()
                for line in full_body_lines(text)}
        assert full

        def full_lines_taken(active):
            machine = SimdMachine(npes=64, costs=result.options.costs,
                                  backend="kernels", shards=1)
            runs = []
            lines = kernel_lines(
                lambda: runs.append(machine.run(prog, active=active)))
            ref = SimdMachine(npes=64, costs=result.options.costs,
                              backend="interp").run(prog, active=active)
            assert_identical(runs[0], ref, active)
            return lines & full

        assert full_lines_taken(64)
        # One idle PE: no one-member node ever holds every PE.
        assert not full_lines_taken(63)

    def test_loaded_slot_survives_a_store(self):
        # The executor keeps x's first load for z after x is stored, so
        # a whole-row load must copy the row, not view it.
        src = """
main() {
    poly int x; poly int y; poly int z; poly int i;
    x = procnum;
    for (i = 0; i < 2; i += 1) {
        y = x;
        x = x + 1;
        z = y;
    }
    return (z * 100 + x);
}
"""
        result = convert_source(src)
        prog = result.simd_program()
        for active in (8, 7):
            res = SimdMachine(npes=8, costs=result.options.costs,
                              backend="kernels").run(prog, active=active)
            ref = SimdMachine(npes=8, costs=result.options.costs,
                              backend="interp").run(prog, active=active)
            assert_identical(res, ref, active)
        assert res.returns[:7].tolist() == [101 * p + 102 for p in range(7)]

    def test_swapped_rows_flush_their_loads(self):
        # A chain that swaps two stack rows and ends with both live
        # flushes row 0 first: row 1 must get row 0's value from before
        # that flush, on whole rows as on a lane set.
        from repro.codegen import kir
        from repro.codegen import plan as planmod
        from repro.codegen.kernels import _load, _Printer
        from repro.simd.vecops import PeState

        t0, t1 = kir.Val(kir.ARRAY, 0), kir.Val(kir.ARRAY, 1)
        chain = kir.Chain((0,), [("stack", 0, (0,), None),
                                 ("stack", 1, (1,), None),
                                 ("flush", None, (0, t1), None),
                                 ("flush", None, (1, t0), None)])
        seg = kir.Seg(members=(3,), sources=(None,), barrier=(False,),
                      body_cycles=1, coeffs=(1,), checklist=(),
                      max_rows=0, serial=True, chains=[chain],
                      entry_chains=None,
                      terms=(kir.Term(planmod.K_FALL, 4, 0, 2, None,
                                      False),),
                      exit_cost=None)
        text = _Printer().node(0, "node_0", kir.Node("swap", [seg]))
        assert full_body_lines(text)
        fn = _load("node_0", text)
        for active in (4, 3):
            st = PeState(4, 0, 0, stack_depth=2, rstack_depth=0)
            st.stack[0], st.stack[1] = 1.0, 2.0
            pc = np.full(4, -1)
            pc[:active] = 3
            assert fn(pc, st) == (1, 0, active, False)
            assert st.stack[:, :active].tolist() == [[2.0] * active,
                                                     [1.0] * active]
            assert pc[:active].tolist() == [4] * active

    def test_barrier_fed_by_a_full_set_stays_full(self):
        # tree_reduction's wait node runs every segment on whole rows:
        # the barrier-wait member of its third segment is fed by the
        # fall-through of a full member, so nothing was parked there
        # and nothing is re-scanned.
        prog = convert_source(STANDARD["tree_reduction"](),
                              ConversionOptions(opt_level=1, lazy=False,
                                                compress=False)
                              ).simd_program()
        (text,) = [text for _, text in prog.kernels().sources.values()
                   if '"""ms_4+ms_5+ms_6+ms_7"""' in text]
        (body,) = full_bodies(text)
        assert "-- segment 3:" in body
        # No lane set is bound or read: every segment is full.
        assert re.search(r"\b[mu]\d+_\d+", body) is None
