"""The native C backend: differential identity, graceful fallback,
artifact caching, and the ``--emit c`` CLI surface.

The contract under test (docs/internals.md §12): ``backend=native``,
serial or sharded, produces bit-identical :class:`SimdResult`\\ s
to every other backend; when the toolchain is missing or the build
fails the machine falls back to the NumPy kernels with a
:class:`RuntimeWarning` and records what actually ran; and the shared
library is content-addressed so warm runs never re-invoke the
compiler.
"""

import ctypes
import itertools
import json
import os
import pickle
import shutil
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.codegen.native import (CTX_FIELDS, CTX_TYPEDEF, E_STEPS,
                                  NATIVE_VERSION, NativeProgram,
                                  compile_native)
from repro.errors import ConversionError, MachineError
from repro.hashenc.search import BranchEncoding, HashFn
from repro.pipeline import ConversionOptions, convert_source
from repro.simd import nativert
from repro.simd.machine import SimdMachine
from repro.workloads import STANDARD

from tests.test_kernels import assert_identical, run_backends

requires_toolchain = pytest.mark.skipif(
    not nativert.native_available(),
    reason=nativert.unavailable_reason() or "")


def run_native(result, npes, backend="native", active=None, shards=None,
               max_steps=1_000_000):
    machine = SimdMachine(npes=npes, costs=result.options.costs,
                          backend=backend, shards=shards)
    return machine.run(result.simd_program(), active=active,
                       max_steps=max_steps)


@requires_toolchain
class TestDifferential:
    """Acceptance: native bit-identical to kernels on all library
    workloads × compress on/off, serial and sharded."""

    @pytest.mark.parametrize("name", sorted(STANDARD))
    @pytest.mark.parametrize("compress", (False, True))
    def test_workload_bit_identical(self, name, compress):
        src = STANDARD[name]()
        result = convert_source(src, ConversionOptions(compress=compress))
        for npes in (8, 33):
            active = npes // 2 if "spawn" in src else None
            ref = run_backends(result, npes, active=active,
                               backends=("kernels",))["kernels"]
            for shards in (1, 4):
                res = run_native(result, npes, active=active,
                                 shards=shards)
                assert res.backend_used == "native"
                assert res.shards == shards
                assert_identical(res, ref, (name, compress, npes, shards))

    def test_native_mt_genuinely_sharded(self):
        result = convert_source(STANDARD["divergent_loops"]())
        res = run_native(result, 33, shards=4)
        assert res.backend_used == "native"
        assert res.shards == 4

    def test_single_pe(self):
        result = convert_source(STANDARD["mandelbrot"]())
        a = run_native(result, 1)
        b = run_backends(result, 1, backends=("interp",))["interp"]
        assert_identical(a, b, "single_pe")


@requires_toolchain
class TestErrorReconstruction:
    def test_division_by_zero_exact_message(self):
        src = "main() { poly int x; x = 1 / (procnum - procnum); return (x); }"
        result = convert_source(src)
        msgs = {}
        for backend in ("kernels", "native"):
            with pytest.raises(MachineError) as exc:
                run_native(result, 4, backend=backend, shards=1)
            msgs[backend] = str(exc.value)
        assert msgs["native"] == msgs["kernels"]
        assert "zero" in msgs["native"]

    def test_native_mt_error_matches_serial(self):
        src = "main() { poly int x; x = 1 / (procnum - procnum); return (x); }"
        result = convert_source(src)
        with pytest.raises(MachineError) as serial:
            run_native(result, 8, shards=1)
        with pytest.raises(MachineError) as sharded:
            run_native(result, 8, shards=4)
        assert str(sharded.value) == str(serial.value)


#: Faults that fire only after some 30 loop iterations, with the
#: message they raise: an integer division by zero, and a router read
#: past the last PE.
LATE_FAULTS = {
    "div": ("main() { poly int i, x; x = 0; "
            "for (i = 0; i < 40; i = i + 1) "
            "{ x = x + 100 / (procnum + 30 - i); } return (x); }",
            "integer division or remainder by zero"),
    "router": ("main() { poly int i, x, y; y = procnum; x = 0; "
               "for (i = 0; i < 40; i = i + 1) "
               "{ x = x + y[[i / 30 * 1000]]; } return (x); }",
               "parallel read from out-of-range PE"),
}

#: The mixed-run sweep, less the two programs whose C takes cc longest
#: (collatz_depth has 512 nodes and divergent_phases 64 uncompressed).
MIXED = [(name, compress) for name in sorted(STANDARD)
         for compress in (False, True)
         if compress or name not in ("collatz_depth", "divergent_phases")]


def hash_family(kind: str, n: int):
    """Hash functions of ``kind`` for ``n`` keys, smallest table first."""
    if kind == "mod":
        return (HashFn("mod", mod=p) for p in itertools.count(n))
    bits = (n - 1).bit_length()
    return (HashFn(kind, s=s, t=t, mask=(1 << b) - 1)
            for b in range(bits, bits + 3) for t in range(4)
            for s in range(63))


def reencode(prog, family) -> int:
    """Re-encode each multiway node of ``prog`` with the first hash of
    ``family(len(cases))`` that separates its keys; how many were."""
    done = 0
    for node in prog.nodes.values():
        cases = node.encoding.cases if node.encoding else None
        if cases is None:
            continue
        fn = next((f for f in family(len(cases))
                   if len({f.apply(k) for k in cases}) == len(cases)), None)
        if fn is None:
            continue
        table = [None] * fn.table_size
        for key, target in cases.items():
            table[fn.apply(key)] = target
        node.encoding = BranchEncoding(fn, table, cases)
        done += 1
    return done


@requires_toolchain
class TestWholeRunLoop:
    """A serial native run is one C call (``msc_run``); sharded runs and
    programs the loop cannot hold call one C function per node, with
    arguments bound once per run and per shard."""

    def test_loop_decided_by_program(self):
        from repro.workloads import barrier_phases

        prog = convert_source(STANDARD["odd_even_sort"]()).simd_program()
        assert prog.native().loop
        wide = convert_source(barrier_phases(6, n_phases=22)).simd_program()
        assert wide.plan().n_bids > 63
        assert not wide.native().loop
        assert "i64 msc_run(" not in wide.native().c_source

    def test_serial_run_crosses_the_ffi_once(self, monkeypatch):
        result = convert_source(STANDARD["odd_even_sort"]())
        calls = {"node": 0, "run": 0}
        load_native, run_program = nativert.load_native, nativert.run_program

        def counting_load(nat):
            def counted(fn):
                def call(pc, bound):
                    calls["node"] += 1
                    return fn(pc, bound)
                return call
            return {key: counted(fn) for key, fn in load_native(nat).items()}

        def counting_run(*args):
            calls["run"] += 1
            return run_program(*args)

        monkeypatch.setattr(nativert, "load_native", counting_load)
        monkeypatch.setattr(nativert, "run_program", counting_run)
        res = run_native(result, 16, shards=1)
        assert calls == {"node": 0, "run": 1}
        assert res.meta_transitions > 100
        ref = run_native(result, 16, backend="interp")
        assert_identical(res, ref, "one call")

    def test_sharded_run_binds_each_shard_once(self, monkeypatch):
        result = convert_source(STANDARD["divergent_loops"]())
        binds: list = []
        bind = nativert.bind

        def counting_bind(pc, st):
            binds.append(pc.shape[0])
            return bind(pc, st)

        monkeypatch.setattr(nativert, "bind", counting_bind)
        res = run_native(result, 33, shards=4)
        assert res.shards == 4
        # The full state (for cross-lane nodes), then each shard view.
        assert binds == [33, 9, 8, 8, 8]
        assert sum(res.node_visits.values()) > len(binds)

    def test_step_budget_matches_kernels(self, monkeypatch):
        result = convert_source(STANDARD["odd_even_sort"]())
        codes: list = []
        run_program = nativert.run_program

        def spy(*args):
            try:
                return run_program(*args)
            except nativert.NativeKernelError as err:
                codes.append(err.code)
                raise

        monkeypatch.setattr(nativert, "run_program", spy)
        msgs = {}
        for backend in ("kernels", "native"):
            with pytest.raises(MachineError) as exc:
                run_native(result, 8, backend, shards=1, max_steps=50)
            msgs[backend] = str(exc.value)
        assert msgs["native"] == msgs["kernels"] \
            == "SIMD run exceeded 50 meta steps"
        assert codes == [E_STEPS]

    @pytest.mark.parametrize("max_steps", (2**40, 2**70))
    def test_step_budget_beyond_32_bits(self, max_steps):
        # msc_run takes an int64 budget (2**70 is clamped to
        # 2**63 - 1); passed as a C int, it would be masked to 0 or -1
        # and the run would stop at once with E_STEPS.
        result = convert_source(STANDARD["odd_even_sort"]())
        ref = run_native(result, 16, "kernels", shards=1,
                         max_steps=max_steps)
        res = run_native(result, 16, shards=1, max_steps=max_steps)
        assert res.backend_used == "native"
        assert_identical(res, ref, max_steps)

    @pytest.mark.parametrize("fault", sorted(LATE_FAULTS))
    def test_late_fault_exact_message(self, fault):
        src, want = LATE_FAULTS[fault]
        result = convert_source(src)
        assert result.simd_program().native().loop

        def message(backend, shards=1, max_steps=1_000_000):
            with pytest.raises(MachineError) as exc:
                run_native(result, 8, backend, shards=shards,
                           max_steps=max_steps)
            return str(exc.value)

        # The fault is late: twenty meta steps run clean into the budget.
        assert message("native", max_steps=20) \
            == "SIMD run exceeded 20 meta steps"
        assert message("kernels") == want
        for shards in (1, 4):
            assert message("native", shards) == want, shards

    def test_unencoded_aggregate_replays_to_conversion_error(self):
        result = convert_source(STANDARD["divergent_loops"]())
        prog = result.simd_program()
        emptied = 0
        for node in prog.nodes.values():
            if node.encoding is not None:
                node.encoding.table = [None] * len(node.encoding.table)
                emptied += 1
        assert emptied
        prog._native = compile_native(prog)
        assert prog.native().loop
        msgs = {}
        for backend in ("kernels", "native"):
            with pytest.raises(ConversionError) as exc:
                run_native(result, 8, backend, shards=1)
            msgs[backend] = str(exc.value)
        assert msgs["native"] == msgs["kernels"]
        assert "unencoded transition" in msgs["native"]

    def test_parked_barrier_bits_are_masked(self):
        # odd_even_sort's aggregates carry parked barrier bits at some
        # multiway nodes, but its searched hashes happen to ignore those
        # bits. A division hash by an odd modulus does not, so every
        # node dispatches right only if the barrier bits are masked out
        # first (section 3.2.4), on both native paths.
        result = convert_source(STANDARD["odd_even_sort"]())
        prog = result.simd_program()
        assert reencode(prog, lambda n: (HashFn("mod", mod=p) for p in
                                         itertools.count(n | 1, 2)))
        prog._native = compile_native(prog)
        assert prog.native().loop
        ref = run_native(result, 8, backend="interp")
        for shards in (1, 3):
            assert_identical(run_native(result, 8, shards=shards), ref,
                             ("masked", shards))

    @pytest.mark.parametrize("kind", ("mask", "notmask", "xor", "add",
                                      "mod"))
    def test_every_hash_kind_dispatches(self, kind):
        # The library's searched hashes use only mask, xor and add; the
        # loop's evaluator must agree with HashFn.apply on every kind.
        result = convert_source(STANDARD["odd_even_sort"]())
        prog = result.simd_program()
        assert reencode(prog, lambda n: hash_family(kind, n))
        prog._native = compile_native(prog)
        ref = run_native(result, 8, backend="interp")
        assert_identical(run_native(result, 8, shards=1), ref, kind)

    @pytest.mark.parametrize("name,compress", MIXED)
    def test_mixed_run_bit_identical(self, name, compress, monkeypatch):
        # Every other node loses its C function, as when the lowering
        # skips a node no printer handles, so the run takes the
        # per-node path and C nodes and interp walks alternate and hand
        # the stack pointers to each other.
        from repro.codegen import kir

        src = STANDARD[name]()
        result = convert_source(src, ConversionOptions(compress=compress))
        prog = result.simd_program()
        lower_program = kir.lower_program

        def skipping(p):
            lowered = lower_program(p)
            drop = set(range(1, len(lowered), 2)) or {0}
            return [entry for entry in lowered if entry[0] not in drop]

        monkeypatch.setattr(kir, "lower_program", skipping)
        prog._native = compile_native(prog)
        nat = prog.native()
        assert len(nat.entry_index) < len(prog.nodes)
        assert not nat.loop
        for npes in (8, 33):
            active = npes // 2 if "spawn" in src else None
            ref = SimdMachine(npes=npes, costs=result.options.costs,
                              backend="interp").run(prog, active=active)
            for shards in (1, 3):
                res = run_native(result, npes, active=active, shards=shards)
                assert res.backend_used == "native"
                assert res.shards == shards
                assert_identical(res, ref, (name, compress, npes, shards))


@requires_toolchain
class TestConcurrentRuns:
    """Each run() resolves its own callables, so a second thread
    resolving on the same machine cannot swap a running loop's native
    code for another executor under the native label: every
    native-labelled run executes native code, and no step runs on
    another executor."""

    def test_threads_sharing_a_machine_keep_their_executor(
            self, monkeypatch):
        # A serial run is one whole-run C call, counted once per run.
        runs, run_calls, node_calls = self.hammer(monkeypatch, shards=1)
        per_run: dict = {}
        for me, _ in runs:
            per_run[me] = per_run.get(me, 0) + 1
        assert run_calls == per_run
        assert node_calls == {}

    def test_threads_sharing_a_sharded_machine_keep_their_executor(
            self, monkeypatch):
        # A sharded run calls one C function per node; shard 0 and the
        # full-width nodes run on the calling thread, so its count is
        # one call per meta step.
        runs, run_calls, node_calls = self.hammer(monkeypatch, shards=2)
        per_step: dict = {}
        for me, steps in runs:
            per_step[me] = per_step.get(me, 0) + steps
        assert run_calls == {}
        assert {me: node_calls.get(me) for me in per_step} == per_step

    @staticmethod
    def hammer(monkeypatch, shards):
        """Eight threads x 60 runs on one machine; ``(thread, meta
        steps)`` per run, and whole-run and per-node C calls per
        thread."""
        result = convert_source(STANDARD["divergent_loops"]())
        prog = result.simd_program()
        lock = threading.Lock()
        node_calls: dict = {}
        run_calls: dict = {}
        load_native = nativert.load_native
        run_program = nativert.run_program

        def count(table):
            me = threading.get_ident()
            with lock:
                table[me] = table.get(me, 0) + 1

        def counting_load(nat):
            def counted(fn):
                def call(pc, st):
                    count(node_calls)
                    return fn(pc, st)
                return call
            return {key: counted(fn) for key, fn in load_native(nat).items()}

        def counting_run(*args):
            count(run_calls)
            return run_program(*args)

        monkeypatch.setattr(nativert, "load_native", counting_load)
        monkeypatch.setattr(nativert, "run_program", counting_run)
        machine = SimdMachine(npes=2, costs=result.options.costs,
                              backend="native", shards=shards)
        runs: list = []

        def worker():
            for _ in range(60):
                res = machine.run(prog)
                with lock:
                    runs.append((threading.get_ident(), res.backend_used,
                                 res.shards, sum(res.node_visits.values()),
                                 (res.cycles, res.poly.tobytes())))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(runs) == 8 * 60
        assert {(used, n) for _, used, n, _, _ in runs} \
            == {("native", shards)}
        # Concurrent runs share no scratch: every run computes the same.
        assert len({out for *_, out in runs}) == 1
        return [(me, steps) for me, _, _, steps, _ in runs], run_calls, \
            node_calls


#: One fresh process: compile odd_even_sort through the cache named by
#: ``REPRO_MSC_CACHE``, run it serially on native at 16 PEs, and print
#: what it found in the cache, which backend ran, the returns, and the
#: C declaration parsers it imported.
NATIVE_RUN_CHILD = """
import json, sys
from repro.pipeline import ConversionOptions, convert_source
from repro.simd.machine import SimdMachine
from repro.workloads import STANDARD

result = convert_source(STANDARD["odd_even_sort"](),
                        ConversionOptions(lazy=False), cache=True)
res = SimdMachine(npes=16, costs=result.options.costs, backend="native",
                  shards=1).run(result.simd_program())
print(json.dumps({
    "cache": result.report.cache, "backend": res.backend_used,
    "returns": res.returns.tolist(),
    "parsers": [m for m in ("cffi", "pycparser") if m in sys.modules]}))
"""


@requires_toolchain
class TestCtypesRuntime:
    """The libraries load and run through ctypes: no declaration parse
    on the warm path, and every C call releases the GIL."""

    def test_warm_native_run_imports_no_parser(self, tmp_path):
        # A cold process compiles and builds into an empty cache; a
        # warm one loads both from it and runs on native, with no C
        # declaration parser imported.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, REPRO_MSC_CACHE=str(tmp_path / "cache"),
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(root / "src"), os.environ.get("PYTHONPATH")])))
        runs = []
        for _ in ("cold", "warm"):
            proc = subprocess.run([sys.executable, "-c", NATIVE_RUN_CHILD],
                                  env=env, capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        cold, warm = runs
        assert (cold["cache"], warm["cache"]) == ("miss", "hit")
        assert warm["backend"] == "native"
        assert warm["parsers"] == []
        result = convert_source(STANDARD["odd_even_sort"](),
                                ConversionOptions(lazy=False))
        ref = run_backends(result, 16, backends=("kernels",))["kernels"]
        assert np.array_equal(np.array(warm["returns"]), ref.returns)

    def test_c_call_releases_the_gil(self):
        # Sharded native runs overlap only because each C call drops
        # the GIL. While one msc_run call of about 0.2 s runs on a
        # worker thread, the main thread keeps looping in Python: its
        # longest pause stays far below the call. Holding the GIL, the
        # pause would last the whole call.
        npes = 2048
        result = convert_source(STANDARD["odd_even_sort"]())
        prog = result.simd_program()
        nat = prog.native()
        assert nat.loop
        nativert.load_native(nat)
        machine = SimdMachine(npes=npes, costs=result.options.costs,
                              backend="native")
        st, pc = machine._initial_state(prog, npes)
        call = []

        def worker():
            t0 = time.perf_counter()
            nativert.run_program(nat, pc, st, 10**7)
            call.append(time.perf_counter() - t0)

        thread = threading.Thread(target=worker)
        last = time.perf_counter()
        pause = 0.0
        thread.start()
        while thread.is_alive():
            now = time.perf_counter()
            pause = max(pause, now - last)
            last = now
        thread.join(timeout=60)
        assert not thread.is_alive()
        (duration,) = call
        assert duration > 0.1
        assert pause < duration / 4, (pause, duration)


class TestFallbacks:
    """Satellite: compiler-missing and compile-failure paths must warn,
    record ``backend_used == "kernels"``, and stay bit-identical."""

    def _expect_fallback(self, result, match, shards=1):
        ref = run_backends(result, 8, backends=("kernels",))["kernels"]
        with pytest.warns(RuntimeWarning, match=match):
            res = run_native(result, 8, shards=shards)
        assert res.backend_used == "kernels"
        assert res.shards == shards
        assert_identical(res, ref, ("fallback", match))
        return res

    def test_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        result = convert_source(STANDARD["divergent_loops"]())
        self._expect_fallback(result, "REPRO_NATIVE_DISABLE")

    def test_no_compiler_on_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_DISABLE", raising=False)
        monkeypatch.setattr(nativert, "_find_cc", lambda: None)
        result = convert_source(STANDARD["divergent_loops"]())
        self._expect_fallback(result, "no C compiler")

    def test_compile_failure(self, monkeypatch):
        def failing_run(cmd, **kwargs):
            return subprocess.CompletedProcess(
                cmd, returncode=1, stdout="", stderr="synthetic ICE")

        monkeypatch.delenv("REPRO_NATIVE_DISABLE", raising=False)
        # A fake compiler path: the build never depends on a host cc.
        monkeypatch.setattr(nativert, "_find_cc", lambda: "/fake/bin/cc")
        monkeypatch.setattr(nativert.subprocess, "run", failing_run)
        monkeypatch.setattr(nativert, "compiler_id", lambda: "fake-cc 0")
        # A unique program: nothing in the in-process dlopen cache or
        # the (hermetic) artifact cache may satisfy the load.
        src = "main() { poly int x; x = procnum + 41; return (x); }"
        result = convert_source(src)
        self._expect_fallback(result, "build failed")

    def test_native_mt_falls_back_to_kernels_mt(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        result = convert_source(STANDARD["divergent_loops"]())
        self._expect_fallback(result, "REPRO_NATIVE_DISABLE", shards=4)

    @requires_toolchain
    def test_lazy_mode_documented_fallback(self):
        from repro.pipeline import simulate_simd

        result = convert_source(STANDARD["divergent_loops"](),
                                ConversionOptions(lazy=True))
        with pytest.warns(RuntimeWarning, match="lazy conversion"):
            res = simulate_simd(result, npes=8, backend="native")
        assert res.backend_used == "kernels"

    def test_foreign_cost_model_cascades_to_interp(self):
        from dataclasses import replace

        from repro.ir.instr import DEFAULT_COSTS

        result = convert_source(STANDARD["divergent_loops"]())
        prog = result.simd_program()
        other = replace(DEFAULT_COSTS, globalor_cost=99)
        machine = SimdMachine(npes=8, costs=other, backend="native")
        with pytest.warns(RuntimeWarning) as caught:
            res = machine.run(prog)
        # native refuses (foreign costs — or no toolchain here), then
        # kernels refuses the foreign costs: the interp walk runs under
        # the machine's model. Each step warns.
        msgs = [str(w.message) for w in caught]
        assert len(msgs) == 2
        assert msgs[0].endswith("running 'kernels' instead")
        assert "cost model" in msgs[1]
        assert msgs[1].endswith("running 'interp' instead")
        assert res.backend_used == "interp"
        ref = SimdMachine(npes=8, costs=other, backend="interp").run(prog)
        assert_identical(res, ref, "foreign_costs")


@requires_toolchain
class TestArtifactCache:
    def test_shared_library_content_addressed(self):
        src = "main() { poly int x; x = procnum * 3; return (x); }"
        nat = convert_source(src).simd_program().native()
        so = nativert.build_shared(nat)
        assert so.exists()
        assert so.name == f"{nativert.artifact_key(nat)}.so"
        # The .c source is kept beside the artifact for debugging.
        assert so.with_suffix(".c").read_text() == nat.c_source

    def test_warm_load_skips_compiler(self, monkeypatch):
        src = "main() { poly int x; x = procnum * 5; return (x); }"
        nat = convert_source(src).simd_program().native()
        nativert.build_shared(nat)
        nativert._loaded.pop(nat.digest(), None)

        def boom(*args, **kwargs):
            raise AssertionError("compiler invoked on a warm artifact")

        # compiler_id() is memoized by the build above, so the only
        # subprocess a warm load could spawn is the compile itself.
        monkeypatch.setattr(nativert.subprocess, "run", boom)
        fns = nativert.load_native(nat)
        assert set(fns) == set(nat.entry_names)

    def test_corrupt_artifact_is_rebuilt(self):
        # A truncated .so (a crashed writer, a full disk) must not fail
        # this or any later load: it is deleted and built once more.
        src = "main() { poly int x; x = procnum * 7 + 2; return (x); }"
        result = convert_source(src)
        prog = result.simd_program()
        so = nativert.build_shared(prog.native())
        so.write_bytes(so.read_bytes()[:100])
        nativert._loaded.pop(prog.native().digest(), None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_native(result, 8)
        assert res.backend_used == "native"
        assert so.stat().st_size > 100
        ref = run_backends(result, 8, backends=("interp",))["interp"]
        assert_identical(res, ref, "rebuilt")

    def test_key_includes_compiler_identity(self, monkeypatch):
        nat = convert_source(STANDARD["divergent_loops"]()) \
            .simd_program().native()
        a = nativert.artifact_key(nat)
        monkeypatch.setattr(nativert, "compiler_id", lambda: "other-cc 9")
        assert nativert.artifact_key(nat) != a

    def test_key_includes_native_version(self, monkeypatch):
        # A stale artifact from an older C ABI must never load: the
        # version is part of the content address.
        nat = convert_source(STANDARD["divergent_loops"]()) \
            .simd_program().native()
        a = nativert.artifact_key(nat)
        monkeypatch.setattr(nativert, "NATIVE_VERSION", NATIVE_VERSION + 1)
        assert nativert.artifact_key(nat) != a

    def test_concurrent_first_loads_share_one_artifact(self):
        # Two threads run one never-built program at once: both run on
        # native, and the racing builders (temp files + os.replace)
        # leave one .so beside its .c source and no temp files.
        src = "main() { poly int x; x = procnum * 11 + 4; return (x); }"
        result = convert_source(src)
        prog = result.simd_program()
        start = threading.Barrier(2, timeout=120)

        def run(_):
            start.wait()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return run_native(result, 8)

        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(run, range(2)))
        assert [r.backend_used for r in runs] == ["native", "native"]
        key = nativert.artifact_key(prog.native())
        assert sorted(p.name for p in nativert.native_cache_dir().iterdir()) \
            == [f"{key}.c", f"{key}.so"]
        ref = run_backends(result, 8, backends=("interp",))["interp"]
        for res in runs:
            assert_identical(res, ref, "concurrent")


class TestNativeProgram:
    def test_generated_and_cached_on_program(self):
        prog = convert_source(STANDARD["divergent_loops"]()).simd_program()
        nat = prog.native()
        assert isinstance(nat, NativeProgram)
        assert prog.native() is nat

    def test_one_entry_per_node(self):
        prog = convert_source(STANDARD["odd_even_sort"]()).simd_program()
        nat = prog.native()
        assert set(nat.entry_names) == set(prog.nodes)
        assert nat.stats()["native_nodes"] == prog.node_count()
        for fname in nat.entry_names.values():
            assert f"i64 {fname}(" in nat.c_source

    def test_digest_deterministic(self):
        src = STANDARD["barrier_phases"]()
        a = compile_native(convert_source(src).simd_program())
        b = compile_native(convert_source(src).simd_program())
        assert a.digest() == b.digest()
        assert a.c_source == b.c_source

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
    def test_ctx_structure_matches_the_c_layout(self, tmp_path):
        # The runtime fills a ctypes Structure that C reads as the
        # header's msc_ctx: the C compiler's size, offsets and field
        # sizes must be the Structure's, field by field.
        nat = convert_source(STANDARD["mandelbrot"]()).simd_program().native()
        assert CTX_TYPEDEF in nat.c_source
        names = [name for name, _ in CTX_FIELDS]
        lines = "".join(
            f'    printf("%zu %zu\\n", offsetof(msc_ctx, {name}), '
            f"sizeof(((msc_ctx *)0)->{name}));\n" for name in names)
        src = tmp_path / "layout.c"
        src.write_text(
            "#include <stddef.h>\n#include <stdint.h>\n#include <stdio.h>\n"
            + CTX_TYPEDEF + "int main(void)\n{\n"
            + '    printf("%zu\\n", sizeof(msc_ctx));\n' + lines
            + "    return 0;\n}\n")
        exe = tmp_path / "layout"
        subprocess.run(["cc", str(src), "-o", str(exe)], check=True,
                       capture_output=True)
        out = subprocess.run([str(exe)], check=True, capture_output=True,
                             text=True).stdout.splitlines()
        assert int(out[0]) == ctypes.sizeof(nativert.Ctx)
        c_layout = [(name, *map(int, row.split()))
                    for name, row in zip(names, out[1:], strict=True)]
        ctypes_layout = [(name, getattr(nativert.Ctx, name).offset,
                          getattr(nativert.Ctx, name).size)
                         for name in names]
        assert ctypes_layout == c_layout

    def test_digest_memo_is_not_pickled(self):
        nat = convert_source(STANDARD["mandelbrot"]()).simd_program().native()
        digest = nat.digest()
        clone = pickle.loads(pickle.dumps(nat))
        assert clone._digest is None
        assert clone == nat
        assert clone.digest() == digest

    def test_version_stamped(self):
        nat = convert_source(STANDARD["divergent_loops"]()) \
            .simd_program().native()
        assert nat.version == NATIVE_VERSION
        assert nat.stats()["native_version"] == NATIVE_VERSION

    def test_program_pickle_carries_native(self):
        prog = convert_source(STANDARD["mandelbrot"]()).simd_program()
        nat = prog.native()
        clone = pickle.loads(pickle.dumps(prog))
        assert clone._native != "unbuilt"
        assert clone.native().digest() == nat.digest()

    def test_warm_compile_cache_carries_c_source(self, tmp_path):
        src = STANDARD["divergent_loops"]()
        cold = convert_source(src, cache=str(tmp_path))
        assert cold.report.cache == "miss"
        cold_nat = cold.simd_program().native()
        warm = convert_source(src, cache=str(tmp_path))
        assert warm.report.cache == "hit"
        assert warm.simd_program()._native != "unbuilt"
        assert warm.simd_program().native().c_source == cold_nat.c_source

    def test_native_stage_reported(self):
        r = convert_source(STANDARD["divergent_loops"]())
        rec = r.report.stage("native")
        assert rec.counters["native_nodes"] == r.simd_program().node_count()
        assert rec.counters["native_bytes"] > 0


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
class TestWarningFreeC:
    @pytest.mark.parametrize("compress", (False, True))
    def test_library_compiles_without_warnings(self, compress, tmp_path):
        # Unused temporaries or sign-compare slips in the printer would
        # show up here first.
        for name in sorted(STANDARD):
            nat = convert_source(STANDARD[name](), ConversionOptions(
                compress=compress)).simd_program().native()
            path = tmp_path / f"{name}.c"
            path.write_text(nat.c_source)
            proc = subprocess.run(
                ["cc", "-std=c99", "-fsyntax-only", "-Wall", "-Wextra",
                 "-Werror", str(path)], capture_output=True, text=True)
            assert proc.returncode == 0, (name, proc.stderr[:2000])


class TestEmitC:
    def test_emit_c_prints_source(self, tmp_path, capsys):
        from repro.__main__ import main

        f = tmp_path / "p.mimdc"
        f.write_text(STANDARD["divergent_loops"]())
        assert main(["compile", str(f), "--emit", "c"]) == 0
        out = capsys.readouterr().out
        assert "int64_t" in out
        assert "#include <stdint.h>" in out
