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

import pickle
import shutil
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.codegen.native import NATIVE_VERSION, NativeProgram, compile_native
from repro.errors import MachineError
from repro.pipeline import ConversionOptions, convert_source
from repro.simd import nativert
from repro.simd.machine import SimdMachine
from repro.workloads import STANDARD

from tests.test_kernels import assert_identical, run_backends

requires_toolchain = pytest.mark.skipif(
    not nativert.native_available(),
    reason=nativert.unavailable_reason() or "")


def run_native(result, npes, backend="native", active=None, shards=None):
    machine = SimdMachine(npes=npes, costs=result.options.costs,
                          backend=backend, shards=shards)
    return machine.run(result.simd_program(), active=active)


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


@requires_toolchain
class TestConcurrentRuns:
    def test_threads_sharing_a_machine_keep_their_executor(
            self, monkeypatch):
        # Each run() resolves its own callables, so a second thread
        # resolving on the same machine cannot swap a running loop's
        # native kernels for another executor under the native label.
        result = convert_source(STANDARD["divergent_loops"]())
        prog = result.simd_program()
        lock = threading.Lock()
        calls: dict = {}
        load_native = nativert.load_native

        def counting_load(nat):
            def counted(fn):
                def call(pc, st):
                    me = threading.get_ident()
                    with lock:
                        calls[me] = calls.get(me, 0) + 1
                    return fn(pc, st)
                return call
            return {key: counted(fn) for key, fn in load_native(nat).items()}

        monkeypatch.setattr(nativert, "load_native", counting_load)
        machine = SimdMachine(npes=2, costs=result.options.costs,
                              backend="native", shards=1)
        runs: list = []

        def worker():
            for _ in range(60):
                res = machine.run(prog)
                with lock:
                    runs.append((threading.get_ident(), res.backend_used,
                                 sum(res.node_visits.values())))

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
        assert {used for _, used, _ in runs} == {"native"}
        # One native call per meta step: no step ran on another executor.
        steps: dict = {}
        for me, _, n in runs:
            steps[me] = steps.get(me, 0) + n
        assert calls == steps


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

    def test_cffi_missing(self, monkeypatch):
        import builtins

        real_import = builtins.__import__

        def fake_import(name, *args, **kwargs):
            if name == "cffi":
                raise ImportError("No module named 'cffi'")
            return real_import(name, *args, **kwargs)

        monkeypatch.delenv("REPRO_NATIVE_DISABLE", raising=False)
        monkeypatch.setattr(builtins, "__import__", fake_import)
        result = convert_source(STANDARD["divergent_loops"]())
        self._expect_fallback(result, "cffi is not importable")

    def test_compile_failure(self, monkeypatch):
        pytest.importorskip("cffi")

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
