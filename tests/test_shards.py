"""Sharded execution (``shards=`` on the ``kernels`` and ``native``
backends) and backend-fallback reporting.

The PE axis shards into contiguous slices executed on a worker pool
(:mod:`repro.simd.shards`); every accounting field of ``SimdResult``
must stay bit-identical to the serial run for any shard count. The
machine's backend downgrades (trace on, missing kernels, foreign cost
model) warn and are recorded on ``SimdResult.backend_used`` — covered
here too.
"""

import warnings
from dataclasses import replace

import pytest

from repro.errors import MachineError
from repro.ir.instr import DEFAULT_COSTS
from repro.pipeline import ConversionOptions, convert_source, simulate_simd
from repro.simd import nativert
from repro.simd import shards as shardsmod
from repro.simd.machine import SimdMachine
from repro.workloads import STANDARD

from tests.test_kernels import assert_identical

#: The backends that honour ``shards=`` and can run on this host.
SHARDED = ("kernels",) + (("native",) if nativert.native_available()
                          else ())

#: The hypothesis-found PR 5 regression: a guarded group that reduces
#: to nothing (constant-false branch) — re-run here multi-threaded.
EMPTY_GROUP_SRC = """
main() {
    poly int a; poly int i0;
    a = procnum;
    for (i0 = 0; i0 < 1; i0 += 1) {
        if (0) { a = 0; }
    }
    return (0);
}
"""


def run(result, backend, npes, shards=None, active=None):
    machine = SimdMachine(npes=npes, costs=result.options.costs,
                          backend=backend, shards=shards)
    return machine.run(result.simd_program(), active=active)


# ----------------------------------------------------------------------
# shard layout
# ----------------------------------------------------------------------
class TestShardLayout:
    def test_bounds_cover_and_balance(self):
        for npes in (1, 7, 8, 33, 16384):
            for nshards in (1, 2, 3, 4, 7, npes):
                bounds = shardsmod.shard_bounds(npes, nshards)
                assert bounds[0][0] == 0 and bounds[-1][1] == npes
                sizes = [hi - lo for lo, hi in bounds]
                assert sum(sizes) == npes
                assert max(sizes) - min(sizes) <= 1
                for (_, a), (b, _) in zip(bounds, bounds[1:]):
                    assert a == b

    def test_resolve_clamps_to_npes(self):
        assert shardsmod.resolve_shard_count(9, npes=8) == 8
        assert shardsmod.resolve_shard_count(4, npes=8) == 4
        assert shardsmod.resolve_shard_count(1, npes=8) == 1

    def test_resolve_rejects_nonpositive(self):
        with pytest.raises(MachineError, match="shards"):
            shardsmod.resolve_shard_count(0, npes=8)
        with pytest.raises(MachineError, match="shards"):
            shardsmod.resolve_shard_count(-2, npes=8)

    def test_default_honors_repro_shards_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert shardsmod.default_shard_count() == 3
        assert shardsmod.resolve_shard_count(None, npes=8) == 3
        monkeypatch.setenv("REPRO_SHARDS", "")  # CI's unset-via-matrix
        assert shardsmod.default_shard_count() == 1
        monkeypatch.delenv("REPRO_SHARDS")
        assert shardsmod.default_shard_count() == 1

    @pytest.mark.parametrize("value", ("abc", "-3", "0", "1.5"))
    def test_invalid_repro_shards_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SHARDS", value)
        with pytest.raises(MachineError, match="REPRO_SHARDS"):
            shardsmod.default_shard_count()
        with pytest.raises(MachineError, match="REPRO_SHARDS"):
            SimdMachine(npes=8)

    def test_tree_or_matches_serial_or(self):
        vals = [1 << i for i in range(11)]
        assert shardsmod.tree_or(vals) == (1 << 11) - 1
        assert shardsmod.tree_or([]) == 0
        assert shardsmod.tree_or([5]) == 5

    def test_pool_collects_worker_errors(self):
        pool = shardsmod.get_pool(3)
        assert pool is shardsmod.get_pool(3)  # persistent, shared

        def boom():
            raise MachineError("shard-local failure")

        with pytest.raises(shardsmod.ShardError) as exc:
            pool.run([lambda: 1, boom, lambda: 3])
        assert isinstance(exc.value.errors[0], MachineError)
        # The pool survives a failed round.
        assert pool.run([lambda: 1, lambda: 2, lambda: 3]) == [1, 2, 3]


class TestInlineThreshold:
    """The small-node sharding regression fix: below a per-shard lane
    threshold the pool handoff costs more than it parallelizes, so the
    machine demotes the run to one shard. The suite's conftest sets
    ``MIN_SHARD_LANES`` to 1; these tests restore the measured value."""

    def test_threshold_one_shards_on_single_cpu(self, monkeypatch):
        monkeypatch.setattr(shardsmod.os, "cpu_count", lambda: 1)
        assert shardsmod.MIN_SHARD_LANES == 1
        assert shardsmod.inline_threshold() == 1

    def test_single_cpu_never_shards(self, monkeypatch):
        monkeypatch.setattr(shardsmod, "MIN_SHARD_LANES", 2048)
        monkeypatch.setattr(shardsmod.os, "cpu_count", lambda: 1)
        assert shardsmod.inline_threshold() > 10 ** 9

    def test_multi_cpu_uses_measured_default(self, monkeypatch):
        monkeypatch.setattr(shardsmod, "MIN_SHARD_LANES", 2048)
        monkeypatch.setattr(shardsmod.os, "cpu_count", lambda: 8)
        assert shardsmod.inline_threshold() == 2048

    def test_small_run_demotes_to_serial_twin(self, monkeypatch):
        # 8 PEs over 4 shards = 2 lanes/shard, far below the threshold:
        # the run must keep its label but execute (and report) serially.
        monkeypatch.setattr(shardsmod, "MIN_SHARD_LANES", 2048)
        monkeypatch.setattr(shardsmod.os, "cpu_count", lambda: 8)
        result = convert_source(STANDARD["divergent_loops"]())
        ref = run(result, "kernels", 8, shards=1)
        res = run(result, "kernels", 8, shards=4)
        assert res.backend_used == "kernels"
        assert res.shards == 1
        assert_identical(res, ref, "inline_demotion")

    def test_large_run_keeps_sharding(self, monkeypatch):
        monkeypatch.setattr(shardsmod, "MIN_SHARD_LANES", 2048)
        monkeypatch.setattr(shardsmod.os, "cpu_count", lambda: 8)
        result = convert_source(STANDARD["divergent_loops"]())
        res = run(result, "kernels", 16384, shards=4)
        assert res.shards == 4
        ref = run(result, "kernels", 16384, shards=1)
        assert_identical(res, ref, "above_threshold")


# ----------------------------------------------------------------------
# bit-identical results
# ----------------------------------------------------------------------
class TestShardedDifferential:
    @pytest.mark.parametrize("name", sorted(STANDARD))
    @pytest.mark.parametrize("compress", (False, True))
    def test_workload_bit_identical(self, name, compress):
        src = STANDARD[name]()
        result = convert_source(src, ConversionOptions(compress=compress))
        npes = 33
        active = npes // 2 if "spawn" in src else None
        ref = run(result, "kernels", npes, shards=1, active=active)
        for backend in SHARDED:
            res = run(result, backend, npes, shards=4, active=active)
            assert_identical(res, ref, (name, compress, backend))
            assert res.backend_used == backend
            assert res.shards == 4

    @pytest.mark.parametrize("shards", (1, 8, 9, 5))
    def test_shard_count_edges(self, shards):
        # 1 (the serial path), npes, npes + 1 (clamped), prime.
        result = convert_source(STANDARD["divergent_loops"]())
        npes = 8
        ref = run(result, "interp", npes)
        res = run(result, "kernels", npes, shards=shards)
        assert_identical(res, ref, ("edge", shards))
        assert res.backend_used == "kernels"
        assert res.shards == min(shards, npes)

    def test_prime_shards_at_maspar_width(self):
        # 16K PEs over a prime shard count: ragged bounds, real slices.
        result = convert_source(STANDARD["divergent_loops"]())
        ref = run(result, "kernels", 16384, shards=1)
        res = run(result, "kernels", 16384, shards=7)
        assert_identical(res, ref, "16k_prime")
        assert res.shards == 7

    def test_empty_group_node_sharded(self):
        # Empty-group meta nodes (the PR 5 hypothesis regression),
        # multi-threaded: a kernel whose guarded suite is only `pass`.
        result = convert_source(EMPTY_GROUP_SRC)
        assert result.simd_program().kernels() is not None
        ref = run(result, "interp", 8)
        for backend in SHARDED:
            res = run(result, backend, 8, shards=4)
            assert_identical(res, ref, ("empty_group", backend))

    def test_error_identical_across_shard_boundaries(self):
        # The failing PE (procnum == 5) sits mid-axis, so with 4 shards
        # the error originates inside a worker; the machine must replay
        # serially and surface exactly the serial backend's error.
        src = """
        main() {
            poly int x;
            x = procnum - 5;
            x = 10 / x;
            return (x);
        }
        """
        result = convert_source(src)
        with pytest.raises(MachineError) as serial:
            run(result, "kernels", 16, shards=1)
        for backend in SHARDED:
            with pytest.raises(MachineError) as sharded:
                run(result, backend, 16, shards=4)
            assert str(sharded.value) == str(serial.value), backend

    def test_max_steps_error_matches_serial(self):
        result = convert_source(STANDARD["divergent_loops"]())
        machine = SimdMachine(npes=8, costs=result.options.costs,
                              backend="kernels", shards=4)
        with pytest.raises(MachineError, match="exceeded 3 meta steps"):
            machine.run(result.simd_program(), max_steps=3)

    def test_simulate_simd_shards_passthrough(self):
        result = convert_source(STANDARD["mandelbrot"]())
        ref = simulate_simd(result, npes=12, backend="kernels", shards=1)
        res = simulate_simd(result, npes=12, backend="kernels", shards=3)
        assert_identical(res, ref, "pipeline_sharded")
        assert res.backend_used == "kernels" and res.shards == 3


# ----------------------------------------------------------------------
# fallback reporting (the PR 6 bugfix)
# ----------------------------------------------------------------------
class TestBackendFallbacks:
    def test_trace_fallback_warns_and_is_recorded(self):
        result = convert_source(STANDARD["divergent_loops"]())
        machine = SimdMachine(npes=8, costs=result.options.costs,
                              backend="kernels", trace=True)
        with pytest.warns(RuntimeWarning, match="no per-PE trace"):
            res = machine.run(result.simd_program())
        assert res.backend_used == "interp"
        assert res.trace is not None

    @pytest.mark.parametrize("backend", ("kernels", "native"))
    def test_sharded_trace_falls_back_to_interp(self, backend):
        result = convert_source(STANDARD["divergent_loops"]())
        machine = SimdMachine(npes=8, costs=result.options.costs,
                              backend=backend, shards=4, trace=True)
        with pytest.warns(RuntimeWarning,
                          match="no per-PE trace; running 'interp'"):
            res = machine.run(result.simd_program())
        assert res.backend_used == "interp"
        assert res.shards == 1
        oracle = SimdMachine(npes=8, costs=result.options.costs,
                             backend="interp", trace=True) \
            .run(result.simd_program())
        assert res.trace == oracle.trace

    @pytest.mark.parametrize("backend,fallback",
                             (("kernels", "interp"),
                              ("native", "interp")))
    def test_foreign_cost_model_warns(self, backend, fallback):
        result = convert_source(STANDARD["divergent_loops"]())
        costs = replace(DEFAULT_COSTS,
                        globalor_cost=DEFAULT_COSTS.globalor_cost + 3)
        for shards in (1, 4):
            machine = SimdMachine(npes=8, costs=costs, backend=backend,
                                  shards=shards)
            # native warns first (foreign costs, or no toolchain here),
            # then kernels refuses the foreign cost model.
            with pytest.warns(RuntimeWarning) as caught:
                res = machine.run(result.simd_program())
            assert "cost model" in str(caught[-1].message)
            assert str(caught[-1].message).endswith(
                f"running {fallback!r} instead")
            assert res.backend_used == fallback
            assert res.shards == 1

    def test_serial_backends_report_themselves(self):
        result = convert_source(STANDARD["divergent_loops"]())
        for backend in ("kernels", "interp"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = run(result, backend, 8, shards=1)
            assert res.backend_used == backend
            assert res.shards == 1

    def test_shards_ignored_on_serial_backend_warns(self):
        result = convert_source(STANDARD["divergent_loops"]())
        with pytest.warns(RuntimeWarning, match="no effect"):
            res = run(result, "interp", 8, shards=4)
        assert res.backend_used == "interp"
        assert res.shards == 1

    def test_repro_shards_env_drives_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        result = convert_source(STANDARD["divergent_loops"]())
        res = run(result, "kernels", 8)
        assert res.shards == 4
        ref = run(result, "kernels", 8, shards=1)
        assert_identical(res, ref, "env_shards")
        # Not an explicit request: interp runs one shard without a
        # warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(result, "interp", 8).shards == 1
        monkeypatch.delenv("REPRO_SHARDS")
        assert run(result, "kernels", 8).shards == 1

    @pytest.mark.parametrize("name",
                             ("kernels-mt", "native-mt", "plan-mt", "plan"))
    def test_retired_mt_names_rejected(self, name):
        with pytest.raises(MachineError, match="unknown backend") as exc:
            SimdMachine(npes=4, backend=name)
        assert str(exc.value).endswith("native, kernels, interp")


class TestResultFields:
    def test_plan_shardable_stats(self):
        plan = convert_source(STANDARD["divergent_loops"]()) \
            .simd_program().plan()
        stats = plan.stats()
        assert stats["plan_shardable_nodes"] == stats["plan_nodes"]
        # Router traffic (odd_even_sort swaps via StR) pins nodes.
        plan = convert_source(STANDARD["odd_even_sort"]()) \
            .simd_program().plan()
        stats = plan.stats()
        assert 0 < stats["plan_shardable_nodes"] < stats["plan_nodes"]

    def test_spawn_nodes_not_shardable(self):
        plan = convert_source(STANDARD["spawn_waves"]()) \
            .simd_program().plan()
        assert plan.stats()["plan_shardable_nodes"] < \
            plan.stats()["plan_nodes"]


class TestCli:
    def test_run_mt_backend(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "prog.mimdc"
        path.write_text(STANDARD["divergent_loops"]())
        assert main(["run", str(path), "--npes", "8",
                     "--backend", "kernels", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "backend: kernels (shards 2)" in out

    def test_retired_plan_backend_is_a_usage_error(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "prog.mimdc"
        path.write_text(STANDARD["divergent_loops"]())
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path), "--backend", "plan"])
        assert exc.value.code == 2
        assert "invalid choice: 'plan'" in capsys.readouterr().err
