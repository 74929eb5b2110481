"""Unit tests for the command-line interface."""

import pytest

from repro.__main__ import main

SRC = """
main() {
    poly int x;
    x = procnum % 3;
    if (x) { do { x = x - 1; } while (x); }
    else   { do { x = x + 2; } while (x - 4); }
    return (x);
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.mimdc"
    path.write_text(SRC)
    return str(path)


class TestCompile:
    def test_summary(self, source_file, capsys):
        # -O1 pinned: the meta-state count depends on the opt level and
        # the suite also runs under REPRO_OPT_LEVEL=0 in CI.
        assert main(["compile", source_file, "-O1"]) == 0
        out = capsys.readouterr().out
        assert "meta states: 8" in out

    def test_emit_mpl(self, source_file, capsys):
        assert main(["compile", source_file, "--emit", "mpl"]) == 0
        assert "globalor(pc)" in capsys.readouterr().out

    def test_emit_graph(self, source_file, capsys):
        assert main(["compile", source_file, "--emit", "graph"]) == 0
        assert "ms_0" in capsys.readouterr().out

    def test_emit_dot(self, source_file, capsys):
        assert main(["compile", source_file, "--emit", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_emit_kernel(self, source_file, capsys):
        # The printed module is built from the per-node sources: it
        # compiles as one module with one function per kernel node.
        from repro import convert_source

        assert main(["compile", source_file, "--emit", "kernel"]) == 0
        namespace: dict = {}
        exec(compile(capsys.readouterr().out, "<emit-kernel>", "exec"),
             namespace)
        kern = convert_source(SRC).simd_program().kernels()
        names = sorted(name for name in namespace
                       if name.startswith("node_"))
        assert len(kern.sources) > 1
        assert names == sorted(name for name, _ in kern.sources.values())
        assert all(callable(namespace[name]) for name in names)

    def test_emit_cfg(self, source_file, capsys):
        assert main(["compile", source_file, "--emit", "cfg"]) == 0
        assert "entry: 0" in capsys.readouterr().out

    def test_emit_cfg_dot(self, source_file, capsys):
        assert main(["compile", source_file, "--emit", "cfg-dot"]) == 0
        assert "digraph mimd" in capsys.readouterr().out

    def test_compress_flag(self, source_file, capsys):
        assert main(["compile", source_file, "--compress", "-O1"]) == 0
        out = capsys.readouterr().out
        assert "meta states: 3" in out

    def test_opt_level_flag(self, source_file, capsys):
        for level in ("0", "1", "2"):
            assert main(["compile", source_file, "-O", level,
                         "--verify-passes"]) == 0
            capsys.readouterr()

    def test_emit_dot_opt(self, source_file, capsys):
        assert main(["compile", source_file, "--emit", "dot-opt"]) == 0
        assert "digraph straightened" in capsys.readouterr().out

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(SRC))
        assert main(["compile", "-"]) == 0


class TestRun:
    def test_run_with_check(self, source_file, capsys):
        assert main(["run", source_file, "--npes", "8", "--check"]) == 0
        out = capsys.readouterr().out
        assert "SIMD == MIMD reference" in out
        assert "cycles:" in out

    def test_run_active(self, source_file, capsys):
        assert main(["run", source_file, "--npes", "8", "--active", "4"]) == 0

    def test_check_accepts_nan_memory(self, tmp_path, capsys):
        # NaN never equals itself, so memory is compared with equal_nan
        # like the returns.
        path = tmp_path / "nan.mimdc"
        path.write_text("main() { poly float g; g = 1e999 - 1e999; "
                        "return (1); }")
        assert main(["run", str(path), "--npes", "4", "--check"]) == 0
        assert "SIMD == MIMD reference" in capsys.readouterr().out


class TestCompare:
    def test_compare(self, source_file, capsys):
        assert main(["compare", source_file, "--npes", "8"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out


BARRIER_SRC = """
main() {
    poly int x;
    x = procnum % 2;
    if (x) { do { x = x - 1; } while (x); }
    wait;
    return (x);
}
"""

IMBALANCED_SRC = """
main() {
    poly int x; poly int y;
    x = procnum % 2;
    y = procnum;
    if (x) { y = y + 1; }
    else   { y = y * 3 + 1; y = y * 3 + 2; y = y * 3 + 3; y = y * 3 + 4;
             y = y * 3 + 5; y = y * 3 + 6; y = y * 3 + 7; y = y * 3 + 8; }
    return (y);
}
"""


def _report(tmp_path, args_list):
    """Run main() with --report-json and return the parsed report."""
    import json

    path = tmp_path / "report.json"
    assert main(args_list + ["--report-json", str(path)]) == 0
    return json.loads(path.read_text())


class TestOptionPlumbing:
    """The flags `_options()` used to silently drop."""

    def test_max_parked_flag(self, tmp_path, capsys):
        path = tmp_path / "barrier.mimdc"
        path.write_text(BARRIER_SRC)
        assert main(["compile", str(path)]) == 0
        capsys.readouterr()
        assert main(["compile", str(path), "--max-parked", "0"]) == 2
        assert "parked" in capsys.readouterr().err

    def test_split_delta_flag(self, tmp_path):
        path = tmp_path / "imb.mimdc"
        path.write_text(IMBALANCED_SRC)
        cold = _report(tmp_path, ["compile", str(path), "--time-split",
                                  "--compress"])
        conv = [s for s in cold["stages"] if s["name"] == "convert"][0]
        assert conv["counters"]["restarts"] >= 1
        huge = _report(tmp_path, ["compile", str(path), "--time-split",
                                  "--compress", "--split-delta", "10000"])
        conv = [s for s in huge["stages"] if s["name"] == "convert"][0]
        assert conv["counters"]["restarts"] == 0

    def test_split_percent_flag(self, tmp_path):
        path = tmp_path / "imb.mimdc"
        path.write_text(IMBALANCED_SRC)
        rep = _report(tmp_path, ["compile", str(path), "--time-split",
                                 "--compress", "--split-percent", "0"])
        conv = [s for s in rep["stages"] if s["name"] == "convert"][0]
        assert conv["counters"]["restarts"] == 0

    def test_interp_backend_flag(self, source_file, capsys):
        assert main(["run", source_file, "--npes", "8", "--check",
                     "--backend", "interp"]) == 0
        out = capsys.readouterr().out
        assert "SIMD == MIMD reference" in out
        assert "backend: interp (shards 1)" in out

    def test_interp_backend_compare(self, source_file, capsys):
        assert main(["compare", source_file, "--npes", "8",
                     "--backend", "interp"]) == 0
        assert "speedup" in capsys.readouterr().out


class TestTimingsAndCache:
    def test_timings_table(self, source_file, capsys):
        assert main(["compile", source_file, "-O1", "--timings"]) == 0
        out = capsys.readouterr().out
        for stage in ("parse", "sema", "lower", "opt-cfg", "convert",
                      "opt-meta", "encode", "plan"):
            assert stage in out
        # Per-pass rows appear indented under their opt stage.
        for pass_name in ("straighten", "prune", "renumber"):
            assert f"  {pass_name}" in out
        assert "total" in out

    def test_report_json(self, source_file, tmp_path):
        rep = _report(tmp_path, ["compile", source_file])
        assert [s["name"] for s in rep["stages"]] == [
            "parse", "sema", "lower", "opt-cfg", "convert", "opt-meta",
            "encode", "plan", "kernels", "native"
        ]
        opt_cfg = [s for s in rep["stages"] if s["name"] == "opt-cfg"][0]
        assert [p["name"] for p in opt_cfg["passes"]]
        assert rep["cache"] == "miss"

    def test_warm_cli_compile_hits_cache(self, source_file, tmp_path):
        cold = _report(tmp_path, ["compile", source_file])
        warm = _report(tmp_path, ["compile", source_file])
        assert cold["cache"] == "miss"
        assert warm["cache"] == "hit"
        assert all(s["cached"] for s in warm["stages"])

    def test_no_cache_flag(self, source_file, tmp_path):
        rep = _report(tmp_path, ["compile", source_file, "--no-cache"])
        assert rep["cache"] == "off"

    def test_cache_dir_flag(self, source_file, tmp_path):
        cdir = tmp_path / "explicit-cache"
        assert main(["compile", source_file, "--cache-dir", str(cdir)]) == 0
        assert list(cdir.rglob("*.pkl"))

    def test_run_warm_hits_cache(self, source_file, tmp_path, capsys):
        assert main(["run", source_file, "--npes", "8"]) == 0
        capsys.readouterr()
        rep = _report(tmp_path, ["run", source_file, "--npes", "8"])
        assert rep["cache"] == "hit"

    def test_cache_subcommand(self, source_file, tmp_path, capsys):
        assert main(["compile", source_file]) == 0
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "dir"]) == 0


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent/x.mimdc"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_source(self, tmp_path, capsys):
        path = tmp_path / "bad.mimdc"
        path.write_text("main() { x = ; }")
        assert main(["compile", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_state_cap(self, tmp_path, capsys):
        path = tmp_path / "prog.mimdc"
        path.write_text(SRC)
        assert main(["compile", str(path), "--max-meta-states", "2"]) == 2
