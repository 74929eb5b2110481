"""Smoke tests of the benchmark itself (``pytest bench/ -q``).

They run the benchmark in ``--quick`` mode (tiny widths, three requests,
one cold rep) and check its contract: every metric of ``BENCHMARK.json``
is printed with its unit, nothing fails, a wrong reference fails the
run, seeds keep the meta-step count, ``--compare`` judges run sets, and
a directory without the sources is refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT, code: str | None = None):
    cmd = ([sys.executable, "-c", code] if code
           else [sys.executable, "bench/run.py"])
    return subprocess.run([*cmd, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=300)


def results(tmp_path: Path, *args: str) -> dict:
    out = tmp_path / "runs.jsonl"
    proc = run_bench("--quick", "--out", str(out), *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return {rec["workload"]: rec["result"]
            for rec in map(json.loads, out.read_text().splitlines())}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_metric_printed_for_every_workload(tmp_path, trace, section):
    got = results(tmp_path, "--trace", str(trace))
    assert sorted(got) == sorted(w["name"] for w in SPEC["workloads"])
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload, res in got.items():
        assert res["correct"], (workload, res)
        assert res["failed"] == 0 and res["attempted"] >= 1
        units = {k: v["unit"] for k, v in res["metrics"].items()}
        assert units == want, workload
        for k, v in res["metrics"].items():
            assert isinstance(v["value"], (int, float)), (workload, k)
    if section == "end_to_end":
        for res in got.values():
            assert all(v["value"] > 0 for v in res["metrics"].values())


def test_corrupted_reference_fails_the_run():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]\n"
        "import suite, run\n"
        "real = suite.references\n"
        "suite.references = lambda wl: [r + 1 for r in real(wl)]\n"
        "sys.exit(run.main(sys.argv[1:]))\n")
    proc = run_bench("--quick", "--workload", "wide_kernels", code=code)
    assert proc.returncode != 0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] > 0


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_seeds_keep_the_meta_step_count(name, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MSC_CACHE", str(tmp_path))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import suite

    def steps(seed: int) -> int:
        wl = suite.workload(name, seed, quick=True)
        rs = suite.runners(wl, suite.setup(wl, None))
        return suite.meta_steps(suite.request(rs))

    base = steps(0)
    for seed in range(1, 5):
        assert abs(steps(seed) - base) <= 0.1 * base, seed


def write_runs(path: Path, values: dict[str, list[float]]) -> None:
    n = len(next(iter(values.values())))
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            metrics = {m["name"]: {"value": values.get(m["name"],
                                                       [100.0] * n)[i],
                                   "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}
            fh.write(json.dumps({"workload": "w", "seed": i, "trace": 0,
                                 "quick": False,
                                 "result": {"metrics": metrics}}) + "\n")


def test_compare_flags_regressions_and_unresolved(tmp_path):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_runs(a, {"run_ms_p50": steady})
    write_runs(b, {"run_ms_p50": steady})
    same = run_bench("--compare", str(a), str(b))
    assert same.returncode == 0, same.stdout
    assert "regression" not in same.stdout

    write_runs(b, {"run_ms_p50": [v * 1.5 for v in steady]})
    worse = run_bench("--compare", str(a), str(b))
    assert worse.returncode == 1
    assert "run_ms_p50" in worse.stdout and "regression" in worse.stdout

    write_runs(b, {"run_ms_p50": [60.0, 140.0, 100.0, 70.0, 130.0]})
    noisy = run_bench("--compare", str(a), str(b))
    assert noisy.returncode == 0
    assert "unresolved" in noisy.stdout


def test_refused_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sort_native", "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
