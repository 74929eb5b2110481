#!/usr/bin/env python3
"""End-to-end benchmark: MIMDC source to ``SimdResult``, cold and warm.

Usage::

    python bench/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--quick] [--out FILE]
    python bench/run.py --compare A.jsonl B.jsonl

Without ``--workload`` every workload runs in turn. Each prints a
summary and, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An untraced run reports the end-to-end metrics of ``BENCHMARK.json``.
It runs in seven rounds; each metric is a median over them:

- ``setup_s``, ``first_run_ms``, ``peak_rss_mb``: one cold rep per
  round, a fresh process with an empty compile cache that compiles
  every program (plus the ``.so`` build on the native workload) and
  runs one request;
- ``warm_setup_ms``: one fresh process per round that reuses the cold
  rep's cache (cache hits plus ``dlopen``);
- ``run_ms_p50``: median time of warm requests in this process, a
  seventh of ``--seconds`` per round (after three warm-up requests
  before the first). A request is one pass over the workload's
  programs; load is a closed loop from one client, on serial backends
  only. The summary also prints the p90 and the sample counts;
- ``sim_cycles``: simulated control-unit cycles over the programs.

Timings are in reference-host milliseconds (``bench/speed.py``): each
wall time is scaled by the time of a fixed unit of the benchmark's own
work run on either side of it (around each request, and around each
program's setup and first run in the child processes), so that the
shared host's changes of speed cancel. The summary prints the raw wall
times beside them.

Every request and rep is checked: it fails if it raises, if the machine
fell back to another backend, or if its outputs differ from the
workload's reference. Simulated cycles and meta steps are also checked
once against the ``interp`` backend. Any failure makes the exit status
nonzero.

``--trace`` is a separate run that wraps each layer's entry points (see
``bench/spans.py``), prints a per-layer self-time table and reports the
per-layer metrics of ``BENCHMARK.json``; its spans are written to
``.bench_out/``. ``--out FILE`` appends each workload's result to a
JSON-lines file; ``--compare`` applies ``BENCHMARK.json``'s bounds to
two such files and exits nonzero on a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_out"

#: Environment switches that would change what is measured; the
#: benchmark pins every option explicitly instead.
SCRUBBED_ENV = ("REPRO_OPT_LEVEL", "REPRO_LAZY", "REPRO_SHARDS",
                "REPRO_NATIVE_DISABLE", "REPRO_MT_MIN_LANES")

#: Rounds of an untraced run: one cold rep each, plus WARM_REPS warm
#: reps and a share of the timed requests.
ROUNDS = 7
WARM_REPS = 1
WARMUP_REQUESTS = 3
QUICK_REQUESTS = 3
CHILD_TIMEOUT_S = 150

#: StageReport stage -> per-layer metric. The optional ``analyze``
#: stages run on one workload only, so they appear in the trace table
#: but not as metrics (a time that reads zero everywhere else).
STAGE_METRICS = {
    "parse": "lang.parse_ms",
    "sema": "lang.sema_ms",
    "lower": "ir.lower_ms",
    "opt-cfg": "opt.cfg_ms",
    "convert": "core.convert_ms",
    "opt-meta": "opt.meta_ms",
    "encode": "codegen.encode_ms",
    "plan": "codegen.plan_ms",
    "kernels": "codegen.kernels_ms",
    "native": "codegen.native_ms",
}

suite = None  # bench/suite.py, imported by load_suite()
speed = None  # bench/speed.py, likewise


def require_sources() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"bench: {ROOT / 'src' / 'repro'} is missing; run "
                         f"the benchmark from a checkout of the repository")


def load_suite() -> float:
    """Import the benchmark's workloads and, through them, ``repro``
    from the checkout's ``src/``; returns the import time in ms."""
    global suite, speed
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    t0 = time.perf_counter()
    import suite as loaded

    import_ms = (time.perf_counter() - t0) * 1e3
    import speed as probe

    suite, speed = loaded, probe
    return import_ms


def prepare_env() -> None:
    """Scrub option overrides and keep every file the run writes
    (compile caches, shared libraries, compiler temporaries) inside the
    checkout."""
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None


def use_cache(path: Path) -> None:
    """Point the compile cache (and the ``.so`` cache beneath it) at
    ``path``; ``convert_source(cache=True)`` then reads and writes
    there."""
    os.environ["REPRO_MSC_CACHE"] = str(path)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def require_toolchain(wl) -> None:
    """A native workload without cffi or a C compiler fails loudly
    instead of silently measuring the fallback."""
    if wl.native:
        from repro.simd import nativert

        reason = nativert.unavailable_reason()
        if reason is not None:
            raise SystemExit(f"bench: {wl.name} needs the native backend: "
                             f"{reason}")


def dir_kb(path: Path, pattern: str) -> float:
    return sum(p.stat().st_size for p in path.rglob(pattern)) / 1024


# ----------------------------------------------------------------------
# cold and warm reps (child processes)
# ----------------------------------------------------------------------
def child_main(args) -> int:
    """One fresh process: ``cold`` compiles into an empty cache and runs
    the first request; ``warm`` sets up again from that cache. Each
    program's setup and first run is timed on a ``speed.Clock``; the
    timings are reported in reference-host units under ``ref`` and as
    wall times under ``raw``, with the median probe as ``unit_s``."""
    load_suite()
    wl = suite.workload(args.workload, args.seed, args.quick)
    clock = speed.Clock(wl.speed)
    results = suite.setup(wl, True, clock.time)
    setup = clock.lap()
    out = {"cache": [r.report.cache for r in results]}
    if args.child == "warm":
        laps = {"warm_setup_ms": [t * 1e3 for t in setup]}
    else:
        rs = suite.runners(wl, results)
        outs = suite.request(rs, clock.time)
        laps = {"setup_s": setup,
                "first_run_ms": [t * 1e3 for t in clock.lap()]}
        out.update(
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            backends=[res.backend_used for res in outs],
            digests=[suite.digest(res.returns) for res in outs],
            cycles=[res.cycles for res in outs],
        )
        if wl.options.lazy:
            # Like `repro run --lazy`: fold the states this run
            # discovered back into the cache for the next process.
            from repro.stages.driver import store_lazy_progress

            for r in results:
                store_lazy_progress(True, r)
    out["ref"] = {k: v[0] for k, v in laps.items()}
    out["raw"] = {k: v[1] for k, v in laps.items()}
    out["unit_s"] = median(clock.units)
    print(json.dumps(out))
    return 0


def spawn(mode: str, args, name: str, cache: Path) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--child", mode,
           "--workload", name, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ, REPRO_MSC_CACHE=str(cache))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} rep timed out after {CHILD_TIMEOUT_S}s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"{mode} rep exited {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_problem(rep: dict, wl, ref_digests: list[str],
                 cycles: list[int]) -> str | None:
    if "error" in rep:
        return rep["error"]
    if any(c != "miss" for c in rep["cache"]):
        return f"cold rep found a warm cache: {rep['cache']}"
    for prog, backend, dig, ref, cyc, want in zip(
            wl.programs, rep["backends"], rep["digests"], ref_digests,
            rep["cycles"], cycles):
        if backend != wl.backend:
            return f"{prog.name}: cold rep ran on {backend!r}"
        if dig != ref:
            return f"{prog.name}: cold rep returns differ from the reference"
        if cyc != want:
            return f"{prog.name}: cold rep took {cyc} cycles, not {want}"
    return None


def warm_problem(rep: dict) -> str | None:
    if "error" in rep:
        return rep["error"]
    if any(c != "hit" for c in rep["cache"]):
        return f"warm rep missed the cache: {rep['cache']}"
    return None


# ----------------------------------------------------------------------
# one workload, untraced
# ----------------------------------------------------------------------
class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)
        return problem is None

    def request(self, wl, rs, refs, timed):
        """One request, checked against ``refs`` outside ``timed`` (a
        wrapper returning ``(outputs, wall time)``). Returns
        ``(outputs, wall, passed)``, or ``None`` when it raised."""
        try:
            outs, wall = timed(lambda: suite.request(rs))
        except Exception:
            self.record(traceback.format_exc().strip().splitlines()[-1])
            return None
        return outs, wall, self.record(suite.check(wl, outs, refs))


def timed_s(fn):
    t0 = time.perf_counter()
    outs = fn()
    return outs, time.perf_counter() - t0


def timed_on(clock):
    """A timer for :meth:`Tally.request` that returns a request's wall
    time as ``(reference-host seconds, raw seconds)``, one piece of
    ``clock`` (``bench/speed.py``) per request."""
    def timed(fn):
        outs = clock.time(fn)
        return outs, clock.lap()
    return timed


def until(args, deadline: float, attempts: int) -> bool:
    """Whether to send another timed request: for ``--seconds`` after
    the warm-up, or a fixed few with ``--quick``."""
    if args.quick:
        return attempts < QUICK_REQUESTS
    return time.perf_counter() < deadline


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10)[-1]


def measure(name: str, args) -> tuple[dict, list[str]]:
    """The untraced run, in rounds. Each round is one cold rep, its warm
    reps, and ``--seconds / ROUNDS`` of warm requests in this process;
    every metric is the median over rounds, so a burst of load on the
    host that spoils one or two rounds does not move it."""
    wl = suite.workload(name, args.seed, args.quick)
    require_toolchain(wl)
    refs = suite.references(wl)
    ref_digests = [suite.digest(r) for r in refs]
    tally = Tally()
    rounds = 1 if args.quick else ROUNDS
    cold, warm, per_round = [], [], []
    for k in range(rounds):
        cache = fresh_dir(WORK / f"{name}-rep{k}")
        reps = [spawn("cold", args, name, cache)]
        reps += [spawn("warm", args, name, cache)
                 for _ in range(1 if args.quick else WARM_REPS)]
        if k == 0:
            # The warm requests run in this process, on a program set
            # up from the first cold rep's cache.
            use_cache(cache)
            results = suite.setup(wl, True)
            rs = suite.runners(wl, results)
            last = None
            for _ in range(WARMUP_REQUESTS):
                got = tally.request(wl, rs, refs, timed_s)
                last = got[0] if got else last
            if last is None:
                raise SystemExit(f"bench: {name}: every warm-up request "
                                 f"raised: {tally.problems}")
            cycles = [res.cycles for res in last]
            steps = suite.meta_steps(last)
            tally.record(suite.interp_problem(wl, results, last))
        else:
            # Re-warm after the child processes, untimed.
            tally.request(wl, rs, refs, timed_s)
        shutil.rmtree(cache, ignore_errors=True)
        if tally.record(cold_problem(reps[0], wl, ref_digests, cycles)):
            cold.append(reps[0])
        warm += [w for w in reps[1:] if tally.record(warm_problem(w))]

        samples = []
        timed = timed_on(speed.Clock(wl.speed, n=1))
        deadline = time.perf_counter() + args.seconds / rounds
        attempts = 0
        while until(args, deadline, attempts):
            attempts += 1
            got = tally.request(wl, rs, refs, timed)
            if got and got[2]:
                samples.append(got[1])
        if samples:
            per_round.append(samples)

    # Timings in reference-host milliseconds (bench/speed.py); the raw
    # wall times are printed beside them.
    metrics = {"sim_cycles": (sum(cycles), "cycles")}
    raw = {}
    if per_round:
        metrics["run_ms_p50"] = (median(median(s[0] for s in r)
                                        for r in per_round) * 1e3, "ms")
        raw["run_ms_p50"] = median(median(s[1] for s in r)
                                   for r in per_round) * 1e3
    for reps, key in ((cold, "setup_s"), (cold, "first_run_ms"),
                      (warm, "warm_setup_ms")):
        if reps:
            metrics[key] = (median(c["ref"][key] for c in reps),
                            key.rpartition("_")[2])
            raw[key] = median(c["raw"][key] for c in reps)
    if cold:
        metrics["peak_rss_mb"] = (median(c["peak_rss_mb"] for c in cold),
                                  "MB")
    units = [c["unit_s"] * 1e3 for c in cold + warm]
    pooled = [t for s in per_round for t in s]
    lines = [
        f"{name} seed={args.seed}: {len(wl.programs)} program(s), "
        f"{wl.programs[0].npes} PEs, backend {wl.backend}, "
        f"meta steps {steps}",
        f"  samples: {len(cold)} cold rep(s), {len(warm)} warm rep(s), "
        f"{len(pooled)} timed requests in {len(per_round)} round(s) "
        f"({', '.join(str(len(s)) for s in per_round)})",
        f"  {'metric':<14} {'reference':>12} {'raw':>12}",
    ]
    lines += [f"  {k:<14} {v:>12.4f} "
              f"{format(raw[k], '12.4f') if k in raw else '':>12} {u}"
              for k, (v, u) in metrics.items()]
    if units:
        lines.append(f"  host-speed unit ({wl.speed}): median "
                     f"{median(units):.4f} ms in the child processes "
                     f"(reference {speed.KINDS[wl.speed][1]} ms)")
    if pooled:
        # The tail is reported, not bounded: on a shared host it tracks
        # the host's scheduler more than the program.
        ref_ms = [s[0] * 1e3 for s in pooled]
        raw_ms = [s[1] * 1e3 for s in pooled]
        lines.append(f"  all {len(pooled)} requests: p50 "
                     f"{median(ref_ms):.4f} ms, p90 {p90(ref_ms):.4f} ms "
                     f"(raw p50 {median(raw_ms):.4f} ms, p90 "
                     f"{p90(raw_ms):.4f} ms)")
    lines += [f"  FAILED: {p}" for p in tally.problems]
    return result(tally, metrics), lines


def result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


# ----------------------------------------------------------------------
# one workload, traced
# ----------------------------------------------------------------------
def traced(name: str, args, import_ms: float) -> tuple[dict, list[str]]:
    from spans import COLD_SETUP, WARM_SETUP, Tracer, layer_table

    wl = suite.workload(name, args.seed, args.quick)
    require_toolchain(wl)
    refs = suite.references(wl)
    tally = Tally()
    cache = fresh_dir(WORK / f"{name}-trace")
    use_cache(cache)

    units = speed.probe(wl.speed)
    tracer = Tracer()
    tracer.install()
    results = suite.setup(wl, True)
    bundle_kb = dir_kb(cache, "*.pkl")
    so_kb = dir_kb(cache, "*.so")
    tracer.request_id = WARM_SETUP
    warm_results = suite.setup(wl, True)
    rs = suite.runners(wl, results)
    request_id = tracer.name_id("request")

    def one(i: int, on: bool):
        """Request ``i``, with the wrappers installed or removed."""
        if on:
            tracer.install()
        else:
            tracer.uninstall()
        tracer.request_id = i

        def timed_ns(fn):
            t0 = time.perf_counter_ns()
            idx = tracer.begin(request_id) if on else None
            try:
                outs = fn()
            finally:
                if on:
                    tracer.finish(idx)
            return outs, time.perf_counter_ns() - t0

        return tally.request(wl, rs, refs, timed_ns)

    first = one(0, True)
    lazy_stats = [r.lazy.stats() for r in rs if r.lazy is not None]
    for i in range(1, WARMUP_REQUESTS):
        one(i, True)
    walls = {True: [], False: []}
    outs = first[0] if first else None
    traced_ids = []
    i = WARMUP_REQUESTS
    deadline = time.perf_counter() + args.seconds
    while until(args, deadline, (i - WARMUP_REQUESTS) // 2):
        for mode in (True, False):
            got = one(i, mode)
            if got is not None:
                outs = got[0]
                walls[mode].append(got[1])
                if mode:
                    traced_ids.append(i)
            i += 1
    tracer.uninstall()
    units += speed.probe(wl.speed)
    tracer.write(WORK / f"spans-{name}.json")
    shutil.rmtree(cache, ignore_errors=True)
    if outs is None or not walls[True] or not walls[False]:
        raise SystemExit(f"bench: {name}: traced requests failed: "
                         f"{tally.problems}")

    n = len(traced_ids)
    warm = tracer.layers(traced_ids)
    first_layers = tracer.layers([0])
    setup_layers = tracer.layers([COLD_SETUP])

    def per_req(span: str, key: str = "incl_ms") -> float:
        return warm.get(span, {}).get(key, 0) / n

    steps = sum(sum(res.node_visits.values()) for res in outs)
    node_calls = {s: per_req(s, "calls")
                  for s in ("kernels.node", "nativert.node")}
    cycles = sum(res.cycles for res in outs)
    stage_ms: dict[str, float] = {}
    counters: dict[str, float] = {}
    for r in results:
        for rec in r.report.records:
            stage_ms[rec.name] = stage_ms.get(rec.name, 0) + rec.seconds * 1e3
            for k, v in rec.counters.items():
                counters[f"{rec.name}.{k}"] = (
                    counters.get(f"{rec.name}.{k}", 0) + v)
    discovered = sum(s["lazy_discovered"] for s in lazy_stats)
    materialized = sum(s["lazy_materialized"] for s in lazy_stats)
    metrics = {STAGE_METRICS[s]: (ms, "ms") for s, ms in stage_ms.items()
               if s in STAGE_METRICS}
    metrics.update({
        "core.meta_states": (counters.get("convert.meta_states", 0),
                             "count"),
        "codegen.nodes": (counters.get("encode.nodes", 0), "count"),
        "codegen.kernel_src_kb": (
            counters.get("kernels.kernel_bytes", 0) / 1024, "kB"),
        "codegen.native_src_kb": (
            counters.get("native.native_bytes", 0) / 1024, "kB"),
        "stages.cache_load_ms": (
            sum(r.report.load_seconds for r in warm_results) * 1e3, "ms"),
        "stages.cache_store_ms": (
            sum(r.report.store_seconds for r in results) * 1e3, "ms"),
        "stages.bundle_kb": (bundle_kb, "kB"),
        "nativert.so_kb": (so_kb, "kB"),
        "nativert.node_calls": (node_calls["nativert.node"], "count"),
        "kernels.node_calls": (node_calls["kernels.node"], "count"),
        "machine.run_ms": (per_req("machine.run"), "ms"),
        "machine.loop_self_ms": (per_req("machine.run", "self_ms"), "ms"),
        "machine.node_ms": (per_req("kernels.node")
                            + per_req("nativert.node"), "ms"),
        "machine.us_per_step": (per_req("machine.run") * 1e3 / steps, "us"),
        "machine.steps": (steps, "count"),
        "machine.plan_steps": (steps - sum(node_calls.values()), "count"),
        "machine.top_node_share": (tracer.top_node_share(traced_ids),
                                   "ratio"),
        "lazy.fetch_calls": (per_req("lazy.fetch", "calls"), "count"),
        "lazy.materialized": (materialized, "count"),
        "lazy.discovered": (discovered, "count"),
        "lazy.useful_ratio": (materialized / discovered if discovered
                              else 0.0, "ratio"),
        "sim.meta_transitions": (sum(res.meta_transitions for res in outs),
                                 "count"),
        "sim.transition_share": (
            sum(res.transition_cycles for res in outs) / cycles, "ratio"),
        "sim.utilization": (
            sum(res.enabled_pe_cycles for res in outs)
            / sum(res.npes * res.cycles for res in outs), "ratio"),
        "process.import_ms": (import_ms, "ms"),
        "host.unit_ms": (median(units) * 1e3, "ms"),
        "trace.overhead": (median(walls[True]) / median(walls[False]),
                           "ratio"),
    })

    self_sum = sum(v["self_ms"] for v in warm.values())
    wall_ms = sum(walls[True]) / 1e6
    lines = [f"{name} seed={args.seed} (traced): {n} traced and "
             f"{len(walls[False])} untraced requests, alternating"]
    lines += layer_table("cold setup", setup_layers, None)
    lines += [f"    {'stage ' + s:<44} {ms:>10.3f} ms"
              for s, ms in stage_ms.items()]
    lines += layer_table("first request", first_layers, None)
    lines += layer_table(f"warm request (mean of {n})",
                         {k: {kk: vv / n for kk, vv in v.items()}
                          for k, v in warm.items()}, wall_ms / n)
    lines.append(f"  layer self times sum to {self_sum / wall_ms:.4f} of "
                 f"the traced request wall time; trace.overhead "
                 f"{metrics['trace.overhead'][0]:.4f}; host-speed unit "
                 f"{metrics['host.unit_ms'][0]:.4f} ms (reference "
                 f"{speed.KINDS[wl.speed][1]} ms)")
    lines += [f"  FAILED: {p}" for p in tally.problems]
    return result(tally, metrics), lines


# ----------------------------------------------------------------------
# BENCHMARK.json and --compare
# ----------------------------------------------------------------------
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_runs(path: str) -> dict:
    """``workload -> metric -> [values]`` over the untraced runs of a
    JSON-lines file written by ``--out``."""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            per = runs.setdefault(rec["workload"], {})
            for k, v in rec["result"]["metrics"].items():
                per.setdefault(k, []).append(v["value"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> int:
    """Judge run set B against run set A: per workload and end-to-end
    metric, ``regression`` when B's median is worse than A's by more
    than the bound, ``unresolved`` when either side's spread (IQR over
    median) exceeds the bound, else ``unchanged`` or ``better``."""
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    a, b = load_runs(path_a), load_runs(path_b)
    regressions = 0
    print(f"{'workload':<16} {'metric':<14} {'A q1/med/q3':>30} "
          f"{'B q1/med/q3':>30} {'change':>8}  verdict")
    for wl in sorted(set(a) | set(b)):
        for name, m in bounds.items():
            va, vb = a.get(wl, {}).get(name), b.get(wl, {}).get(name)
            if not va or not vb:
                print(f"{wl:<16} {name:<14} missing on "
                      f"{'A' if not va else 'B'}")
                regressions += 1
                continue
            qa, qb = quartiles(va), quartiles(vb)
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (qb[1] - qa[1]) / qa[1]
            spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
            b_wins = (max(vb) < min(va) if sign > 0 else min(vb) > max(va))
            if change > m["bound"]:
                verdict = "regression"
                regressions += 1
            elif spread > m["bound"] and not b_wins:
                verdict = "unresolved"
            elif change < -spread and b_wins:
                verdict = "better"
            else:
                verdict = "unchanged"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{wl:<16} {name:<14} {fmt.format(*qa):>30} "
                  f"{fmt.format(*qb):>30} {change:>+8.2%}  {verdict}")
    return 1 if regressions else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default=None,
                    help="one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=0,
                    help="picks the programs' data constants")
    ap.add_argument("--seconds", type=float, default=None,
                    help="how long warm requests are measured (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="the traced per-layer run")
    ap.add_argument("--quick", action="store_true",
                    help="tiny widths, one round of 3 requests")
    ap.add_argument("--out", default=None,
                    help="append each workload's result to this "
                         "JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="judge the runs in B against those in A")
    ap.add_argument("--child", choices=("cold", "warm"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    require_sources()
    prepare_env()
    if args.child:
        return child_main(args)
    import_ms = load_suite()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    names = [args.workload] if args.workload else suite.WORKLOAD_NAMES
    if args.workload is not None:
        suite.workload(args.workload)  # reject an unknown name up front
    status = 0
    for name in names:
        if args.trace:
            res, lines = traced(name, args, import_ms)
        else:
            res, lines = measure(name, args)
        print("\n".join(lines))
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": name, "seed": args.seed,
                                     "trace": args.trace,
                                     "quick": args.quick,
                                     "result": res}) + "\n")
        print(json.dumps(res), flush=True)
        if not res["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
