#!/usr/bin/env python
"""Backend benchmark: every library workload under every SIMD executor.

Writes ``<bench-id>.json`` (``--bench-id``, default ``BENCH_9``) — per
workload x row (the three backends ``native`` / ``kernels`` /
``interp`` on one shard, plus ``native@N`` / ``kernels@N`` at
``--shards N``; the native rows are skipped, with a recorded
``skip_reason``, when no C toolchain is available): simulated cycles,
best wall time, PE utilization, and meta transitions — plus a
``scaling`` section timing
the simulator-scaling workload at MasPar width (16K PEs), a ``lazy``
section: warm lazy-vs-eager steady state on the scaling workload
(gated at <= 10% overhead) and cold/warm rows for the explosion
workloads only ``--lazy`` can run at all, and a ``verifier`` section
timing the incremental frontier verifier
(:func:`repro.verify.frontier.explore`) over the explosion workloads'
lazy engines — the graphs whose full frontier has ~3^24 states —
gated at completing in seconds, not minutes, and an ``absint`` section
timing the abstract-interpretation fixpoint
(:func:`repro.absint.facts.compute_facts`) over every workload
*including* the explosion programs — the facts are polynomial in CFG
blocks, so each row is gated at well under a second no matter how
large the concrete state space is.

Every row asserts ``SimdResult.backend_used`` matches the backend it
claims to measure, so a silent fallback can never mislabel a run. The
one-shard rows pass ``shards=1`` explicitly, so ``REPRO_SHARDS`` cannot
leak into them.

Every gate that is *not* enforced records an explicit ``skip_reason``
(and the host ``cpu_count``), so a passing bench on a 1-CPU host can
never be mistaken for a measured multi-core result.

Exit status is nonzero if

- any backend disagrees on simulated results (bit-identical by
  contract),
- ``kernels`` is less than :data:`KERNELS_VS_INTERP_THRESHOLD` times
  faster than ``interp`` on the scaling workload,
- ``native`` is slower than ``kernels`` on the scaling workload —
  enforced whenever the toolchain is available (the whole point of the
  C emission is beating the NumPy kernels' per-node dispatch),
- ``native`` at ``--shards`` fails the >= 1.5x speedup over serial
  ``native`` on the scaling workload — enforced when native is
  available and the host has >= 4 CPUs (or ``--require-mt-speedup``);
  recorded with a ``skip_reason`` otherwise, or
- ``kernels`` at ``--shards`` (default 4) fails the >= 1.5x speedup
  over serial ``kernels`` on the scaling workload — enforced when the
  host has >= 4 CPUs (or ``--require-mt-speedup``); recorded with a
  ``skip_reason`` otherwise, or
- simulated cycles regressed against the latest prior ``BENCH_*.json``
  (cycles are machine-independent, so they are comparable across
  hosts; wall times are not), or
- warm lazy execution of the scaling workload is more than 10% slower
  than the eager compile of the same source (the steady-state
  contract: once every visited state is materialized, the
  miss-handler is a dictionary probe per meta step), or
- the budgeted frontier exploration of an explosion workload takes
  longer than its wall-time gate, or
- the absint fixpoint blows its per-workload wall gate.

Usage::

    python tools/bench.py [--bench-id BENCH_9] [--out PATH]
                          [--npes 1024] [--reps 3] [--shards 4]
                          [--scaling-npes 16384] [--require-mt-speedup]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ConversionOptions, convert_source  # noqa: E402
from repro.simd import nativert  # noqa: E402
from repro.simd.machine import BACKENDS, SimdMachine  # noqa: E402
from repro.pipeline import simulate_mimd, simulate_simd  # noqa: E402
from repro.workloads import EXPLOSION, STANDARD  # noqa: E402

#: The workload pytest tracks in benchmarks/test_simulator_scaling.py.
SCALING_WORKLOAD = """
main() {
    poly int x; poly int i;
    x = procnum % 7;
    for (i = 0; i < 8; i += 1) {
        if (x % 2) { x = x * 3 + 1; } else { x = x / 2 + i; }
    }
    return (x);
}
"""

MAX_STEPS = 1_000_000
#: The fused kernels' floor over the interpretive oracle on the scaling
#: workload. It stands in for the retired "kernels >= table executor"
#: gate: that executor ran 2.33-2.76x faster than ``interp`` in
#: BENCH_5..9, while ``kernels`` measured 5.9-7.1x.
KERNELS_VS_INTERP_THRESHOLD = 2.5
MT_SPEEDUP_THRESHOLD = 1.5
LAZY_OVERHEAD_THRESHOLD = 1.10
#: Machine width for the explosion rows: per-state expansion is 3^b in
#: the *visited* state's branch-member count, which scales with how
#: divergent the PE population is — 8 PEs keeps every visited state
#: narrow (see docs/internals.md section 14).
EXPLOSION_NPES = 8
#: Newly explored states the verifier row may expand per workload.
VERIFIER_BUDGET = 25_000
#: Wall-time gate per workload for the budgeted exploration: "seconds,
#: not minutes" — the frontier engine must stay usable interactively.
VERIFIER_WALL_LIMIT_S = 60.0
#: State-space cap for the verifier rows, far above the budget so the
#: census guard never truncates the measured exploration.
VERIFIER_MAX_META_STATES = 1_000_000
#: Wall gate per workload for the absint fixpoint: polynomial in
#: blocks, so even the ~3^24-state programs must solve fast.
ABSINT_WALL_LIMIT_S = 1.0


def _bench_one(result, backend: str, npes: int, active: int | None,
               reps: int, shards: int) -> dict:
    prog = result.simd_program()
    machine = SimdMachine(npes=npes, costs=result.options.costs,
                          backend=backend, shards=shards)
    res = machine.run(prog, active=active, max_steps=MAX_STEPS)  # warm
    if res.backend_used != backend:
        raise SystemExit(
            f"backend {backend!r} silently ran as "
            f"{res.backend_used!r} — refusing to mislabel the row")
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        res = machine.run(prog, active=active, max_steps=MAX_STEPS)
        best = min(best, time.perf_counter() - t0)
    return {
        "wall_ms": round(best * 1e3, 3),
        "cycles": res.cycles,
        "utilization": round(res.utilization, 6),
        "meta_transitions": res.meta_transitions,
        "backend_used": res.backend_used,
        "shards": res.shards,
    }


def _rows_here(shards: int) -> list[tuple[str, str, int]]:
    """``(label, backend, shards)`` for every row this host can
    measure: each backend on one shard, plus ``native`` and ``kernels``
    at ``shards``. The native rows drop out (recorded via the gates'
    ``skip_reason``) when no C compiler is available — a skipped row
    beats a mislabeled one."""
    rows = [(be, be, 1) for be in BACKENDS]
    rows += [(f"{be}@{shards}", be, shards) for be in ("native", "kernels")]
    if nativert.native_available():
        return rows
    return [row for row in rows if row[1] != "native"]


def _bench_workload(name: str, source: str, npes: int, reps: int,
                    shards: int) -> dict:
    result = convert_source(source, ConversionOptions())
    result.simd_program().plan()
    result.simd_program().kernels()
    result.simd_program().native()
    active = npes // 2 if "spawn" in source else None
    rows = {label: _bench_one(result, be, npes, active, reps, n)
            for label, be, n in _rows_here(shards)}
    ref = rows["interp"]
    for be, row in rows.items():
        for field in ("cycles", "utilization", "meta_transitions"):
            if row[field] != ref[field]:
                raise SystemExit(
                    f"{name}: row {be} diverges from interp on "
                    f"{field}: {row[field]} != {ref[field]}")
    return rows


def _lazy_run(result, npes: int, active: int | None) -> tuple[float, object]:
    """One timed lazy ``kernels`` run through the miss-handler."""
    mgr = result.lazy_program()
    machine = SimdMachine(npes=npes, costs=result.options.costs,
                          backend="kernels", shards=1)
    t0 = time.perf_counter()
    res = machine.run(mgr.program, active=active, max_steps=MAX_STEPS,
                      plan=mgr.plan, miss_handler=mgr)
    return time.perf_counter() - t0, res


def _bench_lazy(npes: int, reps: int) -> dict:
    """The lazy section: steady-state overhead vs eager on the scaling
    workload, plus cold/warm rows for the explosion workloads."""
    eager = convert_source(SCALING_WORKLOAD,
                           ConversionOptions(lazy=False), cache=None)
    prog = eager.simd_program()
    machine = SimdMachine(npes=npes, costs=eager.options.costs,
                          backend="kernels", shards=1)
    machine.run(prog, max_steps=MAX_STEPS)  # warm
    eager_best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        eager_res = machine.run(prog, max_steps=MAX_STEPS)
        eager_best = min(eager_best, time.perf_counter() - t0)

    lazy = convert_source(SCALING_WORKLOAD,
                          ConversionOptions(lazy=True), cache=None)
    cold_s, _ = _lazy_run(lazy, npes, None)  # materializes + warms
    lazy_best = float("inf")
    for _ in range(reps):
        wall, lazy_res = _lazy_run(lazy, npes, None)
        lazy_best = min(lazy_best, wall)
    overhead = lazy_best / eager_best
    steady = {
        "eager_wall_ms": round(eager_best * 1e3, 3),
        "lazy_warm_wall_ms": round(lazy_best * 1e3, 3),
        "lazy_cold_wall_ms": round(cold_s * 1e3, 3),
        "overhead": round(overhead, 3),
        "threshold": LAZY_OVERHEAD_THRESHOLD,
        "passed": overhead <= LAZY_OVERHEAD_THRESHOLD,
        "eager_cycles": eager_res.cycles,
        "lazy_cycles": lazy_res.cycles,
        "stats": lazy.lazy_program().stats(),
    }

    explosion = {}
    for name, make in sorted(EXPLOSION.items()):
        result = convert_source(make(), ConversionOptions(lazy=True),
                                cache=None)
        cold_s, res = _lazy_run(result, EXPLOSION_NPES, None)
        warm_best = float("inf")
        for _ in range(reps):
            wall, res = _lazy_run(result, EXPLOSION_NPES, None)
            warm_best = min(warm_best, wall)
        mimd = simulate_mimd(result, EXPLOSION_NPES, max_steps=MAX_STEPS)
        if res.returns.tolist() != mimd.returns.tolist():
            raise SystemExit(f"lazy {name} diverges from the MIMD oracle")
        explosion[name] = {
            "cold_wall_ms": round(cold_s * 1e3, 3),
            "warm_wall_ms": round(warm_best * 1e3, 3),
            "cycles": res.cycles,
            "stats": result.lazy_program().stats(),
        }
    return {"steady_state": steady, "explosion": explosion,
            "npes": npes, "explosion_npes": EXPLOSION_NPES}


def _bench_verifier(reps: int) -> dict:
    """The verifier section: budgeted incremental frontier exploration
    over each explosion workload's lazy conversion engine.  Every rep
    starts from a cold engine (exploration mutates it), so the row
    measures real subset-construction driving, not cache hits."""
    from repro.verify.frontier import explore

    rows: dict[str, dict] = {}
    for name, make in sorted(EXPLOSION.items()):
        src = make()
        best = float("inf")
        frontier = None
        for _ in range(reps):
            result = convert_source(
                src,
                ConversionOptions(
                    lazy=True, max_meta_states=VERIFIER_MAX_META_STATES),
                cache=None)
            engine = result._engine
            t0 = time.perf_counter()
            frontier = explore(result.graph, engine=engine,
                               budget=VERIFIER_BUDGET)
            best = min(best, time.perf_counter() - t0)
        assert frontier is not None
        rows[name] = {
            "wall_s": round(best, 3),
            "explored": frontier.explored,
            "discovered": frontier.discovered,
            "states_per_s": round(frontier.explored / best) if best else 0,
            "truncated": frontier.truncated,
            "limit_s": VERIFIER_WALL_LIMIT_S,
            "passed": best <= VERIFIER_WALL_LIMIT_S,
        }
    return {"budget": VERIFIER_BUDGET,
            "max_meta_states": VERIFIER_MAX_META_STATES,
            "rows": rows}


def _bench_absint(reps: int) -> dict:
    """The absint section: interval + must-init fixpoints and fact
    distillation per workload.  The explosion programs are included on
    purpose — their concrete frontiers are ~3^24 states, but the
    fixpoint cost only tracks CFG blocks, so the rows measure the
    polynomial-vs-enumerative claim directly."""
    from repro.absint.facts import compute_facts
    from repro.stages import driver as stage_driver

    sources = {name: make() for name, make in STANDARD.items()}
    sources.update((name, make()) for name, make in EXPLOSION.items())
    rows: dict[str, dict] = {}
    for name, src in sorted(sources.items()):
        ctx = stage_driver.CompileContext(
            source=src, options=ConversionOptions())
        stage_driver._stage_parse(ctx)
        stage_driver._stage_sema(ctx)
        stage_driver._stage_lower(ctx)
        stage_driver._stage_opt_cfg(ctx)
        best = float("inf")
        facts = None
        for _ in range(reps):
            t0 = time.perf_counter()
            facts = compute_facts(ctx.cfg)
            best = min(best, time.perf_counter() - t0)
        assert facts is not None
        certs = facts.certificates
        rows[name] = {
            "wall_ms": round(best * 1e3, 3),
            "blocks": len(ctx.cfg.blocks),
            "solver_iterations": facts.solver_iterations,
            "uniform_branches": len(facts.uniform_branches),
            "divergent_branches": len(facts.divergent_branches),
            "certificates": sum(
                1 for c in (certs.race_free, certs.deadlock_free) if c),
            "passed": best <= ABSINT_WALL_LIMIT_S,
        }
    return {"limit_s": ABSINT_WALL_LIMIT_S, "rows": rows}


def _latest_prior(out: Path, bench_id: str) -> Path | None:
    """The highest-numbered ``BENCH_*.json`` below ``bench_id`` next to
    the output file (the repo root in the Makefile/CI setup)."""
    m = re.fullmatch(r"BENCH_(\d+)", bench_id)
    if m is None:
        return None
    current = int(m.group(1))
    best: tuple[int, Path] | None = None
    for path in out.resolve().parent.glob("BENCH_*.json"):
        pm = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if pm is None:
            continue
        n = int(pm.group(1))
        if n < current and (best is None or n > best[0]):
            best = (n, path)
    return best[1] if best else None


def _check_prior(prior_path: Path, workloads: dict, scaling: dict,
                 npes: int, scaling_npes: int) -> list[str]:
    """Simulated-cycle regressions vs the prior bench (comparable
    across hosts; wall time is not). Returns failure messages."""
    prior = json.loads(prior_path.read_text())
    problems = []
    if prior.get("npes") != npes or prior.get("scaling_npes") != scaling_npes:
        return [f"{prior_path.name}: npes mismatch — cycles not comparable"]
    rows = dict(prior.get("workloads", {}))
    rows["scaling"] = prior.get("scaling", {}).get("rows", {})
    here = dict(workloads)
    here["scaling"] = scaling
    for name, prior_rows in rows.items():
        base = prior_rows.get("interp")
        now = here.get(name, {}).get("interp")
        if base is None or now is None:
            continue
        if now["cycles"] > base["cycles"]:
            problems.append(
                f"{name}: simulated cycles regressed vs "
                f"{prior_path.name}: {now['cycles']} > {base['cycles']}")
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-id", default="BENCH_9",
                    help="id recorded in the payload and used for the "
                         "default output name and the prior-bench scan")
    ap.add_argument("--out", default=None,
                    help="output path (default <bench-id>.json)")
    ap.add_argument("--npes", type=int, default=1024,
                    help="machine width for the workload library "
                         "(odd_even_sort is quadratic in it)")
    ap.add_argument("--scaling-npes", type=int, default=16384,
                    help="machine width for the scaling check")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--shards", type=int, default=4,
                    help="shard count for the sharded kernels and "
                         "native rows")
    ap.add_argument("--require-mt-speedup", action="store_true",
                    help="fail if a sharded row misses the "
                         "scaling-speedup threshold even on a host with "
                         "< 4 CPUs (default: enforced only when >= 4 "
                         "CPUs)")
    args = ap.parse_args(argv)
    out = Path(args.out if args.out else f"{args.bench_id}.json")

    workloads: dict[str, dict] = {}
    for name, make in sorted(STANDARD.items()):
        workloads[name] = _bench_workload(name, make(), args.npes,
                                          args.reps, args.shards)
        rows = workloads[name]
        fastest = min(rows, key=lambda b: rows[b]["wall_ms"])
        print(f"{name:24s} " + "  ".join(
            f"{be}={row['wall_ms']:8.2f}ms" for be, row in rows.items())
            + f"  fastest={fastest}")

    scaling = _bench_workload("scaling", SCALING_WORKLOAD,
                              args.scaling_npes, args.reps, args.shards)
    kern_ms = scaling["kernels"]["wall_ms"]
    kern_mt_ms = scaling[f"kernels@{args.shards}"]["wall_ms"]
    interp_ms = scaling["interp"]["wall_ms"]
    speedup_interp = interp_ms / kern_ms
    speedup_mt = kern_ms / kern_mt_ms
    cpus = os.cpu_count() or 1
    mt_enforced = args.require_mt_speedup or cpus >= 4
    mt_skip_reason = (None if mt_enforced else
                      f"host has {cpus} CPU(s) (< 4); wall-clock "
                      f"sharding speedup is not measurable here")
    print(f"{'scaling':24s} kernels={kern_ms:.2f}ms "
          f"kernels@{args.shards}={kern_mt_ms:.2f}ms "
          f"interp={interp_ms:.2f}ms -> kernels {speedup_interp:.2f}x "
          f"vs interp; sharded kernels {speedup_mt:.2f}x vs serial at "
          f"{args.shards} shards ({args.scaling_npes} PEs, {cpus} CPUs)")

    native_reason = nativert.unavailable_reason()
    if native_reason is None:
        native_ms = scaling["native"]["wall_ms"]
        native_mt_ms = scaling[f"native@{args.shards}"]["wall_ms"]
        speedup_native = kern_ms / native_ms
        speedup_native_mt = native_ms / native_mt_ms
        print(f"{'scaling (native)':24s} native={native_ms:.2f}ms "
              f"native@{args.shards}={native_mt_ms:.2f}ms -> native "
              f"{speedup_native:.2f}x vs kernels; sharded native "
              f"{speedup_native_mt:.2f}x vs serial")
    else:
        native_ms = native_mt_ms = None
        speedup_native = speedup_native_mt = None
        print(f"{'scaling (native)':24s} skipped: {native_reason}")
    native_mt_enforced = native_reason is None and mt_enforced
    native_mt_skip_reason = native_reason or mt_skip_reason

    lazy = _bench_lazy(args.scaling_npes, args.reps)
    steady = lazy["steady_state"]
    print(f"{'lazy':24s} eager={steady['eager_wall_ms']:.2f}ms "
          f"lazy-warm={steady['lazy_warm_wall_ms']:.2f}ms "
          f"({steady['overhead']:.3f}x, threshold "
          f"{LAZY_OVERHEAD_THRESHOLD}x) "
          f"lazy-cold={steady['lazy_cold_wall_ms']:.2f}ms")
    for name, row in lazy["explosion"].items():
        st = row["stats"]
        print(f"{name:24s} [lazy-only] cold={row['cold_wall_ms']:.2f}ms "
              f"warm={row['warm_wall_ms']:.2f}ms "
              f"materialized={st['lazy_materialized']}"
              f"/{st['lazy_discovered']} discovered")

    verifier = _bench_verifier(args.reps)
    for name, row in verifier["rows"].items():
        print(f"{name:24s} [verifier] wall={row['wall_s']:.3f}s "
              f"explored={row['explored']} "
              f"discovered={row['discovered']} "
              f"({row['states_per_s']} states/s, limit "
              f"{VERIFIER_WALL_LIMIT_S:.0f}s)")

    absint = _bench_absint(args.reps)
    for name, row in absint["rows"].items():
        print(f"{name:24s} [absint] wall={row['wall_ms']:.2f}ms "
              f"blocks={row['blocks']} "
              f"iters={row['solver_iterations']} "
              f"uniform={row['uniform_branches']} "
              f"divergent={row['divergent_branches']} "
              f"certs={row['certificates']}")

    prior_path = _latest_prior(out, args.bench_id)
    prior_problems = (
        _check_prior(prior_path, workloads, scaling, args.npes,
                     args.scaling_npes)
        if prior_path is not None else [])

    payload = {
        "bench": args.bench_id,
        "npes": args.npes,
        "scaling_npes": args.scaling_npes,
        "reps": args.reps,
        "shards": args.shards,
        "cpu_count": cpus,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": workloads,
        "lazy": lazy,
        "verifier": verifier,
        "absint": absint,
        "scaling": {
            "rows": scaling,
            "kernels_vs_interp": round(speedup_interp, 3),
            "kernels_mt_vs_kernels": round(speedup_mt, 3),
            "native_vs_kernels": (
                round(speedup_native, 3)
                if speedup_native is not None else None),
            "native_mt_vs_native": (
                round(speedup_native_mt, 3)
                if speedup_native_mt is not None else None),
        },
        "mt_gate": {
            "threshold": MT_SPEEDUP_THRESHOLD,
            "speedup": round(speedup_mt, 3),
            "cpu_count": cpus,
            "enforced": mt_enforced,
            "skip_reason": mt_skip_reason,
            "passed": speedup_mt >= MT_SPEEDUP_THRESHOLD,
        },
        "native_gate": {
            # native must beat the NumPy kernels on the scaling
            # workload whenever the toolchain can build it at all.
            "available": native_reason is None,
            "speedup": (round(speedup_native, 3)
                        if speedup_native is not None else None),
            "enforced": native_reason is None,
            "skip_reason": native_reason,
            "passed": (speedup_native >= 1.0
                       if speedup_native is not None else None),
        },
        "native_mt_gate": {
            "threshold": MT_SPEEDUP_THRESHOLD,
            "speedup": (round(speedup_native_mt, 3)
                        if speedup_native_mt is not None else None),
            "cpu_count": cpus,
            "enforced": native_mt_enforced,
            "skip_reason": (None if native_mt_enforced
                            else native_mt_skip_reason),
            "passed": (speedup_native_mt >= MT_SPEEDUP_THRESHOLD
                       if speedup_native_mt is not None else None),
        },
        "prior": {
            "bench": prior_path.name if prior_path else None,
            "cycles_ok": not prior_problems,
        },
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")

    status = 0
    if speedup_interp < KERNELS_VS_INTERP_THRESHOLD:
        print(f"FAIL: kernels backend only {speedup_interp:.2f}x faster "
              f"than interp on the scaling workload (threshold "
              f"{KERNELS_VS_INTERP_THRESHOLD}x)", file=sys.stderr)
        status = 1
    if speedup_mt < MT_SPEEDUP_THRESHOLD:
        msg = (f"kernels at {args.shards} shards is only "
               f"{speedup_mt:.2f}x vs serial kernels on the scaling "
               f"workload (threshold {MT_SPEEDUP_THRESHOLD}x)")
        if mt_enforced:
            print(f"FAIL: {msg}", file=sys.stderr)
            status = 1
        else:
            print(f"note: {msg}; not enforced on a {cpus}-CPU host")
    if native_reason is None and speedup_native < 1.0:
        print(f"FAIL: native backend slower than the NumPy kernels on "
              f"the scaling workload ({speedup_native:.2f}x)",
              file=sys.stderr)
        status = 1
    if (speedup_native_mt is not None
            and speedup_native_mt < MT_SPEEDUP_THRESHOLD):
        msg = (f"native at {args.shards} shards is only "
               f"{speedup_native_mt:.2f}x vs serial native on the "
               f"scaling workload (threshold {MT_SPEEDUP_THRESHOLD}x)")
        if native_mt_enforced:
            print(f"FAIL: {msg}", file=sys.stderr)
            status = 1
        else:
            print(f"note: {msg}; not enforced on a {cpus}-CPU host")
    for problem in prior_problems:
        print(f"FAIL: {problem}", file=sys.stderr)
        status = 1
    if not steady["passed"]:
        print(f"FAIL: warm lazy execution is {steady['overhead']:.3f}x "
              f"eager on the scaling workload (threshold "
              f"{LAZY_OVERHEAD_THRESHOLD}x)", file=sys.stderr)
        status = 1
    for name, row in verifier["rows"].items():
        if not row["passed"]:
            print(f"FAIL: frontier verifier took {row['wall_s']:.1f}s on "
                  f"{name} (limit {VERIFIER_WALL_LIMIT_S:.0f}s): budgeted "
                  f"exploration must complete in seconds, not minutes",
                  file=sys.stderr)
            status = 1
    for name, row in absint["rows"].items():
        if not row["passed"]:
            print(f"FAIL: absint fixpoint took {row['wall_ms']:.0f}ms on "
                  f"{name} (limit {ABSINT_WALL_LIMIT_S * 1e3:.0f}ms): the "
                  f"facts must stay polynomial in blocks",
                  file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
