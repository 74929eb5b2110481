#!/usr/bin/env python
"""Paired benchmark runs: a base commit against the working tree.

Each pair runs ``bench/run.py`` once on each side with the same seed:
the base side in a ``git archive`` export of ``--base`` to a temporary
directory outside the checkout, the change side in this checkout. Pair
``i`` uses seed ``--first-seed + i``, and the side that runs first
alternates from pair to pair, so a drift in host speed falls on both
sides alike. Each side appends its results (``bench/run.py --out``) to
its own JSON-lines file under ``.bench_out/pairs/``.

The tool ends with ``bench/run.py --compare`` over the two files, then
prints, for each end-to-end metric of ``BENCHMARK.json`` and each
workload, how many pairs the change won (ties count for neither side)
and whether that supports a claimed gain: the change must win at least
nine pairs in ten, and the two medians must differ, in the better
direction, by more than the distance between the quartiles of the
base's runs. The exit status is ``--compare``'s: nonzero on a
regression beyond a metric's bound.

Usage::

    python tools/bench_pairs.py --base REF [--workload W] [--pairs N]
                                [--first-seed S]
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
OUT = REPO / ".bench_out" / "pairs"


def export(ref: str, dest: Path) -> None:
    """Extract the tree of ``ref`` into ``dest``."""
    git = subprocess.Popen(["git", "archive", ref], cwd=REPO,
                           stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout)
    git.stdout.close()
    if git.wait() or tar.returncode:
        raise SystemExit(f"bench_pairs: cannot export {ref!r}")


def run_side(root: Path, workload: str | None, seed: int,
             out: Path) -> None:
    """One ``bench/run.py`` run of the tree at ``root``."""
    cmd = [sys.executable, str(root / "bench" / "run.py"),
           "--seed", str(seed), "--out", str(out)]
    if workload:
        cmd += ["--workload", workload]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode:
        tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-20:])
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} exited "
                         f"{proc.returncode}:\n{tail}")


def load(path: Path) -> dict:
    """``(workload, seed) -> metric -> value`` of one side's file."""
    runs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            runs[rec["workload"], rec["seed"]] = {
                k: v["value"] for k, v in rec["result"]["metrics"].items()}
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report_wins(base: dict, change: dict) -> None:
    """Per workload and end-to-end metric: pairs won by the change, and
    whether the wins support a claimed gain."""
    metrics = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"\n{'workload':<16} {'metric':<14} {'won':>7} "
          f"{'base q1/med/q3':>30} {'change med':>11}  gain claimable")
    for wl in sorted({w for w, _ in base}):
        seeds = sorted(s for w, s in base if w == wl and (w, s) in change)
        for m in metrics:
            name = m["name"]
            sign = 1 if m["better"] == "lower" else -1
            pairs = [(base[wl, s][name], change[wl, s][name])
                     for s in seeds]
            won = sum(1 for a, b in pairs if sign * (b - a) < 0)
            q1, med_a, q3 = quartiles([a for a, _ in pairs])
            med_b = statistics.median(b for _, b in pairs)
            claimable = (won * 10 >= 9 * len(pairs)
                         and sign * (med_b - med_a) < 0
                         and abs(med_b - med_a) > q3 - q1)
            quarts = f"{q1:.4g}/{med_a:.4g}/{q3:.4g}"
            print(f"{wl:<16} {name:<14} {won:>3}/{len(pairs):<3} "
                  f"{quarts:>30} {med_b:>11.4g}  "
                  f"{'yes' if claimable else 'no'}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", default="HEAD",
                    help="the commit the working tree is compared with")
    ap.add_argument("--workload", default=None,
                    help="one workload (default: all of them)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    args = ap.parse_args(argv)

    OUT.mkdir(parents=True, exist_ok=True)
    files = {"base": OUT / "base.jsonl", "change": OUT / "change.jsonl"}
    for path in files.values():
        path.write_text("")
    tmp = Path(tempfile.mkdtemp(prefix="bench-base-"))
    try:
        export(args.base, tmp)
        roots = {"base": tmp, "change": REPO}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                print(f"pair {i + 1}/{args.pairs} seed {seed}: {side}",
                      flush=True)
                run_side(roots[side], args.workload, seed, files[side])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    status = subprocess.run(
        [sys.executable, str(REPO / "bench" / "run.py"), "--compare",
         str(files["base"]), str(files["change"])], cwd=REPO).returncode
    report_wins(load(files["base"]), load(files["change"]))
    print(f"\nruns: {files['base']} (base {args.base}), "
          f"{files['change']} (working tree)")
    return status


if __name__ == "__main__":
    sys.exit(main())
