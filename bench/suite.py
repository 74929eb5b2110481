"""The benchmark's four workloads: programs, options, widths, references.

A workload is a set of MIMDC programs compiled with one set of
``ConversionOptions`` and run on one serial backend at one machine
width. Each is built to stress a different layer:

- ``sort_native``: loop-bound. Thousands of meta steps over narrow
  lanes on the native C backend, so the per-step Python loop and the
  FFI crossing dominate; setup is mostly the ``cc`` build.
- ``wide_kernels``: lane-bound. About a hundred meta steps over 32K
  lanes on the ahead-of-time NumPy kernels; per-step Python overhead is
  about 1%, so a loop-only or native-only change must not move it.
- ``explode_lazy``: first-run-bound. Lazy conversion of explosion-prone
  programs at 8 PEs; the work is expansion plus per-node JIT in the
  first request, and the warm request is a few milliseconds.
- ``compile_library``: compile-bound. All nine standard workloads at
  ``-O2`` with the analyzers on; the only workload with spawn/halt,
  recursion and the lint stages, and no ``.so`` build (one program's
  ``cc`` alone would swamp every compile stage).

The seed changes data constants only (sort keys, escape radius, loop
offset, hash multiplier), never control structure, so the meta-step
count and the work per request stay put across seeds while the outputs
change. Each workload also has an independent reference for its
outputs: the MIMD oracle on an unoptimized compile where that is fast,
otherwise a direct NumPy evaluation.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import ConversionOptions, convert_source
from repro import workloads as W
from repro.pipeline import simulate_mimd
from repro.simd.machine import SimdMachine

MAX_STEPS = 1_000_000

#: The simulator-scaling loop of ``tools/bench.py``, with the seed
#: rotating which PE holds which residue (every residue still occurs,
#: so the control flow is the same for every offset).
SCALING_LOOP = """
main() {{
    poly int x; poly int i;
    x = (procnum + {offset}) % 7;
    for (i = 0; i < 8; i += 1) {{
        if (x % 2) {{ x = x * 3 + 1; }} else {{ x = x / 2 + i; }}
    }}
    return (x);
}}
"""

WORKLOAD_NAMES = ("sort_native", "wide_kernels", "explode_lazy",
                  "compile_library")


@dataclass(frozen=True)
class Program:
    """One program of a workload and the reference for its outputs."""

    name: str
    source: str
    npes: int
    active: int | None
    #: ``npes -> expected returns``; ``None`` means the MIMD oracle.
    reference: Callable[[int], np.ndarray] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    options: ConversionOptions
    programs: tuple[Program, ...]
    #: The kind of host-speed unit its timings are scaled by
    #: (``bench/speed.py``): ``lanes`` when NumPy loops over long lane
    #: vectors dominate, ``calls`` when per-step and per-call overhead
    #: does.
    speed: str = "calls"

    @property
    def native(self) -> bool:
        return self.backend == "native"


@dataclass(frozen=True)
class Params:
    """The data constants a seed selects (seed 0 is the library's own
    defaults)."""

    sort_mul: int = 7
    sort_add: int = 3
    escape: float = 4.0
    offset: int = 0
    tree_mul: int = 5

    @classmethod
    def from_seed(cls, seed: int) -> "Params":
        if seed == 0:
            return cls()
        rng = random.Random(seed)
        return cls(
            # Multipliers coprime to the key modulus 23, so keys spread.
            sort_mul=rng.choice([m for m in range(3, 46) if m % 23]),
            sort_add=rng.randrange(23),
            escape=round(rng.uniform(3.5, 4.5), 3),
            offset=rng.randrange(7),
            tree_mul=rng.randrange(3, 30),
        )


# ----------------------------------------------------------------------
# NumPy references
# ----------------------------------------------------------------------
SORT_MOD = 23


def sorted_keys(mul: int, add: int) -> Callable[[int], np.ndarray]:
    def ref(npes: int) -> np.ndarray:
        keys = (np.arange(npes, dtype=np.int64) * mul + add) % SORT_MOD
        return np.sort(keys).astype(np.float64)
    return ref


def scaling_loop(offset: int) -> Callable[[int], np.ndarray]:
    def ref(npes: int) -> np.ndarray:
        x = (np.arange(npes, dtype=np.int64) + offset) % 7
        for i in range(8):
            x = np.where(x % 2 == 1, x * 3 + 1, x // 2 + i)
        return x.astype(np.float64)
    return ref


def mandelbrot_iters(max_iter: int, escape: float
                     ) -> Callable[[int], np.ndarray]:
    def ref(npes: int) -> np.ndarray:
        p = np.arange(npes, dtype=np.int64)
        cr = (p % 8) * 0.35 - 2.0
        ci = (p // 8) * 0.3 - 1.2
        zr = np.zeros(npes)
        zi = np.zeros(npes)
        it = np.zeros(npes, dtype=np.int64)
        while True:
            live = (zr * zr + zi * zi < escape) & (it < max_iter)
            if not live.any():
                return it.astype(np.float64)
            t = zr * zr - zi * zi + cr
            zi = np.where(live, 2.0 * zr * zi + ci, zi)
            zr = np.where(live, t, zr)
            it = it + live
    return ref


def tree_sum(npes: int) -> np.ndarray:
    p = np.arange(npes, dtype=np.int64)
    total = int((p * p % 13 + 1).sum())
    return np.full(npes, float(total))


# ----------------------------------------------------------------------
# workload definitions
# ----------------------------------------------------------------------
def workload(name: str, seed: int = 0, quick: bool = False) -> Workload:
    """The workload ``name`` with the data constants of ``seed``;
    ``quick`` shrinks widths and program sizes for smoke tests."""
    p = Params.from_seed(seed)
    eager = ConversionOptions(opt_level=1, lazy=False)
    if name == "sort_native":
        npes = 32 if quick else 256
        return Workload(name, "native", eager, (
            Program("odd_even_sort", W.odd_even_sort(p.sort_mul, p.sort_add,
                                                     SORT_MOD),
                    npes, None, sorted_keys(p.sort_mul, p.sort_add)),
        ))
    if name == "wide_kernels":
        npes = 1024 if quick else 32768
        return Workload(name, "kernels", eager, (
            Program("scaling_loop", SCALING_LOOP.format(offset=p.offset),
                    npes, None, scaling_loop(p.offset)),
            Program("mandelbrot", W.mandelbrot(16, p.escape), npes, None,
                    mandelbrot_iters(16, p.escape)),
            Program("tree_reduction", W.tree_reduction(), npes, None,
                    tree_sum),
        ), speed="lanes")
    if name == "explode_lazy":
        depth, stages = (4, 4) if quick else (6, 8)
        lazy = ConversionOptions(opt_level=1, lazy=True)
        return Workload(name, "kernels", lazy, (
            Program("branch_tree", W.branch_tree(depth, p.tree_mul), 8,
                    None),
            Program("random_walks", W.random_walks(stages), 8, None),
        ))
    if name == "compile_library":
        npes = 16 if quick else 64
        sources = {n: make() for n, make in W.STANDARD.items()}
        sources["odd_even_sort"] = W.odd_even_sort(p.sort_mul, p.sort_add,
                                                   SORT_MOD)
        sources["mandelbrot"] = W.mandelbrot(16, p.escape)
        options = ConversionOptions(opt_level=2, lazy=False, analyze=True)
        return Workload(name, "kernels", options, tuple(
            Program(n, src, npes, npes // 2 if n == "spawn_waves" else None)
            for n, src in sources.items()))
    raise ValueError(f"unknown workload {name!r}; expected one of "
                     f"{', '.join(WORKLOAD_NAMES)}")


def references(wl: Workload) -> list[np.ndarray]:
    """Expected ``returns`` per program. The MIMD oracle runs on an
    ``-O0`` lazy compile, which builds the CFG without the optimizer
    and without converting the automaton, so it shares neither with the
    program under test."""
    out = []
    for prog in wl.programs:
        if prog.reference is not None:
            out.append(prog.reference(prog.npes))
            continue
        cfg_only = convert_source(
            prog.source, ConversionOptions(opt_level=0, lazy=True),
            cache=None)
        out.append(simulate_mimd(cfg_only, prog.npes, active=prog.active,
                                 max_steps=MAX_STEPS).returns)
    return out


def digest(returns: np.ndarray) -> str:
    """A content hash of a ``returns`` vector that treats every NaN
    (never-started or halted PE) alike."""
    nan = np.isnan(returns)
    h = hashlib.sha256(nan.tobytes())
    h.update(np.where(nan, 0.0, returns).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# setup and requests
# ----------------------------------------------------------------------
def call(fn):
    return fn()


def setup(wl: Workload, cache, timed=call) -> list:
    """Compile every program through ``cache`` and, on the native
    workload, build and load its shared library: everything a user pays
    before the first run. ``timed`` runs each program's share."""
    def one(prog: Program):
        result = convert_source(prog.source, wl.options, cache=cache)
        if wl.native:
            from repro.simd import nativert

            nativert.load_native(result.simd_program().native())
        return result

    return [timed(lambda p=p: one(p)) for p in wl.programs]


class Runner:
    """One program on its machine, ready to run again and again."""

    def __init__(self, prog: Program, result, backend: str):
        self.prog = prog
        self.machine = SimdMachine(npes=prog.npes, costs=result.options.costs,
                                   backend=backend)
        if result.options.lazy:
            mgr = result.lazy_program()
            self.args = (mgr.program,)
            self.kwargs = {"plan": mgr.plan, "miss_handler": mgr}
            self.lazy = mgr
        else:
            program = result.simd_program()
            self.args = (program,)
            self.kwargs = {"plan": program.plan()}
            self.lazy = None

    def run(self):
        return self.machine.run(*self.args, active=self.prog.active,
                                max_steps=MAX_STEPS, **self.kwargs)


def runners(wl: Workload, results: list) -> list[Runner]:
    return [Runner(p, r, wl.backend) for p, r in zip(wl.programs, results)]


def request(rs: list[Runner], timed=call) -> list:
    """One request: a pass over the workload's programs, each run by
    ``timed``."""
    return [timed(r.run) for r in rs]


def check(wl: Workload, outs: list, refs: list[np.ndarray]) -> str | None:
    """Why a request's results are wrong, or ``None`` when they match:
    a silent backend fallback or any ``returns`` differing from the
    reference."""
    for prog, res, ref in zip(wl.programs, outs, refs):
        if res.backend_used != wl.backend:
            return (f"{prog.name}: ran on {res.backend_used!r}, "
                    f"not {wl.backend!r}")
        if not np.array_equal(res.returns, ref, equal_nan=True):
            return f"{prog.name}: returns differ from the reference"
    return None


def interp_problem(wl: Workload, results: list, outs: list) -> str | None:
    """Cross-check a request's cycles, meta steps and outputs against
    the interpretive executor. A lazy program gets a compile of its own,
    so the check does not materialize states for the measured one."""
    for prog, result, res in zip(wl.programs, results, outs):
        if wl.options.lazy:
            result = convert_source(prog.source, wl.options, cache=None)
        ref = Runner(prog, result, "interp").run()
        if (ref.cycles, ref.meta_transitions) != (res.cycles,
                                                  res.meta_transitions):
            return (f"{prog.name}: {wl.backend} took {res.cycles} cycles "
                    f"in {res.meta_transitions} steps, interp "
                    f"{ref.cycles} in {ref.meta_transitions}")
        if not np.array_equal(ref.returns, res.returns, equal_nan=True):
            return f"{prog.name}: interp returns differ"
    return None


def meta_steps(outs: list) -> int:
    return sum(res.meta_transitions for res in outs)
