"""A library of parameterized MIMDC workloads.

These are the SPMD kernels the examples, benchmarks, and tests exercise
— each returns MIMDC source text, scaled by its parameters. They cover
the behaviours the paper's evaluation cares about: divergent branching
(the asynchrony source), loops with data-dependent trip counts, cost
imbalance (time splitting), independent divergent phases (state-space
explosion), barriers, router traffic, recursion, and spawn/halt.
"""

from __future__ import annotations


def divergent_loops(ways: int = 3) -> str:
    """The Listing-1 shape: a branch into ``ways`` data-dependent
    loops, joined at a common exit. ``ways`` >= 2."""
    if ways < 2:
        raise ValueError("need at least two ways")
    body = []
    bound = 4 * ways
    for k in range(ways - 1):
        body.append(f"{'    ' * (k + 1)}if (x == {k}) {{")
        body.append(f"{'    ' * (k + 2)}do {{ x = x + {k + 2}; }} "
                    f"while (x < {bound});")
        body.append(f"{'    ' * (k + 1)}}} else {{")
    body.append(f"{'    ' * ways}do {{ x = x + 1; }} while (x < {bound});")
    for k in range(ways - 1, 0, -1):
        body.append(f"{'    ' * k}}}")
    inner = "\n".join(body)
    return f"""
main() {{
    poly int x;
    x = procnum % {ways};
{inner}
    return (x);
}}
"""


def divergent_phases(k: int, *, barrier: bool = False) -> str:
    """``k`` independent divergent phases (the state-explosion driver);
    with ``barrier=True`` a ``wait`` separates the phases (the
    section-2.6 remedy)."""
    decls = "\n".join(
        f"    poly int x{i}; x{i} = (procnum + {i}) % 3 + 1;" for i in range(k)
    )
    phase = """
    if ((procnum + {i}) % 2) {{
        do {{ x{i} = x{i} - 1; }} while (x{i} > 0);
    }} else {{
        do {{ x{i} = x{i} + 1; }} while (x{i} < 4);
    }}
"""
    sep = "\n    wait;\n" if barrier else "\n"
    body = sep.join(phase.format(i=i) for i in range(k))
    rets = " + ".join(f"x{i}" for i in range(k))
    return f"main() {{\n{decls}\n{body}\n    return ({rets});\n}}\n"


def imbalanced_branch(heavy_ops: int, light_ops: int = 1) -> str:
    """Half the PEs run ``light_ops`` statements, half ``heavy_ops`` —
    the section-2.4 imbalance driver."""
    heavy = " ".join(f"y = y * 3 + {i};" for i in range(heavy_ops))
    light = " ".join(f"y = y + {i + 1};" for i in range(light_ops))
    return f"""
main() {{
    poly int x; poly int y;
    x = procnum % 2;
    y = procnum;
    if (x) {{ {light} }} else {{ {heavy} }}
    return (y);
}}
"""


def collatz_depth(max_n: int = 16) -> str:
    """Recursive collatz depth per PE (section 2.2's recursion trick)."""
    return f"""
int depth(int n) {{
    poly int r;
    if (n <= 1) {{ return (0); }}
    if (n % 2) {{ r = depth(3 * n + 1); }} else {{ r = depth(n / 2); }}
    return (r + 1);
}}
main() {{
    poly int d;
    d = depth(procnum % {max_n} + 1);
    return (d);
}}
"""


def odd_even_sort(seed_mul: int = 7, seed_add: int = 3, mod: int = 23) -> str:
    """Odd-even transposition sort over the router, one key per PE."""
    return f"""
main() {{
    poly int v; poly int partner; poly int other; poly int phase;
    v = (procnum * {seed_mul} + {seed_add}) % {mod};
    for (phase = 0; phase < nproc; phase += 1) {{
        partner = 0 - 1;
        if (phase % 2 == procnum % 2) {{
            if (procnum + 1 < nproc) {{ partner = procnum + 1; }}
        }} else {{
            if (procnum > 0) {{ partner = procnum - 1; }}
        }}
        other = 0;
        if (partner >= 0) {{ other = v[[partner]]; }}
        wait;
        if (partner >= 0) {{
            if (partner > procnum) {{
                v = other < v ? other : v;
            }} else {{
                v = other > v ? other : v;
            }}
        }}
        wait;
    }}
    return (v);
}}
"""


def tree_reduction() -> str:
    """Log-step sum over all PEs via the router."""
    return """
main() {
    poly int s; poly int stride; poly int grabbed;
    s = procnum * procnum % 13 + 1;
    stride = 1;
    while (stride < nproc) {
        grabbed = 0;
        if (procnum % (stride * 2) == 0) {
            if (procnum + stride < nproc) {
                grabbed = s[[procnum + stride]];
            }
        }
        wait;
        s = s + grabbed;
        wait;
        stride = stride * 2;
    }
    return (s[[0]]);
}
"""


def spawn_waves(waves: int = 2) -> str:
    """Masters fork a worker per wave; workers square the job and halt."""
    body = []
    for w in range(waves):
        body.append("    spawn(worker);")
        body.append("    wait;")
        body.append("    result = result[[procnum + nproc / 2]];")
        if w + 1 < waves:
            body.append("    job = job + 1;")
    inner = "\n".join(body)
    return f"""
main() {{
    poly int job; poly int result;
    job = procnum * 10;
{inner}
    return (result);
worker:
    result = job * job;
    halt;
}}
"""


def mandelbrot(max_iter: int = 24, escape: float = 4.0) -> str:
    """Per-PE Mandelbrot escape iteration: float math with wildly
    divergent trip counts — the classic SIMD-divergence workload."""
    return f"""
main() {{
    poly float cr; poly float ci; poly float zr; poly float zi;
    poly float t;
    poly int it;
    cr = (procnum % 8) * 0.35 - 2.0;
    ci = (procnum / 8) * 0.3 - 1.2;
    zr = 0.0; zi = 0.0;
    it = 0;
    while (zr * zr + zi * zi < {escape} && it < {max_iter}) {{
        t = zr * zr - zi * zi + cr;
        zi = 2.0 * zr * zi + ci;
        zr = t;
        it = it + 1;
    }}
    return (it);
}}
"""


def barrier_phases(n_barriers: int, n_phases: int = 9) -> str:
    """Constant work, variable synchronization density (section 5)."""
    phase = """
    if ((x + {k}) % 2) {{ x = x + 3; }} else {{ x = x * 2 - 1; }}
"""
    body = ""
    for k in range(n_phases):
        body += phase.format(k=k)
        if k < n_barriers:
            body += "    wait;\n"
    return f"""
main() {{
    poly int x;
    x = procnum;
{body}
    return (x);
}}
"""


def branch_tree(depth: int = 6, mul: int = 5) -> str:
    """A complete nested if/else tree of ``depth`` levels — ``2^depth
    - 1`` branch blocks in one barrier-free region, so the eager
    explosion bound is ``3^(2^depth - 1)`` and real conversion blows
    past any practical ``max_meta_states`` from ``depth >= 6``. Each PE
    walks exactly one root-to-leaf path (bit ``k`` of a hashed
    ``procnum`` picks the arm at level ``k``), so the *runtime* only
    ever reaches ``O(2^depth)`` meta states — the lazy-conversion
    poster child. No rejoin happens until after the whole tree, which
    is what keeps the divergence from collapsing back."""
    if depth < 1:
        raise ValueError("need depth >= 1")
    lines: list[str] = []

    def emit(level: int, index: int, indent: int) -> None:
        pad = "    " * indent
        if level == depth:
            lines.append(f"{pad}acc = acc * {mul} + {index};")
            return
        lines.append(f"{pad}if ((x / {2 ** level}) % 2) {{")
        emit(level + 1, 2 * index + 1, indent + 1)
        lines.append(f"{pad}}} else {{")
        emit(level + 1, 2 * index, indent + 1)
        lines.append(f"{pad}}}")

    emit(0, 0, 1)
    body = "\n".join(lines)
    return f"""
main() {{
    poly int x; poly int acc;
    x = (procnum * 2654435761) % {2 ** depth};
    acc = 1;
{body}
    return (acc % 65536 + x);
}}
"""


def random_walks(stages: int = 24, lanes: int = 3, mod: int = 509) -> str:
    """Data-dependent random walks: ``lanes`` divergent arms, each a
    chain of ``stages`` stages whose do-while trip count (1-3) comes
    from a per-PE seed recurrence. The reachable states form a product
    lattice of the lanes' independent progress positions, so eager
    conversion explodes combinatorially while each meta state stays
    narrow (small ``CondBr`` member count — wide states are what make
    eager *slow*; many narrow states are what make it *big*). Any one
    execution touches only the states along its PEs' actual progress
    profile."""
    if lanes < 2:
        raise ValueError("need at least two lanes")

    def arm(g: int, indent: int) -> str:
        pad = "    " * indent
        parts = []
        for i in range(stages):
            parts.append(f"{pad}seed = (seed * 5 + {2 * i + g + 1}) "
                         f"% {mod};")
            parts.append(f"{pad}t = seed % 3 + 1;")
            parts.append(f"{pad}do {{ t = t - 1; acc = acc + seed % 7; }} "
                         f"while (t > 0);")
        return "\n".join(parts)

    def nest(g: int, indent: int) -> str:
        pad = "    " * indent
        if g == lanes - 1:
            return arm(g, indent)
        return (f"{pad}if (lane == {g}) {{\n"
                f"{arm(g, indent + 1)}\n"
                f"{pad}}} else {{\n"
                f"{nest(g + 1, indent + 1)}\n"
                f"{pad}}}")

    return f"""
main() {{
    poly int lane; poly int seed; poly int t; poly int acc;
    lane = procnum % {lanes};
    seed = procnum * 37 + 11;
    acc = 0;
{nest(0, 1)}
    return (acc % 10007 + lane);
}}
"""


def all_sources() -> dict[str, str]:
    """Materialized ``name -> MIMDC source`` for the standard library —
    what cache warm-up, the CI compile-cache job, and cold-vs-warm
    equivalence tests iterate over. The :data:`EXPLOSION` workloads are
    deliberately *not* included: they cannot compile eagerly."""
    return {name: make() for name, make in STANDARD.items()}


def warm_cache(cache=True, options=None) -> list:
    """Compile every standard workload through ``cache`` (default: the
    default on-disk cache) and return the per-compile
    :class:`~repro.stages.report.StageReport` list. Running it twice
    demonstrates the cold→warm transition: the second pass is all hits.
    """
    from repro.pipeline import convert_source

    return [
        convert_source(src, options, cache=cache).report
        for src in all_sources().values()
    ]


#: Name -> zero-argument constructor, for sweep-style consumers.
STANDARD = {
    "divergent_loops": lambda: divergent_loops(3),
    "divergent_phases": lambda: divergent_phases(2),
    "imbalanced_branch": lambda: imbalanced_branch(20),
    "collatz_depth": lambda: collatz_depth(10),
    "odd_even_sort": odd_even_sort,
    "tree_reduction": tree_reduction,
    "spawn_waves": lambda: spawn_waves(2),
    "mandelbrot": lambda: mandelbrot(16),
    "barrier_phases": lambda: barrier_phases(3),
}

#: Explosion-prone workloads, kept out of :data:`STANDARD` (eager
#: compiles of these are expected to fail; the lazy differential suite
#: and the lazy bench rows consume them).
EXPLOSION = {
    "branch_tree": lambda: branch_tree(6),
    "random_walks": lambda: random_walks(24),
}
