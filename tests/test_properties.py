"""Property-based end-to-end testing with randomly generated MIMDC
programs.

A hypothesis strategy builds arbitrary (terminating, division-safe)
SPMD programs; every generated program is converted under each option
set and executed on all three machines, which must agree exactly. This
is the meta-state conversion correctness theorem, sampled.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypothesis import assume

from repro import ConversionOptions, convert_source, simulate_mimd, simulate_simd
from repro.core.metastate import MetaStateGraph
from repro.errors import ConversionError

from tests.helpers import run_all_machines, assert_equivalent

#: Keep the sampled state spaces small enough that one example runs in
#: well under a second; programs beyond the cap are rejected by
#: ``assume`` (they exercise no code path the smaller ones miss — the
#: explosion itself is covered by benchmarks/test_state_explosion.py).
SMALL = ConversionOptions(max_meta_states=400)
SMALL_COMPRESS = ConversionOptions(compress=True, max_meta_states=400)
SMALL_SPLIT = ConversionOptions(time_split=True, max_meta_states=400)


def small_machines(src, npes=5, options=SMALL):
    try:
        return run_all_machines(src, npes=npes, options=options)
    except ConversionError:
        assume(False)

VARS = ["a", "b", "c"]
LOOP_VARS = ["i0", "i1"]


@st.composite
def divisors(draw, depth: int) -> str:
    """A denominator that is nonzero by construction: a constant in
    2..7 or -7..-1, or a per-lane ``(expr % k + k)`` in 1..2k-1,
    possibly negated."""
    kind = draw(st.sampled_from(["const", "negative", "lane"]))
    if kind == "const":
        return str(draw(st.integers(min_value=2, max_value=7)))
    if kind == "negative":
        return f"-{draw(st.integers(min_value=1, max_value=7))}"
    k = draw(st.integers(min_value=2, max_value=5))
    lane = f"({draw(expressions(depth=depth + 1))} % {k} + {k})"
    return f"-{lane}" if draw(st.booleans()) else lane


@st.composite
def expressions(draw, depth: int = 0) -> str:
    """An int-valued expression over the poly variables. Division is
    kept safe by construction (see :func:`divisors`)."""
    if depth >= 2:
        leaf = draw(st.sampled_from(["const", "var", "procnum"]))
        if leaf == "const":
            return str(draw(st.integers(min_value=-9, max_value=9)))
        if leaf == "procnum":
            return "procnum"
        return draw(st.sampled_from(VARS))
    kind = draw(st.sampled_from(
        ["leaf", "leaf", "binop", "cmp", "mod", "div", "unary", "ternary"]
    ))
    if kind == "leaf":
        return draw(expressions(depth=2))
    a = draw(expressions(depth=depth + 1))
    b = draw(expressions(depth=depth + 1))
    if kind == "binop":
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
        return f"({a} {op} {b})"
    if kind == "cmp":
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        return f"({a} {op} {b})"
    if kind in ("mod", "div"):
        op = "%" if kind == "mod" else "/"
        return f"({a} {op} {draw(divisors(depth))})"
    if kind == "unary":
        op = draw(st.sampled_from(["-", "!", "~"]))
        return f"({op}{a})"
    c = draw(expressions(depth=depth + 1))
    return f"({a} ? {b} : {c})"


@st.composite
def statements(draw, depth: int, loops_used: list, barrier_ok: bool) -> str:
    kinds = ["assign", "assign", "compound"]
    if depth < 2:
        kinds += ["if", "if"]
        if len(loops_used) < len(LOOP_VARS):
            kinds.append("for")
    if barrier_ok and depth == 0:
        kinds.append("wait")
    kind = draw(st.sampled_from(kinds))
    pad = "    " * (depth + 1)
    if kind == "assign":
        var = draw(st.sampled_from(VARS))
        return f"{pad}{var} = {draw(expressions())};"
    if kind == "compound":
        var = draw(st.sampled_from(VARS))
        op = draw(st.sampled_from(["+=", "-=", "*="]))
        return f"{pad}{var} {op} {draw(expressions(depth=1))};"
    if kind == "wait":
        return f"{pad}wait;"
    if kind == "if":
        cond = draw(expressions(depth=1))
        then = draw(blocks(depth + 1, loops_used, barrier_ok=False))
        if draw(st.booleans()):
            other = draw(blocks(depth + 1, loops_used, barrier_ok=False))
            return f"{pad}if ({cond}) {{\n{then}\n{pad}}} else {{\n{other}\n{pad}}}"
        return f"{pad}if ({cond}) {{\n{then}\n{pad}}}"
    # counted for-loop: guaranteed termination
    lv = LOOP_VARS[len(loops_used)]
    loops_used = loops_used + [lv]
    bound = draw(st.integers(min_value=1, max_value=4))
    body = draw(blocks(depth + 1, loops_used, barrier_ok=False))
    return (f"{pad}for ({lv} = 0; {lv} < {bound}; {lv} += 1) {{\n"
            f"{body}\n{pad}}}")


@st.composite
def blocks(draw, depth: int, loops_used: list, barrier_ok: bool) -> str:
    n = draw(st.integers(min_value=1, max_value=3 if depth else 5))
    return "\n".join(
        draw(statements(depth, loops_used, barrier_ok)) for _ in range(n)
    )


@st.composite
def programs(draw) -> str:
    decls = "    poly int a; poly int b; poly int c;\n" \
            "    poly int i0; poly int i1;\n" \
            "    a = procnum; b = procnum % 3; c = 1;"
    body = draw(blocks(0, [], barrier_ok=True))
    ret = draw(expressions(depth=1))
    return f"main() {{\n{decls}\n{body}\n    return ({ret});\n}}\n"


MONO_VARS = ["m0", "m1"]


@st.composite
def shared_statements(draw, depth: int, loops_used: list) -> str:
    """:func:`statements` plus the cross-lane operations it never
    emits: mono stores and loads, and router reads and writes whose
    index is folded into ``0 .. nproc - 1``."""
    kinds = ["plain", "mono", "load", "read", "write"]
    if depth < 2:
        kinds.append("if")
    kind = draw(st.sampled_from(kinds))
    pad = "    " * (depth + 1)
    if kind == "plain":
        return draw(statements(depth, loops_used, barrier_ok=depth == 0))
    if kind == "mono":
        var = draw(st.sampled_from(MONO_VARS))
        src = draw(st.sampled_from(MONO_VARS + ["nproc"]))
        k = draw(st.integers(min_value=1, max_value=9))
        return f"{pad}{var} = ({src} * {k} + {var}) % 97;"
    if kind == "load":
        var = draw(st.sampled_from(VARS))
        mono = draw(st.sampled_from(MONO_VARS))
        return f"{pad}{var} = {draw(expressions(depth=1))} + {mono};"
    if kind == "if":
        cond = draw(expressions(depth=1))
        body = draw(shared_blocks(depth + 1, loops_used))
        return f"{pad}if ({cond}) {{\n{body}\n{pad}}}"
    index = f"(({draw(expressions(depth=1))}) % nproc + nproc) % nproc"
    var = draw(st.sampled_from(VARS))
    if kind == "read":
        src = draw(st.sampled_from(VARS))
        return f"{pad}{var} = {src}[[{index}]];"
    return f"{pad}{var}[[{index}]] = {draw(expressions(depth=1))};"


@st.composite
def shared_blocks(draw, depth: int, loops_used: list) -> str:
    n = draw(st.integers(min_value=1, max_value=3 if depth else 5))
    return "\n".join(
        draw(shared_statements(depth, loops_used)) for _ in range(n)
    )


@st.composite
def shared_programs(draw) -> str:
    """:func:`programs` with mono variables and router traffic."""
    decls = "    poly int a; poly int b; poly int c;\n" \
            "    poly int i0; poly int i1;\n" \
            "    a = procnum; b = procnum % 3; c = 1;"
    body = draw(shared_blocks(0, []))
    ret = draw(expressions(depth=1))
    return (f"mono int m0 = 1; mono int m1 = 2;\nmain() {{\n{decls}\n"
            f"{body}\n    return ({ret} + m0);\n}}\n")


COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestRandomProgramOracle:
    @given(src=programs())
    @settings(max_examples=25, **COMMON_SETTINGS)
    def test_base_conversion_matches_oracle(self, src):
        _, simd, mimd, interp = small_machines(src)
        assert_equivalent(simd, mimd, interp)

    @given(src=programs())
    @settings(max_examples=15, **COMMON_SETTINGS)
    def test_compressed_matches_oracle(self, src):
        _, simd, mimd, _ = small_machines(src, options=SMALL_COMPRESS)
        assert_equivalent(simd, mimd)

    @given(src=programs())
    @settings(max_examples=10, **COMMON_SETTINGS)
    def test_time_split_matches_oracle(self, src):
        _, simd, mimd, _ = small_machines(src, options=SMALL_SPLIT)
        assert_equivalent(simd, mimd)

    @given(src=programs(), npes=st.integers(min_value=1, max_value=9))
    @settings(max_examples=12, **COMMON_SETTINGS)
    def test_any_machine_width(self, src, npes):
        _, simd, mimd, _ = small_machines(src, npes=npes)
        assert_equivalent(simd, mimd)

    @given(src=programs(), compress=st.booleans())
    @settings(max_examples=40, **COMMON_SETTINGS)
    def test_o2_matches_oracle(self, src, compress):
        # -O2 adds the CFG folding passes and the realizability prunes,
        # among them the uniform-branch pass that drops meta states by
        # the uniformity facts.  shared_programs() stays out: the MIMD
        # oracle runs each block atomically, so router races make
        # those programs differ from it at every -O level.
        options = ConversionOptions(opt_level=2, compress=compress,
                                    max_meta_states=400)
        _, simd, mimd, _ = small_machines(src, options=options)
        assert_equivalent(simd, mimd)


class TestRandomGraphInvariants:
    @given(src=programs())
    @settings(max_examples=20, **COMMON_SETTINGS)
    def test_graph_invariants(self, src):
        try:
            result = convert_source(src, SMALL)
        except ConversionError:
            assume(False)
        graph: MetaStateGraph = result.graph
        cfg = result.cfg
        graph.verify(valid_blocks=set(cfg.blocks))
        # start = set of MIMD start states
        assert graph.start == frozenset((cfg.entry,))
        for m in graph.states:
            branches = sum(1 for b in m if cfg.blocks[b].is_branch)
            assert len(graph.successors(m)) <= 3 ** branches
            waits = m & graph.barrier_ids
            assert waits in (frozenset(), m)

    @given(src=programs())
    @settings(max_examples=15, **COMMON_SETTINGS)
    def test_compression_dominates(self, src):
        try:
            base = convert_source(src, SMALL)
        except ConversionError:
            assume(False)
        comp = convert_source(src, SMALL_COMPRESS)
        assert comp.graph.num_states() <= base.graph.num_states()
        assert comp.graph.num_states() <= 2 * len(comp.cfg.blocks) + 2

    @given(src=programs())
    @settings(max_examples=12, **COMMON_SETTINGS)
    def test_emitted_program_schedules_verify(self, src):
        from repro.csi.dag import ThreadCode
        from repro.csi.schedule import verify_schedule

        try:
            result = convert_source(src, SMALL)
        except ConversionError:
            assume(False)
        prog = result.simd_program()
        for node in prog.nodes.values():
            for seg in node.segments:
                threads = [
                    ThreadCode.of(bid, result.cfg.blocks[bid].code)
                    for bid in sorted(seg.members)
                    if result.cfg.blocks[bid].code
                ]
                verify_schedule(threads, seg.schedule)


class TestRandomTraceEquivalence:
    @given(src=programs())
    @settings(max_examples=15, **COMMON_SETTINGS)
    def test_control_paths_identical(self, src):
        from repro.analysis.traces import assert_same_paths
        from repro.mimd.machine import MimdMachine
        from repro.simd.machine import SimdMachine

        try:
            result = convert_source(src, SMALL)
        except ConversionError:
            assume(False)
        simd = SimdMachine(npes=5, trace=True, backend="interp").run(
            result.simd_program(), max_steps=200_000
        )
        mimd = MimdMachine(nprocs=5, trace=True).run(
            result.cfg, max_steps=200_000
        )
        assert_same_paths(mimd, simd)


class TestRandomDeterminism:
    @given(src=programs())
    @settings(max_examples=8, **COMMON_SETTINGS)
    def test_conversion_is_deterministic(self, src):
        try:
            a = convert_source(src, SMALL)
        except ConversionError:
            assume(False)
        b = convert_source(src, SMALL)
        assert a.graph.states == b.graph.states
        assert a.graph.table == b.graph.table
        assert a.mpl_text() == b.mpl_text()


class TestRandomProgramsBothPrinters:
    """Generated programs through both kernel printers: NumPy at one and
    three shards, and C where a toolchain exists, each bit-identical to
    the interpretive executor, with every PE active and with two idle,
    so both bodies of a one-member NumPy node run. Only SIMD backends
    are compared: a racy mono store or router write may legitimately
    resolve differently on the MIMD oracle. ``cc -O2`` needs seconds
    per few dozen nodes, so programs above :attr:`NATIVE_MAX_NODES` run
    on NumPy only."""

    NATIVE_MAX_NODES = 24

    def check(self, src):
        from repro.simd import nativert
        from repro.simd.machine import SimdMachine

        from tests.test_kernels import assert_identical

        try:
            result = convert_source(src, SMALL)
        except ConversionError:
            assume(False)
        prog = result.simd_program()
        runs = [("kernels", 1), ("kernels", 3)]
        if nativert.unavailable_reason() is None \
                and prog.node_count() <= self.NATIVE_MAX_NODES:
            runs += [("native", 1), ("native", 3)]
        # Five active PEs take the full-width bodies of one-member
        # nodes; three leave idle PEs, so those nodes run indexed.
        for active in (5, 3):
            ref = SimdMachine(npes=5, costs=result.options.costs,
                              backend="interp").run(prog, active=active)
            for backend, shards in runs:
                res = SimdMachine(npes=5, costs=result.options.costs,
                                  backend=backend, shards=shards).run(
                    prog, active=active)
                assert res.backend_used == backend
                assert_identical(res, ref, (backend, shards, active))

    @given(src=programs())
    @settings(max_examples=8, **COMMON_SETTINGS)
    def test_programs(self, src):
        self.check(src)

    @given(src=shared_programs())
    @settings(max_examples=12, **COMMON_SETTINGS)
    def test_mono_and_router_programs(self, src):
        self.check(src)
