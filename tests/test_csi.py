"""Unit tests for common subexpression induction (section 3.1)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csi.bounds import lower_bound_cost, mobility, operation_classes
from repro.csi.dag import ThreadCode, build_guarded_dag, dag_shared_ops
from repro.csi.schedule import (
    Schedule,
    csi_schedule,
    greedy_schedule,
    improve_schedule,
    pairwise_schedule,
    serial_schedule,
    verify_schedule,
)
from repro.ir.instr import DEFAULT_COSTS, Instr, Op


def t(thread, *ops):
    return ThreadCode.of(thread, [o if isinstance(o, Instr) else Instr(*o) for o in ops])


PUSH1 = Instr(Op.PUSH, 1)
PUSH2 = Instr(Op.PUSH, 2)
ST0 = Instr(Op.ST, 0)
LD0 = Instr(Op.LD, 0)
ADD = Instr(Op.ADD)
MUL = Instr(Op.MUL)


class TestGuardedDag:
    def test_identical_threads_fully_merge(self):
        threads = [t(2, PUSH1, ST0, LD0), t(6, PUSH1, ST0, LD0)]
        dag = build_guarded_dag(threads)
        assert len(dag) == 3
        assert all(n.guards == frozenset((2, 6)) for n in dag)

    def test_listing5_ms_2_6_shape(self):
        """The paper's ms_2_6: Push(1)/Push(2) differ, the rest is
        factored into a shared guarded region."""
        threads = [
            t(2, PUSH1, ST0, LD0),
            t(6, PUSH2, ST0, LD0),
        ]
        dag = build_guarded_dag(threads)
        shared = dag_shared_ops(dag)
        assert shared == 2  # ST0, LD0
        assert len(dag) == 4  # two pushes + two shared

    def test_disjoint_threads_no_merge(self):
        threads = [t(1, PUSH1, ADD), t(2, PUSH2, MUL)]
        dag = build_guarded_dag(threads)
        assert dag_shared_ops(dag) == 0
        assert len(dag) == 4

    def test_positions_recorded(self):
        threads = [t(1, PUSH1, ST0), t(2, PUSH1, ST0)]
        dag = build_guarded_dag(threads)
        assert dag[0].positions == {1: 0, 2: 0}


class TestBounds:
    def test_operation_classes(self):
        threads = [t(1, PUSH1, ST0), t(2, PUSH1, ADD)]
        classes = operation_classes(threads)
        assert len(classes[PUSH1]) == 2
        assert len(classes[ST0]) == 1

    def test_mobility_ranges(self):
        threads = [t(1, PUSH1, ST0, LD0)]
        mob = mobility(threads, schedule_len=5)
        assert mob[(1, 0)] == (1, 3)
        assert mob[(1, 2)] == (3, 5)

    def test_lower_bound_critical_thread(self):
        threads = [t(1, PUSH1), t(2, PUSH2, ST0, LD0, ADD)]
        lb = lower_bound_cost(threads)
        t2_cost = sum(DEFAULT_COSTS.cost(i) for i in threads[1].code)
        assert lb >= t2_cost

    def test_lower_bound_class_occupancy(self):
        # Threads are short but every one needs its own distinct op.
        threads = [t(1, PUSH1, PUSH2), t(2, ST0, LD0)]
        lb = lower_bound_cost(threads)
        total = sum(DEFAULT_COSTS.cost(i)
                    for th in threads for i in th.code)
        assert lb == total  # nothing shareable

    def test_lower_bound_identical_threads(self):
        threads = [t(1, PUSH1, ST0), t(2, PUSH1, ST0)]
        one = sum(DEFAULT_COSTS.cost(i) for i in threads[0].code)
        assert lower_bound_cost(threads) == one

    def test_empty(self):
        assert lower_bound_cost([]) == 0


class TestSchedules:
    def check(self, threads):
        s = csi_schedule(threads)
        verify_schedule(threads, s)
        assert s.lower_bound <= s.cost <= s.serial_cost
        return s

    def test_identical_threads_cost_one_copy(self):
        threads = [t(1, PUSH1, ST0, LD0), t(2, PUSH1, ST0, LD0)]
        s = self.check(threads)
        assert s.cost == s.lower_bound
        assert len(s.entries) == 3

    def test_listing5_sharing(self):
        threads = [t(2, PUSH1, ST0, LD0), t(6, PUSH2, ST0, LD0)]
        s = self.check(threads)
        assert s.shared_slots() == 2
        assert s.cost < s.serial_cost

    def test_single_thread_is_serial(self):
        threads = [t(1, PUSH1, ADD, ST0)]
        s = csi_schedule(threads)
        assert [e.instr for e in s.entries] == list(threads[0].code)

    def test_empty_threads_skipped(self):
        s = csi_schedule([ThreadCode.of(1, []), t(2, PUSH1)])
        assert len(s.entries) == 1

    def test_no_threads(self):
        assert csi_schedule([]).entries == []

    def test_interleaved_shared_suffix(self):
        # Different prefixes, common suffix of 3 ops.
        suffix = [ST0, LD0, ADD]
        threads = [
            ThreadCode.of(1, [PUSH1] + suffix),
            ThreadCode.of(2, [PUSH2, MUL] + suffix),
        ]
        s = self.check(threads)
        assert s.shared_slots() >= 3

    def test_three_threads(self):
        threads = [
            t(1, PUSH1, ST0, LD0),
            t(2, PUSH2, ST0, LD0),
            t(3, PUSH1, ST0, ADD),
        ]
        s = self.check(threads)
        assert s.cost < s.serial_cost

    def test_pairwise_dp_optimal_for_two(self):
        threads = [t(1, PUSH1, ST0, LD0), t(2, PUSH2, ST0, LD0)]
        s = pairwise_schedule(threads)
        # Optimal weighted SCS: Push(1), Push(2) separate; St, Ld shared.
        want = (DEFAULT_COSTS.cost(PUSH1) * 2 + DEFAULT_COSTS.cost(ST0)
                + DEFAULT_COSTS.cost(LD0))
        assert s.cost == want

    def test_greedy_never_corrupts(self):
        threads = [t(1, ST0, PUSH1, ST0), t(2, PUSH1, ST0, PUSH1)]
        s = greedy_schedule(threads)
        verify_schedule(threads, s)

    def test_improvement_never_worse(self):
        threads = [
            t(1, PUSH1, MUL, ST0, LD0),
            t(2, ST0, PUSH1, MUL, LD0),
        ]
        base = serial_schedule(threads)
        improved = improve_schedule(base)
        verify_schedule(threads, improved)
        assert improved.cost <= base.cost


class TestScheduleProperties:
    ops_pool = [PUSH1, PUSH2, ST0, LD0, ADD, MUL, Instr(Op.DUP), Instr(Op.NEG)]

    @given(
        codes=st.lists(
            st.lists(st.sampled_from(range(8)), min_size=0, max_size=8),
            min_size=1, max_size=4,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_random_threads_schedule_correctly(self, codes):
        threads = [
            ThreadCode.of(tid, [self.ops_pool[i] for i in code])
            for tid, code in enumerate(codes)
        ]
        live = [th for th in threads if th.code]
        s = csi_schedule(threads)
        verify_schedule(live, s)
        if live:
            assert s.lower_bound <= s.cost <= max(s.serial_cost, s.cost)
            serial = serial_schedule(live)
            assert s.cost <= serial.cost

    @given(
        code=st.lists(st.sampled_from(range(8)), min_size=1, max_size=10),
        k=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_k_identical_threads_cost_one(self, code, k):
        base = [self.ops_pool[i] for i in code]
        threads = [ThreadCode.of(tid, base) for tid in range(k)]
        s = csi_schedule(threads)
        assert s.cost == sum(DEFAULT_COSTS.cost(i) for i in base)


# ----------------------------------------------------------------------
# Pinned schedules: every CSI result of the library and the explosion
# workloads, digested
# ----------------------------------------------------------------------

def _schedules_digest(nodes) -> str:
    """A digest of every segment schedule of ``nodes`` (entry members ->
    MetaNode): entries in order with their guards, plus ``cost``,
    ``serial_cost`` and ``lower_bound``."""
    h = hashlib.sha256()
    for _, node in sorted(nodes.items(), key=lambda kv: sorted(kv[0])):
        for seg in node.segments:
            s = seg.schedule
            h.update(repr((
                sorted(seg.members),
                [(e.instr.op.value, repr(e.instr.arg), repr(e.instr.arg2),
                  sorted(e.guards)) for e in s.entries],
                s.cost, s.serial_cost, s.lower_bound,
            )).encode())
    return h.hexdigest()[:16]


def _pinned_nodes(case: str):
    """The emitted nodes of one pinned case: ``<workload>-O<n>-<plain|
    compress>`` compiles a library program eagerly; ``<name>-lazy`` is
    the nodes an 8-PE lazy run of an explosion workload materializes."""
    from repro import ConversionOptions, convert_source, simulate_simd
    from repro import workloads

    name, _, rest = case.partition("-")
    if rest == "lazy":
        src = {"branch_tree": workloads.branch_tree(6),
               "random_walks": workloads.random_walks(8)}[name]
        lazy = convert_source(src, ConversionOptions(opt_level=1, lazy=True),
                              cache=False)
        simulate_simd(lazy, 8)
        return lazy.lazy_program().program.nodes
    level, layout = rest.split("-")
    opts = ConversionOptions(opt_level=int(level[1:]), lazy=False,
                             compress=layout == "compress")
    result = convert_source(workloads.STANDARD[name](), opts, cache=False)
    return result.simd_program().nodes


#: Recorded from the Instr-level CSI (``_schedules_digest`` over
#: ``_pinned_nodes``) before the scheduler moved to interned op ids.
PINNED_SCHEDULES = {
    "barrier_phases-O1-plain": "b86fcd8b1c397ef4",
    "barrier_phases-O1-compress": "69a4cadb81a1848e",
    "barrier_phases-O2-plain": "b86fcd8b1c397ef4",
    "barrier_phases-O2-compress": "69a4cadb81a1848e",
    "collatz_depth-O1-plain": "348e427dbab6a343",
    "collatz_depth-O1-compress": "3d83fd1d9e14ed25",
    "collatz_depth-O2-plain": "348e427dbab6a343",
    "collatz_depth-O2-compress": "3d83fd1d9e14ed25",
    "divergent_loops-O1-plain": "334e7eb905c9f6ee",
    "divergent_loops-O1-compress": "305677747bd8f634",
    "divergent_loops-O2-plain": "334e7eb905c9f6ee",
    "divergent_loops-O2-compress": "305677747bd8f634",
    "divergent_phases-O1-plain": "d4366f47093b3272",
    "divergent_phases-O1-compress": "3313fa9af402091f",
    "divergent_phases-O2-plain": "d4366f47093b3272",
    "divergent_phases-O2-compress": "3313fa9af402091f",
    "imbalanced_branch-O1-plain": "f431ce0c807eef49",
    "imbalanced_branch-O1-compress": "da87e102241f1cff",
    "imbalanced_branch-O2-plain": "f431ce0c807eef49",
    "imbalanced_branch-O2-compress": "da87e102241f1cff",
    "mandelbrot-O1-plain": "3659b8f6516573c7",
    "mandelbrot-O1-compress": "8fd1adf084726902",
    "mandelbrot-O2-plain": "31f8814fed919745",
    "mandelbrot-O2-compress": "69fcc9932ef22f5a",
    "odd_even_sort-O1-plain": "eb2cd189ac39cb31",
    "odd_even_sort-O1-compress": "11757e6d006f9ac2",
    "odd_even_sort-O2-plain": "e9180fefdb6f6f1d",
    "odd_even_sort-O2-compress": "54abdbca2e77510a",
    "spawn_waves-O1-plain": "9806b6a1985d6746",
    "spawn_waves-O1-compress": "61a56884bb3999c7",
    "spawn_waves-O2-plain": "d0b3f9f3e8d10430",
    "spawn_waves-O2-compress": "61a56884bb3999c7",
    "tree_reduction-O1-plain": "917ded36bf852894",
    "tree_reduction-O1-compress": "6bde9bd795cd401b",
    "tree_reduction-O2-plain": "107916b15e9ed2df",
    "tree_reduction-O2-compress": "ce01463a1ba82eb7",
    "branch_tree-lazy": "60626e3b670b1ad8",
    "random_walks-lazy": "f878b3bd304f7cc0",
}


class TestPinnedSchedules:
    @pytest.mark.parametrize("case", sorted(PINNED_SCHEDULES))
    def test_schedules_match_recorded_digest(self, case):
        assert _schedules_digest(_pinned_nodes(case)) == PINNED_SCHEDULES[case]
