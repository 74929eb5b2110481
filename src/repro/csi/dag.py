"""The guarded DAG: CSI's view of a meta state's threads.

"First, a guarded DAG is constructed for the input, then this DAG is
improved using inter-thread CSE" (section 3.1). A node is one
operation; its guard is the set of threads (MIMD states) that execute
it. For stack code, intra-thread dependencies are the sequential order;
inter-thread CSE merges *aligned* identical operations from different
threads into one node with a wider guard.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.ir.instr import CostModel, Instr


@dataclass(frozen=True)
class ThreadCode:
    """One thread inside a meta state: the MIMD state id (its guard
    bit) and the straight-line code it must execute."""

    thread: int
    code: tuple[Instr, ...]

    @staticmethod
    def of(thread: int, code) -> "ThreadCode":
        return ThreadCode(thread, tuple(code))


@dataclass
class GuardedOp:
    """A DAG node: one instruction, the set of threads executing it,
    and per-thread sequence positions (for dependence checking).

    ``positions[t]`` is the index of this op in thread ``t``'s original
    sequence; a node depends on every node holding a smaller position
    of the same thread.
    """

    instr: Instr
    guards: frozenset
    positions: dict[int, int] = field(default_factory=dict)

    def __str__(self) -> str:
        g = ",".join(str(t) for t in sorted(self.guards))
        return f"[{g}] {self.instr}"


class OpTable:
    """The instructions and threads of one CSI call, interned to ints.

    Equal :class:`Instr` values share one op id (``instrs[k]`` is the
    first one seen) and each thread id gets one guard bit, so the
    schedulers compare, index and cost small ints instead of
    dataclasses, and a guard is a bit mask. ``cost[k]`` is filled when
    a cost model is given; ``name(k)`` renders op ``k`` once, for the
    greedy merge's deterministic tie-break."""

    def __init__(self, costs: CostModel | None = None):
        self._costs = costs
        self._ids: dict[Instr, int] = {}
        self.instrs: list[Instr] = []
        self.cost: list[int] = []
        self._bits: dict[int, int] = {}
        self._names: dict[int, str] = {}

    def op(self, instr: Instr) -> int:
        k = self._ids.get(instr)
        if k is None:
            k = self._ids[instr] = len(self.instrs)
            self.instrs.append(instr)
            if self._costs is not None:
                self.cost.append(self._costs.cost(instr))
        return k

    def bit(self, thread: int) -> int:
        b = self._bits.get(thread)
        if b is None:
            b = self._bits[thread] = 1 << len(self._bits)
        return b

    def mask(self, guards) -> int:
        out = 0
        for thread in guards:
            out |= self.bit(thread)
        return out

    def guards(self, mask: int) -> frozenset:
        """The thread ids of a guard mask."""
        return frozenset(t for t, b in self._bits.items() if mask & b)

    def name(self, k: int) -> str:
        got = self._names.get(k)
        if got is None:
            got = self._names[k] = str(self.instrs[k])
        return got

    def intern(self, threads: list[ThreadCode]) -> list[tuple[int, list[int]]]:
        """Each thread as ``(guard bit, op ids)``, in input order."""
        return [(self.bit(t.thread), [self.op(i) for i in t.code])
                for t in threads]

    def lower_bound(self, seqs: list[tuple[int, list[int]]]) -> int:
        """:func:`repro.csi.bounds.lower_bound_cost` over interned
        threads."""
        if not seqs:
            return 0
        cost = self.cost
        critical = max(sum(cost[k] for k in ops) for _, ops in seqs)
        need: dict[int, int] = {}
        for _, ops in seqs:
            for k, n in Counter(ops).items():
                if n > need.get(k, 0):
                    need[k] = n
        return max(critical, sum(cost[k] * n for k, n in need.items()))


def greedy_merge(table: OpTable, seqs: list[tuple[int, list[int]]]
                 ) -> list[tuple[int, list[int], list[int]]]:
    """The guarded-DAG merge over interned threads: per node, its op
    id, the indices into ``seqs`` of the threads executing it, and
    their positions (see :func:`build_guarded_dag`)."""
    n = len(seqs)
    ops = [s for _, s in seqs]
    cur = [0] * n
    # Last position of each op per thread: an op is still pending in a
    # thread iff its last occurrence is at or after the cursor.
    last = [{k: i for i, k in enumerate(s)} for s in ops]
    nodes: list[tuple[int, list[int], list[int]]] = []
    while True:
        heads: dict[int, list[int]] = {}
        for x in range(n):
            if cur[x] < len(ops[x]):
                heads.setdefault(ops[x][cur[x]], []).append(x)
        if not heads:
            break
        # Widest sharing first; among ties, prefer ops with no pending
        # occurrence in other threads (emitting them now cannot destroy
        # a future merge); final tie-break is deterministic rendering.
        best = best_xs = best_key = None
        for k, xs in heads.items():
            pending = any(last[y].get(k, -1) >= cur[y]
                          for y in range(n) if y not in xs)
            key = (len(xs), not pending)
            if (best_key is None or key > best_key
                    or key == best_key and table.name(k) > table.name(best)):
                best, best_xs, best_key = k, xs, key
        nodes.append((best, best_xs, [cur[x] for x in best_xs]))
        for x in best_xs:
            cur[x] += 1
    return nodes


def build_guarded_dag(threads: list[ThreadCode]) -> list[GuardedOp]:
    """Build the guarded DAG with greedy inter-thread CSE.

    Nodes are produced in a valid topological order. The CSE pass works
    like a multi-way merge: at each step it looks at every thread's
    next unconsumed instruction and emits the instruction shared by the
    most threads (ties broken toward ops with no pending occurrence in
    other threads, then deterministic ordering), consuming it from all
    sharing threads — each merge is an induced common subexpression.
    """
    table = OpTable()
    seqs = table.intern(threads)
    return [
        GuardedOp(instr=table.instrs[k],
                  guards=frozenset(threads[x].thread for x in xs),
                  positions={threads[x].thread: p for x, p in zip(xs, pos)})
        for k, xs, pos in greedy_merge(table, seqs)
    ]


def dag_shared_ops(nodes: list[GuardedOp]) -> int:
    """Number of DAG nodes executed by more than one thread — the
    common subexpressions CSI induced."""
    return sum(1 for n in nodes if len(n.guards) > 1)
