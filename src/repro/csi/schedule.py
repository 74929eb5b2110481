"""CSI scheduling: build the guarded SIMD instruction schedule.

"Next, this information is used to create a linear schedule (SIMD
execution sequence), which is improved using a cheap approximate search
and then used as the initial schedule for the permutation-in-range
search that is the core of the CSI optimization" (section 3.1).

For linear stack code the optimum is the weighted shortest common
supersequence of the thread sequences. We build two initial schedules —
the greedy multi-way merge of :func:`repro.csi.dag.build_guarded_dag`
(the "cheap approximate search") and a successive pairwise
dynamic-programming merge (optimal for two threads) — then run the
permutation-in-range improvement: operations are moved within their
legal mobility ranges to land identical operations of disjoint threads
in the same slot, merging them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConversionError
from repro.ir.instr import DEFAULT_COSTS, CostModel, Instr
from repro.csi.dag import OpTable, ThreadCode, greedy_merge


@dataclass(frozen=True)
class ScheduleEntry:
    """One SIMD instruction slot: the instruction and the guard — the
    set of MIMD states (pc bits) whose PEs execute it."""

    instr: Instr
    guards: frozenset

    def __str__(self) -> str:
        g = ",".join(str(t) for t in sorted(self.guards))
        return f"[{g}] {self.instr}"


@dataclass
class Schedule:
    """A guarded SIMD schedule for one meta state.

    ``serial_cost`` is what naive serialization (run each thread's code
    one after another) would cost; ``lower_bound`` the theoretical
    minimum; ``cost`` what this schedule costs. The paper's win is
    ``cost < serial_cost`` whenever threads share operations.
    """

    entries: list[ScheduleEntry] = field(default_factory=list)
    serial_cost: int = 0
    lower_bound: int = 0
    cost: int = 0

    def shared_slots(self) -> int:
        """Slots executed by more than one thread (induced sharing)."""
        return sum(1 for e in self.entries if len(e.guards) > 1)

    def recompute_cost(self, costs: CostModel = DEFAULT_COSTS) -> int:
        self.cost = sum(costs.cost(e.instr) for e in self.entries)
        return self.cost

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self.entries)


# ----------------------------------------------------------------------
# initial schedules
# ----------------------------------------------------------------------
# The schedulers below run over an OpTable: a schedule is a list of
# (op id, guard mask) slots, turned into ScheduleEntry objects once, by
# _entries, when a Schedule is returned.

def _entries(table: OpTable,
             slots: list[tuple[int, int]]) -> list[ScheduleEntry]:
    return [ScheduleEntry(table.instrs[k], table.guards(mask))
            for k, mask in slots]


def _schedule(table: OpTable, slots: list[tuple[int, int]],
              serial_cost: int = 0, lower_bound: int = 0) -> Schedule:
    return Schedule(entries=_entries(table, slots), serial_cost=serial_cost,
                    lower_bound=lower_bound, cost=_cost(table, slots))


def _cost(table: OpTable, slots: list[tuple[int, int]]) -> int:
    cost = table.cost
    return sum(cost[k] for k, _ in slots)


def serial_schedule(threads: list[ThreadCode],
                    costs: CostModel = DEFAULT_COSTS) -> Schedule:
    """No sharing at all: concatenate the threads (what a SIMD machine
    would do with plain serialization)."""
    table = OpTable(costs)
    seqs = table.intern(threads)
    serial_cost = sum(table.cost[k] for _, ops in seqs for k in ops)
    return Schedule(
        entries=[ScheduleEntry(instr, frozenset((t.thread,)))
                 for t in threads for instr in t.code],
        serial_cost=serial_cost, lower_bound=table.lower_bound(seqs),
        cost=serial_cost)


def _greedy(table: OpTable, seqs: list[tuple[int, list[int]]]
            ) -> list[tuple[int, int]]:
    slots = []
    for k, xs, _ in greedy_merge(table, seqs):
        mask = 0
        for x in xs:
            mask |= seqs[x][0]
        slots.append((k, mask))
    return slots


def greedy_schedule(threads: list[ThreadCode],
                    costs: CostModel = DEFAULT_COSTS) -> Schedule:
    """The cheap approximate search: widest-sharing-first multiway merge
    (this is exactly the guarded-DAG construction order)."""
    table = OpTable(costs)
    return _schedule(table, _greedy(table, table.intern(threads)))


def _pairwise_scs(a: list[tuple[int, int]], b: list[tuple[int, int]],
                  cost: list[int]) -> list[tuple[int, int]]:
    """Optimal weighted shortest common supersequence of two guarded
    slot sequences (classic O(n*m) dynamic program). Slots merge when
    their ops are identical; guards union."""
    n, m = len(a), len(b)
    ka = [k for k, _ in a]
    kb = [k for k, _ in b]
    ca = [cost[k] for k in ka]
    cb = [cost[k] for k in kb]
    # f[i][j]: min cost to cover a[i:], b[j:].
    f = [[0] * (m + 1) for _ in range(n + 1)]
    row = f[n]
    for j in range(m - 1, -1, -1):
        row[j] = row[j + 1] + cb[j]
    for i in range(n - 1, -1, -1):
        row1 = row
        row = f[i]
        ki = ka[i]
        ci = ca[i]
        row[m] = row1[m] + ci
        for j in range(m - 1, -1, -1):
            best = row1[j] + ci
            alt = row[j + 1] + cb[j]
            if alt < best:
                best = alt
            if ki == kb[j]:
                alt = row1[j + 1] + ci
                if alt < best:
                    best = alt
            row[j] = best
    # Reconstruct.
    out: list[tuple[int, int]] = []
    i = j = 0
    while i < n or j < m:
        if (
            i < n
            and j < m
            and ka[i] == kb[j]
            and f[i][j] == f[i + 1][j + 1] + ca[i]
        ):
            out.append((ka[i], a[i][1] | b[j][1]))
            i += 1
            j += 1
        elif i < n and f[i][j] == f[i + 1][j] + ca[i]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return out


def _pairwise(table: OpTable, seqs: list[tuple[int, list[int]]]
              ) -> list[tuple[int, int]]:
    cost = table.cost
    # Most expensive first, so the long sequences align first.
    ordered = sorted(seqs, key=lambda s: sum(cost[k] for k in s[1]),
                     reverse=True)
    merged: list[tuple[int, int]] = []
    for bit, ops in ordered:
        seq = [(k, bit) for k in ops]
        merged = _pairwise_scs(merged, seq, cost) if merged else seq
    return merged


def pairwise_schedule(threads: list[ThreadCode],
                      costs: CostModel = DEFAULT_COSTS) -> Schedule:
    """Fold the threads through the pairwise-optimal DP, most expensive
    first (so the long sequences align first)."""
    table = OpTable(costs)
    return _schedule(table, _pairwise(table, table.intern(threads)))


# ----------------------------------------------------------------------
# permutation-in-range improvement
# ----------------------------------------------------------------------
def _improve(slots: list[tuple[int, int]], max_passes: int = 8
             ) -> list[tuple[int, int]]:
    """Permutation-in-range search over guarded slots (see
    :func:`improve_schedule`). A merged-away slot's mask becomes 0, so
    it neither blocks a move nor takes part in one."""
    ops = [k for k, _ in slots]
    masks = [mask for _, mask in slots]
    for _ in range(max_passes):
        merged_any = False
        # Index slots by op for pair discovery.
        by_op: dict[int, list[int]] = {}
        for idx, k in enumerate(ops):
            by_op.setdefault(k, []).append(idx)
        for found in by_op.values():
            if len(found) < 2:
                continue
            # Try to merge later occurrences into earlier ones.
            for ii, i in enumerate(found):
                for j in found[ii + 1:]:
                    target = masks[i]
                    if not target:
                        break
                    moved = masks[j]
                    if not moved or target & moved:
                        continue
                    between = 0
                    for k in range(i + 1, j):
                        between |= masks[k]
                    if not between & moved:
                        # Move j's threads up: merged slot sits at i.
                        masks[i] = target | moved
                        masks[j] = 0
                        merged_any = True
                    elif not between & target:
                        # Move i's threads down: merged slot sits at j.
                        masks[j] = target | moved
                        masks[i] = 0
                        merged_any = True
        if not merged_any:
            break
        keep = [x for x, mask in enumerate(masks) if mask]
        ops = [ops[x] for x in keep]
        masks = [masks[x] for x in keep]
    return list(zip(ops, masks))


def improve_schedule(s: Schedule, costs: CostModel = DEFAULT_COSTS,
                     max_passes: int = 8) -> Schedule:
    """Permutation-in-range search: repeatedly find a pair of slots
    with identical instructions, disjoint guards, and a legal move
    between them, and merge them. Each merge removes one slot, so the
    search terminates; ``max_passes`` bounds the outer fixpoint loop."""
    table = OpTable(costs)
    slots = [(table.op(e.instr), table.mask(e.guards)) for e in s.entries]
    return _schedule(table, _improve(slots, max_passes),
                     s.serial_cost, s.lower_bound)


# ----------------------------------------------------------------------
# main entry point
# ----------------------------------------------------------------------
def csi_schedule(threads: list[ThreadCode],
                 costs: CostModel = DEFAULT_COSTS) -> Schedule:
    """Full CSI pipeline: best of the greedy and pairwise-DP initial
    schedules, improved by the permutation-in-range search. The result
    is verified to preserve every thread's sequence.

    The instructions are interned once (:class:`OpTable`) and every
    pass runs over op ids and guard masks; threads must have distinct
    ids."""
    threads = [t for t in threads if t.code]
    if not threads:
        return Schedule()
    if len(threads) == 1:
        return serial_schedule(threads, costs)
    table = OpTable(costs)
    seqs = table.intern(threads)
    candidates = [_improve(_greedy(table, seqs)),
                  _improve(_pairwise(table, seqs))]
    best = min(candidates, key=lambda slots: _cost(table, slots))
    serial_cost = sum(table.cost[k] for _, ops in seqs for k in ops)
    out = _schedule(table, best, serial_cost, table.lower_bound(seqs))
    verify_schedule(threads, out)
    return out


def verify_schedule(threads: list[ThreadCode], s: Schedule) -> None:
    """Assert ``s`` executes exactly each thread's code in order."""
    for t in threads:
        got = [e.instr for e in s.entries if t.thread in e.guards]
        if got != list(t.code):
            raise ConversionError(
                f"CSI schedule corrupts thread {t.thread}: "
                f"{[str(i) for i in got]} != {[str(i) for i in t.code]}"
            )
