"""Search-pruning information: operation classes, mobility, lower bound.

"The improved DAG is then used to compute information for pruning the
search: earliest and latest, operation classes, and theoretical lower
bound on execution time" (section 3.1).
"""

from __future__ import annotations

from repro.ir.instr import DEFAULT_COSTS, CostModel, Instr
from repro.csi.dag import OpTable, ThreadCode


def operation_classes(threads: list[ThreadCode]) -> dict[Instr, list[tuple[int, int]]]:
    """Group operations into classes that could share a SIMD
    instruction: identical (opcode, immediate) pairs. Returns, per
    class, the list of (thread, position) occurrences."""
    classes: dict[Instr, list[tuple[int, int]]] = {}
    for t in threads:
        for i, instr in enumerate(t.code):
            classes.setdefault(instr, []).append((t.thread, i))
    return classes


def mobility(threads: list[ThreadCode], schedule_len: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Earliest/latest slot (1-based, inclusive) each operation may
    occupy in a schedule of ``schedule_len`` slots without violating
    its thread's sequential order. Keyed by (thread, position)."""
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for t in threads:
        n = len(t.code)
        for i in range(n):
            earliest = i + 1
            latest = schedule_len - (n - i - 1)
            out[(t.thread, i)] = (earliest, latest)
    return out


def lower_bound_cost(threads: list[ThreadCode],
                     costs: CostModel = DEFAULT_COSTS) -> int:
    """Theoretical lower bound on the SIMD execution time of the merged
    threads. Two bounds, take the larger:

    - the critical-thread bound: no schedule can be cheaper than the
      most expensive single thread (its ops are totally ordered);
    - the class-occupancy bound: a schedule must emit each distinct
      instruction at least as many times as the thread that uses it
      most (a supersequence argument).
    """
    table = OpTable(costs)
    return table.lower_bound(table.intern(threads))
