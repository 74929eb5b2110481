"""Runtime support for the fused per-node kernels.

The generated modules of :mod:`repro.codegen.kernels` import this as
``rt``. Everything here is deliberately tiny: the kernels inline the
instruction semantics themselves (mirroring
:func:`repro.simd.vecops.exec_instr` expression for expression), and
only the few helpers that would bloat every generated function live
here. Like the kernels, the helpers enter no ``np.errstate`` scope:
they run inside the caller's (kernel v3 — see
:mod:`repro.codegen.kernels`).

All helpers are width-agnostic: ``n`` in :func:`union` is whatever
``pc.shape[0]`` the kernel was handed, so a shardable kernel running
on a :class:`~repro.simd.shards.ShardView` slice of the PE axis works
with shard-local lane indices throughout (the shard-sliceability
contract since kernel v2).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import MachineError

#: The shared empty lane set. Generated code binds it to ``_E`` and
#: assigns it to statically-empty members and to split/child variables
#: before their guarded definitions. Never mutated — lane arrays are
#: only read and used as indices.
EMPTY = np.empty(0, dtype=np.int64)

EMPTY.setflags(write=False)


def f64(bits: int) -> float:
    """The double whose IEEE 754 bit pattern is ``bits``: how generated
    kernels spell non-finite literals, whose NaN sign ``repr`` drops."""
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def union(n: int, *lanes: np.ndarray) -> np.ndarray:
    """Ascending union of disjoint, sorted lane index arrays over ``n``
    PEs.

    The ascending order is load-bearing: router write conflicts resolve
    to the highest-indexed writer (see :mod:`repro.simd.vecops`)."""
    live = [l for l in lanes if l.size]
    if not live:
        return EMPTY
    if len(live) == 1:
        return live[0]
    mask = np.zeros(n, dtype=bool)
    for l in live:
        mask[l] = True
    return mask.nonzero()[0]


def overflow_scan(depth: int, entries: tuple, sizes: tuple) -> None:
    """Replay one segment's static operand-stack overflow checklist.

    The kernels hoist all per-instruction overflow checks out of the
    body behind a single ``if MAX_ROWS > stack.shape[0]`` guard; only
    when that trips (a stack shallower than the deepest push the
    segment can make) does this slow path run. ``entries`` lists, in
    schedule order, ``(op_name, ((member_index, rows_needed), ...))``
    for every pushing entry; ``sizes`` is the per-member live lane
    count. The first entry with live lanes needing more rows than
    ``depth`` raises — the same error, for the same instruction, the
    interpretive executor would have raised mid-body."""
    for name, reqs in entries:
        rows = 0
        for m, r in reqs:
            if sizes[m] and r > rows:
                rows = r
        if rows > depth:
            raise MachineError(
                f"operand stack overflow executing {name}"
            )
