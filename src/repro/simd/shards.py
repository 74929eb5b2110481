"""Sharded parallel execution of the PE axis.

Within one meta-node step every PE is independent: bodies and
terminators read and write only the executing PE's column of the state
arrays, and ``globalor`` is the only cross-PE reduction (the MasPar
topology the paper targets — and the same independence property
Sin'ya & Matsuzaki exploit for data-parallel automata execution). This
module partitions the PE axis into contiguous shards and runs each
shard's slice of a meta-node step on a persistent worker pool:

- **shard layout** — :func:`shard_bounds` splits ``npes`` into
  ``nshards`` contiguous ``[lo, hi)`` ranges whose sizes differ by at
  most one; :class:`ShardView` wraps the shared :class:`~repro.simd.
  vecops.PeState` with per-shard *views* (numpy basic slices of the PE
  axis), so shards write disjoint slices of the same arrays in place —
  no copies, no result merging;
- **worker pool** — :class:`ShardPool` keeps ``nshards - 1`` daemon
  threads parked on a condition variable; each step the main thread
  publishes one task per shard, runs shard 0 itself, and waits for the
  rest. NumPy and the native kernels' ``ctypes`` calls release the
  GIL in the hot loops, so shards overlap on multi-core hosts;
- **fan-out and combine** — :class:`ShardFan` runs one node callable
  on every shard and combines the shard results into the serial ones;
  shard-local ``globalor`` values combine with :func:`tree_or`
  (pairwise OR rounds, the software twin of the hardware reduction
  tree) before the shared dispatch on the hash-encoded meta
  transition.

Only *lane-local* nodes are sharded: a node whose plan contains a
cross-lane operation (mono store, router read/write) or a spawn
terminator runs on the full arrays instead
(:attr:`~repro.codegen.plan.NodePlan.shardable` is precomputed by the
plan compiler). That split is what keeps sharded results bit-identical
to serial ones — see docs/internals.md ("The sharded runtime") for the
accounting argument.

Errors raised inside a worker abort the step; the machine then replays
the whole run serially on the ``kernels`` backend so the surfaced
:class:`~repro.errors.MachineError` is exactly the serial one,
including its in-order position across shard boundaries (execution is
deterministic and failing runs discard machine state, so the replay is
free of observable side effects).
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.errors import MachineError
from repro.simd.vecops import ERRSTATE

#: Measured on the BENCH_9 16K-PE scaling workload: below roughly this
#: many lanes per shard the pool's publish/wake/join handoff costs more
#: than the lane work it parallelizes, and sharded runs regress below
#: serial ones (BENCH_8 showed sharded ``kernels`` at 0.83x of serial
#: for exactly this reason). See :func:`inline_threshold`; 1 shards
#: every run, even on a single-CPU host (the test suite sets it so tiny
#: fixtures exercise genuine sharding).
MIN_SHARD_LANES = 2048


def inline_threshold() -> int:
    """Minimum per-shard lane count below which a sharded run skips
    the :class:`ShardPool` (the machine demotes the shard count to 1;
    the reported backend label is unchanged and ``SimdResult.shards``
    records 1).

    :data:`MIN_SHARD_LANES` on a multi-CPU host. On a single-CPU host
    the pool can never win, so the threshold is effectively infinite
    unless :data:`MIN_SHARD_LANES` is 1.
    """
    if MIN_SHARD_LANES > 1 and (os.cpu_count() or 1) < 2:
        return 1 << 62
    return MIN_SHARD_LANES


def default_shard_count() -> int:
    """The shard count used when none is given: ``REPRO_SHARDS`` if
    set (CI runs a ``REPRO_SHARDS=4`` leg this way), else 1. An empty
    value counts as unset; any other value that is not an integer
    >= 1 raises :class:`MachineError`."""
    env = os.environ.get("REPRO_SHARDS", "")
    if not env:
        return 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise MachineError(
            f"REPRO_SHARDS={env!r} is not an integer >= 1")
    return count


def resolve_shard_count(shards: int | None, npes: int) -> int:
    """Validate and resolve a requested shard count against ``npes``.

    ``None`` means the default (:func:`default_shard_count`); any
    resolved count is clamped to ``npes`` so no shard is empty (asking
    for more shards than PEs is allowed — ``npes + 1`` shards simply
    behaves like ``npes``). One shard degrades to the serial path.
    """
    if shards is None:
        shards = default_shard_count()
    if shards < 1:
        raise MachineError(f"shards={shards} out of range (need >= 1)")
    return min(shards, npes)


def shard_bounds(npes: int, nshards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` PE ranges for ``nshards`` shards whose
    sizes differ by at most one (the first ``npes % nshards`` shards
    take the extra lane)."""
    base, rem = divmod(npes, nshards)
    bounds = []
    lo = 0
    for i in range(nshards):
        hi = lo + base + (1 if i < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class ShardView:
    """A per-shard view of a :class:`~repro.simd.vecops.PeState`.

    Every array attribute is a numpy basic-slice *view* of the shared
    state along the PE axis, so in-place writes land in the shared
    arrays directly. ``npes`` stays the *global* PE count — ``nproc``
    must push the machine width, not the shard width — and ``mono`` is
    the shared array itself (sharded nodes never write it; see the
    shardability rule in the module docstring).
    """

    __slots__ = ("lo", "hi", "npes", "poly", "mono", "stack", "sp",
                 "rstack", "rsp", "pids")

    def __init__(self, st, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        self.npes = st.npes
        self.poly = st.poly[:, lo:hi]
        self.mono = st.mono
        self.stack = st.stack[:, lo:hi]
        self.sp = st.sp[lo:hi]
        self.rstack = st.rstack[:, lo:hi]
        self.rsp = st.rsp[lo:hi]
        self.pids = st.pids[lo:hi]

    def reset_pes(self, idxs: np.ndarray) -> None:
        """Clear the stacks of the given (shard-local) PEs."""
        self.sp[idxs] = 0
        self.rsp[idxs] = 0


def shard_globalor(pc: np.ndarray, bit_weights: np.ndarray) -> int:
    """``globalor`` of one ``pc`` slice (a shard's, or the whole
    machine's): OR of ``1 << pc`` over its live lanes, as one gather of
    every lane through the plan's bit-weight table plus a
    ``bitwise_or`` reduction. The table's two trailing zeros weigh the
    negative sentinel pcs, so no live mask is needed (see
    :attr:`repro.codegen.plan.ProgramPlan.bit_weights`)."""
    return int(np.bitwise_or.reduce(bit_weights[pc]))


def tree_or(values) -> int:
    """Pairwise tree reduction of shard aggregates — OR is associative
    and commutative, so this is exactly the serial ``globalor`` value
    regardless of shard layout."""
    vals = list(values)
    if not vals:
        return 0
    while len(vals) > 1:
        vals = [vals[i] | vals[i + 1] if i + 1 < len(vals) else vals[i]
                for i in range(0, len(vals), 2)]
    return vals[0]


class ShardError(Exception):
    """Carrier for the exceptions raised inside shard workers. The
    machine catches it and replays the run serially on the ``kernels``
    backend, which raises the exact serial error in order."""

    def __init__(self, errors):
        super().__init__(f"{len(errors)} shard worker(s) failed")
        self.errors = errors


class ShardFan:
    """One run's fan-out of node callables over the PE shards.

    Built once per run over the shared state: per-shard
    :class:`ShardView`\\ s and ``pc`` slices, plus the persistent pool
    for the shard count. Given ``bind`` (native runs:
    :func:`repro.simd.nativert.bind`), each view is bound once here,
    with its own scratch, and the callables take the binding in place
    of the view. Calling it runs a node callable with the kernel
    convention ``fn(pc, st) -> (body, transition, enabled, exited)`` on
    every shard and combines the shard results into exactly the serial
    ones:

    - per-segment control-unit cycles are lane-count independent, and
      (absent spawn) a shard's live set within a node only shrinks, so
      the shard that exits the node latest reproduces the serial
      (body, transition) charge — combine is ``max``;
    - enabled-PE cycles are per lane — combine is ``sum``;
    - the mid-node exit test is "no live PE anywhere" — combine is
      ``all``;
    - ``globalor`` is an OR — combine is :func:`tree_or`.
    """

    def __init__(self, st, pc: np.ndarray, nshards: int,
                 bit_weights: np.ndarray, bind=None):
        self.shards = []
        for lo, hi in shard_bounds(st.npes, nshards):
            spc, view = pc[lo:hi], ShardView(st, lo, hi)
            self.shards.append(
                (spc, view if bind is None else bind(spc, view)))
        self.pool = get_pool(nshards)
        self.bit_weights = bit_weights

    def __call__(self, fn, need_agg: bool):
        """Run ``fn`` on every shard: ``(body, transition, enabled,
        exited, aggregate)``, where the ``globalor`` aggregate is
        ``None`` unless ``need_agg``."""
        weights = self.bit_weights

        def task(spc, view):
            out = fn(spc, view)
            return out, (shard_globalor(spc, weights) if need_agg else 0)

        outs = self.pool.run([(lambda spc=spc, view=view: task(spc, view))
                              for spc, view in self.shards])
        return (max(o[0][0] for o in outs),
                max(o[0][1] for o in outs),
                sum(o[0][2] for o in outs),
                all(o[0][3] for o in outs),
                tree_or(o[1] for o in outs) if need_agg else None)


class ShardPool:
    """``n_extra`` persistent daemon worker threads plus the caller.

    :meth:`run` takes one zero-argument task per shard; the calling
    thread executes task 0 inline while workers run the rest, then
    blocks until every worker finished. Tasks mutate disjoint state
    slices, so no locking beyond the round handoff is needed. Worker
    exceptions are collected and re-raised as one :class:`ShardError`
    after the round completes (never mid-round — the shared arrays are
    not touched again after a failed round).
    """

    def __init__(self, n_extra: int):
        self.n_extra = n_extra
        self._run_lock = threading.Lock()
        self._cv = threading.Condition()
        self._round = 0
        self._pending = 0
        self._tasks = None
        self._results = None
        self._errors = None
        self._stop = False
        self._threads = []
        for i in range(n_extra):
            t = threading.Thread(target=self._worker, args=(i,),
                                 name=f"msc-shard-{i + 1}", daemon=True)
            t.start()
            self._threads.append(t)

    def run(self, tasks) -> list:
        """Execute one task per shard; returns their results in shard
        order. ``len(tasks)`` must be ``n_extra + 1``. Concurrent
        callers (pools are shared process-wide, see :func:`get_pool`)
        serialize on a per-pool lock."""
        if self.n_extra == 0:
            return [t() for t in tasks]
        if len(tasks) != self.n_extra + 1:
            raise AssertionError(
                f"pool sized for {self.n_extra + 1} shards, "
                f"got {len(tasks)} tasks")
        with self._run_lock:
            results: list = [None] * len(tasks)
            errors: list = []
            with self._cv:
                self._tasks = tasks
                self._results = results
                self._errors = errors
                self._pending = self.n_extra
                self._round += 1
                self._cv.notify_all()
            try:
                results[0] = tasks[0]()
            except Exception as exc:  # collected; raised after the round
                errors.append(exc)
            with self._cv:
                while self._pending:
                    self._cv.wait()
                self._tasks = self._results = self._errors = None
        if errors:
            raise ShardError(errors)
        return results

    def close(self) -> None:
        """Release the worker threads (idempotent)."""
        with self._cv:
            self._stop = True
            self._cv.notify_all()

    def _worker(self, idx: int) -> None:
        # NumPy keeps its error state per context, and a new thread
        # does not inherit its creator's: hold the step loop's scope
        # for the thread's life, so a shard task runs under the same
        # policy as shard 0 on the calling thread.
        seen = 0
        with np.errstate(**ERRSTATE):
            while True:
                with self._cv:
                    while self._round == seen and not self._stop:
                        self._cv.wait()
                    if self._stop:
                        return
                    seen = self._round
                    tasks = self._tasks
                    results = self._results
                    errors = self._errors
                try:
                    results[idx + 1] = tasks[idx + 1]()
                except Exception as exc:
                    errors.append(exc)
                with self._cv:
                    self._pending -= 1
                    if not self._pending:
                        self._cv.notify_all()


#: Process-wide pools, keyed by shard count. Worker threads are daemon
#: threads parked on a condition variable between rounds, so keeping
#: the handful of pools alive for the process lifetime is cheap and
#: avoids per-run thread churn.
_pools: dict[int, ShardPool] = {}


def get_pool(nshards: int) -> ShardPool:
    """The shared persistent pool for ``nshards`` shards."""
    pool = _pools.get(nshards)
    if pool is None:
        pool = _pools[nshards] = ShardPool(nshards - 1)
    return pool
