"""Vectorized execution of stack instructions across processing elements.

One call executes one instruction for a *set* of PEs (numpy fancy
indexing over the PE axis) — the data-parallel inner step of both the
meta-state SIMD machine's interpretive walk and the interpreter
baseline. Per-PE stack pointers are supported (the interpreter needs
them; the meta-state machine's guarded groups keep them uniform within
the enabled set). The generated kernels keep no stack pointer, so the
meta-state machine's walk sets ``sp`` from the program's entry depths
before each segment it runs.

Integer ``/`` and ``%`` are C's truncating ones over int64 through
``np.fmod``; a spelling through ``np.abs`` would wrap at -2**63.

The semantics match :mod:`repro.ir.semantics` bit-for-bit for values
representable in int64 (the package's numeric model; see DESIGN.md).
This module is also the semantic reference for the kernel lowering:
:mod:`repro.codegen.kir` executes :func:`exec_instr`'s operations
symbolically, its NumPy and C printers inline them expression for
expression, and ``tests/test_kernels.py`` / ``tests/test_native.py``
hold the generated code to bit-identical results.

Deterministic router conflicts: when several enabled PEs ``StR`` to the
same destination, the highest-indexed writer wins (``idxs`` is kept
ascending and numpy fancy assignment applies sources in order).
"""

from __future__ import annotations

import numpy as np

from repro.errors import MachineError
from repro.ir.instr import BINARY_OPS, UNARY_OPS, Instr, Op

#: The floating-point error policy of every SIMD executor, as
#: ``np.errstate`` keywords: IEEE overflow and invalid results (inf,
#: NaN, casts of non-finite values to int) pass silently, as Python
#: scalar float arithmetic does (the scalar/vector agreement the
#: cross-machine oracle rests on). ``SimdMachine._loop`` holds one such
#: scope per run and each shard worker thread one for its life; the
#: generated kernels enter none, and :func:`exec_instr` enters its own
#: around arithmetic, because the MIMD oracle calls it outside the step
#: loop.
ERRSTATE = {"over": "ignore", "invalid": "ignore"}


class PeState:
    """The per-PE data of a simulated SIMD machine.

    Attributes
    ----------
    poly:
        (nslots, npes) poly memory.
    mono:
        shared memory (conceptually replicated in each PE; the cost
        model charges the broadcast on ``StM``).
    stack / sp:
        (depth, npes) operand stacks and per-PE stack pointers.
    rstack / rsp:
        return-selector stacks for the recursion trick; ``SimdMachine``
        gives them no rows when the program pushes no selector
        (:class:`~repro.ir.cfg.EntryDepths`).

    The PE axis is always the *last* axis, so a contiguous PE range is
    a numpy basic slice — a writable view, not a copy. That layout is
    what lets :class:`~repro.simd.shards.ShardView` hand disjoint
    slices of one shared state to parallel shard workers; kernels
    must accept any object with these attributes.
    """

    def __init__(self, npes: int, n_poly: int, n_mono: int,
                 stack_depth: int = 64, rstack_depth: int = 256):
        self.npes = npes
        self.poly = np.zeros((n_poly, npes), dtype=np.float64)
        self.mono = np.zeros(n_mono, dtype=np.float64)
        self.stack = np.zeros((stack_depth, npes), dtype=np.float64)
        self.sp = np.zeros(npes, dtype=np.int64)
        self.rstack = np.zeros((rstack_depth, npes), dtype=np.float64)
        self.rsp = np.zeros(npes, dtype=np.int64)
        self.pids = np.arange(npes, dtype=np.float64)

    def reset_pes(self, idxs: np.ndarray) -> None:
        """Clear the stacks of the given PEs (halt / spawn setup)."""
        self.sp[idxs] = 0
        self.rsp[idxs] = 0


def _as_int(x: np.ndarray) -> np.ndarray:
    return x.astype(np.int64)


def _binary(op: Op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if op is Op.ADD:
        return a + b
    if op is Op.SUB:
        return a - b
    if op is Op.MUL:
        return a * b
    if op is Op.DIV:
        if (b == 0).any():
            raise MachineError("float division by zero")
        return a / b
    if op in (Op.IDIV, Op.MOD):
        # C's truncating division: np.fmod is the remainder, and ia - r
        # is a multiple of ib, so its floor quotient is the truncated
        # one; no absolute value, which would wrap at -2**63.
        ia, ib = _as_int(a), _as_int(b)
        if (ib == 0).any():
            raise MachineError("integer division or remainder by zero")
        r = np.fmod(ia, ib)
        return ((ia - r) // ib if op is Op.IDIV else r).astype(np.float64)
    if op is Op.LT:
        return (a < b).astype(np.float64)
    if op is Op.LE:
        return (a <= b).astype(np.float64)
    if op is Op.GT:
        return (a > b).astype(np.float64)
    if op is Op.GE:
        return (a >= b).astype(np.float64)
    if op is Op.EQ:
        return (a == b).astype(np.float64)
    if op is Op.NE:
        return (a != b).astype(np.float64)
    if op is Op.BAND:
        return (_as_int(a) & _as_int(b)).astype(np.float64)
    if op is Op.BOR:
        return (_as_int(a) | _as_int(b)).astype(np.float64)
    if op is Op.BXOR:
        return (_as_int(a) ^ _as_int(b)).astype(np.float64)
    if op is Op.SHL:
        return (_as_int(a) << (_as_int(b) & 63)).astype(np.float64)
    if op is Op.SHR:
        return (_as_int(a) >> (_as_int(b) & 63)).astype(np.float64)
    if op is Op.LAND:
        return ((a != 0) & (b != 0)).astype(np.float64)
    if op is Op.LOR:
        return ((a != 0) | (b != 0)).astype(np.float64)
    raise AssertionError(f"not a binary opcode: {op}")


def _unary(op: Op, a: np.ndarray) -> np.ndarray:
    if op is Op.NEG:
        return -a
    if op is Op.NOT:
        return (a == 0).astype(np.float64)
    if op is Op.BNOT:
        return (~_as_int(a)).astype(np.float64)
    if op is Op.TRUNC:
        return np.trunc(a)
    if op is Op.BOOL:
        return (a != 0).astype(np.float64)
    raise AssertionError(f"not a unary opcode: {op}")


def exec_instr(instr: Instr, idxs: np.ndarray, st: PeState) -> None:
    """Execute ``instr`` on the PEs in ``idxs`` (ascending indices).

    Mutates ``st`` in place. Raises
    :class:`~repro.errors.MachineError` on stack overflow/underflow,
    router range errors, or division by zero.

    The per-PE stack pointers are gathered once; when every enabled PE
    sits at the same depth (always true inside a meta-state guarded
    group, and the common case for the interpreter) a stack row is
    indexed first and the lanes second — a 1-D fancy index into the row
    view, as for poly slots — instead of the two-array fancy index that
    mixed depths need.
    """
    if idxs.size == 0:
        return
    op = instr.op
    sp = st.sp
    stack = st.stack
    poly = st.poly
    spi = sp[idxs]
    lo = int(spi.min())
    hi = int(spi.max())

    if lo == hi:
        def get(off):
            """The enabled PEs' stack cells at depth ``sp + off``."""
            return stack[lo + off][idxs]

        def put(off, values):
            stack[lo + off][idxs] = values
    else:
        def get(off):
            return stack[spi + off, idxs]

        def put(off, values):
            stack[spi + off, idxs] = values

    def _under():
        raise MachineError(f"operand stack underflow executing {op.value}")

    def _over(room):
        if hi + room > stack.shape[0]:
            raise MachineError(
                f"operand stack overflow executing {op.value}"
            )

    if op in BINARY_OPS:
        if lo < 2:
            _under()
        b = get(-1)
        a = get(-2)
        # Python scalar float arithmetic silently produces inf/nan at
        # the IEEE edges; match it (the scalar/vector agreement is what
        # the cross-machine oracle rests on).
        with np.errstate(**ERRSTATE):
            put(-2, _binary(op, a, b))
        sp[idxs] = spi - 1
        return
    if op in UNARY_OPS:
        if lo < 1:
            _under()
        with np.errstate(**ERRSTATE):
            put(-1, _unary(op, get(-1)))
        return
    if op is Op.PUSH:
        _over(1)
        put(0, float(instr.arg))
        sp[idxs] = spi + 1
        return
    if op is Op.POP:
        n = int(instr.arg)
        if lo < n:
            _under()
        sp[idxs] = spi - n
        return
    if op is Op.SWAP:
        if lo < 2:
            _under()
        a = get(-1)
        put(-1, get(-2))
        put(-2, a)
        return
    if op is Op.DUP:
        if lo < 1:
            _under()
        _over(1)
        put(0, get(-1))
        sp[idxs] = spi + 1
        return
    if op is Op.LD:
        _over(1)
        put(0, poly[int(instr.arg)][idxs])
        sp[idxs] = spi + 1
        return
    if op is Op.ST:
        if lo < 1:
            _under()
        poly[int(instr.arg)][idxs] = get(-1)
        sp[idxs] = spi - 1
        return
    if op is Op.LDM:
        _over(1)
        put(0, st.mono[int(instr.arg)])
        sp[idxs] = spi + 1
        return
    if op is Op.STM:
        if lo < 1:
            _under()
        # A mono store broadcasts; with several enabled writers the
        # highest-indexed PE's value wins (deterministic rule).
        st.mono[int(instr.arg)] = get(-1)[-1]
        sp[idxs] = spi - 1
        return
    if op is Op.LDR:
        if lo < 1:
            _under()
        targets = get(-1).astype(np.int64)
        if ((targets < 0) | (targets >= st.npes)).any():
            raise MachineError("parallel read from out-of-range PE")
        put(-1, poly[int(instr.arg)][targets])
        return
    if op is Op.STR:
        if lo < 2:
            _under()
        targets = get(-1).astype(np.int64)
        values = get(-2)
        if ((targets < 0) | (targets >= st.npes)).any():
            raise MachineError("parallel write to out-of-range PE")
        poly[int(instr.arg)][targets] = values
        sp[idxs] = spi - 2
        return
    if op in (Op.LDI, Op.LDMI):
        if lo < 1:
            _under()
        eidx = get(-1).astype(np.int64)
        _check_bounds(eidx, instr)
        base = int(instr.arg)
        if op is Op.LDI:
            put(-1, poly[base + eidx, idxs])
        else:
            put(-1, st.mono[base + eidx])
        return
    if op in (Op.STI, Op.STMI):
        if lo < 2:
            _under()
        eidx = get(-1).astype(np.int64)
        _check_bounds(eidx, instr)
        values = get(-2)
        base = int(instr.arg)
        if op is Op.STI:
            poly[base + eidx, idxs] = values
        else:
            # Broadcast store; colliding elements resolve to the
            # highest-indexed writer (fancy-assignment order).
            st.mono[base + eidx] = values
        sp[idxs] = spi - 2
        return
    if op is Op.PROCNUM:
        _over(1)
        put(0, st.pids[idxs])
        sp[idxs] = spi + 1
        return
    if op is Op.NPROC:
        _over(1)
        put(0, float(st.npes))
        sp[idxs] = spi + 1
        return
    if op is Op.SEL:
        if lo < 3:
            _under()
        b = get(-1)
        a = get(-2)
        put(-3, np.where(get(-3) != 0, a, b))
        sp[idxs] = spi - 2
        return
    if op is Op.RPUSH:
        rspi = st.rsp[idxs]
        if int(rspi.max()) >= st.rstack.shape[0]:
            raise MachineError("return-selector stack overflow")
        st.rstack[rspi, idxs] = float(instr.arg)
        st.rsp[idxs] = rspi + 1
        return
    if op is Op.RPOP:
        rspi = st.rsp[idxs]
        if int(rspi.min()) < 1:
            raise MachineError("return-selector stack underflow")
        _over(1)
        rspi = rspi - 1
        st.rsp[idxs] = rspi
        put(0, st.rstack[rspi, idxs])
        sp[idxs] = spi + 1
        return
    raise AssertionError(f"unhandled opcode {op}")


def _check_bounds(eidx: np.ndarray, instr: Instr) -> None:
    size = int(instr.arg2)
    if ((eidx < 0) | (eidx >= size)).any():
        raise MachineError(
            f"array index out of range 0..{size - 1} in {instr}"
        )
