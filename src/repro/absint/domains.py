"""Lattice domains for the absint solver.

Two value domains run over the MIMDC CFG (the third, uniform/varying
divergence, lives in :mod:`repro.absint.uniformity`):

:class:`IntervalDomain`
    Per-poly-slot value ranges.  A state maps every poly slot to an
    :class:`Interval`; the machine zero-fills memory, so the entry
    state is ``[0, 0]`` everywhere.  Mono slots (one copy
    machine-wide) and *router-escaped* poly slots (targets of ``StR``
    or sources of ``LdR`` — any PE can observe another PE's copy at an
    arbitrary instant) live in flow-insensitive global cells instead:
    stores join into the cell, loads read it, and the solver re-sweeps
    when a cell grows (:meth:`IntervalDomain.poll_dirty`).

    Soundness leans on IEEE-754 monotonicity: the machine computes in
    float64 and rounding-to-nearest is monotone, so evaluating the
    interval corners with the same float arithmetic brackets every
    concrete result.  Integer-valued float64s stay integer-valued
    under ``+ - * %`` and the bit ops, so the ``integral`` flag
    survives arithmetic too.

:class:`InitDomain`
    Must-initialize sets: the poly slots *definitely* stored on every
    path from entry.  The join is set intersection (a slot is
    initialized only when all predecessors initialized it), so the
    chain is decreasing and finite — no widening needed.  ``StR`` does
    not count: it initializes the *targeted* PE's copy, not the
    executing PE's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from typing import Any

from repro.ir.cfg import Cfg
from repro.ir.instr import BINARY_OPS, UNARY_OPS, Instr, Op

INF = math.inf

#: Joins into one global cell before further growth widens to ±inf.
GLOBAL_WIDEN_AFTER = 8


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed float interval, optionally known integer-valued.

    ``lo > hi`` encodes bottom (no value); ``integral`` means every
    concrete value is an integer-valued float (``5.0``, not ``5.5``).
    """

    lo: float
    hi: float
    integral: bool = False

    # ------------------------------------------------------------------
    @property
    def is_bottom(self) -> bool:
        return self.lo > self.hi

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi and math.isfinite(self.lo)

    def contains(self, value: float) -> bool:
        """Does the concretization include ``value``?  NaN only belongs
        to the full float range (a NaN-producing op is modeled TOP)."""
        if math.isnan(value):
            return self.lo == -INF and self.hi == INF
        return self.lo <= value <= self.hi

    def join(self, other: "Interval") -> "Interval":
        if self is other:
            return self
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        # Absorption fast paths preserve object identity, which keeps
        # the solver's tuple-equality stability checks on the pointer
        # fast path (PyObject_RichCompareBool short-circuits ``is``).
        if (self.lo <= other.lo and other.hi <= self.hi
                and (other.integral or not self.integral)):
            return self
        if (other.lo <= self.lo and self.hi <= other.hi
                and (self.integral or not other.integral)):
            return other
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi),
                        self.integral and other.integral)

    def widen(self, newer: "Interval") -> "Interval":
        """Classic interval widening: a growing bound jumps to ±inf."""
        if self is newer:
            return self
        if self.is_bottom:
            return newer
        if newer.is_bottom:
            return self
        lo = self.lo if newer.lo >= self.lo else -INF
        hi = self.hi if newer.hi <= self.hi else INF
        if lo == self.lo and hi == self.hi and \
                (newer.integral or not self.integral):
            return self
        return Interval(lo, hi, self.integral and newer.integral)

    def __str__(self) -> str:
        if self.is_bottom:
            return "⊥"
        tag = "i" if self.integral else ""
        return f"[{self.lo:g}, {self.hi:g}]{tag}"


TOP = Interval(-INF, INF, False)
TOP_INT = Interval(-INF, INF, True)
BOTTOM = Interval(INF, -INF, True)
ZERO = Interval(0.0, 0.0, True)
BIT = Interval(0.0, 1.0, True)
#: ``ProcNum``: a PE id — non-negative, machine width unknown at
#: compile time.
PE_ID = Interval(0.0, INF, True)
#: ``NProc``: at least one PE exists.
NPROCS = Interval(1.0, INF, True)


_const_cache: dict[float, Interval] = {}


def const(value: float) -> Interval:
    v = float(value)
    if math.isnan(v):
        return TOP
    iv = _const_cache.get(v)
    if iv is None:
        iv = Interval(v, v, v.is_integer())
        # Interned so re-transferring a block yields identical objects
        # (bounded: program literals only).
        if len(_const_cache) < 65536:
            _const_cache[v] = iv
    return iv


def _safe_mul(x: float, y: float) -> float:
    """Corner product with the IEEE ``0 * inf = nan`` pole removed
    (an infinite bound times a zero bound brackets at zero)."""
    if x == 0.0 or y == 0.0:
        return 0.0
    return x * y


def _trunc(x: float) -> float:
    return x if math.isinf(x) else float(math.trunc(x))


def interval_add(a: Interval, b: Interval) -> Interval:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    lo, hi = a.lo + b.lo, a.hi + b.hi
    return Interval(-INF if math.isnan(lo) else lo,
                    INF if math.isnan(hi) else hi,
                    a.integral and b.integral)


def interval_neg(a: Interval) -> Interval:
    if a.is_bottom:
        return BOTTOM
    return Interval(-a.hi, -a.lo, a.integral)


def interval_sub(a: Interval, b: Interval) -> Interval:
    return interval_add(a, interval_neg(b))


def interval_mul(a: Interval, b: Interval) -> Interval:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    corners = [_safe_mul(a.lo, b.lo), _safe_mul(a.lo, b.hi),
               _safe_mul(a.hi, b.lo), _safe_mul(a.hi, b.hi)]
    return Interval(min(corners), max(corners), a.integral and b.integral)


def interval_div(a: Interval, b: Interval) -> Interval:
    """Float division; refined only for a constant nonzero divisor
    (monotone in the dividend for a fixed divisor sign)."""
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    if b.is_const and b.lo != 0.0:
        ends = sorted((a.lo / b.lo, a.hi / b.lo))
        return Interval(ends[0], ends[1], False)
    return TOP


def interval_idiv(a: Interval, b: Interval) -> Interval:
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    if b.is_const and b.lo != 0.0:
        ends = sorted((_trunc(a.lo / b.lo), _trunc(a.hi / b.lo)))
        return Interval(ends[0], ends[1], True)
    return TOP_INT


def interval_mod(a: Interval, b: Interval) -> Interval:
    """Truncated remainder (sign follows the dividend, like C and
    ``fmod``); refined for a constant finite nonzero modulus."""
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    if not (b.is_const and b.lo != 0.0):
        return Interval(-INF, INF, a.integral and b.integral)
    m = abs(b.lo)
    integral = a.integral and b.integral
    if a.lo >= 0.0 and a.hi < m:
        return a  # x % m == x for 0 <= x < m
    bound = m - 1.0 if integral else m
    if a.lo >= 0.0:
        return Interval(0.0, bound, integral)
    if a.hi <= 0.0:
        return Interval(-bound, 0.0, integral)
    return Interval(-bound, bound, integral)


def interval_trunc(a: Interval) -> Interval:
    if a.is_bottom:
        return BOTTOM
    return Interval(_trunc(a.lo), _trunc(a.hi), True)


def binary_transfer(op: Op, a: Interval, b: Interval) -> Interval:
    """Abstract result of ``a <op> b`` (operands in machine order)."""
    if op is Op.ADD:
        return interval_add(a, b)
    if op is Op.SUB:
        return interval_sub(a, b)
    if op is Op.MUL:
        return interval_mul(a, b)
    if op is Op.DIV:
        return interval_div(a, b)
    if op is Op.IDIV:
        return interval_idiv(a, b)
    if op is Op.MOD:
        return interval_mod(a, b)
    if op in _COMPARISONS:
        return BIT
    if op in _BITWISE:
        return TOP_INT
    return TOP


_COMPARISONS = frozenset({Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ, Op.NE,
                          Op.LAND, Op.LOR})
_BITWISE = frozenset({Op.BAND, Op.BOR, Op.BXOR, Op.SHL, Op.SHR})


def escaped_slots(cfg: Cfg, reachable: set[int]) -> frozenset[int]:
    """Poly slots whose copies cross the router: ``StR`` targets and
    ``LdR`` sources.  Any PE can observe them mid-flight, so the
    interval domain tracks them flow-insensitively."""
    out: set[int] = set()
    for bid in reachable:
        for ins in cfg.blocks[bid].code:
            if ins.op is Op.STR or ins.op is Op.LDR:
                out.add(int(ins.arg or 0))
    return frozenset(out)


#: One interval per poly slot index.
IntervalState = tuple[Interval, ...]

#: Compiled micro-op: ``(tag, operand, extra)``.  ``operand`` is a
#: pre-built :class:`Interval` for pushes, an :class:`Op` for
#: binary/unary dispatch, and a decoded slot/base index otherwise.
MicroOp = tuple[int, Any, int]

(_U_PUSH, _U_LD, _U_LDM, _U_DUP, _U_SWAP, _U_POP, _U_BINARY, _U_UNARY,
 _U_SEL, _U_LDI, _U_LDMI, _U_LDR, _U_ST, _U_STI, _U_STR, _U_STM,
 _U_STMI) = range(17)

_WRITE_TAGS = frozenset({_U_ST, _U_STI, _U_STR, _U_STM, _U_STMI})


def _has_writes(ops: list[MicroOp]) -> bool:
    """Does the compiled block write a poly slot or grow a shared
    cell?  If not, its transfer is the identity on the slot state."""
    return any(tag in _WRITE_TAGS for tag, _a1, _a2 in ops)


def compile_code(code: list[Instr]) -> list[MicroOp]:
    """Compile one block's instruction stream to micro-ops.

    Enum dispatch, ``int(ins.arg or 0)`` decoding, and constant
    interval construction happen once here; every abstract executor
    (the interval transfer, the init gen sets, the fact scans, the
    block footprints, and the uniformity scan in
    :mod:`repro.absint.uniformity`) then runs over the same pre-decoded
    tuples.  ``RPush`` compiles to nothing.  Uniformity relies on one
    encoding detail: the varying value sources (``ProcNum``, ``RPop``)
    compile to a ``_U_PUSH`` of the :data:`PE_ID` singleton, everything
    else pushes a different object.
    """
    out: list[MicroOp] = []
    for ins in code:
        op = ins.op
        # Push carries a float constant (possibly inf or NaN); every
        # other immediate is a slot, pop count or selector.
        arg = 0 if op is Op.PUSH else int(ins.arg or 0)
        if op is Op.PUSH:
            out.append((_U_PUSH, const(float(ins.arg or 0)), 0))
        elif op is Op.PROCNUM:
            out.append((_U_PUSH, PE_ID, 0))
        elif op is Op.NPROC:
            out.append((_U_PUSH, NPROCS, 0))
        elif op is Op.RPOP:
            # Recursion return selector: a small non-negative tag.
            out.append((_U_PUSH, PE_ID, 0))
        elif op is Op.RPUSH:
            pass
        elif op is Op.LD:
            out.append((_U_LD, arg, 0))
        elif op is Op.LDM:
            out.append((_U_LDM, arg, 0))
        elif op is Op.DUP:
            out.append((_U_DUP, 0, 0))
        elif op is Op.SWAP:
            out.append((_U_SWAP, 0, 0))
        elif op is Op.POP:
            out.append((_U_POP, arg, 0))
        elif op in BINARY_OPS:
            out.append((_U_BINARY, op, 0))
        elif op in UNARY_OPS:
            out.append((_U_UNARY, op, 0))
        elif op is Op.SEL:
            out.append((_U_SEL, 0, 0))
        elif op is Op.LDI:
            out.append((_U_LDI, arg, int(ins.arg2 or 1)))
        elif op is Op.LDMI:
            out.append((_U_LDMI, arg, int(ins.arg2 or 1)))
        elif op is Op.LDR:
            out.append((_U_LDR, arg, 0))
        elif op is Op.ST:
            out.append((_U_ST, arg, 0))
        elif op is Op.STI:
            out.append((_U_STI, arg, int(ins.arg2 or 1)))
        elif op is Op.STR:
            out.append((_U_STR, arg, 0))
        elif op is Op.STM:
            out.append((_U_STM, arg, 0))
        elif op is Op.STMI:
            out.append((_U_STMI, arg, int(ins.arg2 or 1)))
        else:  # pragma: no cover - exhaustive over the ISA
            raise AssertionError(f"unhandled opcode {op}")
    return out


class IntervalDomain:
    """Per-slot interval states plus shared global cells."""

    def __init__(self, cfg: Cfg, entry_depths: dict[int, int],
                 compiled: dict[int, list[MicroOp]] | None = None) -> None:
        self.cfg = cfg
        self.entry_depths = entry_depths
        self.n_poly = len(cfg.poly_slots)
        # One eager pass compiles every reachable block (unless the
        # caller passes a map the uniformity analysis already built)
        # and derives the router-escaped slot set from the compiled ops
        # (no separate instruction-stream scans).  The full map stays
        # public: the fact scans and the init domain walk the same
        # micro-ops instead of re-decoding the instruction streams.
        full: dict[int, list[MicroOp]] = {}
        escaped: set[int] = set()
        self._compiled: dict[int, list[MicroOp] | None] = {}
        for bid in entry_depths:
            ops = (compiled.get(bid) if compiled is not None else None)
            if ops is None:
                ops = compile_code(cfg.blocks[bid].code)
            full[bid] = ops
            for tag, a1, _a2 in ops:
                if tag == _U_STR or tag == _U_LDR:
                    escaped.add(a1)
            self._compiled[bid] = ops if _has_writes(ops) else None
        self.compiled: dict[int, list[MicroOp]] = full
        self.escaped = frozenset(escaped)
        #: Flow-insensitive cells: escaped poly slots and mono slots.
        #: Memory starts zero-filled, so every cell starts at [0, 0].
        self.poly_global: dict[int, Interval] = {
            s: ZERO for s in self.escaped
        }
        self.mono_global: dict[int, Interval] = {
            i: ZERO for i in range(len(cfg.mono_slots))
        }
        self._dirty = False
        self._cell_joins: dict[tuple[str, int], int] = {}
        #: Blocks whose transfer reads a flow-insensitive cell (mono
        #: loads, router loads, or local loads of escaped slots): the
        #: only blocks a grown cell can invalidate.
        self._global_readers: frozenset[int] = frozenset(
            bid for bid, ops in full.items()
            if self._reads_globals(ops)
        )

    def _reads_globals(self, ops: list[MicroOp]) -> bool:
        for tag, a1, a2 in ops:
            if tag == _U_LDM or tag == _U_LDMI or tag == _U_LDR:
                return True
            if tag == _U_LD and a1 in self.escaped:
                return True
            if tag == _U_LDI and any(
                    s in self.escaped for s in range(a1, a1 + a2)):
                return True
        return False

    # ------------------------------------------------------------------
    def entry_state(self) -> IntervalState:
        return tuple(
            TOP if s in self.escaped else ZERO for s in range(self.n_poly)
        )

    def join(self, a: IntervalState, b: IntervalState) -> IntervalState:
        if a is b:
            return a
        out = list(a)
        changed = False
        for i, y in enumerate(b):
            x = out[i]
            if x is y:
                continue
            j = x.join(y)
            if j is not x:
                out[i] = j
                changed = True
        return tuple(out) if changed else a

    def widen(self, old: IntervalState, new: IntervalState) -> IntervalState:
        if old is new:
            return old
        out = list(old)
        changed = False
        for i, y in enumerate(new):
            x = out[i]
            if x is y:
                continue
            w = x.widen(x.join(y))
            if w is not x:
                out[i] = w
                changed = True
        return tuple(out) if changed else old

    def poll_dirty(self) -> bool:
        dirty, self._dirty = self._dirty, False
        return dirty

    def dirty_scope(self) -> frozenset[int] | None:
        """Only blocks reading a shared cell see a grown global."""
        return self._global_readers

    # ------------------------------------------------------------------
    def _grow_cell(self, cells: dict[int, Interval], kind: str,
                   slot: int, value: Interval) -> None:
        old = cells.get(slot, ZERO)
        new = old.join(value)
        key = (kind, slot)
        if self._cell_joins.get(key, 0) >= GLOBAL_WIDEN_AFTER:
            new = old.widen(new)
        if new != old:
            cells[slot] = new
            self._cell_joins[key] = self._cell_joins.get(key, 0) + 1
            self._dirty = True

    def _read_poly(self, slots: list[Interval], slot: int) -> Interval:
        if slot in self.escaped:
            return self.poly_global.get(slot, ZERO)
        if 0 <= slot < len(slots):
            return slots[slot]
        return TOP

    def _write_poly(self, slots: list[Interval], slot: int,
                    value: Interval, *, weak: bool) -> None:
        if slot in self.escaped:
            self._grow_cell(self.poly_global, "poly", slot, value)
            return
        if 0 <= slot < len(slots):
            slots[slot] = slots[slot].join(value) if weak else value

    # ------------------------------------------------------------------
    # The transfer hot loop runs over the precompiled micro-op list per
    # block (see :func:`compile_code`): enum dispatch, arg decoding,
    # and constant interval construction all happen once per block
    # instead of once per solver iteration.
    def transfer(self, bid: int, state: IntervalState) -> IntervalState:
        try:
            ops = self._compiled[bid]
        except KeyError:
            # Solving an unreachable-at-init block (caller passed a
            # larger ``reachable``): compile on demand.
            full = self.compiled[bid] = compile_code(self.cfg.blocks[bid].code)
            ops = self._compiled[bid] = (full if _has_writes(full)
                                         else None)
        if ops is None:
            # No poly writes and no shared-cell growth: the transfer
            # is the identity on the slot state.
            return state
        slots = list(state)
        # Unknown operand-stack entries at block entry (recursion
        # dispatch chains) are conservatively TOP.
        stack: list[Interval] = [TOP] * self.entry_depths.get(bid, 0)

        for tag, a1, a2 in ops:
            if tag == _U_BINARY:
                b = stack.pop() if stack else TOP
                a = stack.pop() if stack else TOP
                stack.append(binary_transfer(a1, a, b))
            elif tag == _U_PUSH:
                stack.append(a1)
            elif tag == _U_LD:
                stack.append(self._read_poly(slots, a1))
            elif tag == _U_ST:
                self._write_poly(slots, a1,
                                 stack.pop() if stack else TOP,
                                 weak=False)
            elif tag == _U_LDM:
                stack.append(self.mono_global.get(a1, ZERO))
            elif tag == _U_DUP:
                stack.append(stack[-1] if stack else TOP)
            elif tag == _U_SWAP:
                if len(stack) >= 2:
                    stack[-1], stack[-2] = stack[-2], stack[-1]
            elif tag == _U_POP:
                del stack[max(0, len(stack) - a1):]
            elif tag == _U_UNARY:
                a = stack.pop() if stack else TOP
                if a1 is Op.NEG:
                    stack.append(interval_neg(a))
                elif a1 is Op.TRUNC:
                    stack.append(interval_trunc(a))
                elif a1 is Op.BNOT:
                    stack.append(TOP_INT)
                else:  # NOT / BOOL produce 0-or-1
                    stack.append(BIT)
            elif tag == _U_SEL:
                b = stack.pop() if stack else TOP
                a = stack.pop() if stack else TOP
                c = stack.pop() if stack else TOP
                if c.is_const:
                    stack.append(a if c.lo != 0.0 else b)
                else:
                    stack.append(a.join(b))
            elif tag == _U_LDI:
                if stack:
                    stack.pop()  # index
                value = BOTTOM
                for s in range(a1, a1 + a2):
                    value = value.join(self._read_poly(slots, s))
                stack.append(TOP if value.is_bottom else value)
            elif tag == _U_LDMI:
                if stack:
                    stack.pop()
                value = BOTTOM
                for s in range(a1, a1 + a2):
                    value = value.join(self.mono_global.get(s, ZERO))
                stack.append(TOP if value.is_bottom else value)
            elif tag == _U_LDR:
                if stack:
                    stack.pop()  # PE index
                stack.append(self.poly_global.get(a1, ZERO))
            elif tag == _U_STI:
                if stack:
                    stack.pop()  # index
                value = stack.pop() if stack else TOP
                if a2 == 1:
                    self._write_poly(slots, a1, value, weak=False)
                else:
                    for s in range(a1, a1 + a2):
                        self._write_poly(slots, s, value, weak=True)
            elif tag == _U_STR:
                if stack:
                    stack.pop()  # PE index
                self._grow_cell(self.poly_global, "poly", a1,
                                stack.pop() if stack else TOP)
            elif tag == _U_STM:
                self._grow_cell(self.mono_global, "mono", a1,
                                stack.pop() if stack else TOP)
            else:  # _U_STMI
                if stack:
                    stack.pop()  # index
                value = stack.pop() if stack else TOP
                for s in range(a1, a1 + a2):
                    self._grow_cell(self.mono_global, "mono", s, value)
        # Preserve input identity when nothing changed so the solver's
        # exit-state stability check stays on the pointer fast path.
        if all(x is y for x, y in zip(slots, state)):
            return state
        return tuple(slots)


#: Definitely-stored poly slots.
InitState = frozenset[int]


class InitDomain:
    """Must-initialize poly-slot sets (join = intersection)."""

    def __init__(self, cfg: Cfg,
                 compiled: dict[int, list[MicroOp]] | None = None) -> None:
        self.cfg = cfg
        #: Interval-domain micro-ops, when the caller already compiled
        #: them — gen sets then come from tag checks, not enum decoding.
        self._compiled = compiled
        #: Per-block gen set, computed once (the transfer is a union).
        self._gen: dict[int, frozenset[int]] = {}

    def entry_state(self) -> InitState:
        return frozenset()

    def join(self, a: InitState, b: InitState) -> InitState:
        return a & b

    def widen(self, old: InitState, new: InitState) -> InitState:
        # Finite decreasing chains: plain intersection converges.
        return old & new

    def poll_dirty(self) -> bool:
        return False

    def dirty_scope(self) -> frozenset[int] | None:
        return None

    def transfer(self, bid: int, state: InitState) -> InitState:
        gen = self._gen.get(bid)
        if gen is None:
            stored: set[int] = set()
            ops = (self._compiled or {}).get(bid)
            if ops is not None:
                for tag, a1, a2 in ops:
                    if tag == _U_ST or (tag == _U_STI and a2 == 1):
                        stored.add(a1)
            else:
                for ins in self.cfg.blocks[bid].code:
                    if ins.op is Op.ST:
                        stored.add(int(ins.arg or 0))
                    elif ins.op is Op.STI and int(ins.arg2 or 1) == 1:
                        stored.add(int(ins.arg or 0))
            # StR initializes the *targeted* PE's copy, not ours; a
            # wider StI may miss elements.  Neither counts.
            gen = self._gen[bid] = frozenset(stored)
        if gen <= state:
            return state
        return state | gen
