"""Scalar semantics of the stack ISA, shared by the simulated machines.

Both the reference MIMD machine and the scalar paths of the SIMD
machine call these helpers, so a value computed on one machine is
bit-identical on the other — that is what makes the cross-machine
equivalence oracle exact.

Numeric model: every machine word is an IEEE-754 double. Integer
operations (``IDiv``, ``Mod``, bitwise, shifts) truncate their operands
toward zero to 64-bit ints first; comparisons and logicals yield
1.0/0.0. Division or remainder by zero raises
:class:`~repro.errors.MachineError` (the simulators surface it with the
offending PE).
"""

from __future__ import annotations

import math

from repro.errors import MachineError
from repro.ir.instr import Op


def _as_int(x: float) -> int:
    """Truncate a machine word toward zero to a 64-bit signed int."""
    i = int(x)
    # Wrap to 64-bit two's complement like the hardware would.
    i &= (1 << 64) - 1
    if i >= 1 << 63:
        i -= 1 << 64
    return i


def _trunc_div(ia: int, ib: int) -> tuple[int, int]:
    """C-style truncated division: quotient rounded toward zero and the
    matching remainder (``ia == q*ib + r`` with ``|r| < |ib|`` and ``r``
    taking the sign of ``ia``)."""
    if ib == 0:
        raise MachineError("integer division or remainder by zero")
    q = abs(ia) // abs(ib)
    if (ia < 0) != (ib < 0):
        q = -q
    return q, ia - q * ib


def binary(op: Op, a: float, b: float) -> float:
    """Apply a binary ALU opcode to scalars ``a`` (left) and ``b``."""
    if op is Op.ADD:
        return a + b
    if op is Op.SUB:
        return a - b
    if op is Op.MUL:
        return a * b
    if op is Op.DIV:
        if b == 0:
            raise MachineError("float division by zero")
        return a / b
    if op is Op.IDIV:
        return float(_trunc_div(_as_int(a), _as_int(b))[0])
    if op is Op.MOD:
        return float(_trunc_div(_as_int(a), _as_int(b))[1])
    if op is Op.LT:
        return 1.0 if a < b else 0.0
    if op is Op.LE:
        return 1.0 if a <= b else 0.0
    if op is Op.GT:
        return 1.0 if a > b else 0.0
    if op is Op.GE:
        return 1.0 if a >= b else 0.0
    if op is Op.EQ:
        return 1.0 if a == b else 0.0
    if op is Op.NE:
        return 1.0 if a != b else 0.0
    if op is Op.BAND:
        return float(_as_int(a) & _as_int(b))
    if op is Op.BOR:
        return float(_as_int(a) | _as_int(b))
    if op is Op.BXOR:
        return float(_as_int(a) ^ _as_int(b))
    if op is Op.SHL:
        return float(_as_int(_as_int(a) << (_as_int(b) & 63)))
    if op is Op.SHR:
        return float(_as_int(a) >> (_as_int(b) & 63))
    if op is Op.LAND:
        return 1.0 if (a != 0 and b != 0) else 0.0
    if op is Op.LOR:
        return 1.0 if (a != 0 or b != 0) else 0.0
    raise AssertionError(f"not a binary opcode: {op}")


def unary(op: Op, a: float) -> float:
    """Apply a unary ALU opcode to scalar ``a``."""
    if op is Op.NEG:
        return -a
    if op is Op.NOT:
        return 1.0 if a == 0 else 0.0
    if op is Op.BNOT:
        return float(~_as_int(a))
    if op is Op.TRUNC:
        # Non-finite values pass through, as in np.trunc and C trunc.
        return float(math.trunc(a)) if math.isfinite(a) else a
    if op is Op.BOOL:
        return 1.0 if a != 0 else 0.0
    raise AssertionError(f"not a unary opcode: {op}")
