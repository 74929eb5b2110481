"""Shared test helpers: the MIMDC program corpus and the cross-machine
equivalence oracle."""

from __future__ import annotations

import numpy as np

from repro import ConversionOptions, convert_source, simulate_mimd, simulate_simd
from repro.mimd.flatten import flatten_cfg
from repro.mimd.interp import InterpreterMachine

# ----------------------------------------------------------------------
# The paper's listings
# ----------------------------------------------------------------------

#: Listing 1 / Listing 4: the running example. `x` starts 0 on every PE
#: (memory is zeroed), so literal-condition versions loop forever; this
#: version seeds x from procnum, keeping the same control structure.
LISTING1_SHAPE = """
main() {
    poly int x;
    if (x) {
        do { x = 1; } while (x);
    } else {
        do { x = 2; } while (x);
    }
    return (x);
}
"""

#: Listing 3 = Listing 1 + barrier before F.
LISTING3_SHAPE = """
main() {
    poly int x;
    if (x) {
        do { x = 1; } while (x);
    } else {
        do { x = 2; } while (x);
    }
    wait;
    return (x);
}
"""

#: An executable variant of the listing-1 control structure whose loops
#: terminate and whose branch outcomes differ across PEs.
LISTING1_RUNNABLE = """
main() {
    poly int x;
    x = procnum % 3;
    if (x) {
        do { x = x - 1; } while (x);
    } else {
        do { x = x + 2; } while (x - 4);
    }
    return (x);
}
"""

LISTING3_RUNNABLE = LISTING1_RUNNABLE.replace(
    "return (x);", "wait;\n    return (x);"
)

#: Listing 2's recursive shape: main -> g, g -> g.
RECURSIVE = """
int g(int n) {
    if (n < 2) { return (1); }
    poly int r;
    r = g(n - 1);
    return (r * n);
}
main() {
    poly int v;
    v = g(procnum % 4 + 1);
    return (v);
}
"""

MUTUAL_RECURSIVE = """
int is_odd(int n);
int is_even(int n) {
    if (n == 0) { return (1); }
    poly int r; r = is_odd(n - 1); return (r);
}
int is_odd(int n) {
    if (n == 0) { return (0); }
    poly int r; r = is_even(n - 1); return (r);
}
main() {
    poly int v;
    v = is_even(procnum);
    return (v);
}
"""

SPAWN_WORKERS = """
main() {
    poly int x;
    x = procnum;
    if (procnum == 0) {
        spawn(worker);
    }
    return (x);
worker:
    x = 100 + procnum;
    halt;
}
"""

ROUTER_ROTATE = """
main() {
    poly int x; poly int y;
    x = procnum * 10;
    wait;
    y = x[[(procnum + 1) % nproc]];
    return (y);
}
"""

MONO_BROADCAST = """
mono int total = 5;
main() {
    poly int x;
    x = total * 2 + nproc;
    total = 7;
    return (x + total);
}
"""

KITCHEN_SINK = """
main() {
    poly float f;
    poly int i; poly int s;
    s = 0;
    for (i = 0; i < procnum + 2; i += 1) {
        if (i == 3) { continue; }
        if (i > 5) { break; }
        s += i;
    }
    f = s * 1.5;
    s = f > 4.0 ? s : -s;
    return (s);
}
"""

DIVERGE_3WAY = """
main() {
    poly int x; poly int r;
    x = procnum % 3;
    r = 0;
    if (x == 0) { r = 10; }
    else {
        if (x == 1) { r = 20; }
        else { r = 30; }
    }
    wait;
    return (r + x);
}
"""

NESTED_LOOPS = """
main() {
    poly int i; poly int j; poly int s;
    s = 0;
    i = 0;
    while (i < procnum % 3 + 1) {
        j = 0;
        while (j < 3) {
            s = s + i * j;
            j = j + 1;
        }
        i = i + 1;
    }
    return (s);
}
"""

FLOAT_MATH = """
main() {
    poly float a; poly float b;
    a = procnum * 0.5 + 1.0;
    b = a * a - a / 2.0;
    if (b > 3.0) { b = b - 3.0; }
    return (b * 4.0);
}
"""

#: Integer ``/`` and ``%`` of -2**63 and of negative values, by per-lane
#: divisors and by negative constants (``% -1`` included): C's
#: truncating division, which a spelling through ``abs`` gets wrong at
#: -2**63. No quotient leaves int64 (``x / -1`` would).
INT64_DIVISION = """
main() {
    poly int x; poly int y; poly int d; poly int e;
    poly int q1; poly int q2; poly int q3; poly int q4; poly int q5;
    poly int r1; poly int r2; poly int r3; poly int r4; poly int r5;
    poly int r6; poly int r7;
    x = procnum % 2 * 5 - 9223372036854775807 - 1;
    y = -7 - procnum * 5;
    d = procnum % 3 + 2;
    e = -(procnum % 4) - 2;
    q1 = x / d;
    r1 = x % d;
    q2 = x / e;
    r2 = x % e;
    q3 = y / d + y / e * 100;
    r3 = y % d + y % e * 100;
    q4 = x / -7 + x / 2;
    r4 = x % -7 + x % 2 * 10;
    q5 = y / -3 + y / -1 * 100;
    r5 = x % -1 + y % -1 + y % -3 * 10;
    r6 = x / 7 % 1000 + x % 7 * 10000;
    r7 = (y - e) / (e - 1) + (y - e) % (e - 1) * 100;
    return (q1 % 1000 + q2 % 1000 + q3 + q4 % 1000 + q5
            + r1 + r2 + r3 + r4 + r5 + r6 + r7);
}
"""

#: Comparison and logical results as operands of ``+ - * / %``, unary
#: ``-``, ``~``, ``!``, ``?:`` and of comparisons: where a NumPy bool
#: is not the 0/1 number the machine holds (``True + True`` is
#: ``True``, ``-b`` raises, ``~True`` is ``False``).
BOOL_OPERANDS = """
main() {
    poly int a; poly int b; poly int c; poly int s; poly float f;
    a = procnum % 4 - 1;
    b = (a < 1) + (a > -1);
    b = b + (a == 0) * 3 - (a != 1) - (a <= 0);
    c = (a >= 0) - (a <= 1);
    c = c * 10 + -(a != 1) + -(a > 0) * (a < 2);
    s = ~(a > 0) + (a == 2) / ((a < 2) + 1) + (a >= 1) % ((a > 5) + 2);
    s = s * 10 + ~(a < 1) + ((a < 1) == (a > -1)) * 5;
    s = s + ((a > 0) ? (a < 2) : (a == -1)) * 4;
    s = s + ((a > 0) ? 9 : (a == -1)) + ((a && b) ? 7 : 8);
    s = s + ((a || c) + !a + !(a > 0) + (a && (b > 1)) * 3);
    f = (a > 0) / 2.0 + (a < 1) * 1.5 - (a == 2);
    if ((a > 0) + (a < 2) > 1) { s = s + 100; }
    if (a && !(b < 1)) { c = c - 100; }
    return (b * 1000 + c * 100 + s + f);
}
"""

#: Everything that exercises the oracle (name, source).
CORPUS: list[tuple[str, str]] = [
    ("listing1", LISTING1_RUNNABLE),
    ("listing3", LISTING3_RUNNABLE),
    ("recursive", RECURSIVE),
    ("mutual_recursive", MUTUAL_RECURSIVE),
    ("router_rotate", ROUTER_ROTATE),
    ("mono_broadcast", MONO_BROADCAST),
    ("kitchen_sink", KITCHEN_SINK),
    ("diverge_3way", DIVERGE_3WAY),
    ("nested_loops", NESTED_LOOPS),
    ("float_math", FLOAT_MATH),
    ("int64_division", INT64_DIVISION),
    ("bool_operands", BOOL_OPERANDS),
]

#: Option sets exercised against the corpus. The time-split entries
#: pin ``lazy=False``: time splitting needs the whole automaton, so it
#: is incompatible with lazy conversion (and must stay eager even when
#: ``REPRO_LAZY=1`` flips the default, as the lazy CI leg does).
OPTION_MATRIX = [
    ConversionOptions(),
    ConversionOptions(compress=True),
    ConversionOptions(time_split=True, lazy=False),
    ConversionOptions(compress=True, time_split=True, lazy=False),
]


def run_all_machines(source: str, npes: int = 8, active: int | None = None,
                     options: ConversionOptions = ConversionOptions(),
                     max_steps: int = 200_000):
    """Convert + execute on (SIMD meta-state, MIMD reference,
    interpreter baseline). Returns (result, simd, mimd, interp)."""
    result = convert_source(source, options)
    simd = simulate_simd(result, npes=npes, active=active, max_steps=max_steps)
    mimd = simulate_mimd(result, nprocs=npes, active=active, max_steps=max_steps)
    interp = InterpreterMachine(npes=npes, costs=options.costs).run(
        flatten_cfg(result.cfg), active=active, max_steps=max_steps
    )
    return result, simd, mimd, interp


def assert_equivalent(simd, mimd, interp=None, *, check_poly: bool = True):
    """The oracle: every machine computed identical results."""
    np.testing.assert_array_equal(simd.returns, mimd.returns)
    if check_poly:
        np.testing.assert_array_equal(simd.poly, mimd.poly)
        np.testing.assert_array_equal(simd.mono, mimd.mono)
    if interp is not None:
        np.testing.assert_array_equal(interp.returns, mimd.returns)
        if check_poly:
            np.testing.assert_array_equal(interp.poly, mimd.poly)
