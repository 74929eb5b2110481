"""Native C emission of the fused per-node kernels and the meta-step loop.

This is the second printer of the kernel IR (:mod:`repro.codegen.kir`):
where :mod:`repro.codegen.kernels` prints one *Python* function per
automaton node (NumPy whole-lane-set operations), this module prints
one *C* function per node — fixed-width ``int64`` lane loops over the
same state arrays, with the same lowered structure:

- **stack rows are compile-time constants** — the static depth dataflow
  of :mod:`repro.codegen.plan` makes every operand-stack row a literal
  in the generated source (mixed-depth CSI entries index a ``static
  const`` per-bid table);
- **deferred materialization** — a serializable member's whole schedule
  chain runs per lane in C locals; only the rows still live at the
  member's final depth are stored back, and a branch condition flows
  straight into the fused terminator without touching the stack. A
  chain becomes one lane loop only in serializable segments: a grouped
  segment may hold a cross-lane op (mono store, router access), which
  must see every lane's preceding work, so there each entry is a
  one-entry chain with a loop of its own;
- **checks are hoisted** — operand-stack overflow collapses to one
  static ``if (MAX_ROWS > s_rows)`` guard per segment, replaying the
  per-entry checklist (the exact raise predicate of
  :func:`repro.simd.kernelrt.overflow_scan`) only when it trips;
- **accounting is closed-form** — control-unit cycles are a constant
  per segment and enabled-PE cycles a precomputed coefficient per
  member times its lane count, exactly as in the NumPy kernels.

One structural difference from the NumPy kernels: lane sets are never
materialized as index arrays. Each segment snapshots ``pc`` into the
run's scratch buffer (``pc0``) and every membership test — body
guards, terminator loops, spawn parents, lane counts — reads the
snapshot while terminators write ``pc``. Scanning the snapshot yields
exactly the sets the NumPy kernels forward between segments (terminator
targets land in the next segment's members, and barrier members are
re-scanned in both designs), so counts and results are identical.

The node functions are ``static``; two fixed entry points reach them
through one ``msc_ctx`` struct that holds the state pointers, strides,
the ``pc0`` scratch and the four ``out`` counters:

- ``msc_node(ctx, k)`` runs node ``k`` once (the per-node path: sharded
  runs, and programs the loop cannot hold);
- ``msc_run(ctx, max_steps, acc, visits)`` runs the whole automaton:
  the meta-step loop of :meth:`repro.simd.machine.SimdMachine._loop`,
  in the same order, over static per-node transition tables (single
  and barrier targets, the hash parameters, an offset into one flat
  jump table) and one hash evaluator that mirrors
  :meth:`repro.hashenc.search.HashFn.apply`. It is printed only when
  every node has a C function and the block ids fit a ``u64``
  aggregate (:attr:`NativeProgram.loop`). Tables rather than a
  ``switch`` per node keep the added C, and so the ``cc`` time,
  small; the Listing 5 switches stay in the MPL emitter.

Every library therefore exports the same two symbols over the same
struct, whose layout is one field table (:data:`CTX_FIELDS`): it
prints the C typedef here and builds the ``ctypes`` Structure in
:mod:`repro.simd.nativert`.

Error handling is by *code, not message*: a failing lane makes a node
return a nonzero :data:`NATIVE_ERROR_MESSAGES` code immediately
(partial writes are fine — the machine discards state on error), and
``msc_run`` also stops with a code on the step budget and on an
unencoded aggregate. The machine then replays the run on the
``kernels`` backend to reconstruct the exact
:class:`~repro.errors.MachineError` or
:class:`~repro.errors.ConversionError`; simulation is deterministic,
so the predicate — *whether* a run fails — matches the NumPy kernels
exactly, only which of several errors surfaces first may differ (the
same documented divergence the NumPy kernels have against the
interpretive executor).

Node functions are **shard-sliceable** under the same contract as
kernel v2: lane indices are always relative to the ``pc`` pointer in
the context, widths come from ``n``, PE ids from ``pids``, and row
strides are explicit (a :class:`~repro.simd.shards.ShardView` column
slice keeps the full-array row stride). Cross-lane nodes (mono stores,
router ops, spawn fills) are only ever called full-width, like their
NumPy twins.

A :class:`NativeProgram` stores only the generated *source* (plus the
node-key -> function-index table); compiling it to a shared library
and loading it through ``ctypes`` is the runtime's job
(:mod:`repro.simd.nativert`), which is what lets the artifact travel
inside the content-addressed compile cache as text and be rebuilt — or
dlopen'd from the native cache — on any host.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

from repro.codegen import plan as planmod
from repro.codegen.kir import CONST, NPES
from repro.hashenc.search import key_of_members
from repro.ir.instr import BINARY_OPS, UNARY_OPS, Op

#: Bump when the generated-code / runtime ABI contract changes; part of
#: the shared-library cache key (see :mod:`repro.simd.nativert`).
NATIVE_VERSION = 2

# ----------------------------------------------------------------------
# error codes — returned by the generated functions; the machine replays
# on the kernels backend for the authoritative message, these are the
# fallback text (and documentation of the code space).
# ----------------------------------------------------------------------
E_STACK_OVERFLOW = 1
E_UNDERFLOW = 2
E_DIV_ZERO = 3
E_IDIV_ZERO = 4
E_PE_READ = 5
E_PE_WRITE = 6
E_INDEX = 7
E_RSTACK_OVERFLOW = 8
E_RSTACK_UNDERFLOW = 9
E_BRANCH_EMPTY = 10
E_SPAWN_FREE = 11
E_STEPS = 12
E_UNENCODED = 13

NATIVE_ERROR_MESSAGES = {
    E_STACK_OVERFLOW: "operand stack overflow",
    E_UNDERFLOW: "operand stack underflow",
    E_DIV_ZERO: "float division by zero",
    E_IDIV_ZERO: "integer division or remainder by zero",
    E_PE_READ: "parallel read from out-of-range PE",
    E_PE_WRITE: "parallel write to out-of-range PE",
    E_INDEX: "array index out of range",
    E_RSTACK_OVERFLOW: "return-selector stack overflow",
    E_RSTACK_UNDERFLOW: "return-selector stack underflow",
    E_BRANCH_EMPTY: "branch on empty stack",
    E_SPAWN_FREE: "spawn: not enough free PEs (section 3.2.5 requires "
                  "spawns not to exceed the number of processors)",
    E_STEPS: "SIMD run exceeded its meta-step budget",
    E_UNENCODED: "aggregate reached an unencoded transition",
}

#: C-side parameter list of every generated node function: the fields
#: of ``msc_ctx`` that ``msc_node`` passes. Strides are in *elements*
#: (``arr.strides[0] // 8``); ``pc0`` is the run's scratch of ``n``
#: int64s; ``out`` receives ``body, tcost, enabled, exited``; the
#: return value is 0 or an error code.
_PARAMS = (
    "i64 *restrict pc, i64 n, "
    "double *restrict stack, i64 s_str, i64 s_rows, i64 *restrict sp, "
    "double *restrict rstack, i64 r_str, i64 r_rows, i64 *restrict rsp, "
    "double *restrict poly, i64 p_str, double *restrict mono, "
    "double *restrict pids, i64 npes, i64 *restrict pc0, i64 *restrict out"
)

#: The context struct ``msc_ctx``: one run's (or one shard view's)
#: arguments, bound once by :func:`repro.simd.nativert.bind`, as
#: ``(field, C type)`` rows in declaration order. The one definition
#: of its layout: it prints the C typedef (:data:`CTX_TYPEDEF`), and
#: :mod:`repro.simd.nativert` builds its ``ctypes`` Structure from it.
CTX_FIELDS = (
    ("pc", "int64_t *"), ("n", "int64_t"),
    ("stack", "double *"), ("s_str", "int64_t"), ("s_rows", "int64_t"),
    ("sp", "int64_t *"),
    ("rstack", "double *"), ("r_str", "int64_t"), ("r_rows", "int64_t"),
    ("rsp", "int64_t *"),
    ("poly", "double *"), ("p_str", "int64_t"), ("mono", "double *"),
    ("pids", "double *"), ("npes", "int64_t"),
    ("pc0", "int64_t *"), ("out", "int64_t[4]"),
)


def _ctx_typedef() -> str:
    """The C typedef of ``msc_ctx``, one :data:`CTX_FIELDS` row a line
    (``int64_t *pc;``, ``int64_t out[4];``)."""
    lines = ["typedef struct {"]
    for name, ctype in CTX_FIELDS:
        base, bracket, dim = ctype.partition("[")
        space = "" if base.endswith("*") else " "
        lines.append(f"    {base}{space}{name}{bracket}{dim};")
    return "\n".join(lines + ["} msc_ctx;", ""])


#: ``msc_ctx`` in C, as every program's header declares it.
CTX_TYPEDEF = _ctx_typedef()

#: ``HashFn.kind`` -> the evaluator's case number in ``msc_hash``.
_HASH_KINDS = ("const", "mask", "notmask", "xor", "add", "mod")

#: Block ids the loop can hold: aggregates of ids 0..62 fit a ``u64``
#: with the ``add`` hash's carry (from 64 ids it leaves bit 63).
LOOP_MAX_BIDS = 63

_C_HEADER = """\
/* Native meta-state kernels generated by repro.codegen.native (v{version}).
 *
 * One static function per automaton node: node(pc, ..., out) -> error
 * code, out = {{body_cycles, transition_cycles, enabled_pe_cycles,
 * exited}}; msc_node(ctx, k) runs node k, and msc_run(ctx, ...) runs
 * the whole automaton over the transition tables. Derived from the
 * program plan; regenerated whenever the program changes. Do not edit.
 */
#include <stdint.h>
#include <string.h>
#include <math.h>

typedef int64_t i64;
typedef uint64_t u64;

{ctx}
/* The double with bit pattern b: how non-finite literals are spelled. */
static inline double f64(u64 b)
{{
    double d;
    memcpy(&d, &b, sizeof d);
    return d;
}}
"""

_C_BIN = {
    Op.ADD: "({a} + {b})",
    Op.SUB: "({a} - {b})",
    Op.MUL: "({a} * {b})",
    Op.LT: "(double)({a} < {b})",
    Op.LE: "(double)({a} <= {b})",
    Op.GT: "(double)({a} > {b})",
    Op.GE: "(double)({a} >= {b})",
    Op.EQ: "(double)({a} == {b})",
    Op.NE: "(double)({a} != {b})",
    Op.BAND: "(double)((i64)({a}) & (i64)({b}))",
    Op.BOR: "(double)((i64)({a}) | (i64)({b}))",
    Op.BXOR: "(double)((i64)({a}) ^ (i64)({b}))",
    Op.SHL: "(double)((i64)({a}) << ((i64)({b}) & 63))",
    Op.SHR: "(double)((i64)({a}) >> ((i64)({b}) & 63))",
    Op.LAND: "(double)(({a} != 0.0) && ({b} != 0.0))",
    Op.LOR: "(double)(({a} != 0.0) || ({b} != 0.0))",
}

_C_UN = {
    Op.NEG: "(-({x}))",
    Op.NOT: "(double)(({x}) == 0.0)",
    Op.BNOT: "(double)(~(i64)({x}))",
    Op.TRUNC: "trunc({x})",
    Op.BOOL: "(double)(({x}) != 0.0)",
}


def _cf(v: float) -> str:
    """The one spelling of a C literal, bit-exact for every double: a
    hex float when finite, else the bit pattern through ``f64``."""
    if math.isfinite(v):
        return v.hex()
    return f"f64(0x{struct.unpack('<Q', struct.pack('<d', v))[0]:016x}ULL)"


@dataclass
class NativeProgram:
    """The generated C module of one program.

    ``c_source`` is a self-contained translation unit (all constants
    are literals); ``entry_index`` maps each node's entry meta state to
    its index ``k`` in ``msc_node(ctx, k)`` and in the loop's tables
    (nodes :func:`repro.codegen.kir.lower_program` skipped have none).
    ``loop`` records whether ``msc_run`` was printed. Only text travels
    through the compile cache — compiling and dlopening is
    :mod:`repro.simd.nativert`'s job, keyed by :meth:`digest` plus the
    compiler identity.
    """

    c_source: str
    entry_index: dict
    costs: object
    n_poly: int
    loop: bool = False
    version: int = NATIVE_VERSION
    #: :meth:`digest`, memoized; never pickled or compared.
    _digest: str | None = field(default=None, repr=False, compare=False)

    @property
    def entry_names(self) -> dict:
        """Entry meta state -> the C name of its node function."""
        return {key: f"node_{k}" for key, k in self.entry_index.items()}

    def digest(self) -> str:
        """Content address of the generated source (hashed once)."""
        if self._digest is None:
            self._digest = hashlib.sha256(self.c_source.encode()).hexdigest()
        return self._digest

    def stats(self) -> dict:
        """Counters for the stage report."""
        return {
            "native_nodes": len(self.entry_index),
            "native_bytes": len(self.c_source),
            "native_version": self.version,
        }

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_digest"] = None
        return state


def compile_native(prog) -> NativeProgram | None:
    """Print the native kernel module of ``prog`` (a
    :class:`~repro.codegen.emit.SimdProgram`) from its kernel IR, like
    :func:`repro.codegen.kernels.compile_kernels`, plus the dispatcher
    and, when the program allows it (:func:`_loopable`), the loop; or
    ``None`` when the program's static stack depths are unresolvable —
    the machine then falls back to the Python backends."""
    lowered = prog.lowering()
    if lowered is None:
        return None
    chunks = [_C_HEADER.format(version=NATIVE_VERSION, ctx=CTX_TYPEDEF)]
    entry_index: dict = {}
    for i, key, node in lowered:
        entry_index[key] = i
        chunks.append(_Printer(prog.n_poly).node(i, f"node_{i}", node))
    names = ["0"] * len(prog.nodes)
    for i in entry_index.values():
        names[i] = f"node_{i}"
    chunks.append(_C_DISPATCH.format(params=_PARAMS, n=len(names),
                                     names=", ".join(names)))
    loop = _loopable(prog, entry_index)
    if loop:
        chunks.append(_loop_source(prog, entry_index))
    return NativeProgram(c_source="\n".join(chunks),
                         entry_index=entry_index,
                         costs=prog.costs,
                         n_poly=prog.n_poly,
                         loop=loop)


def _loopable(prog, entry_index: dict) -> bool:
    """Whether ``msc_run`` can hold ``prog``: every node has a C
    function and the aggregates fit a ``u64`` (:data:`LOOP_MAX_BIDS`)."""
    return (len(entry_index) == len(prog.nodes)
            and prog.plan().n_bids <= LOOP_MAX_BIDS)


def _loop_source(prog, index: dict) -> str:
    """The transition tables of ``prog`` (node ``k``'s row at ``k``,
    successors as indices) and the fixed loop over them. ``index``
    lists every node, in index order."""
    rows: list[str] = []
    jump: list[int] = []
    for key in index:
        node = prog.nodes[key]
        single = (index[node.single_target]
                  if node.single_target is not None else -1)
        barrier = (index[node.barrier_target]
                   if node.barrier_target is not None else -1)
        kind, off, fn = -1, 0, None
        if node.encoding is not None:
            fn = node.encoding.fn
            kind, off = _HASH_KINDS.index(fn.kind), len(jump)
            jump += [-1 if t is None else index[t]
                     for t in node.encoding.table]
        s, t, mask, mod = ((fn.s, fn.t, fn.mask, fn.mod) if fn is not None
                           else (0, 0, 0, 1))
        rows.append(f"    {{{single}, {barrier}, {kind}, {off}, "
                    f"{s}, {t}, {mask}, {mod}}},")
    costs = prog.costs
    return _C_LOOP.format(
        n=len(rows), rows="\n".join(rows), njump=max(1, len(jump)),
        jump=", ".join(map(str, jump or [-1])),
        barriers=f"0x{key_of_members(prog.barrier_ids):x}ULL",
        start=index[prog.start], go=costs.globalor_cost,
        gd=costs.globalor_cost + costs.dispatch_cost, br=costs.branch_cost,
        e_steps=E_STEPS, e_unencoded=E_UNENCODED)


#: The per-node dispatcher: ``msc_node(ctx, k)`` runs node ``k`` on the
#: bound context (a null slot is a node with no C function, which the
#: runtime never calls).
_C_DISPATCH = """\
typedef i64 (*msc_fn)({params});
static const msc_fn msc_nodes[{n}] = {{{names}}};

i64 msc_node(msc_ctx *c, i64 k)
{{
    return msc_nodes[k](c->pc, c->n, c->stack, c->s_str, c->s_rows, c->sp,
                        c->rstack, c->r_str, c->r_rows, c->rsp, c->poly,
                        c->p_str, c->mono, c->pids, c->npes, c->pc0, c->out);
}}
"""

#: The meta-step loop: ``SimdMachine._loop`` in the same order, over
#: one transition row per node (single and barrier targets, the hash
#: kind, its jump-table offset, then ``s, t, mask, mod``; -1 = none).
_C_LOOP = """\
typedef struct {{ i64 single, barrier, kind, off; u64 s, t, mask, mod; }} msc_tr;
static const msc_tr msc_trs[{n}] = {{
{rows}
}};
static const i64 msc_jump[{njump}] = {{{jump}}};

/* globalor: the OR of 1 << pc over the live lanes. */
static u64 msc_globalor(const i64 *pc, i64 n)
{{
    u64 apc = 0;
    for (i64 i = 0; i < n; i++)
        if (pc[i] >= 0) apc |= (u64)1 << pc[i];
    return apc;
}}

/* HashFn.apply for a 64-bit aggregate. */
static u64 msc_hash(const msc_tr *r, u64 key)
{{
    u64 v;
    switch (r->kind) {{
    case 0: return 0;                        /* const */
    case 1: v = key >> r->s; break;          /* mask */
    case 2: v = ~key >> r->s; break;         /* notmask */
    case 3: v = (key >> r->s) ^ key; break;  /* xor */
    case 4: v = (key >> r->s) + key; break;  /* add */
    default: return key % r->mod;            /* mod */
    }}
    return (v >> r->t) & r->mask;
}}

/* The whole run: acc = {{cycles, body_cycles, transition_cycles,
 * enabled_pe_cycles, meta_transitions}}; visits[k] counts node k. */
i64 msc_run(msc_ctx *c, i64 max_steps, i64 *acc, i64 *visits)
{{
    const u64 barriers = {barriers};
    i64 cycles = 0, body = 0, tcost = 0, enabled = 0, transitions = 0;
    i64 k = {start}, rc = 0;
    for (i64 steps = 1;; steps++) {{
        if (steps > max_steps) {{ rc = {e_steps}; break; }}
        visits[k]++;
        rc = msc_node(c, k);
        if (rc) break;
        cycles += c->out[0] + c->out[1];
        body += c->out[0];
        tcost += c->out[1];
        enabled += c->out[2];
        if (c->out[3]) break;
        transitions++;
        const msc_tr *r = &msc_trs[k];
        u64 apc = 0;
        if (r->barrier >= 0) {{
            /* compressed graphs: the all-at-barrier entry (3.2.4) */
            apc = msc_globalor(c->pc, c->n);
            cycles += {go}; tcost += {go};
            if (!apc) break;
            if (!(apc & ~barriers)) {{ k = r->barrier; continue; }}
        }}
        if (r->kind >= 0) {{
            if (r->barrier < 0) apc = msc_globalor(c->pc, c->n);
            cycles += {gd}; tcost += {gd};
            if (!apc) break;
            /* parked barrier bits drop out unless everyone is parked */
            u64 key = (apc & ~barriers) ? (apc & ~barriers) : apc;
            k = msc_jump[r->off + (i64)msc_hash(r, key)];
            if (k < 0) {{ rc = {e_unencoded}; break; }}
        }} else if (r->single >= 0) {{
            cycles += {br}; tcost += {br};
            k = r->single;
        }} else {{
            break;  /* terminal node: everyone returned */
        }}
    }}
    acc[0] = cycles; acc[1] = body; acc[2] = tcost; acc[3] = enabled;
    acc[4] = transitions;
    return rc;
}}
"""


# ----------------------------------------------------------------------
# the printer
# ----------------------------------------------------------------------
class _CWriter:
    """Tiny indented C-source accumulator."""

    def __init__(self):
        self.lines: list[str] = []
        self.indent = 0

    def put(self, text: str = "") -> None:
        if not text:
            self.lines.append("")
        else:
            self.lines.append("    " * self.indent + text)

    def open(self, text: str) -> None:
        self.put(text)
        self.indent += 1

    def close(self, text: str = "}") -> None:
        self.indent -= 1
        self.put(text)

    def text(self) -> str:
        return "\n".join(self.lines)


def _row(r) -> str:
    """A stack row: a literal, or an offset from the per-lane depth
    ``dd`` of a mixed-depth entry."""
    if isinstance(r, int):
        return str(r)
    return f"(dd - {-r.off})" if r.off else "dd"


def _fail(code: int) -> str:
    return f"{{ rc = {code}; goto finish; }}"


def _v(v: tuple) -> str:
    kind, x = v
    if kind is CONST:
        return _cf(x)
    return "(double)npes" if kind is NPES else f"t{x}"


class _Printer:
    """Prints lowered nodes (:class:`repro.codegen.kir.Node`) as C
    functions of per-lane loops over a ``pc0`` snapshot."""

    def __init__(self, n_poly: int):
        self.n_poly = n_poly

    def node(self, idx: int, name: str, node) -> str:
        self.idx = idx
        self.consts: list[str] = []
        w = _CWriter()
        w.put(f"/* node {idx}: {node.name} */")
        w.put(f"static i64 {name}({_PARAMS})")
        w.open("{")
        w.put("i64 body = 0, tcost = 0, enabled = 0, exited = 0, rc = 0;")
        w.put("(void)stack; (void)s_str; (void)s_rows; (void)sp;")
        w.put("(void)rstack; (void)r_str; (void)r_rows; (void)rsp;")
        w.put("(void)poly; (void)p_str; (void)mono; (void)pids; (void)npes;")
        for s, seg in enumerate(node.segments):
            self._segment(w, s, seg)
        # -Werror=unused-label: some -O0 nodes never jump to finish
        if any("goto finish" in line for line in w.lines):
            w.put("finish:")
        w.put("out[0] = body; out[1] = tcost; out[2] = enabled; "
              "out[3] = exited;")
        w.put("return rc;")
        w.close("}")
        return "\n".join(self.consts + [w.text(), ""])

    def _segment(self, w, s: int, seg) -> None:
        self.s = s
        bids = seg.members
        counts = [f"c{s}_{j}" for j in range(len(bids))]
        w.put(f"/* -- segment {s}: members {bids} -- */")
        w.put("memcpy(pc0, pc, (size_t)n * sizeof(i64));")
        w.put("i64 " + " = 0, ".join(counts) + " = 0;")
        w.open("for (i64 i = 0; i < n; i++) {")
        for j, bid in enumerate(bids):
            kw = "if" if j == 0 else "else if"
            w.put(f"{kw} (pc0[i] == {bid}) {counts[j]}++;")
        w.close()
        if seg.body_cycles:
            w.put(f"body += {seg.body_cycles};")
        terms = [f"{c} * {counts[j]}" for j, c in enumerate(seg.coeffs) if c]
        if terms:
            w.put(f"enabled += {' + '.join(terms)};")

        # One static overflow guard; the raise predicate replays
        # repro.simd.kernelrt.overflow_scan: fail iff some pushing entry
        # has a live guard member needing more rows than the stack holds.
        need: dict = {}
        for _, reqs in seg.checklist:
            for j, rows in reqs:
                need[j] = max(need.get(j, 0), rows)
        if need:
            cond = " || ".join(f"({counts[j]} && {r} > s_rows)"
                               for j, r in sorted(need.items()))
            w.open(f"if ({seg.max_rows} > s_rows) {{")
            w.put(f"if ({cond}) {_fail(E_STACK_OVERFLOW)}")
            w.close()

        # A serializable segment fuses each member's chain with its
        # terminator (and forwarded condition) in one lane loop.
        fused: set = set()
        chains = seg.chains if seg.entry_chains is None else seg.entry_chains
        for chain in chains:
            self._loop(w, bids, chain.members)
            for stmt in chain.code:
                self._stmt(w, stmt, bids)
            if seg.serial:
                j = chain.members[0]
                self._term(w, seg.terms[j], seg.terms[j].cond)
                fused.add(j)
            w.close()
        for j, term in enumerate(seg.terms):
            if j not in fused:
                w.put(f"/* terminator of block {bids[j]} */")
                self._loop(w, bids, (j,))
                self._term(w, term, None)
                w.close()

        # spawn fills claim idle PEs only after every pc update above
        for j, term in enumerate(seg.terms):
            if term.kind == planmod.K_SPAWN:
                self._spawn_fill(w, bids, j, term, counts[j])

        if seg.exit_cost is not None:
            if seg.exit_cost:
                w.put(f"tcost += {seg.exit_cost};")
            w.open("{")
            w.put("i64 live = 0;")
            w.put("for (i64 i = 0; i < n; i++) "
                  "if (pc[i] >= 0) { live = 1; break; }")
            w.put("if (!live) { exited = 1; goto finish; }")
            w.close()

    @staticmethod
    def _loop(w, bids, members) -> None:
        w.open("for (i64 i = 0; i < n; i++) {")
        w.put("if (" + " && ".join(f"pc0[i] != {bids[j]}" for j in members)
              + ") continue;")

    def _stmt(self, w, stmt, bids) -> None:
        tag, n, args, instr = stmt
        t = f"t{n}"
        if tag == "#":
            w.put(f"/* {args} */")
        elif tag == "stack":
            w.put(f"double {t} = stack[{_row(args[0])} * s_str + i];")
        elif tag == "poly":
            w.put(f"double {t} = poly[{args[0]} * p_str + i];")
        elif tag == "mono":
            w.put(f"double {t} = mono[{args[0]}];")
        elif tag == "pids":
            w.put(f"double {t} = pids[i];")
        elif tag == "flush":
            w.put(f"stack[{_row(args[0])} * s_str + i] = {_v(args[1])};")
        elif tag == "dv":
            e, table = args
            name = f"_K{self.idx}_D{self.s}_{e}"
            vals = ", ".join(str(int(d)) for d in table)
            self.consts.append(
                f"static const i64 {name}[{len(table)}] = {{{vals}}};")
            w.put(f"i64 dd = {name}[pc0[i]];")
        elif tag == "underflow":
            w.put("if (" + " || ".join(f"pc0[i] == {bids[j]}" for j in args)
                  + f") {_fail(E_UNDERFLOW)}")
        elif tag is Op.DIV:
            a, b = args
            w.put(f"if ({_v(b)} == 0.0) {_fail(E_DIV_ZERO)}")
            w.put(f"double {t} = {_v(a)} / {_v(b)};")
        elif tag is Op.IDIV or tag is Op.MOD:
            a, b = args
            ia, ib, q = f"ia{n}", f"ib{n}", f"q{n}"
            w.put(f"i64 {ib} = (i64)({_v(b)});")
            w.put(f"if ({ib} == 0) {_fail(E_IDIV_ZERO)}")
            w.put(f"i64 {ia} = (i64)({_v(a)});")
            w.put(f"i64 {q} = (i64)((({ia} < 0) ? -(u64){ia} : (u64){ia}) / "
                  f"(({ib} < 0) ? -(u64){ib} : (u64){ib}));")
            w.put(f"if (({ia} < 0) != ({ib} < 0)) {q} = -{q};")
            src = q if tag is Op.IDIV else f"({ia} - {q} * {ib})"
            w.put(f"double {t} = (double){src};")
        elif tag in BINARY_OPS:
            expr = _C_BIN[tag].format(a=_v(args[0]), b=_v(args[1]))
            w.put(f"double {t} = {expr};")
        elif tag in UNARY_OPS:
            w.put(f"double {t} = {_C_UN[tag].format(x=_v(args[0]))};")
        elif tag is Op.SEL:
            c, a, b = args
            w.put(f"double {t} = (({_v(c)}) != 0.0) ? ({_v(a)}) : ({_v(b)});")
        elif tag is Op.ST:
            w.put(f"poly[{int(instr.arg)} * p_str + i] = {_v(args[0])};")
        elif tag is Op.STM:
            # ascending lane order: the highest-indexed writer wins
            w.put(f"mono[{int(instr.arg)}] = {_v(args[0])};")
        elif tag is Op.RPUSH:
            w.put(f"if (rsp[i] >= r_rows) {_fail(E_RSTACK_OVERFLOW)}")
            w.put(f"rstack[rsp[i] * r_str + i] = {_cf(float(instr.arg))};")
            w.put("rsp[i] = rsp[i] + 1;")
        elif tag is Op.RPOP:
            w.put(f"i64 r{n} = rsp[i] - 1;")
            w.put(f"if (r{n} < 0) {_fail(E_RSTACK_UNDERFLOW)}")
            w.put(f"rsp[i] = r{n};")
            w.put(f"double {t} = rstack[r{n} * r_str + i];")
        else:
            self._lane_op(w, tag, n, args, instr)

    @staticmethod
    def _lane_op(w, op, n: int, args, instr) -> None:
        """Router and array ops: an index check, then the access."""
        e, base, v = f"e{n}", int(instr.arg), _v(args[0])
        w.put(f"i64 {e} = (i64)({_v(args[-1])});")
        if op is Op.LDR or op is Op.STR:
            code = E_PE_READ if op is Op.LDR else E_PE_WRITE
            w.put(f"if ({e} < 0 || {e} >= npes) {_fail(code)}")
        else:
            w.put(f"if ({e} < 0 || {e} >= {int(instr.arg2)}) "
                  f"{_fail(E_INDEX)}")
        if op is Op.LDR:
            w.put(f"double t{n} = poly[{base} * p_str + {e}];")
        elif op is Op.STR:
            # ascending lane order: conflicts resolve to the
            # highest-indexed writer, like numpy fancy assignment
            w.put(f"poly[{base} * p_str + {e}] = {v};")
        elif op is Op.LDI:
            w.put(f"double t{n} = poly[({base} + {e}) * p_str + i];")
        elif op is Op.LDMI:
            w.put(f"double t{n} = mono[{base} + {e}];")
        elif op is Op.STI:
            w.put(f"poly[({base} + {e}) * p_str + i] = {v};")
        else:  # STMI: highest-indexed writer wins per element
            w.put(f"mono[{base} + {e}] = {v};")

    @staticmethod
    def _term(w, term, cond) -> None:
        """One lane's terminator; ``cond`` is the forwarded branch
        condition, or ``None`` to read it from the stack."""
        kind = term.kind
        if kind == planmod.K_FALL or kind == planmod.K_SPAWN:
            target = term.on_true if kind == planmod.K_FALL else term.on_false
            w.put(f"pc[i] = {target};")
            if term.set_sp:
                w.put(f"sp[i] = {term.fin};")
        elif kind == planmod.K_COND:
            if term.fin < 1:
                w.put(_fail(E_BRANCH_EMPTY))
                return
            w.put(f"sp[i] = {term.fin - 1};")
            if term.on_true == term.on_false:
                w.put(f"pc[i] = {term.on_true};")
                return
            cond = (_v(cond) if cond is not None
                    else f"stack[{term.fin - 1} * s_str + i]")
            w.put(f"pc[i] = (({cond}) != 0.0) "
                  f"? {term.on_true} : {term.on_false};")
        elif kind == planmod.K_RET:
            w.put("pc[i] = -2;")
        else:  # K_HALT
            w.put("pc[i] = -1;")
            w.put("sp[i] = 0;")
            w.put("rsp[i] = 0;")

    def _spawn_fill(self, w, bids, j: int, term, count: str) -> None:
        w.put(f"/* spawn fill for block {bids[j]} */")
        w.open(f"if ({count}) {{")
        w.put("i64 nfree = 0;")
        w.put("for (i64 i = 0; i < n; i++) if (pc[i] == -1) nfree++;")
        w.put(f"if (nfree < {count}) {_fail(E_SPAWN_FREE)}")
        w.put("i64 f = 0;")
        self._loop(w, bids, (j,))
        # ascending parents claim ascending free slots, matching the
        # NumPy kernels' free[:n] pairing
        w.put("while (pc[f] != -1) f++;")
        if self.n_poly:
            w.put(f"for (i64 r = 0; r < {self.n_poly}; r++) "
                  "poly[r * p_str + f] = poly[r * p_str + i];")
        w.put("sp[f] = 0; rsp[f] = 0;")
        w.put(f"pc[f] = {term.on_true};")
        w.put("f++;")
        w.close()
        w.close()
