"""Fused per-node execution kernels: generate-and-compile specialized
NumPy code for each meta-state automaton node.

The paper's argument against interpretation — "only the SIMD control
unit needs to have a copy of the meta-state automaton; PEs merely hold
data" (section 1.3) — applies to the *host* simulator too: the
interpretive executor walks an instruction list through the ~30-way
opcode dispatch of :func:`repro.simd.vecops.exec_instr`, gathers lanes
and stack pointers per entry, re-enters an ``np.errstate`` context per
instruction, and looks costs up per entry. This module removes that
layer of interpretation: for every
:class:`~repro.codegen.plan.NodePlan` it prints one Python function that
executes the whole node, then compiles and loads it on its own. The
structure comes from the node's kernel IR
(:mod:`repro.codegen.kir`), which the C printer of
:mod:`repro.codegen.native` shares; this module keeps what NumPy needs:
lane sets and ``rt.union``, ``raise``, literal spelling and
constant-divisor folding. In the generated code

- **stack rows are literals** — the entry-depth map of
  :meth:`repro.ir.cfg.Cfg.verify`, which the program carries, makes
  every operand-stack depth a compile-time constant, so
  ``stack[3][lanes]`` replaces depth arithmetic (mixed-depth CSI
  entries gather through a precomputed per-bid table). A literal stack
  or poly row is indexed first and the lanes second: the row is a
  basic-index view, and the lanes one 1-D fancy index into it, a
  gather NumPy runs about three times faster than the 2-D
  ``stack[3, lanes]`` at 64 and at 32,768 lanes;
- **stack traffic mostly disappears** — within a guarded chain the
  lowering executes the stack machine *symbolically*: pushed
  constants become scalar operands numpy broadcasts for free,
  intermediate results stay in temporaries, and only the rows still
  live at the end of the chain are written back. A loop body like
  ``x = x * 3 + 1`` compiles to one gather, two vector ops, and one
  scatter; its branch condition flows straight into the terminator's
  ``np.where`` without ever touching the stack;
- **values keep their kind** — a comparison or logical op yields a
  NumPy bool, which terminators, ``Sel`` and the logical ops read as
  it is and a store converts on its own; only an op that needs a
  number reads it through one ``astype(np.float64)`` (see
  :mod:`repro.codegen.kir`);
- **integer division is one ufunc** — ``Mod`` is ``np.fmod`` over
  int64 and ``IDiv`` ``(ia - np.fmod(ia, ib)) // ib``: C's truncation,
  with no ``np.abs``, which wraps at -2**63 (the interpretive
  :mod:`repro.simd.vecops` spells it the same way);
- **no stack pointer** — depths are plan constants, so a kernel
  neither reads nor stores ``st.sp``; the interpretive segment walk
  sets it from the program's entry depths for the nodes it runs;
- **checks are hoisted** — operand-stack overflow checks collapse to a
  single static ``if MAX_ROWS > stack.shape[0]`` guard per segment
  (the slow path replays the checklist via
  :func:`repro.simd.kernelrt.overflow_scan`), and underflow checks,
  which ``Cfg.verify`` makes impossible, are never printed;
- **no errstate scope of their own** — a kernel runs inside the one
  ``np.errstate(over="ignore", invalid="ignore")`` scope that
  :meth:`~repro.simd.machine.SimdMachine._loop` holds for the whole run
  (and each :class:`~repro.simd.shards.ShardPool` worker thread for its
  life), instead of entering one per instruction or per node;
- **method forms** — lanes are scanned with ``(pc == bid).nonzero()[0]``
  and conditions tested with ``(...).any()``: the array methods skip
  the Python-level dispatch of the ``np.flatnonzero`` and ``np.any``
  wrappers, which costs more than the lane work at small widths;
- **lanes flow forward** — the first segment buckets PEs with one
  ``(pc == bid).nonzero()[0]`` per member, and interior segments reuse
  the terminator outputs of the previous segment (fall-through arrays,
  conditional splits, spawn children) instead of re-scanning ``pc``;
  only barrier-wait members re-scan, because previously parked PEs may
  rejoin there;
- **full-width lane sets** — a node whose first segment has one
  member gets a second body, inline after that member's scan: when
  the member holds every PE (``m0_0.size == pc.shape[0]``) the whole
  node runs on whole rows and returns. Loads copy a row
  (``poly[r].copy()``; the executor keeps a loaded value across a later
  store to its row), stores assign one (``poly[r] = v``), terminators
  fill ``pc`` (``pc.fill(t)``, ``pc[:] = np.where(c, t, f)``), and only
  the ops that need lane indices (``LdI``/``StI``, ``RPush``/``RPop``,
  a mixed-depth ``dv``, spawn fills) take ``np.arange(pc.shape[0])``.
  A later member that all of a full member reaches stays full: a
  fall-through, a union holding a full set, and a barrier-wait member
  fed by a full set (nobody was parked there). Split, child and
  re-scanned sets take the indexed spelling. Every check is the
  indexed body's, and at 32,768 lanes a whole-row copy, assignment or
  ``pc.fill`` costs a sixth to a quarter of the fancy index it
  replaces;
- **accounting is closed-form** — control-unit cycles are a constant
  per segment and enabled-PE cycles a precomputed integer coefficient
  per member times its lane count.

The kernels change *nothing* about results or the simulated cost
model: ``SimdMachine`` produces bit-identical :class:`SimdResult`\\ s
across the ``native`` / ``kernels`` / ``interp`` backends. One documented
divergence exists on *failing* runs only: which of several possible
:class:`~repro.errors.MachineError`\\ s surfaces first. Overflow checks
are hoisted to the segment top (a segment that would raise both a
data-dependent error and a stack overflow reports the overflow first,
before earlier entries' side effects), and per-member re-serialization
reorders lane-private work between disjoint members (a division by
zero in member A may be reported before or after one in member B). The
error type is the same either way and machine state is discarded on
error, so no passing behavior can differ.

Every node compiles on its own, through one loader that execs its
source into a copy of the header's globals (``numpy``,
``MachineError``, ``kernelrt``): eager generation loads each node as
it prints it, an unpickled program on its first
:attr:`KernelProgram.fns` access, and lazy conversion
(:mod:`repro.codegen.lazy`) as the runtime discovers it. Only the
per-node source text survives pickling, which is what lets the kernels
travel inside the content-addressed compile cache: a warm hit compiles
the stored text, regenerating nothing.

Generated kernels are **shard-sliceable**: a kernel never indexes the
PE axis with absolute ids of its own making — lane sets come from
``nonzero()`` over the ``pc`` array it was handed, widths from
``pc.shape[0]``, and PE ids from ``st.pids``. A
:class:`~repro.codegen.plan.NodePlan.shardable` node's kernel may
therefore run on a :class:`~repro.simd.shards.ShardView` (a contiguous
slice of the PE axis) exactly as on the full state; a shard whose
slice lies wholly in the node's one entry block takes the full-width
body, whatever its neighbours take. Only cross-lane nodes (mono
stores, router ops, spawn fills scanning the global free pool) are
pinned to full-width execution.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from repro.codegen import plan as planmod
from repro.codegen.kir import (ARRAY, BOOL_OPS, CONST, NPES,
                               KernelUnsupported, Val, lower_node)
from repro.ir.instr import BINARY_OPS, UNARY_OPS, Op

__all__ = ["KERNEL_VERSION", "KernelProgram", "KernelUnsupported",
           "compile_kernels", "compile_node_kernel"]

#: Bump when the generated-code contract with the machine changes.
#: v2: kernels are certified shard-sliceable (see module docstring).
#: v3: kernels enter no ``np.errstate`` scope; they rely on the
#: caller's (the step loop's, or a shard worker's) ignoring ``over``
#: and ``invalid``.
#: v4: comparisons yield bool values, integer division goes through
#: ``np.fmod``, and kernels neither read nor store ``st.sp``.
#: v5: a node whose first segment has one member runs on whole rows
#: when that member holds every PE (full-width lane sets).
KERNEL_VERSION = 5

#: Result expressions over the operands ``{a}`` (next-to-top) and
#: ``{b}`` (top), or ``{x}``. Div/IDiv/Mod need their zero checks and
#: are printed specially; the logical ops read truth values (see
#: :meth:`_Printer._test`).
_BINEXPR = {
    Op.ADD: "{a} + {b}",
    Op.SUB: "{a} - {b}",
    Op.MUL: "{a} * {b}",
    Op.LT: "{a} < {b}",
    Op.LE: "{a} <= {b}",
    Op.GT: "{a} > {b}",
    Op.GE: "{a} >= {b}",
    Op.EQ: "{a} == {b}",
    Op.NE: "{a} != {b}",
    Op.BAND: "({a}.astype(np.int64) & {b}.astype(np.int64))"
             ".astype(np.float64)",
    Op.BOR: "({a}.astype(np.int64) | {b}.astype(np.int64))"
            ".astype(np.float64)",
    Op.BXOR: "({a}.astype(np.int64) ^ {b}.astype(np.int64))"
             ".astype(np.float64)",
    Op.SHL: "({a}.astype(np.int64) << ({b}.astype(np.int64) & 63))"
            ".astype(np.float64)",
    Op.SHR: "({a}.astype(np.int64) >> ({b}.astype(np.int64) & 63))"
            ".astype(np.float64)",
    Op.LAND: "{a} & {b}",
    Op.LOR: "{a} | {b}",
}

_UNEXPR = {
    Op.NEG: "-({x})",
    Op.BNOT: "(~{x}.astype(np.int64)).astype(np.float64)",
    Op.TRUNC: "np.trunc({x})",
    Op.BOOL: "{x} != 0",
}

#: Ops whose expressions also take bare Python floats; the others call
#: numpy methods, or must yield a numpy bool, so scalar operands are
#: wrapped in ``np.float64``.
_PLAIN = frozenset({Op.ADD, Op.SUB, Op.MUL, Op.NEG, Op.TRUNC})

_MODULE_HEADER = '''\
"""Fused meta-state kernels generated by repro.codegen.kernels (v{version}).

One function per automaton node, signature ``node(pc, st) ->
(body_cycles, transition_cycles, enabled_pe_cycles, exited)``. Derived
from the program plan; regenerated whenever the program changes. Do
not edit.
"""
import numpy as np

from repro.errors import MachineError
from repro.simd import kernelrt as rt

_E = rt.EMPTY
'''.format(version=KERNEL_VERSION)


#: The globals every kernel node runs in, each in a copy of its own.
_GLOBALS: dict = {}
exec(_MODULE_HEADER, _GLOBALS)


def _load(name: str, source: str):
    """The one loader: compile one node's ``source`` into a copy of
    :data:`_GLOBALS` and return its function ``name``."""
    namespace = dict(_GLOBALS)
    exec(compile(source, f"<msc-kernel-{name}>", "exec"), namespace)
    return namespace[name]


@dataclass
class KernelProgram:
    """The fused kernels of one program, node by node.

    ``sources`` maps each node's entry meta state to the name and the
    self-contained source (all constants are literals) of its function,
    or, in a lazy program, to ``None`` once its lowering proved
    unsupported; :attr:`fns` maps it to the loaded function, which
    pickling drops.
    """

    sources: dict
    costs: object
    version: int = KERNEL_VERSION
    _fns: dict | None = field(default_factory=dict, repr=False,
                              compare=False)

    @property
    def fns(self) -> dict:
        """``entry meta state -> kernel function``: filled as each node
        is generated, and on an unpickled copy's first access."""
        if self._fns is None:
            self._fns = {key: _load(*entry)
                         for key, entry in self.sources.items()}
        return self._fns

    @property
    def source(self) -> str:
        """The whole program as one module: the header, then every
        node's source."""
        return "\n".join([_MODULE_HEADER] + [
            text for _, text in self.sources.values()])

    def add(self, key, name: str, text: str):
        """Load one node's kernel and register it under ``key``; returns
        its function."""
        self.sources[key] = (name, text)
        fn = self._fns[key] = _load(name, text)
        return fn

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_fns"] = None
        return state

    def stats(self) -> dict:
        """Counters for the stage report."""
        return {
            "kernel_nodes": len(self.sources),
            "kernel_bytes": sum(len(text)
                                for _, text in self.sources.values()),
            "kernel_version": self.version,
        }


def compile_kernels(prog) -> KernelProgram:
    """Print and load the fused kernel of every node of ``prog`` (a
    :class:`~repro.codegen.emit.SimdProgram`) from its kernel IR
    (:meth:`~repro.codegen.emit.SimdProgram.lowering`). Loading here
    fails a template bug at compile time and keeps compiling out of the
    first run."""
    kern = KernelProgram({}, prog.costs)
    for i, key, node in prog.lowering():
        name = f"node_{i}"
        kern.add(key, name, _Printer().node(i, name, node))
    return kern


def compile_node_kernel(kern: KernelProgram, prog, plan, key, idx: int):
    """JIT the fused kernel of a single node into ``kern`` — the
    per-node twin of :func:`compile_kernels` that lazy compilation calls
    as the runtime discovers nodes.

    ``prog.nodes[key]`` and ``plan.nodes[key]`` must already be
    materialized (see :func:`repro.codegen.plan.compile_node_plan`);
    ``idx`` only names the generated function and its constants.
    Returns the function, or ``None`` when this node cannot be
    kernelized (recorded in
    ``kern.sources``) — the machine then runs it on the interpretive
    segment walk, exactly like an eager program whose
    :class:`KernelProgram` skipped the node. Apart from those names,
    the source depends only on the CFG, the node's members and the cost
    model, so a node evicted and re-entered compiles to the same code."""
    try:
        node = lower_node(prog, plan, key)
    except KernelUnsupported:
        kern.sources[key] = None
        return None
    name = f"node_{idx}"
    return kern.add(key, name, _Printer().node(idx, name, node))


# ----------------------------------------------------------------------
# the printer
# ----------------------------------------------------------------------
class _Writer:
    """Tiny indented-source accumulator."""

    def __init__(self):
        self.lines: list[str] = []
        self.indent = 0

    def put(self, text: str = "") -> None:
        if not text:
            self.lines.append("")
        else:
            self.lines.append("    " * self.indent + text)

    def text(self) -> str:
        return "\n".join(self.lines)


#: The lane indices of a full lane set, for the ops that need them
#: (2-D fancy indices and spawn fills).
_ALL = "np.arange(pc.shape[0])"


def _row(row: str, lv) -> str:
    """Lanes ``lv`` of a row view: one 1-D fancy index, or the whole row
    when ``lv`` is ``None`` (a full lane set)."""
    return row if lv is None else f"{row}[{lv}]"


def _stack_lanes(r, lv) -> str:
    """The stack cells of lanes ``lv`` at row ``r``: a literal row is
    indexed first and the lanes second (a 1-D fancy index into the row
    view, or the whole row for a full set); a mixed-depth entry's rows
    are an offset from its per-lane depth vector ``dv``, one 2-D fancy
    index."""
    if isinstance(r, int):
        return _row(f"stack[{r}]", lv)
    lanes = lv or _ALL
    return f"stack[dv - {-r.off}, {lanes}]" if r.off else \
        f"stack[dv, {lanes}]"


def _fill(array: str, lv, value) -> str:
    """Set lanes ``lv`` of ``array`` to the scalar ``value``."""
    return f"{array}.fill({value})" if lv is None else \
        f"{array}[{lv}] = {value}"


class _Printer:
    """Prints lowered nodes (:class:`repro.codegen.kir.Node`) as Python
    functions over whole lane sets.

    A node whose first segment has one member gets two bodies: one for
    when that member holds every PE, which runs on whole rows, and the
    indexed one. A lane set the printer knows to be full is ``None``
    where a lane-set name would go."""

    def node(self, idx: int, name: str, node) -> str:
        self.idx = idx
        self.consts: dict = {}
        w = _Writer()
        w.put(f"def {name}(pc, st):")
        w.indent += 1
        w.put(f'"""{node.name}"""')
        w.put("stack = st.stack")
        w.put("rstack = st.rstack; rsp = st.rsp")
        w.put("poly = st.poly; mono = st.mono; npes = st.npes")
        w.put("body = 0; tcost = 0; enabled = 0")
        segs = node.segments
        self._lanes(w, 0, segs[0], ())
        if len(segs[0].members) == 1:
            w.put("if m0_0.size == pc.shape[0]:")
            w.indent += 1
            w.put(f"# every PE is in block {segs[0].members[0]}: "
                  "whole rows, no lane index")
            self._segments(w, segs, {0})
            w.indent -= 1
        self._segments(w, segs, set())
        return "\n".join([*self.consts.values(), w.text(), ""])

    def _const(self, suffix: str, literal: str) -> str:
        """The node constant ``suffix``, printed once however many
        bodies read it."""
        name = f"_K{self.idx}_{suffix}"
        self.consts.setdefault(name, f"{name} = {literal}")
        return name

    def _lit(self, x: float) -> str:
        """The one spelling of a literal. ``repr`` round-trips every
        finite double; ±inf and NaN, whose sign ``repr`` loses, become a
        node constant rebuilt from the bit pattern."""
        if math.isfinite(x):
            return repr(x)
        bits = struct.unpack("<Q", struct.pack("<d", x))[0]
        return self._const(f"F{bits:x}", f"rt.f64({bits:#x})")

    def _v(self, v: Val) -> str:
        if v.kind is CONST:
            return self._lit(v.x)
        return "float(npes)" if v.kind is NPES else f"t{v.x}"

    def _f(self, v: Val) -> str:
        """``v`` as a numpy value, for the expressions that call numpy
        methods the Python float type lacks."""
        return self._v(v) if v.kind is ARRAY else f"np.float64({self._v(v)})"

    def _test(self, v: Val) -> str:
        """``v`` as a numpy truth value: a bool value as it is, a
        number ``!= 0``."""
        return self._v(v) if v.boolean else f"({self._f(v)} != 0)"

    # ------------------------------------------------------------------
    def _segments(self, w, segs, full: set) -> None:
        """One body of a node, from just after its first segment's lane
        scan to its return; ``full`` holds the first segment's members
        known to hold every PE."""
        for s, seg in enumerate(segs):
            if s:
                full = self._lanes(w, s, seg, full)
            self._segment(w, s, seg, full)
        w.put("return body, tcost, enabled, False")

    def _lanes(self, w, s: int, seg, prev) -> set:
        """Bind the lane sets of segment ``s``'s members, and return the
        members known to hold every PE: those that all of a full member
        of the previous segment (``prev``) reaches. Every PE came from
        that member, so none was parked at a barrier-wait member fed
        this way, and no set is bound for them."""
        w.put(f"# -- segment {s}: members {seg.members} --")
        full = set()
        for j, src in enumerate(seg.sources):
            lv = f"m{s}_{j}"
            if src and any(not sfx and k in prev for k, sfx in src):
                full.add(j)
            elif src is None or seg.barrier[j]:
                w.put(f"{lv} = (pc == {seg.members[j]}).nonzero()[0]")
            else:
                refs = [f"m{s - 1}_{k}{sfx}" for k, sfx in src]
                w.put(f"{lv} = " + (
                    "_E" if not refs else refs[0] if len(refs) == 1
                    else f"rt.union(pc.shape[0], {', '.join(refs)})"))
        return full

    def _segment(self, w, s: int, seg, full: set) -> None:
        self.s = s
        lanes = [None if j in full else f"m{s}_{j}"
                 for j in range(len(seg.members))]
        sizes = [f"n{s}_{j}" for j in range(len(seg.members))]
        for j, lv in enumerate(lanes):
            w.put(f"{sizes[j]} = {lv}.size" if lv else
                  f"{sizes[j]} = pc.shape[0]")
        if seg.body_cycles:
            w.put(f"body += {seg.body_cycles}")
        terms = [f"{c} * {sizes[j]}" for j, c in enumerate(seg.coeffs) if c]
        if terms:
            w.put(f"enabled += {' + '.join(terms)}")
        if seg.checklist:
            cname = self._const(f"OVF{s}", repr(seg.checklist))
            size_tuple = ", ".join(sizes) + ("," if len(sizes) == 1 else "")
            w.put(f"if {seg.max_rows} > stack.shape[0]:")
            w.put(f"    rt.overflow_scan(stack.shape[0], {cname}, "
                  f"({size_tuple}))")

        unions: dict = {}
        for chain in seg.chains:
            gm = chain.members
            guarded = not full.intersection(gm)
            if not guarded:
                # A union that holds a full set is full.
                lv, size = None, "pc.shape[0]"
            else:
                w.put(f"if {' or '.join(sizes[j] for j in gm)}:")
                w.indent += 1
                if len(gm) == 1:
                    lv, size = lanes[gm[0]], sizes[gm[0]]
                else:
                    # Lanes are stable for the whole body (pc moves in
                    # the terminators), so one union per guard set
                    # suffices.
                    lv = unions.get(gm)
                    if lv is None:
                        lv = unions[gm] = f"u{s}_{len(unions)}"
                        w.put(f"{lv} = rt.union(pc.shape[0], "
                              f"{', '.join(lanes[j] for j in gm)})")
                    size = f"{lv}.size"
            for stmt in chain.code:
                self._stmt(w, stmt, lv, size)
            if guarded:
                if all(stmt[0] == "#" for stmt in chain.code):
                    # The chain's only values are forwarded scalars.
                    w.put("pass")
                w.indent -= 1

        self._terms(w, s, seg, lanes, sizes)
        if seg.exit_cost is not None:
            if seg.exit_cost:
                w.put(f"tcost += {seg.exit_cost}")
            w.put("if not (pc >= 0).any():")
            w.put("    return body, tcost, enabled, True")

    def _stmt(self, w, stmt, lv, size: str) -> None:
        """One chain statement over lanes ``lv`` (``None``: every lane)
        of ``size``. A whole-row load copies the row, because the
        executor keeps a loaded value across a later store to its row
        (in ``y = x; x = x + 1; z = y``, ``z`` reads the first load)."""
        tag, n, args, instr = stmt
        t = f"t{n}"
        v, f = self._v, self._f
        if tag == "#":
            w.put(f"# {args}")
        elif tag == "stack":
            r = args[0]
            copy = ".copy()" if lv is None and isinstance(r, int) else ""
            w.put(f"{t} = {_stack_lanes(r, lv)}{copy}")
        elif tag == "poly":
            w.put(f"{t} = poly[{args[0]}].copy()" if lv is None
                  else f"{t} = poly[{args[0]}][{lv}]")
        elif tag == "mono":
            w.put(f"{t} = mono[{args[0]}]")
        elif tag == "pids":
            # Never written, so a full set reads it as it is.
            w.put(f"{t} = {_row('st.pids', lv)}")
        elif tag == "flush":
            w.put(f"{_stack_lanes(args[0], lv)} = {v(args[1])}")
        elif tag == "num":
            w.put(f"{t} = {v(args[0])}.astype(np.float64)")
        elif tag == "dv":
            e, table = args
            cname = self._const(f"D{self.s}_{e}", f"np.array("
                                f"{list(map(int, table))!r}, dtype=np.int64)")
            w.put(f"dv = {cname}[{_row('pc', lv)}]")
        elif tag is Op.DIV:
            a, b = args
            if b.kind is not CONST or b.x == 0:
                w.put(f"if ({f(b)} == 0).any():")
                w.put('    raise MachineError("float division by zero")')
            w.put(f"{t} = {v(a)} / {v(b)}")
        elif tag is Op.IDIV or tag is Op.MOD:
            self._idiv(w, tag, t, *args)
        elif tag is Op.NOT:
            x = args[0]
            w.put(f"{t} = ~{v(x)}" if x.boolean else f"{t} = {f(x)} == 0")
        elif tag in BINARY_OPS:
            # A comparison with a lane operand yields a bool array as
            # it is; between scalars, np.float64 makes it a numpy bool.
            lanes = any(x.kind is ARRAY for x in args)
            g = (self._test if tag is Op.LAND or tag is Op.LOR
                 else v if tag in _PLAIN or tag in BOOL_OPS and lanes
                 else f)
            w.put(f"{t} = " + _BINEXPR[tag].format(a=g(args[0]),
                                                   b=g(args[1])))
        elif tag in UNARY_OPS:
            g = v if tag in _PLAIN else f
            w.put(f"{t} = " + _UNEXPR[tag].format(x=g(args[0])))
        elif tag is Op.SEL:
            c, a, b = args
            w.put(f"{t} = np.where({self._test(c)}, {v(a)}, {v(b)})")
        elif tag is Op.ST:
            w.put(f"{_row(f'poly[{int(instr.arg)}]', lv)} = {v(args[0])}")
        elif tag is Op.STM:
            # Broadcast: the highest-indexed enabled writer wins.
            x = args[0]
            w.put(f"mono[{int(instr.arg)}] = {v(x)}"
                  + ("[-1]" if x.kind is ARRAY else ""))
        else:
            self._lane_op(w, tag, t, args, instr, lv, size)

    def _idiv(self, w, op, t: str, a: Val, b: Val) -> None:
        """C's truncating ``/`` and ``%`` over int64: ``np.fmod`` is the
        remainder, and ``ia - r`` is a multiple of the divisor, so its
        floor quotient is the truncated one. Neither takes an absolute
        value, which would wrap at -2**63."""
        f = self._f
        k = b.x if b.kind is CONST else None
        if k is not None and k.is_integer() and 0 < abs(k) < 2 ** 62:
            # Constant divisor: the zero check folds away.
            ib = str(int(k))
        else:
            ib = "ib"
            w.put(f"ib = {f(b)}.astype(np.int64)")
            w.put("if (ib == 0).any():")
            w.put('    raise MachineError('
                  '"integer division or remainder by zero")')
        if op is Op.MOD:
            w.put(f"{t} = np.fmod({f(a)}.astype(np.int64), {ib})"
                  ".astype(np.float64)")
        else:
            w.put(f"ia = {f(a)}.astype(np.int64)")
            w.put(f"{t} = ((ia - np.fmod(ia, {ib})) // {ib})"
                  ".astype(np.float64)")

    def _lane_op(self, w, op, t: str, args, instr, lv,
                 size: str) -> None:
        """Router, array and return-selector ops: an index or ``rsp``
        check, then the access."""
        v = self._v
        lanes = lv or _ALL
        if op is Op.RPUSH:
            w.put(f"r = {_row('rsp', lv)}")
            w.put("if int(r.max()) >= rstack.shape[0]:")
            w.put('    raise MachineError("return-selector stack overflow")')
            w.put(f"rstack[r, {lanes}] = {self._lit(float(instr.arg))}")
            w.put(f"rsp[{lv or ':'}] = r + 1")
            return
        if op is Op.RPOP:
            w.put(f"r = {_row('rsp', lv)} - 1")
            w.put("if int(r.min()) < 0:")
            w.put('    raise MachineError("return-selector stack underflow")')
            w.put(f"rsp[{lv or ':'}] = r")
            w.put(f"{t} = rstack[r, {lanes}]")
            return
        x = args[-1]
        base = int(instr.arg)
        # A scatter whose index is one scalar writes it from every lane
        # (the last writer wins), so the index must be a lane vector.
        ix = (f"np.full({size}, {v(x)})"
              if op in (Op.STR, Op.STMI) and x.kind is not ARRAY else self._f(x))
        w.put(f"ei = {ix}.astype(np.int64)")
        if op is Op.LDR or op is Op.STR:
            what = "read from" if op is Op.LDR else "write to"
            w.put("if ((ei < 0) | (ei >= npes)).any():")
            w.put(f'    raise MachineError("parallel {what} out-of-range PE")')
        else:
            size = int(instr.arg2)
            msg = f"array index out of range 0..{size - 1} in {instr}"
            w.put(f"if ((ei < 0) | (ei >= {size})).any():")
            w.put(f"    raise MachineError({msg!r})")
        if op is Op.LDR:
            w.put(f"{t} = poly[{base}][ei]")
        elif op is Op.STR:
            w.put(f"poly[{base}][ei] = {v(args[0])}")
        elif op is Op.LDI:
            w.put(f"{t} = poly[{base} + ei, {lanes}]")
        elif op is Op.LDMI:
            w.put(f"{t} = mono[{base} + ei]")
        elif op is Op.STI:
            w.put(f"poly[{base} + ei, {lanes}] = {v(args[0])}")
        else:
            # Broadcast store; colliding elements resolve to the
            # highest-indexed writer (fancy-assignment order).
            w.put(f"mono[{base} + ei] = {v(args[0])}")

    # ------------------------------------------------------------------
    def _terms(self, w, s: int, seg, lanes, sizes) -> None:
        """Per-member guarded terminators, spawn fills last (matching
        the staged-update order of ``SimdMachine._exec_segment``); a
        full member's need no guard."""
        for j, term in enumerate(seg.terms):
            name, lv = f"m{s}_{j}", lanes[j]
            w.put(f"# terminator of block {seg.members[j]}")
            if lv:
                if term.split:
                    w.put(f"{name}t = {name}f = _E")
                w.put(f"if {sizes[j]}:")
                w.indent += 1
            kind = term.kind
            if kind == planmod.K_FALL or kind == planmod.K_SPAWN:
                target = (term.on_true if kind == planmod.K_FALL
                          else term.on_false)
                w.put(_fill("pc", lv, target))
            elif kind == planmod.K_COND:
                self._branch(w, term, name, lv, sizes[j])
            elif kind == planmod.K_RET:
                w.put(_fill("pc", lv, -2))
            else:  # K_HALT
                w.put(_fill("pc", lv, -1))
                w.put(_fill("rsp", lv, 0))
            if lv:
                w.indent -= 1

        # Spawn fills: idle PEs are claimed only after every member's pc
        # update above, re-scanning the free pool per request.
        for j, term in enumerate(seg.terms):
            if term.kind != planmod.K_SPAWN:
                continue
            name, lv = f"m{s}_{j}", lanes[j]
            w.put(f"# spawn fill for block {seg.members[j]}")
            if lv:
                w.put(f"{name}c = _E")
                w.put(f"if {sizes[j]}:")
                w.indent += 1
            w.put("free = (pc == -1).nonzero()[0]")
            w.put(f"if free.size < {sizes[j]}:")
            w.put("    raise MachineError(")
            w.put('        "spawn: not enough free PEs (section 3.2.5 '
                  'requires "')
            w.put('        "spawns not to exceed the number of processors)"')
            w.put("    )")
            w.put(f"{name}c = free[:{sizes[j]}]")
            w.put(f"poly[:, {name}c] = poly[:, {lv or _ALL}]")
            w.put(f"rsp[{name}c] = 0")
            w.put(f"pc[{name}c] = {term.on_true}")
            if lv:
                w.indent -= 1

    def _branch(self, w, term, name: str, lv, size: str) -> None:
        """A conditional terminator over lanes ``lv`` of member
        ``name``, and its split lane sets when the next segment reads
        them."""
        c = term.cond
        if c is None:
            cexpr = f"{_row(f'stack[{term.fin - 1}]', lv)} != 0"
        elif c.kind is ARRAY or not term.split:
            cexpr = self._test(c)
        else:
            # Scalar condition but the successors need the split lane
            # sets: widen it once.
            cexpr = f"np.full({size}, {self._test(c)})"
        target = f"pc[{lv or ':'}]"
        if not term.split:
            w.put(f"{target} = np.where({cexpr}, "
                  f"{term.on_true}, {term.on_false})")
            return
        w.put(f"tk = {cexpr}")
        w.put(f"{target} = np.where(tk, {term.on_true}, {term.on_false})")
        if lv is None:
            w.put(f"{name}t = tk.nonzero()[0]")
            w.put(f"{name}f = (~tk).nonzero()[0]")
        else:
            w.put(f"{name}t = {lv}[tk]")
            w.put(f"{name}f = {lv}[~tk]")
