"""The kernel IR: one lowering of every node plan, printed twice.

The fused NumPy kernels (:mod:`repro.codegen.kernels`) and the native C
kernels (:mod:`repro.codegen.native`) execute a node with the same
structure. :func:`lower_node` derives that structure once per
:class:`~repro.codegen.plan.NodePlan` segment; the two modules only
print it. A lowered segment (:class:`Seg`) holds

- **member lane sources** — which terminator outputs of the previous
  segment (fall-through, taken / not-taken split, spawn children) feed
  each member, or ``None`` in the first segment, where lanes are
  scanned from ``pc``. Barrier-wait members are re-scanned too, because
  parked PEs may rejoin there, but their sources still name the sets
  that feed them: a member fed by a set that holds every PE holds every
  PE itself, since nobody was parked. Only non-barrier members make a
  conditional member compute its split sets (``Term.split``). The NumPy
  printer forwards lane arrays along the sources; the C printer scans a
  ``pc0`` snapshot instead, which yields the same sets;
- **closed-form accounting** — control-unit cycles are a constant per
  segment and enabled-PE cycles an integer coefficient per member
  times its lane count;
- **the overflow checklist** — every pushing entry with the rows each
  guard member needs, in schedule order, behind one static
  ``max_rows`` guard (the slow path replays it like
  :func:`repro.simd.kernelrt.overflow_scan`);
- **the body** — :class:`Chain`\\ s of straight-line statements. When
  every entry has a scalar depth and no cross-lane op (mono store,
  router) appears, the segment is *serializable*: member lane sets are
  disjoint, so each member's slice of the CSI schedule runs as one
  chain. Otherwise the body follows the schedule in guard groups
  (consecutive entries sharing a guard); a group whose depths are
  scalars is one chain, and each entry of a mixed-depth group is a
  one-entry chain. A printer that runs a chain in one lane loop must
  not fuse a cross-lane op with its neighbours, so a grouped segment
  also carries its body as one-entry chains (``Seg.entry_chains``);
- **terminators**, the **spawn fills** they imply, and the **exit
  test**.

Every depth comes from :meth:`~repro.ir.cfg.Cfg.verify`, which rejects
a program whose stack could underflow, so no entry needs an underflow
check.

Every chain comes from one symbolic stack executor (:class:`_Exec`),
the only code that tracks stack rows. Rows map to values (temporaries,
literals, ``npes``), so pushed constants never touch memory; poly,
mono and PE-id reads are cached per slot; only rows still live at the
chain's end are stored back (deferred stores); and a conditional
member's last chain hands its top of stack to the terminator instead
of storing it. A row is an integer, or a :class:`Dv` offset from the
per-lane depth of a mixed-depth entry.

Comparison and logical results are **bool values** (a NumPy ``bool``
array or scalar, a C ``int`` 0 or 1): terminators, ``Sel`` and the
logical ops test them as they are, and a store into a float64 row
converts them on its own. Only an op that needs a number (arithmetic,
bitwise, a comparison, an index) reads one through a ``num``
statement, at most once per value and chain, so a branch condition is
never cast to float64 only to be tested ``!= 0`` again.

No kernel stores ``sp``: every block's entry depth is a constant
(:meth:`~repro.ir.cfg.Cfg.verify`), so depths live in the plan, and
the interpretive segment walk, the one reader of ``st.sp``, sets each
member's pointer from ``SimdProgram.entry_depths`` before it runs a
segment.

Lowering changes nothing about results or the simulated cost model.
Re-serialization and the hoisted overflow guard may only change which
of several errors a failing run reports first (see
:mod:`repro.codegen.kernels`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from repro.codegen import plan as planmod
from repro.ir.instr import BINARY_OPS, UNARY_OPS, Op

#: Ops that push one value and therefore carry an overflow check in
#: :func:`repro.simd.vecops.exec_instr` (``_over(1)``).
PUSHING_OPS = frozenset({Op.PUSH, Op.DUP, Op.LD, Op.LDM, Op.PROCNUM,
                         Op.NPROC, Op.RPOP})

#: Value kinds: ``ARRAY`` and ``SCALAR`` name temporary ``x`` (one
#: value per lane, or one lane-independent value such as a mono read),
#: ``CONST`` is the literal float ``x``, and ``NPES`` is the machine
#: width as a float.
ARRAY, SCALAR, CONST, NPES = "a", "s", "k", "n"

#: Ops whose result is a bool value.
BOOL_OPS = frozenset({Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ, Op.NE,
                      Op.LAND, Op.LOR, Op.NOT, Op.BOOL})

#: Ops that read bool operands as they are; every other consumer of a
#: bool value reads its ``num`` conversion.
_TRUTH_OPS = frozenset({Op.LAND, Op.LOR, Op.NOT, Op.BOOL})

_TERM_KINDS = (planmod.K_FALL, planmod.K_COND, planmod.K_RET,
               planmod.K_HALT, planmod.K_SPAWN)


class Val(NamedTuple):
    """One IR value: its :data:`kind <ARRAY>`, its name or literal
    ``x``, and whether it is a bool value (see the module docstring)."""

    kind: str
    x: object
    boolean: bool = False


class KernelUnsupported(Exception):
    """Raised when one node cannot be kernelized; the node simply stays
    on the interpretive segment walk."""


@dataclass(frozen=True, order=True)
class Dv:
    """The stack row ``off`` rows from the per-lane depth of a
    mixed-depth entry (the plan's ``bid -> depth`` table gathered by
    ``pc``)."""

    off: int

    def __add__(self, k: int) -> "Dv":
        return Dv(self.off + k)

    def __sub__(self, k: int) -> "Dv":
        return Dv(self.off - k)


class Chain(NamedTuple):
    """Statements run by the lanes of guard ``members`` (indices into
    the segment's members), as ``(tag, n, args, instr)`` tuples:

    - ``(Op, n, values, instr)``: one instruction over its operand
      values (:class:`Val`); a value-producing op defines temporary
      ``n``. Every ``n`` is unique within its node, so printers may
      derive names from it;
    - ``("num", n, (value,), None)``: bool ``value`` as a float64
      number ``n``;
    - ``("stack" | "poly" | "mono", n, (index,), None)`` and
      ``("pids", n, (), None)``: load a stack row, a slot or the PE id
      into ``n``;
    - ``("flush", None, (row, value), None)``: a deferred stack store;
    - ``("dv", None, (entry, table), None)``: bind the per-lane depth
      of a mixed-depth entry from its ``bid -> depth`` table;
    - ``("#", None, text, None)``: a comment.
    """

    members: tuple
    code: list


class Term(NamedTuple):
    """One member's terminator."""

    kind: int
    on_true: int
    on_false: int
    #: Operand-stack depth after the body.
    fin: int
    #: The forwarded branch condition (a :class:`Val`), or ``None`` to read
    #: stack row ``fin - 1``.
    cond: Val | None
    #: The next segment reads this conditional member's taken /
    #: not-taken lane sets.
    split: bool


@dataclass
class Seg:
    """One lowered segment."""

    members: tuple
    #: Per member: ``None`` in the first segment (scan ``pc``), else the
    #: previous segment's lane sets ``(member index, suffix)`` that feed
    #: it; suffix ``""`` is all of a member's lanes, ``"t"`` / ``"f"``
    #: its taken / not-taken split and ``"c"`` its spawned children. A
    #: non-barrier member's lanes are their union.
    sources: tuple
    #: Per member: a barrier wait, whose lanes are re-scanned from
    #: ``pc`` because parked PEs may rejoin there.
    barrier: tuple
    #: Control-unit cycles: every entry plus one terminator per member.
    body_cycles: int
    #: Per member: enabled-PE cycles per lane.
    coeffs: tuple
    #: ``((op name, ((member, rows needed), ...)), ...)`` in schedule
    #: order, one per pushing entry.
    checklist: tuple
    max_rows: int
    serial: bool
    chains: list
    #: A grouped body as one-entry chains that forward nothing, for a
    #: printer that runs each chain in one lane loop; ``None`` when
    #: ``chains`` already is that.
    entry_chains: list | None
    terms: tuple
    #: ``globalor`` cost of the mid-chain exit test, or ``None`` when
    #: the segment cannot exit.
    exit_cost: int | None


@dataclass
class Node:
    name: str
    segments: list


class _Info(NamedTuple):
    """Per-instruction facts, memoized per lowering (``Op`` hashing is
    slow enough to dominate otherwise)."""

    pops: int
    delta: int
    cost: int
    pushing: bool
    crosslane: bool
    text: str


def _can_serialize(sp, info) -> bool:
    """Every entry has a scalar depth and is lane-private."""
    return all(d is not None and not i.crosslane
               for d, i in zip(sp.depth_scalars, info))


def yields_bool(tag, args) -> bool:
    """Whether the chain statement ``(tag, n, args, instr)`` defines a
    bool value."""
    return tag in BOOL_OPS or (tag is Op.SEL and args[1].boolean
                               and args[2].boolean)


def _kind(*vals: Val) -> str:
    return ARRAY if any(v.kind is ARRAY for v in vals) else SCALAR


def lower_program(prog) -> list:
    """Every node of ``prog`` (a :class:`~repro.codegen.emit.SimdProgram`)
    lowered for both printers, as ``(index, key, Node)`` in a stable
    order, skipping nodes that raise :class:`KernelUnsupported`."""
    low = _Lowering(prog, prog.plan(), entry_chains=True)
    out = []
    for i, key in enumerate(sorted(prog.nodes,
                                   key=lambda k: tuple(sorted(k)))):
        try:
            out.append((i, key, low.node(key)))
        except KernelUnsupported:
            continue
    return out


def lower_node(prog, plan, key) -> Node:
    """Lower one node for the NumPy printer alone (lazy compilation,
    which never prints C); ``plan.nodes[key]`` must be compiled.
    Raises :class:`KernelUnsupported` for an opcode or terminator kind
    no printer handles."""
    return _Lowering(prog, plan, entry_chains=False).node(key)


class _Lowering:
    def __init__(self, prog, plan, entry_chains: bool):
        self.prog = prog
        self.plan = plan
        self.costs = prog.costs
        self.barriers = prog.barrier_ids
        self.entry_chains = entry_chains
        self.memo: dict = {}

    def _info(self, instr) -> _Info:
        info = self.memo.get(id(instr))
        if info is None:
            info = self.memo[id(instr)] = _Info(
                instr.pops(), instr.stack_delta(), self.costs.cost(instr),
                instr.op in PUSHING_OPS,
                instr.op in planmod.CROSSLANE_OPS, str(instr))
        return info

    def node(self, key) -> Node:
        node = self.prog.nodes[key]
        segs = self.plan.nodes[key].segments
        self.tmp = itertools.count().__next__  # unique per node
        out = []
        incoming = None
        for s, sp in enumerate(segs):
            nxt = segs[s + 1].member_bids if s + 1 < len(segs) else ()
            seg, incoming = self.segment(sp, node.segments[s].can_exit,
                                         incoming, nxt)
            out.append(seg)
        return Node(node.name, out)

    def segment(self, sp, can_exit, incoming, nxt):
        members = sp.member_bids
        n = len(members)
        costs = self.costs
        sources = tuple(
            None if incoming is None else tuple(incoming.get(bid, ()))
            for bid in members)
        self.sp = sp
        self.info = info = [self._info(instr) for instr in sp.instrs]
        self.notes = [
            f"{i.text} @" + "/".join(str(sp.entry_depths[j] + r)
                                     for j, r in zip(gm, rel))
            for i, gm, rel in zip(info, sp.guard_members, sp.rel_depths)]
        coeffs = [costs.branch_cost] * n
        checklist = []
        for e, gm in enumerate(sp.guard_members):
            for j in gm:
                coeffs[j] += info[e].cost
            if info[e].pushing:
                checklist.append((sp.instrs[e].op.value, tuple(
                    (j, sp.entry_depths[j] + r + 1)
                    for j, r in zip(gm, sp.rel_depths[e]))))

        fwd: dict = {}
        serial = _can_serialize(sp, info)
        if serial:
            chains = [self._chain(
                [e for e, gm in enumerate(sp.guard_members) if j in gm],
                (j,), j, fwd) for j in range(n)]
            entry_chains = None
        else:
            chains, entry_chains = self._grouped(fwd)

        # Which lane sets feed which members of the next segment.
        produced = []
        for j in range(n):
            kind, t, f = sp.kinds[j], sp.on_true[j], sp.on_false[j]
            if kind == planmod.K_FALL or kind == planmod.K_COND and t == f:
                produced.append((t, (j, "")))
            elif kind == planmod.K_COND:
                produced += [(t, (j, "t")), (f, (j, "f"))]
            elif kind == planmod.K_SPAWN:
                produced += [(t, (j, "c")), (f, (j, ""))]
        nxt_in = {bid: [ref for t, ref in produced if t == bid]
                  for bid in nxt}
        split = {j for bid, refs in nxt_in.items()
                 if bid not in self.barriers
                 for j, sfx in refs if sfx in ("t", "f")}

        terms = []
        for j in range(n):
            if sp.kinds[j] not in _TERM_KINDS:
                raise KernelUnsupported(
                    f"unknown terminator kind {sp.kinds[j]}")
            terms.append(Term(
                sp.kinds[j], sp.on_true[j], sp.on_false[j],
                sp.entry_depths[j] + sp.total_delta[j],
                fwd.get(j), j in split))
        seg = Seg(members, sources,
                  tuple(bid in self.barriers for bid in members),
                  sum(i.cost for i in info) + costs.branch_cost * n,
                  tuple(coeffs), tuple(checklist),
                  max((r for _, reqs in checklist for _, r in reqs),
                      default=0),
                  serial, [c for c in chains if c],
                  entry_chains and [c for c in entry_chains if c],
                  tuple(terms), costs.globalor_cost if can_exit else None)
        return seg, nxt_in

    def _grouped(self, fwd):
        """Schedule-order guard groups (see the module docstring), and
        the one-entry chains of the same body when they differ."""
        sp = self.sp
        groups: list = []
        for e, gm in enumerate(sp.guard_members):
            if groups and groups[-1][0] == gm:
                groups[-1][1].append(e)
            else:
                groups.append((gm, [e]))
        last = {j: gi for gi, (gm, _) in enumerate(groups) for j in gm}
        chains: list = []
        entry: list = []
        differs = False
        for gi, (gm, span) in enumerate(groups):
            if all(sp.depth_scalars[e] is not None for e in span):
                # Only the member's last group may forward its branch
                # condition, and only when its lanes are the group's.
                final = gm[0] if len(gm) == 1 and last[gm[0]] == gi else None
                chains.append(self._chain(span, gm, final, fwd))
                if len(span) == 1 and final is None:
                    entry.append(chains[-1])
                elif self.entry_chains:
                    differs = True
                    entry += [self._chain([e], gm) for e in span]
            else:
                chains += [self._chain([e], gm) for e in span]
                entry += chains[-len(span):]
        return chains, entry if differs else None

    def _chain(self, span, gm, final=None, fwd=None) -> Chain | None:
        """Run ``span`` (entry indices) through the executor: the chain,
        or ``None`` when no entry generates code. ``final`` is the
        member whose branch condition may be forwarded (into ``fwd``)
        from this chain."""
        sp, info = self.sp, self.info
        # ``Pop`` only moves the statically tracked depth: no code.
        live = [e for e in span if sp.instrs[e].op is not Op.POP]
        if not live:
            return None
        x = _Exec(self.tmp)
        for e in live:
            instr = sp.instrs[e]
            x.code.append(("#", None, self.notes[e], None))
            d = sp.depth_scalars[e]
            if d is None:
                d = Dv(0)
                if info[e].pops or info[e].delta:  # RPush reads no row
                    x.code.append(("dv", None, (e, sp.depth_tables[e]), None))
            x.step(instr, d)
        end = span[-1]
        d_end = ((sp.depth_scalars[end] if sp.depth_scalars[end] is not None
                  else Dv(0)) + info[end].delta)
        cond = None
        if final is not None and sp.kinds[final] == planmod.K_COND \
                and d_end >= 1:
            # The conditional pop makes the top row dead: hand the value
            # to the terminator instead of storing it.
            cond = fwd[final] = x.rows.get(d_end - 1)
        for r in sorted(x.written):
            if r < d_end and (cond is None or r != d_end - 1):
                x.code.append(("flush", None, (r, x.rows[r]), None))
        return Chain(gm, x.code)


class _Exec:
    """The symbolic stack executor of one chain: ``rows`` maps stack
    rows to values, ``written`` holds the rows whose value differs from
    the stack array (deferred stores), and ``poly`` / ``mono`` / ``pids``
    cache slot reads and eagerly performed writes, so a store followed
    by a load never re-reads memory. Indexed and router stores
    invalidate those caches. ``nums`` holds each bool value's ``num``
    conversion."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.code: list = []
        self.rows: dict = {}
        self.written: set = set()
        self.poly: dict = {}
        self.mono: dict = {}
        self.pids = None
        self.nums: dict = {}

    def emit(self, tag, args=(), kind=None, instr=None,
             boolean: bool = False) -> Val:
        n = self.tmp()
        self.code.append((tag, n, args, instr))
        return Val(kind, n, boolean)

    def num(self, v: Val) -> Val:
        """``v`` as a number: a bool value converts once per chain."""
        if not v.boolean:
            return v
        got = self.nums.get(v.x)
        if got is None:
            got = self.nums[v.x] = self.emit("num", (v,), v.kind)
        return got

    def val(self, row) -> Val:
        v = self.rows.get(row)
        if v is None:
            v = self.rows[row] = self.emit("stack", (row,), ARRAY)
        return v

    def set(self, row, v: Val) -> None:
        self.rows[row] = v
        self.written.add(row)

    def step(self, instr, d) -> None:
        """One instruction at depth ``d`` — the semantics and check
        order of :func:`repro.simd.vecops.exec_instr`, minus the
        stack traffic."""
        op = instr.op
        if op is Op.PUSH:
            self.set(d, Val(CONST, float(instr.arg)))
        elif op is Op.POP:
            pass
        elif op is Op.LD or op is Op.LDM:
            cache = self.poly if op is Op.LD else self.mono
            slot = int(instr.arg)
            v = cache.get(slot)
            if v is None:
                v = cache[slot] = self.emit(
                    "poly", (slot,), ARRAY) if op is Op.LD \
                    else self.emit("mono", (slot,), SCALAR)
            self.set(d, v)
        elif op is Op.ST or op is Op.STM:
            v = self.val(d - 1)
            self.emit(op, (v,), None, instr)
            if op is Op.ST:
                self.poly[int(instr.arg)] = v
            elif v.kind is ARRAY:  # broadcast: the last writer's value
                self.mono.pop(int(instr.arg), None)
            else:
                self.mono[int(instr.arg)] = v
        elif op in BINARY_OPS:
            b, a = self.val(d - 1), self.val(d - 2)
            if op not in _TRUTH_OPS:
                a, b = self.num(a), self.num(b)
            self.set(d - 2, self.emit(op, (a, b), _kind(a, b), instr,
                                      yields_bool(op, (a, b))))
        elif op is Op.BOOL and self.val(d - 1).boolean:
            pass  # already 0 or 1
        elif op in UNARY_OPS:
            x = self.val(d - 1)
            if op not in _TRUTH_OPS:
                x = self.num(x)
            self.set(d - 1, self.emit(op, (x,), _kind(x), instr,
                                      yields_bool(op, (x,))))
        elif op is Op.SWAP:
            b, a = self.val(d - 1), self.val(d - 2)
            self.set(d - 1, a)
            self.set(d - 2, b)
        elif op is Op.DUP:
            self.set(d, self.val(d - 1))
        elif op in (Op.LDR, Op.LDI, Op.LDMI):
            x = self.num(self.val(d - 1))
            kind = ARRAY if op is Op.LDI else _kind(x)
            self.set(d - 1, self.emit(op, (x,), kind, instr))
        elif op in (Op.STR, Op.STI, Op.STMI):
            x, v = self.num(self.val(d - 1)), self.val(d - 2)
            self.emit(op, (v, x), None, instr)
            if op is Op.STR:
                self.poly.pop(int(instr.arg), None)
            elif op is Op.STI:
                self.poly.clear()
            else:
                self.mono.clear()
        elif op is Op.PROCNUM:
            if self.pids is None:
                self.pids = self.emit("pids", (), ARRAY)
            self.set(d, self.pids)
        elif op is Op.NPROC:
            self.set(d, Val(NPES, None))
        elif op is Op.SEL:
            b, a, c = self.val(d - 1), self.val(d - 2), self.val(d - 3)
            self.set(d - 3, self.emit(op, (c, a, b), _kind(a, b, c), instr,
                                      yields_bool(op, (c, a, b))))
        elif op is Op.RPUSH:
            self.emit(op, (), None, instr)
        elif op is Op.RPOP:
            self.set(d, self.emit(op, (), ARRAY, instr))
        else:
            raise KernelUnsupported(f"unhandled opcode {op}")
