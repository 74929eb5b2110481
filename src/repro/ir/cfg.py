"""The MIMD control-flow graph and the paper's graph normalizations.

Section 2.1 / 4.2: "the control-flow graph is straightened and empty
nodes are removed" to obtain "the simplest possible graph" whose nodes
are maximal basic blocks. This module provides the graph container, the
straightening and empty-node-removal passes, a structural verifier, and
block renumbering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConversionError
from repro.ir.block import BasicBlock, CondBr, Fall, Halt, Return, SpawnT, Terminator
from repro.ir.instr import Op


@dataclass
class SlotInfo:
    """Descriptor of one memory slot.

    ``storage`` is ``"poly"`` (per-PE) or ``"mono"`` (shared);
    ``ctype`` is ``"int"`` or ``"float"``.
    """

    name: str
    index: int
    storage: str
    ctype: str


class EntryDepths(dict):
    """``block id -> operand-stack depth at entry``, as
    :meth:`Cfg.verify` returns it, plus ``rpush``: whether a reachable
    instruction pushes a return selector. A PE needs no return-selector
    rows without one (:class:`~repro.simd.vecops.PeState`)."""

    rpush: bool = False


@dataclass
class Cfg:
    """A control-flow graph over :class:`~repro.ir.block.BasicBlock`.

    Attributes
    ----------
    blocks:
        Mapping block id -> block. Ids are dense after
        :meth:`renumbered`.
    entry:
        Id of the start block. Every process begins there (SPMD: all
        PEs share the one entry, the paper's "MIMD start states" are
        the singleton set of this block).
    poly_slots / mono_slots:
        Memory layout produced by the front end.
    ret_slot:
        Poly slot receiving ``main``'s return value, or ``None``.
    """

    blocks: dict[int, BasicBlock] = field(default_factory=dict)
    entry: int = 0
    poly_slots: list[SlotInfo] = field(default_factory=list)
    mono_slots: list[SlotInfo] = field(default_factory=list)
    ret_slot: int | None = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    _next_id: int = 0

    def new_block(self, label: str = "") -> BasicBlock:
        """Allocate and register a fresh empty block."""
        bid = self._next_id
        self._next_id += 1
        blk = BasicBlock(bid=bid, label=label)
        self.blocks[bid] = blk
        return blk

    def add_block(self, blk: BasicBlock) -> BasicBlock:
        """Register an externally built block (id must be unused)."""
        if blk.bid in self.blocks:
            raise ConversionError(f"duplicate block id {blk.bid}")
        self.blocks[blk.bid] = blk
        self._next_id = max(self._next_id, blk.bid + 1)
        return blk

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def predecessors(self) -> dict[int, list[int]]:
        """Map block id -> list of predecessor block ids."""
        preds: dict[int, list[int]] = {bid: [] for bid in self.blocks}
        for blk in self.blocks.values():
            for s in blk.successors():
                preds[s].append(blk.bid)
        return preds

    def reachable(self) -> set[int]:
        """Ids reachable from the entry block."""
        seen: set[int] = set()
        work = [self.entry]
        while work:
            bid = work.pop()
            if bid in seen:
                continue
            seen.add(bid)
            work.extend(self.blocks[bid].successors())
        return seen

    def branch_blocks(self) -> list[int]:
        """Ids of blocks with two exit arcs (the explosion sources)."""
        return [b.bid for b in self.blocks.values() if b.is_branch]

    # ------------------------------------------------------------------
    # normalization passes (section 2.1 / 4.2 step 2)
    # ------------------------------------------------------------------
    def remove_unreachable(self) -> int:
        """Drop blocks unreachable from the entry; return count removed."""
        keep = self.reachable()
        dead = [bid for bid in self.blocks if bid not in keep]
        for bid in dead:
            del self.blocks[bid]
        return len(dead)

    def remove_empty(self) -> int:
        """Remove empty fall-through nodes by redirecting their
        predecessors, per "removal of empty nodes are applied to obtain
        the simplest possible graph". Barrier blocks are kept (they are
        deliberately empty). Returns the number of nodes removed."""
        removed = 0
        changed = True
        while changed:
            changed = False
            # Resolve each empty block to its ultimate non-empty target.
            forward: dict[int, int] = {}
            for blk in self.blocks.values():
                if (
                    not blk.code
                    and not blk.is_barrier_wait
                    and isinstance(blk.terminator, Fall)
                    and blk.terminator.target != blk.bid
                ):
                    forward[blk.bid] = blk.terminator.target

            def resolve(bid: int) -> int:
                seen = set()
                while bid in forward and bid not in seen:
                    seen.add(bid)
                    bid = forward[bid]
                return bid

            for blk in self.blocks.values():
                new_t = _map_terminator(blk.terminator, resolve)
                if new_t is not blk.terminator:
                    blk.terminator = new_t
                    changed = True
            if self.entry in forward:
                target = resolve(self.entry)
                # The conversion requires a non-barrier start state, so
                # an (empty) entry is kept when it feeds a barrier.
                if not self.blocks[target].is_barrier_wait:
                    self.entry = target
                    changed = True
                else:
                    del forward[self.entry]
            n = self.remove_unreachable()
            removed += n
            changed = changed or n > 0
        return removed

    def straighten(self) -> int:
        """Merge chains: when ``a`` falls unconditionally to ``b`` and
        ``b`` has no other predecessor, absorb ``b`` into ``a`` (code
        straightening, [CoS70]). Barrier blocks and the entry are never
        absorbed. Returns the number of merges performed."""
        merges = 0
        changed = True
        while changed:
            changed = False
            preds = self.predecessors()
            for a in list(self.blocks.values()):
                if a.bid not in self.blocks:
                    continue
                t = a.terminator
                if not isinstance(t, Fall):
                    continue
                b_id = t.target
                if b_id == a.bid or b_id == self.entry:
                    continue
                b = self.blocks[b_id]
                if b.is_barrier_wait or a.is_barrier_wait:
                    continue
                if preds[b_id] != [a.bid]:
                    continue
                a.code = a.code + b.code
                a.terminator = b.terminator
                if b.label:
                    a.label = f"{a.label};{b.label}" if a.label else b.label
                if not a.src_line:
                    a.src_line = b.src_line
                del self.blocks[b_id]
                merges += 1
                changed = True
                break
        return merges

    def normalize(self) -> "Cfg":
        """Run the full normalization pipeline in place and return self."""
        self.remove_unreachable()
        self.remove_empty()
        self.straighten()
        self.remove_unreachable()
        self.verify()
        return self

    def renumbered(self) -> "Cfg":
        """Return a copy with dense block ids assigned in a reverse
        post-order walk from the entry (entry gets id 0)."""
        order: list[int] = []
        seen: set[int] = set()

        def dfs(bid: int) -> None:
            if bid in seen:
                return
            seen.add(bid)
            for s in self.blocks[bid].successors():
                dfs(s)
            order.append(bid)

        dfs(self.entry)
        order.reverse()
        # Unreachable blocks are dropped by renumbering.
        mapping = {old: new for new, old in enumerate(order)}
        out = Cfg(
            entry=mapping[self.entry],
            poly_slots=list(self.poly_slots),
            mono_slots=list(self.mono_slots),
            ret_slot=self.ret_slot,
        )
        for old in order:
            blk = self.blocks[old]
            out.add_block(
                BasicBlock(
                    bid=mapping[old],
                    code=list(blk.code),
                    terminator=_map_terminator(blk.terminator, lambda b: mapping[b]),
                    is_barrier_wait=blk.is_barrier_wait,
                    label=blk.label,
                    src_line=blk.src_line,
                )
            )
        return out

    def clone(self) -> "Cfg":
        """Deep copy (blocks and code lists; instructions are frozen)."""
        out = Cfg(
            entry=self.entry,
            poly_slots=list(self.poly_slots),
            mono_slots=list(self.mono_slots),
            ret_slot=self.ret_slot,
        )
        for blk in self.blocks.values():
            out.add_block(
                BasicBlock(
                    bid=blk.bid,
                    code=list(blk.code),
                    terminator=blk.terminator,
                    is_barrier_wait=blk.is_barrier_wait,
                    label=blk.label,
                    src_line=blk.src_line,
                )
            )
        return out

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(self) -> EntryDepths:
        """Check structural invariants; return entry stack depth per block.

        Invariants: every successor id exists; each block has at most
        two exit arcs (the conversion algorithm's precondition); operand
        stack depth at each block entry is consistent along all paths
        and never negative inside a block. A spawned child enters at
        depth 0, as the fresh PE that runs it does.

        The returned map is the only entry-depth walk: the SIMD program
        carries it, the kernel plans read every operand-stack row from
        it (:mod:`repro.codegen.plan`), and the machine sizes each PE's
        return-selector stack by its ``rpush``.
        """
        depths = EntryDepths({self.entry: 0})
        rpush = False
        work = [self.entry]
        while work:
            bid = work.pop()
            blk = self.blocks.get(bid)
            if blk is None:
                raise ConversionError(f"dangling block id {bid}")
            if len(blk.successors()) > 2:
                raise ConversionError(f"block {bid} has more than two exit arcs",
                                      blk.src_line or None)
            depth = depths[bid]
            for instr in blk.code:
                if depth - instr.pops() < 0:
                    raise ConversionError(
                        f"operand stack underflow in block {bid} at {instr}",
                        blk.src_line or None,
                    )
                depth += instr.stack_delta()
                rpush = rpush or instr.op is Op.RPUSH
            term = blk.terminator
            if isinstance(term, CondBr):
                if depth < 1:
                    raise ConversionError(
                        f"block {bid} branches on an empty stack",
                        blk.src_line or None,
                    )
                depth -= 1
            arcs = (((term.child, 0), (term.cont, depth))
                    if isinstance(term, SpawnT)
                    else [(s, depth) for s in blk.successors()])
            for s, d in arcs:
                if s not in self.blocks:
                    raise ConversionError(
                        f"block {bid} targets missing block {s}",
                        blk.src_line or None,
                    )
                if s in depths:
                    if depths[s] != d:
                        raise ConversionError(
                            f"inconsistent stack depth at block {s}: "
                            f"{depths[s]} vs {d}"
                        )
                else:
                    depths[s] = d
                    work.append(s)
        depths.rpush = rpush
        return depths

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        lines = [f"entry: {self.entry}"]
        for bid in sorted(self.blocks):
            lines.append(str(self.blocks[bid]))
        return "\n".join(lines)


def _map_terminator(t: Terminator, f) -> Terminator:
    """Return ``t`` with every successor id passed through ``f``.

    Returns the original object when nothing changes, so callers can use
    identity to detect rewrites.
    """
    if isinstance(t, Fall):
        nt = f(t.target)
        return t if nt == t.target else Fall(nt)
    if isinstance(t, CondBr):
        a, b = f(t.on_true), f(t.on_false)
        return t if (a, b) == (t.on_true, t.on_false) else CondBr(a, b)
    if isinstance(t, SpawnT):
        c, k = f(t.child), f(t.cont)
        return t if (c, k) == (t.child, t.cont) else SpawnT(c, k)
    if isinstance(t, (Return, Halt)):
        return t
    raise AssertionError(f"unknown terminator {t!r}")
