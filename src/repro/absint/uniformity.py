"""Uniform/varying (divergence) classification, run by the absint solver.

MSC treats every two-arc block as a potential meta-state splitter, but
only *divergent* branches — those whose condition can differ across
PEs — actually split the aggregate state at run time.  The barrier
detector, the explosion estimator, the certificates, and the
``uniform-branch`` ``-O2`` pass all key off divergence, so every poly
slot and branch condition is classified on the abstract lattice
``uniform < varying``:

- ``ProcNum`` and the recursion return-selector (``RPop``) are varying
  sources; ``Push`` / mono loads are uniform.
- ``LdR`` (a remote read) is varying when the PE index or the remote
  slot is; ``StR`` makes its target slot varying (non-targeted PEs keep
  the old value).
- A store executed under divergent control (a block control-dependent
  on a divergent branch or on a ``spawn``) makes its slot varying even
  when the stored value is uniform — only *some* PEs perform it.

:class:`UniformityDomain` runs this on :func:`repro.absint.solver.solve`.
Its per-block state is trivial: the varying slots and the divergent
blocks are shared facts that only grow, and a transfer that grows
either raises the domain's dirty flag, so the solver re-sweeps until
both sets are stable — the least fixpoint.  Unknown operand-stack
entries at block entry (the recursion dispatch chains) are
conservatively varying.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.absint.domains import (
    _U_BINARY,
    _U_DUP,
    _U_LD,
    _U_LDI,
    _U_LDM,
    _U_LDMI,
    _U_LDR,
    _U_POP,
    _U_PUSH,
    _U_SEL,
    _U_ST,
    _U_STI,
    _U_STM,
    _U_STR,
    _U_SWAP,
    _U_UNARY,
    PE_ID,
    MicroOp,
    compile_code,
)
from repro.absint.graph import control_dependents, postdominator_sets
from repro.absint.solver import solve
from repro.ir.block import CondBr, SpawnT
from repro.ir.cfg import Cfg


@dataclass
class UniformityInfo:
    """Result of :func:`analyze_uniformity`."""

    #: Poly slot indices whose value may differ across PEs.
    varying_slots: set[int] = field(default_factory=set)
    #: Ids of ``CondBr`` blocks whose condition may be varying.
    divergent_branches: set[int] = field(default_factory=set)
    #: Blocks executing under divergent control (control dependent on a
    #: divergent branch or a spawn).
    divergent_blocks: set[int] = field(default_factory=set)
    #: Operand-stack depth at each reachable block's entry.
    entry_depths: dict[int, int] = field(default_factory=dict)
    #: Postdominator sets (kept for downstream analyses).
    pdom: dict[int, set[int]] = field(default_factory=dict)
    #: Per-block micro-ops (:func:`repro.absint.domains.compile_code`),
    #: shared with the other domains so each block is decoded once.
    compiled: dict[int, list[MicroOp]] = field(default_factory=dict)


def _scan_ops(
    ops: list[MicroOp],
    entry_depth: int,
    varying: set[int],
    in_divergent_ctx: bool,
) -> bool:
    """Abstractly execute one compiled block; grow ``varying`` with
    slots the block may make varying and return whether the value left
    on top of the stack (a branch condition) may be varying.

    ``True`` on the boolean stack means "may differ across PEs".
    Varying value sources (``ProcNum``, ``RPop``) are the micro-ops
    pushing the :data:`~repro.absint.domains.PE_ID` interval; constant
    and mono pushes carry other payloads.
    """
    # Unknown entries (recursion dispatch selectors) are conservatively
    # varying.
    stack: list[bool] = [True] * entry_depth
    for tag, a1, a2 in ops:
        if tag == _U_BINARY:
            b = stack.pop() if stack else True
            a = stack.pop() if stack else True
            stack.append(a or b)
        elif tag == _U_PUSH:
            stack.append(a1 is PE_ID)
        elif tag == _U_LD:
            stack.append(a1 in varying)
        elif tag == _U_ST:
            val = stack.pop() if stack else True
            if val or in_divergent_ctx:
                varying.add(a1)
        elif tag == _U_LDM:
            stack.append(False)
        elif tag == _U_DUP:
            stack.append(stack[-1] if stack else True)
        elif tag == _U_SWAP:
            if len(stack) >= 2:
                stack[-1], stack[-2] = stack[-2], stack[-1]
        elif tag == _U_POP:
            del stack[max(0, len(stack) - a1):]
        elif tag == _U_UNARY:
            if not stack:
                stack.append(True)
        elif tag == _U_SEL:
            b = stack.pop() if stack else True
            a = stack.pop() if stack else True
            c = stack.pop() if stack else True
            stack.append(c or a or b)
        elif tag == _U_LDI:
            idx = stack.pop() if stack else True
            spans = any(s in varying for s in range(a1, a1 + a2))
            stack.append(idx or spans)
        elif tag == _U_LDMI:
            # A poly index into a mono array reads different elements
            # per PE.
            stack.append(stack.pop() if stack else True)
        elif tag == _U_LDR:
            idx = stack.pop() if stack else True
            stack.append(idx or a1 in varying)
        elif tag == _U_STI:
            idx = stack.pop() if stack else True
            val = stack.pop() if stack else True
            if idx or val or in_divergent_ctx:
                varying.update(range(a1, a1 + a2))
        elif tag == _U_STR:
            # Remote store: only the targeted PEs' slots change.
            if stack:
                stack.pop()
            if stack:
                stack.pop()
            varying.add(a1)
        elif tag == _U_STM:
            # Mono stores broadcast: the shared value stays uniform.
            if stack:
                stack.pop()
        else:  # _U_STMI
            if stack:
                stack.pop()
            if stack:
                stack.pop()
    return stack[-1] if stack else True


#: The trivial per-block state of :class:`UniformityDomain`.
UniformState = tuple[()]


class UniformityDomain:
    """Uniform/varying classification as a solver domain."""

    def __init__(self, cfg: Cfg, entry_depths: dict[int, int],
                 pdom: dict[int, set[int]],
                 compiled: dict[int, list[MicroOp]]) -> None:
        self.cfg = cfg
        self.entry_depths = entry_depths
        self.pdom = pdom
        self.compiled = compiled
        self.varying: set[int] = set()
        self.divergent_branches: set[int] = set()
        #: Spawned children run beside their parents from the start.
        self.divergent_blocks: set[int] = set()
        for bid in compiled:
            if isinstance(cfg.blocks[bid].terminator, SpawnT):
                self.divergent_blocks |= control_dependents(cfg, pdom, bid)
        self._dirty = False

    def entry_state(self) -> UniformState:
        return ()

    def join(self, a: UniformState, b: UniformState) -> UniformState:
        return a

    def widen(self, old: UniformState, new: UniformState) -> UniformState:
        return old

    def poll_dirty(self) -> bool:
        dirty, self._dirty = self._dirty, False
        return dirty

    def dirty_scope(self) -> frozenset[int] | None:
        return None

    def transfer(self, bid: int, state: UniformState) -> UniformState:
        grown = len(self.varying)
        top = _scan_ops(self.compiled[bid], self.entry_depths[bid],
                        self.varying, bid in self.divergent_blocks)
        if len(self.varying) > grown:
            self._dirty = True
        if (top and bid not in self.divergent_branches
                and isinstance(self.cfg.blocks[bid].terminator, CondBr)):
            self.divergent_branches.add(bid)
            deps = control_dependents(self.cfg, self.pdom, bid)
            if not deps <= self.divergent_blocks:
                self.divergent_blocks |= deps
                self._dirty = True
        return state


def analyze_uniformity(cfg: Cfg, entry_depths: dict[int, int] | None = None,
                       pdom: dict[int, set[int]] | None = None
                       ) -> UniformityInfo:
    """Least-fixpoint uniform/varying classification of slots and
    branches.

    ``entry_depths`` / ``pdom`` may be passed in when the caller has
    already computed them (the verifier and barrier analyzers share
    them through the lint context scratch)."""
    if entry_depths is None:
        entry_depths = cfg.verify()
    if pdom is None:
        pdom = postdominator_sets(cfg)
    compiled = {b: compile_code(cfg.blocks[b].code)
                for b in sorted(entry_depths)}
    domain = UniformityDomain(cfg, entry_depths, pdom, compiled)
    solve(cfg, domain, reachable=set(entry_depths))
    return UniformityInfo(
        varying_slots=domain.varying,
        divergent_branches=domain.divergent_branches,
        divergent_blocks=domain.divergent_blocks,
        entry_depths=entry_depths,
        pdom=pdom,
        compiled=compiled,
    )
