"""Meta-state conversion: the base algorithm, compression, and barriers.

Base algorithm (section 2.3): from a meta state, every member MIMD state
with two exit arcs may send its processes down the TRUE path, the FALSE
path, or *both* ("if we further assume that there may be multiple
processes in each MIMD state, it is further possible that both
successors might be chosen"). Each combination of per-member choices,
unioned, is a successor meta state — up to 3^n of them from n branch
members. The construction is the subset construction of NFA->DFA fame,
"strikingly similar to the process of converting an NFA into a DFA".

Compression (section 2.5): always take both successors. "The case of
both successors can always emulate either successor, since it has the
code for both", so the state space shrinks dramatically (linear in the
number of MIMD states) while each meta state gets wider.

Barrier synchronization (section 2.6): a candidate successor containing
barrier-wait states keeps them only if *every* member is a barrier wait
("unless all processors have reached the barrier ... simply remove the
barrier states"). PEs that reached the barrier park there — their pc
stays at the barrier state but appears in no executed guard — until the
aggregate consists solely of barrier states (section 3.2.4).

Spawn (section 3.2.5): a spawn terminator behaves like a conditional
jump both of whose exits are always taken (the compressed rule), one by
the original processes and one by the newly activated ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import ConversionError
from repro.ir.block import CondBr, Fall, Halt, Return, SpawnT
from repro.ir.cfg import Cfg
from repro.core.metastate import MetaStateGraph


@dataclass(frozen=True)
class ConvertOptions:
    """Knobs of the conversion.

    Attributes
    ----------
    compress:
        Apply meta-state compression (section 2.5).
    max_meta_states:
        Hard cap on the number of meta states; exceeding it raises
        :class:`~repro.errors.ConversionError` ("without some means to
        ensure that the state space is kept manageable, the technique is
        not practical").
    max_parked:
        Cap on the number of distinct barrier states PEs may be parked
        at simultaneously (the all-at-barrier closure enumerates subsets
        of this set).
    """

    compress: bool = False
    max_meta_states: int = 100_000
    max_parked: int = 8


def member_choices(cfg: Cfg, bid: int, compress: bool) -> list[frozenset]:
    """The sets of MIMD states a member's processes can occupy next.

    A two-exit member yields ``[{t}, {f}, {t,f}]`` (or just ``[{t,f}]``
    compressed); one exit yields its target; zero exits yield the empty
    set (the processes leave the automaton). A spawn always yields both
    exits, regardless of compression.
    """
    t = cfg.blocks[bid].terminator
    if isinstance(t, CondBr):
        both = frozenset((t.on_true, t.on_false))
        if compress or len(both) == 1:
            return [both]
        return [
            frozenset((t.on_true,)),
            frozenset((t.on_false,)),
            both,
        ]
    if isinstance(t, Fall):
        return [frozenset((t.target,))]
    if isinstance(t, SpawnT):
        return [frozenset((t.child, t.cont))]
    if isinstance(t, (Return, Halt)):
        return [frozenset()]
    raise AssertionError(f"unknown terminator {t!r}")


def candidate_unions(cfg: Cfg, members: frozenset, compress: bool) -> set[frozenset]:
    """All distinct unions of one choice per member — the aggregate pc
    sets observable at the end of the meta state (before barrier
    parking). Deduplicates incrementally so the work is bounded by the
    number of *distinct* unions rather than the full 3^n product."""
    acc: set[frozenset] = {frozenset()}
    for bid in sorted(members):
        choices = member_choices(cfg, bid, compress)
        acc = {u | c for u in acc for c in choices}
    return acc


class _ConvertMemo:
    """Per-conversion memo of :func:`member_choices` and
    :func:`candidate_unions`, keyed on ``(bid, compress)`` and
    ``(members, compress)``. The worklist fixpoint revisits a meta state
    whenever its parked set grows, but choices and unions depend only on
    the CFG — recomputing them was the conversion-time hot spot on large
    graphs."""

    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        self._choices: dict[tuple[int, bool], list[frozenset]] = {}
        self._unions: dict[tuple[frozenset, bool], set[frozenset]] = {}

    def choices(self, bid: int, compress: bool) -> list[frozenset]:
        key = (bid, compress)
        got = self._choices.get(key)
        if got is None:
            got = self._choices[key] = member_choices(self.cfg, bid, compress)
        return got

    def unions(self, members: frozenset, compress: bool) -> set[frozenset]:
        key = (members, compress)
        got = self._unions.get(key)
        if got is None:
            acc: set[frozenset] = {frozenset()}
            for bid in sorted(members):
                choices = self.choices(bid, compress)
                acc = {u | c for u in acc for c in choices}
            got = self._unions[key] = acc
        return got


#: Public name of the conversion memo: the realizability walks in
#: :mod:`repro.verify.frontier` resolve candidate unions with the same
#: cached machinery the converter uses, so the two stay in lockstep.
ConvertMemo = _ConvertMemo


class ConversionEngine:
    """Incremental driver of the subset construction.

    The engine owns the worklist, the :class:`_ConvertMemo`, the
    parked-set bookkeeping, and the barrier logic of sections
    2.3/2.5/2.6, and exposes them one meta state at a time, in two
    modes that share one per-union successor rule (:meth:`_arcs`):

    - full rows: :meth:`expand` processes a single meta state against
      its current parked-possible set, records its whole
      transition-table row in ``self.graph``, and returns the successor
      states it registered; :meth:`drain` runs the classic eager
      fixpoint to completion — :func:`convert` is exactly "construct an
      engine and drain it" — and :meth:`ensure` expands one state until
      its row is fresh (the frontier verifier and the compile-time
      start state of a lazy compile use it);
    - demand: lazy mode (:class:`repro.codegen.lazy.LazyProgram`) calls
      :meth:`prepare` right before each meta state is dispatched. It
      decides the state's transition kind and exit flag from the member
      choices alone, and :meth:`resolve` then enters only the successor
      of each aggregate the run observes, recording that one arc of the
      row. A run therefore discovers the states its arcs reach, not
      every state of the rows it visits.

    Parked-possible sets grow monotonically. When registering a
    successor grows the parked set of a state that was *already*
    expanded or prepared, that state's table row may be stale (new
    all-at-barrier targets can appear), so the engine re-enqueues it
    and records it in the *dirty* set; an incremental consumer calls
    :meth:`take_dirty` to invalidate whatever it compiled from the old
    row, and :meth:`ensure` / :meth:`prepare` redo the state before its
    next dispatch (re-preparing re-enters every resolved arc with the
    grown set, as re-expansion would). Soundness of on-demand expansion
    follows from the same monotonicity: every arc is resolved no
    earlier than the run takes it, against the parked set of a state
    prepared at that step, so a successor's parked-possible set covers
    every barrier the executed path can have parked PEs at.
    """

    def __init__(self, cfg: Cfg, options: ConvertOptions | None = None):
        self.cfg = cfg
        self.options = options if options is not None else ConvertOptions()
        self.barrier_ids = frozenset(
            b.bid for b in cfg.blocks.values() if b.is_barrier_wait
        )
        start = frozenset((cfg.entry,))
        if cfg.entry in self.barrier_ids:
            raise ConversionError("program entry cannot be a barrier wait")
        self.graph = MetaStateGraph(
            start=start, barrier_ids=self.barrier_ids,
            compressed=self.options.compress,
        )
        self.graph.states.add(start)
        self.graph.parked_possible[start] = frozenset()
        #: Worklist of meta states whose successors must be
        #: (re)computed. A state re-enters the list when its
        #: parked_possible set grows, since that can expose new
        #: all-at-barrier targets (monotone fixpoint).
        self.work: list[frozenset] = [start]
        self.processed_with: dict[frozenset, frozenset] = {}
        self.memo = _ConvertMemo(cfg)
        self.passes = 0
        #: Already-expanded (or prepared) states whose parked set has
        #: grown since: their recorded table rows (and any artifact
        #: compiled from them) are stale.
        self.dirty: set[frozenset] = set()
        #: Prepared states whose ``graph.table`` row holds only the arcs
        #: resolved so far.
        self.partial: set[frozenset] = set()
        #: States whose full row has several keys: their transition is
        #: a multiway dispatch, whichever mode recorded the row.
        self.multiway: set[frozenset] = set()
        #: Arcs recorded by :meth:`resolve`.
        self.resolved = 0

    def current(self, m: frozenset) -> bool:
        """Whether ``m`` was expanded or prepared against its current
        parked set."""
        return self.processed_with.get(m) == self.graph.parked_possible[m]

    def fresh(self, m: frozenset) -> bool:
        """Whether ``m``'s whole table row reflects its current parked
        set."""
        return m not in self.partial and self.current(m)

    def expand(self, m: frozenset) -> set[frozenset]:
        """Process ``m`` against its current parked set and return its
        successors (transition-table targets plus the runtime
        all-at-barrier entry, if any)."""
        graph = self.graph
        if m not in graph.states:
            raise ConversionError(
                f"cannot expand unregistered meta state {sorted(m)}"
            )
        parked = graph.parked_possible[m]
        self.processed_with[m] = parked
        self.dirty.discard(m)
        self.partial.discard(m)
        self.passes += 1
        graph.barrier_entry.pop(m, None)
        graph.invalidate_caches()

        if self.options.compress:
            if self._expand_compressed(m, parked):
                graph.can_exit.add(m)
            return graph.successors(m)

        table: dict[frozenset, frozenset] = {}
        exits = False
        for union in self.memo.unions(m, False):
            exits = exits or not union
            lo, hi, into = self._arcs(union, parked)
            for key in _keys(lo, hi):
                self._enter(key, into)
                table[key] = key
        graph.table[m] = table
        if len(table) > 1:
            self.multiway.add(m)
        if exits:
            graph.can_exit.add(m)
        return graph.successors(m)

    def _arcs(self, union: frozenset, parked: frozenset
              ) -> tuple[frozenset, frozenset, frozenset]:
        """The per-union successor rule that :meth:`expand` and
        :meth:`resolve` share. A candidate union produces every nonempty
        key ``k`` with ``lo <= k <= hi``; each key is its own target,
        entered with parked set ``into``."""
        waits = union & self.barrier_ids
        if waits == union:
            # Either every member finished (the empty union), or the
            # union is entirely barrier states. At runtime the aggregate
            # also contains every parked pc that is actually occupied,
            # so the key is the union plus any subset of the parked set:
            # the parked PEs are now the only live ones, or have all
            # reached the barrier too, and the target starts unparked.
            self._check_parked(parked)
            return union, union | parked, frozenset()
        # Not everyone reached the barrier: the barrier states are
        # removed from the meta state (the encoded key masks them out);
        # the PEs that reached them are parked there.
        active = union - waits
        return active, active, parked | waits

    def _check_parked(self, parked: frozenset) -> None:
        if len(parked) > self.options.max_parked:
            raise ConversionError(
                f"more than {self.options.max_parked} simultaneously "
                "parked barrier states"
            )

    def ensure(self, m: frozenset) -> bool:
        """Expand ``m`` until its row is fresh (expansion can grow the
        state's own parked set via a self-loop, hence the loop).
        Returns True when any expansion ran."""
        ran = False
        while not self.fresh(m):
            self.expand(m)
            ran = True
        return ran

    def prepare(self, m: frozenset) -> bool:
        """Ready ``m`` for dispatch against its current parked set
        without expanding its row: record whether it can exit, run the
        ``max_parked`` check, re-enter its resolved arcs, and decide its
        transition kind as the full row would — no arc, one arc
        (resolved here), or a multiway dispatch whose arcs
        :meth:`resolve` adds as the run observes them. A compressed
        state has one candidate union, so it is expanded whole. Returns
        True when any work ran."""
        if self.options.compress:
            return self.ensure(m)
        graph = self.graph
        ran = False
        while not self.current(m):
            ran = True
            parked = graph.parked_possible[m]
            self.processed_with[m] = parked
            self.dirty.discard(m)
            self.partial.add(m)
            choices = [self.memo.choices(b, False) for b in m]
            if all(frozenset() in c for c in choices):
                graph.can_exit.add(m)
            count, key = self._row_shape(choices, parked)
            row = graph.table.setdefault(m, {})
            # Parked growth: re-enter the resolved successors with the
            # grown set, as re-expanding the row would.
            for known in list(row):
                self.resolve(m, known)
            if count == 1:
                self.resolve(m, key)
            elif count:
                self.multiway.add(m)
        return ran

    def _row_shape(self, choices: list[list[frozenset]], parked: frozenset
                   ) -> tuple[int, frozenset | None]:
        """How many keys the full row of a state whose members have
        ``choices`` has (capped at 2), and the key when it has one —
        read off the choices without the union product, running the
        same ``max_parked`` check :meth:`expand` would. Unions with a
        non-barrier bit are keyed by that active part; all-barrier (or
        empty) unions by the union plus any occupied part of the parked
        set."""
        bars = self.barrier_ids
        parts = [{c - bars for c in cs} for cs in choices]
        if not all(frozenset() in p for p in parts):
            # Every union has an active part; none is all barrier.
            active = _unique_union(parts)
            return (2, None) if active is None else (1, active)
        # Every member has a barrier-only choice, so each nonempty part
        # is the active part of a union on its own, and every active
        # part is a union of such parts.
        found = {p for ps in parts for p in ps if p}
        union = _unique_union([[c for c in cs if c <= bars]
                               for cs in choices])
        if union is None:
            self._check_parked(parked)
            return 2, None
        lo, hi, _ = self._arcs(union, parked)
        found.update(itertools.islice(_keys(lo, hi), 2))
        if len(found) == 1:
            return 1, next(iter(found))
        return min(len(found), 2), None

    def resolve(self, m: frozenset, key: frozenset) -> frozenset:
        """One arc of ``m``'s full row: the successor of the observed
        aggregate ``key`` (parked barrier bits already masked, as the
        machine dispatches it), entered with the parked set the full
        row would give it and recorded in ``graph.table[m]``. Raises
        :class:`~repro.errors.ConversionError` when no candidate union
        of ``m`` produces ``key``."""
        union = self._witness(m, key)
        if union is not None:
            lo, hi, into = self._arcs(union, self.graph.parked_possible[m])
            if key and lo <= key <= hi:
                self._enter(key, into)
                row = self.graph.table.setdefault(m, {})
                if key not in row:
                    row[key] = key
                    self.resolved += 1
                    self.graph.invalidate_caches()
                return key
        raise ConversionError(
            f"aggregate {sorted(key)} is not a transition of meta state "
            f"{sorted(m)}"
        )

    def _witness(self, m: frozenset, key: frozenset) -> frozenset | None:
        """The largest candidate union of ``m`` that fits ``key`` (its
        non-barrier bits within the key, and all its bits within an
        all-barrier key), or None when some member has no such choice.
        Each member's choices are closed under union, so taking every
        choice that fits gives a candidate union: it produces ``key``
        whenever any union does, and its barrier part holds the waits
        of every union with this key."""
        bars = self.barrier_ids
        fits = key if key <= bars else key | bars
        union = frozenset()
        for bid in m:
            fit = [c for c in self.memo.choices(bid, False) if c <= fits]
            if not fit:
                return None
            union = union.union(*fit)
        return union

    def drain(self) -> MetaStateGraph:
        """Run the eager worklist fixpoint to completion, then verify
        and return the finished graph."""
        while self.work:
            m = self.work.pop()
            if self.fresh(m):
                continue
            self.expand(m)
        graph = self.graph
        graph.stats["worklist_passes"] = self.passes
        graph.verify(valid_blocks=set(self.cfg.blocks))
        return graph

    def take_dirty(self) -> set[frozenset]:
        """Drain and return the set of already-expanded states whose
        table rows went stale since the last call."""
        got, self.dirty = self.dirty, set()
        return got

    def _expand_compressed(self, m: frozenset, parked: frozenset) -> bool:
        """Successor computation under meta-state compression.

        With both successors always taken, each meta state has exactly
        one candidate union, so transitions are unconditional (section
        3.2.2: "all entries to compressed meta states fall into this
        category"). Compression loses the invariant that every member
        is populated at runtime, so two conditions become runtime
        checks rather than aggregate-dispatched cases: program exit
        (possible whenever a member is terminal) and all-at-barrier
        entry (``barrier_entry``).

        Returns True when the state can be the last one executed.
        """
        cfg, graph = self.cfg, self.graph
        (union,) = self.memo.unions(m, compress=True)
        can_exit = any(
            isinstance(cfg.blocks[b].terminator, (Return, Halt)) for b in m
        )
        table: dict[frozenset, frozenset] = {}
        if union:
            waits = union & self.barrier_ids
            if waits and waits != union:
                active = union - waits
                self._enter(active, parked | waits)
                table[active] = active
                # Runtime alternative: every live PE is at a barrier.
                btarget = waits | parked
                self._enter(btarget, frozenset())
                graph.barrier_entry[m] = btarget
            elif waits:
                btarget = union | parked
                self._enter(btarget, frozenset())
                table[btarget] = btarget
            else:
                self._enter(union, parked)
                table[union] = union
                if parked:
                    # Live PEs may all be parked even though some member
                    # of the union is non-barrier (its PE count can be
                    # zero).
                    btarget = frozenset(parked)
                    self._enter(btarget, frozenset())
                    graph.barrier_entry[m] = btarget
        elif parked:
            btarget = frozenset(parked)
            self._enter(btarget, frozenset())
            graph.barrier_entry[m] = btarget
        graph.table[m] = table
        return can_exit

    def _enter(self, members: frozenset, parked: frozenset) -> None:
        """Register ``members`` as a meta state, growing its parked
        set; dirty it when the growth stales an expanded or prepared
        row."""
        graph = self.graph
        if members not in graph.states:
            graph.states.add(members)
            graph.parked_possible[members] = parked
            if len(graph.states) > self.options.max_meta_states:
                raise ConversionError(
                    f"meta-state space exceeded "
                    f"{self.options.max_meta_states} states; "
                    "enable compression, add barriers (sections 2.5-2.6), "
                    "or convert lazily (--lazy)"
                )
            self.work.append(members)
        else:
            old = graph.parked_possible[members]
            merged = old | parked
            if merged != old:
                graph.parked_possible[members] = merged
                self.work.append(members)
                if members in self.processed_with:
                    self.dirty.add(members)


def convert(cfg: Cfg, options: ConvertOptions | None = None) -> MetaStateGraph:
    """Build the meta-state automaton for ``cfg``.

    This is the paper's ``meta_state_convert`` / ``reach`` pair
    (sections 2.3 and 2.5) extended with the barrier algorithm of
    section 2.6: construct a :class:`ConversionEngine` and drain its
    worklist fixpoint.
    """
    return ConversionEngine(cfg, options).drain()


def _unique_union(families) -> frozenset | None:
    """The union of one set from each family when every pick gives the
    same union, else None. Every union lies between the bits some
    family forces (has in all of its sets) and the bits any set adds,
    and a bit in the second but not the first tells two picks apart."""
    forced = most = frozenset()
    for sets in families:
        forced |= frozenset.intersection(*sets)
        most |= frozenset.union(*sets)
    return most if forced == most else None


def _keys(lo: frozenset, hi: frozenset):
    """The nonempty keys ``k`` with ``lo <= k <= hi``, in subset order."""
    if lo == hi:
        return (lo,) if lo else ()
    return (lo | extra for extra in _subsets(hi - lo) if lo | extra)


def _subsets(s: frozenset):
    """All subsets of a (small) frozenset."""
    items = sorted(s)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)
