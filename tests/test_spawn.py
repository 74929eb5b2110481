"""Unit tests for restricted dynamic process creation (section 3.2.5)."""

import numpy as np
import pytest

from repro import ConversionOptions, convert_source, simulate_mimd, simulate_simd
from repro.core.convert import convert, member_choices
from repro.errors import MachineError
from repro.ir.block import SpawnT
from repro.ir.lowering import lower_program
from repro.lang.parser import parse
from repro.lang.sema import analyze

from tests.helpers import SPAWN_WORKERS, assert_equivalent


def lower(src: str):
    return lower_program(analyze(parse(src)))


class TestSpawnConversion:
    def test_spawn_always_takes_both_exits(self):
        cfg = lower(SPAWN_WORKERS)
        spawn_bid = next(b.bid for b in cfg.blocks.values()
                         if isinstance(b.terminator, SpawnT))
        # "This restricted type of spawn instruction looks just like a
        # conditional jump, except ... both paths must be taken (the
        # compressed meta state transition rule)."
        for compress in (False, True):
            choices = member_choices(cfg, spawn_bid, compress)
            assert len(choices) == 1
            assert len(choices[0]) == 2

    def test_spawn_meta_state_contains_child_and_cont(self):
        cfg = lower(SPAWN_WORKERS)
        graph = convert(cfg)
        spawn_bid = next(b.bid for b in cfg.blocks.values()
                         if isinstance(b.terminator, SpawnT))
        term = cfg.blocks[spawn_bid].terminator
        both = frozenset((term.child, term.cont))
        spawn_meta = frozenset((spawn_bid,))
        if spawn_meta in graph.states:
            assert both in graph.successors(spawn_meta)


class TestSpawnExecution:
    def test_matches_oracle(self):
        r = convert_source(SPAWN_WORKERS)
        simd = simulate_simd(r, npes=8, active=4)
        mimd = simulate_mimd(r, nprocs=8, active=4)
        assert_equivalent(simd, mimd)

    def test_children_inherit_parent_memory(self):
        src = """
main() {
    poly int x; poly int seen;
    x = procnum * 7 + 3;
    spawn(child);
    return (x);
child:
    seen = x;
    halt;
}
"""
        r = convert_source(src)
        simd = simulate_simd(r, npes=8, active=4)
        mimd = simulate_mimd(r, nprocs=8, active=4)
        assert_equivalent(simd, mimd)
        # Children 4..7 copied x from parents 0..3 (x = pid*7+3 of parent).
        seen_slot = next(s.index for s in r.cfg.poly_slots
                         if s.name.endswith("seen"))
        got = sorted(simd.poly[seen_slot, 4:].tolist())
        assert got == sorted((np.arange(4) * 7 + 3).tolist())

    def test_halt_returns_pe_to_pool(self):
        # Two sequential spawns can reuse PEs that halted.
        src = """
main() {
    poly int x;
    x = 1;
    spawn(w1);
    wait;
    spawn(w2);
    return (x);
w1: x = 10; halt;
w2: x = 20; halt;
}
"""
        r = convert_source(src)
        # 2 active starters + 2 concurrent spawn waves of 2 each; after
        # wave 1 halts, wave 2 reuses the same PEs: 4 PEs suffice.
        simd = simulate_simd(r, npes=4, active=2)
        mimd = simulate_mimd(r, nprocs=4, active=2)
        assert_equivalent(simd, mimd)

    def test_spawn_exhaustion_raises(self):
        r = convert_source(SPAWN_WORKERS)
        with pytest.raises(MachineError, match="spawn"):
            simulate_simd(r, npes=4, active=4)  # no free PEs at all
        with pytest.raises(MachineError, match="spawn"):
            simulate_mimd(r, nprocs=4, active=4)

    def test_spawned_pe_count_equals_arrivals(self):
        # 3 of 8 PEs spawn => exactly 3 idle PEs activated.
        src = """
main() {
    poly int x;
    x = procnum;
    if (procnum < 3) { spawn(w); }
    return (x);
w:  x = 1000 + procnum; halt;
}
"""
        r = convert_source(src)
        simd = simulate_simd(r, npes=16, active=8)
        x_slot = next(s.index for s in r.cfg.poly_slots
                      if s.name.endswith(".x"))
        ran_worker = (simd.poly[x_slot] >= 1000).sum()
        assert ran_worker == 3

    def test_compressed_spawn(self):
        r = convert_source(SPAWN_WORKERS, ConversionOptions(compress=True))
        simd = simulate_simd(r, npes=8, active=4)
        mimd = simulate_mimd(r, nprocs=8, active=4)
        assert_equivalent(simd, mimd)


class TestSpawnRegisterCopyOrdering:
    """Pin the spawn staging order: parent poly registers are copied to
    the children *before* ``reset_pes`` runs, and reset touches only the
    stacks — the paper's spawn semantics hand the child its parent's
    context with clean stacks."""

    def test_reset_preserves_copied_poly(self):
        from repro.simd import vecops

        st = vecops.PeState(npes=4, n_poly=2, n_mono=1,
                            stack_depth=8, rstack_depth=8)
        parents = np.array([0, 1])
        children = np.array([2, 3])
        st.poly[:, parents] = [[11.0, 22.0], [33.0, 44.0]]
        st.sp[:] = 5
        st.rsp[:] = 3
        st.stack[:5, :] = 9.0
        # The machine's spawn sequence:
        st.poly[:, children] = st.poly[:, parents]
        st.reset_pes(children)
        assert np.array_equal(st.poly[:, children], st.poly[:, parents])
        assert (st.sp[children] == 0).all()
        assert (st.rsp[children] == 0).all()
        # Parents untouched.
        assert (st.sp[parents] == 5).all()
        assert (st.rsp[parents] == 3).all()

    def test_children_start_with_clean_stacks_machine_level(self):
        # A child that underflows unless its stacks were reset would
        # crash; a child that lost the copied registers would compute
        # garbage. This worker reads the inherited register right away.
        src = """
main() {
    poly int x; poly int seen;
    x = procnum + 100;
    spawn(child);
    return (x);
child:
    seen = x * 2;
    halt;
}
"""
        r = convert_source(src)
        for backend in ("interp", "kernels"):
            from repro.simd.machine import SimdMachine

            m = SimdMachine(npes=8, costs=r.options.costs, backend=backend)
            res = m.run(r.simd_program(), active=4)
            seen_slot = next(s.index for s in r.cfg.poly_slots
                             if s.name.endswith("seen"))
            got = sorted(res.poly[seen_slot, 4:].tolist())
            assert got == [2 * (p + 100) for p in range(4)]
