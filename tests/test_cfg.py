"""Unit tests for the CFG container and normalization passes."""

import pytest

from repro.errors import ConversionError
from repro.ir.block import BasicBlock, CondBr, Fall, Halt, Return, SpawnT
from repro.ir.cfg import Cfg
from repro.ir.instr import Instr, Op


def push(v):
    return Instr(Op.PUSH, v)


def make_chain() -> Cfg:
    """entry -> a -> b -> ret, all single-exit."""
    cfg = Cfg()
    e = cfg.new_block("e")
    a = cfg.new_block("a")
    b = cfg.new_block("b")
    r = cfg.new_block("r")
    e.code = [push(1), Instr(Op.ST, 0)]
    a.code = [push(2), Instr(Op.ST, 0)]
    b.code = [push(3), Instr(Op.ST, 0)]
    e.terminator = Fall(a.bid)
    a.terminator = Fall(b.bid)
    b.terminator = Fall(r.bid)
    r.terminator = Return()
    cfg.entry = e.bid
    from repro.ir.cfg import SlotInfo
    cfg.poly_slots = [SlotInfo("x", 0, "poly", "int")]
    return cfg


class TestTerminators:
    def test_successor_sets(self):
        assert Fall(3).successors() == (3,)
        assert CondBr(1, 2).successors() == (1, 2)
        assert Return().successors() == ()
        assert Halt().successors() == ()
        assert SpawnT(4, 5).successors() == (4, 5)

    def test_block_is_branch(self):
        b = BasicBlock(0, terminator=CondBr(1, 2))
        assert b.is_branch and not b.is_terminal

    def test_block_is_terminal(self):
        assert BasicBlock(0, terminator=Return()).is_terminal


class TestQueries:
    def test_predecessors(self):
        cfg = make_chain()
        preds = cfg.predecessors()
        assert preds[1] == [0]
        assert preds[0] == []

    def test_reachable(self):
        cfg = make_chain()
        orphan = cfg.new_block()
        orphan.terminator = Return()
        assert orphan.bid not in cfg.reachable()
        assert cfg.reachable() == {0, 1, 2, 3}

    def test_branch_blocks(self):
        cfg = make_chain()
        cfg.blocks[1].terminator = CondBr(2, 3)
        assert cfg.branch_blocks() == [1]


class TestNormalization:
    def test_straighten_merges_chain(self):
        cfg = make_chain()
        merges = cfg.straighten()
        assert merges == 3
        assert len(cfg.blocks) == 1
        blk = cfg.blocks[cfg.entry]
        assert len(blk.code) == 6
        assert isinstance(blk.terminator, Return)

    def test_straighten_keeps_labels(self):
        cfg = make_chain()
        cfg.straighten()
        assert cfg.blocks[cfg.entry].label == "e;a;b;r"

    def test_straighten_respects_multiple_preds(self):
        cfg = make_chain()
        # Give block 2 a second predecessor.
        extra = cfg.new_block()
        extra.terminator = Fall(2)
        cfg.blocks[0].terminator = CondBr(1, extra.bid)
        before = set(cfg.blocks)
        cfg.straighten()
        # Block 2 must survive as a separate node (two preds).
        assert 2 in cfg.blocks or 2 not in before

    def test_straighten_never_merges_barrier(self):
        cfg = make_chain()
        cfg.blocks[1].is_barrier_wait = True
        cfg.blocks[1].code = []
        cfg.straighten()
        assert any(b.is_barrier_wait for b in cfg.blocks.values())

    def test_remove_empty_redirects(self):
        cfg = make_chain()
        cfg.blocks[1].code = []  # now an empty forwarder
        removed = cfg.remove_empty()
        assert removed == 1
        assert cfg.blocks[0].terminator == Fall(2)

    def test_remove_empty_chain_of_two(self):
        cfg = make_chain()
        cfg.blocks[1].code = []
        cfg.blocks[2].code = []
        cfg.remove_empty()
        assert cfg.blocks[0].terminator == Fall(3)

    def test_remove_empty_keeps_barrier(self):
        cfg = make_chain()
        cfg.blocks[1].code = []
        cfg.blocks[1].is_barrier_wait = True
        cfg.remove_empty()
        assert 1 in cfg.blocks

    def test_empty_entry_forwarded(self):
        cfg = make_chain()
        cfg.blocks[0].code = []
        cfg.remove_empty()
        assert cfg.entry == 1

    def test_remove_unreachable(self):
        cfg = make_chain()
        dead = cfg.new_block()
        dead.terminator = Return()
        assert cfg.remove_unreachable() == 1
        assert dead.bid not in cfg.blocks


class TestRenumbering:
    def test_entry_becomes_zero(self):
        cfg = make_chain()
        cfg.entry = 2  # pretend a later block is the entry
        cfg.blocks[2].terminator = Fall(3)
        out = cfg.renumbered()
        assert out.entry == 0

    def test_dense_ids(self):
        cfg = make_chain()
        cfg.straighten()
        out = cfg.renumbered()
        assert sorted(out.blocks) == list(range(len(out.blocks)))

    def test_drops_unreachable(self):
        cfg = make_chain()
        dead = cfg.new_block()
        dead.terminator = Return()
        out = cfg.renumbered()
        assert len(out.blocks) == 4


class TestVerify:
    def test_valid_graph_passes(self):
        make_chain().verify()

    def test_more_than_two_exits_impossible_via_terminators(self):
        # Terminators cap exits at 2 by construction; verify() still
        # guards against hand-built graphs via successors().
        cfg = make_chain()
        cfg.verify()

    def test_dangling_target(self):
        cfg = make_chain()
        cfg.blocks[2].terminator = Fall(99)
        with pytest.raises(ConversionError, match="missing"):
            cfg.verify()

    def test_stack_underflow_detected(self):
        cfg = make_chain()
        cfg.blocks[0].code = [Instr(Op.ADD)]
        with pytest.raises(ConversionError, match="underflow"):
            cfg.verify()

    def test_branch_on_empty_stack_detected(self):
        cfg = make_chain()
        cfg.blocks[0].terminator = CondBr(1, 2)
        with pytest.raises(ConversionError, match="empty stack"):
            cfg.verify()

    def test_inconsistent_depths_detected(self):
        cfg = Cfg()
        a = cfg.new_block()
        b = cfg.new_block()
        j = cfg.new_block()
        a.code = [push(1), push(1)]       # leaves 1 after branch pop
        b.code = [push(1), push(1), push(9)]  # leaves 2 after branch pop
        a.terminator = CondBr(j.bid, b.bid)
        b.terminator = CondBr(j.bid, j.bid)
        j.code = []
        j.terminator = Return()
        cfg.entry = a.bid
        with pytest.raises(ConversionError, match="stack depth"):
            cfg.verify()

    def test_spawn_child_enters_at_depth_zero(self):
        # The child runs on a fresh PE with an empty stack, so its Pop
        # underflows even though the parent spawns at depth 1.
        cfg = Cfg()
        parent, child, cont = (cfg.new_block() for _ in range(3))
        parent.code = [push(1)]
        parent.terminator = SpawnT(child=child.bid, cont=cont.bid)
        child.code = [Instr(Op.POP, 1)]
        child.terminator = Halt()
        cont.code = [Instr(Op.POP, 1)]
        cont.terminator = Return()
        cfg.entry = parent.bid
        with pytest.raises(ConversionError, match="underflow"):
            cfg.verify()
        child.code = []
        assert cfg.verify() == {parent.bid: 0, child.bid: 0, cont.bid: 1}

    def test_duplicate_block_id_rejected(self):
        cfg = make_chain()
        with pytest.raises(ConversionError, match="duplicate"):
            cfg.add_block(BasicBlock(0))
