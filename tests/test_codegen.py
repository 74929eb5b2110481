"""Unit tests for SIMD program emission and the MPL renderer."""

import pytest

from repro import ConversionOptions, convert_source
from repro.codegen.emit import encode_program
from repro.codegen.mpl import render_mpl
from repro.core.convert import ConvertOptions, convert
from repro.errors import ConversionError
from repro.ir.block import CondBr, Return
from repro.ir.cfg import Cfg
from repro.ir.instr import Instr, Op
from repro.ir.lowering import lower_program
from repro.lang.parser import parse
from repro.lang.sema import analyze

from tests.helpers import (
    CORPUS,
    LISTING1_SHAPE,
    LISTING3_SHAPE,
)

#: The paper's Listing 4 (identical control shape to Listing 1).
LISTING4 = LISTING1_SHAPE


@pytest.fixture(autouse=True)
def _paper_opt_level(monkeypatch):
    """The emission-shape tests assume the paper's normalization level
    (-O1) — pin it so an external REPRO_OPT_LEVEL (the CI -O0 matrix
    leg) cannot change the shapes."""
    monkeypatch.setenv("REPRO_OPT_LEVEL", "1")


def emit(src: str, compress: bool = False):
    cfg = lower_program(analyze(parse(src)))
    graph = convert(cfg, ConvertOptions(compress=compress))
    return encode_program(cfg, graph)


class TestEmission:
    def test_listing5_has_eight_nodes(self):
        prog = emit(LISTING4)
        assert prog.node_count() == 8

    def test_segments_cover_members(self):
        prog = emit(LISTING4)
        for node in prog.nodes.values():
            for seg in node.segments:
                assert set(seg.terminators) == set(seg.members)

    def test_multiway_nodes_get_encodings(self):
        prog = emit(LISTING4)
        multi = [n for n in prog.nodes.values() if n.encoding is not None]
        assert len(multi) >= 6  # every looping state dispatches

    def test_terminal_node_has_no_target(self):
        prog = emit(LISTING4)
        terminal = [
            n for n in prog.nodes.values()
            if n.encoding is None and n.single_target is None
        ]
        assert len(terminal) == 1

    def test_compressed_nodes_single_target(self):
        prog = emit(LISTING4, compress=True)
        assert prog.node_count() == 2  # straightened, per Figure 5
        for node in prog.nodes.values():
            assert node.encoding is None

    def test_straightening_merges_chains(self):
        cfg = lower_program(analyze(parse(LISTING3_SHAPE)))
        graph = convert(cfg)
        prog = encode_program(cfg, graph)
        # barrier state + F merge into one node with two segments
        assert prog.node_count() == graph.num_straightened_states()
        assert any(len(n.segments) > 1 for n in prog.nodes.values())

    def test_csi_totals_show_sharing(self):
        prog = emit(LISTING4)
        cost, serial, bound = prog.csi_totals()
        assert bound <= cost <= serial

    def test_control_unit_size_positive(self):
        prog = emit(LISTING4)
        assert prog.control_unit_instructions() > 0

    def test_start_node_exists(self):
        prog = emit(LISTING4)
        assert prog.start in prog.nodes

    def test_corpus_emits(self):
        for name, src in CORPUS:
            cfg = lower_program(analyze(parse(src)))
            for compress in (False, True):
                graph = convert(cfg, ConvertOptions(compress=compress))
                prog = encode_program(cfg, graph)
                assert prog.node_count() >= 1, name


class TestEncodeVerifies:
    def test_inconsistent_depths_refused(self):
        # Block j is entered at depth 1 from a and at depth 2 from b:
        # no entry-depth map exists, so no program is encoded.
        cfg = Cfg()
        a, b, j = (cfg.new_block() for _ in range(3))
        a.code = [Instr(Op.PUSH, 1), Instr(Op.PUSH, 1)]
        b.code = [Instr(Op.PUSH, 1), Instr(Op.PUSH, 1), Instr(Op.PUSH, 9)]
        a.terminator = CondBr(j.bid, b.bid)
        b.terminator = CondBr(j.bid, j.bid)
        j.terminator = Return()
        cfg.entry = a.bid
        graph = convert(cfg)
        with pytest.raises(ConversionError, match="stack depth"):
            encode_program(cfg, graph)


class TestMplRendering:
    def test_listing5_shape(self):
        text = convert_source(LISTING4).mpl_text()
        # One label per meta state, Listing-5 style.
        for label in ("ms_0:", "ms_1:", "ms_2:", "ms_3:",
                      "ms_1_2:", "ms_1_3:", "ms_2_3:", "ms_1_2_3:"):
            assert label in text
        assert "globalor(pc)" in text
        assert "switch (" in text
        assert "JumpF(" in text
        assert "Ret" in text
        assert "exit(0);" in text

    def test_guarded_regions_rendered(self):
        text = convert_source(LISTING4).mpl_text()
        assert "if (pc & BIT(" in text
        assert "| BIT(" in text  # a shared (CSI) region exists

    def test_goto_targets_are_labels(self):
        text = convert_source(LISTING4).mpl_text()
        import re

        labels = set(re.findall(r"^(ms_[0-9_]+):", text, re.M))
        gotos = set(re.findall(r"goto (ms_[0-9_]+);", text))
        assert gotos <= labels

    def test_barrier_program_renders_mask(self):
        text = convert_source(LISTING3_SHAPE).mpl_text()
        assert "BARRIERS" in text

    def test_compressed_render_unconditional(self):
        text = convert_source(
            LISTING4, ConversionOptions(compress=True)
        ).mpl_text()
        assert "switch (" not in text
        assert "goto" in text
        # Exit check present despite unconditional flow.
        assert "if (apc == 0) exit(0);" in text

    def test_start_node_rendered_first(self):
        text = convert_source(LISTING4).mpl_text()
        first_label = text.split(":", 1)[0]
        assert first_label == "ms_0"

    def test_spawn_renders(self):
        from tests.helpers import SPAWN_WORKERS

        text = convert_source(SPAWN_WORKERS).mpl_text()
        assert "Spawn(" in text
        assert "Halt" in text


class TestProgramVerification:
    def test_dangling_target_detected(self):
        prog = emit(LISTING4, compress=True)
        # Corrupt: retarget a single-exit node to a nonexistent state.
        node = next(n for n in prog.nodes.values()
                    if n.single_target is not None)
        node.single_target = frozenset((999,))
        from repro.codegen.emit import _verify_program

        cfg = lower_program(analyze(parse(LISTING4)))
        with pytest.raises(ConversionError):
            _verify_program(prog, convert(cfg, ConvertOptions(compress=True)))
