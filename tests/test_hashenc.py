"""Unit tests for multiway branch encoding (section 3.2.3, [Die92a])."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConversionError
from repro.hashenc.search import (
    BranchEncoding,
    HashFn,
    encode_branch,
    find_hash,
    key_of_members,
)


class TestKeyEncoding:
    def test_bit_per_block(self):
        assert key_of_members(frozenset((2, 6))) == (1 << 2) | (1 << 6)

    def test_empty(self):
        assert key_of_members(frozenset()) == 0

    def test_wide_blocks(self):
        # Block ids beyond 64 bits: Python ints handle the width.
        assert key_of_members(frozenset((100,))) == 1 << 100


class TestFindHash:
    def test_single_key_is_const(self):
        fn = find_hash([0b100])
        assert fn.kind == "const"
        assert fn.table_size == 1

    def test_listing5_ms0_keys(self):
        """ms_0's successors {2},{6},{2,6}: a small family member must
        separate the aggregates into a <=4-entry table."""
        keys = [key_of_members(frozenset(m)) for m in ((2,), (6,), (2, 6))]
        fn = find_hash(keys)
        assert fn.table_size <= 4
        assert len({fn.apply(k) for k in keys}) == 3

    def test_listing5_ms_2_6_keys(self):
        """The five-case switch of ms_2_6."""
        cases = [(2, 6), (2, 9), (6, 9), (9,), (2, 6, 9)]
        keys = [key_of_members(frozenset(m)) for m in cases]
        fn = find_hash(keys)
        assert fn.table_size <= 16
        assert len({fn.apply(k) for k in keys}) == 5

    def test_injective_always(self):
        keys = [0b0110, 0b1010, 0b1100, 0b0011]
        fn = find_hash(keys)
        assert len({fn.apply(k) for k in keys}) == len(keys)

    def test_dense_sequential_keys(self):
        keys = list(range(1, 9))
        fn = find_hash(keys)
        assert fn.table_size <= 16

    def test_no_keys_raises(self):
        with pytest.raises(ConversionError):
            find_hash([])

    def test_fallback_mod_hash(self):
        # Adversarial keys that defeat the mask family within the table
        # budget still get an injective (division) hash.
        keys = [1 << i | 1 for i in range(3, 40, 7)]
        fn = find_hash(keys)
        hashes = {fn.apply(k) for k in keys}
        assert len(hashes) == len(keys)

    @given(st.sets(st.integers(min_value=1, max_value=2**40), min_size=1,
                   max_size=24))
    @settings(max_examples=100, deadline=None)
    def test_property_injective_and_bounded(self, keyset):
        keys = sorted(keyset)
        fn = find_hash(keys)
        hashes = [fn.apply(k) for k in keys]
        assert len(set(hashes)) == len(keys)
        assert all(0 <= h < fn.table_size for h in hashes)


class TestHashFnRendering:
    def test_c_expressions(self):
        assert HashFn("mask", s=2, mask=3).c_expr() == "((apc >> 2) & 3)"
        assert "~apc" in HashFn("notmask", s=5, mask=3).c_expr()
        assert "^" in HashFn("xor", s=6, mask=15).c_expr()
        assert "%" in HashFn("mod", mod=7).c_expr()
        assert HashFn("const").c_expr() == "0"

    def test_notmask_matches_fixed_width_not(self):
        fn = HashFn("notmask", s=0, mask=0xFF, width=16)
        assert fn.apply(0x0001) == (0xFFFE & 0xFF)

    def test_eval_cost_ordering(self):
        assert HashFn("mask", s=0, mask=1).eval_cost < HashFn(
            "mod", mod=3
        ).eval_cost


class TestBranchEncoding:
    def test_lookup_round_trip(self):
        cases = {0b0010: "a", 0b0100: "b", 0b0110: "c"}
        enc = encode_branch(cases)
        for k, v in cases.items():
            assert enc.lookup(k) == v

    def test_unknown_key_raises(self):
        # encode_branch fills its whole table, so build one with an
        # empty slot: (apc >> 1) & 3 puts 0b0010 at 1 and 0b0100 at 2.
        enc = BranchEncoding(fn=HashFn("mask", s=1, mask=3),
                             table=[None, "a", "b"],
                             cases={0b0010: "a", 0b0100: "b"})
        assert enc.lookup(0b0010) == "a" and enc.lookup(0b0100) == "b"
        # 0b1000 hashes to the empty slot 0, 0b0110 past the table.
        for probe in (0b1000, 0b0110):
            with pytest.raises(ConversionError, match="unencoded"):
                enc.lookup(probe)

    def test_load_factor(self):
        enc = encode_branch({1: "x", 2: "y", 3: "z", 4: "w"})
        assert 0 < enc.load_factor <= 1.0

    def test_table_size_reported(self):
        enc = encode_branch({1: "x"})
        assert enc.table_size == 1

    @given(st.dictionaries(st.integers(min_value=1, max_value=2**30),
                           st.integers(), min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_property_every_case_dispatches(self, cases):
        enc = encode_branch(cases)
        for k, v in cases.items():
            assert enc.lookup(k) == v


class TestRealTransitionTables:
    def test_all_corpus_transition_tables_encode(self):
        from repro import convert_source
        from tests.helpers import CORPUS

        for name, src in CORPUS:
            result = convert_source(src)
            prog = result.simd_program()
            for node in prog.nodes.values():
                if node.encoding is None:
                    continue
                enc = node.encoding
                for key, target in enc.cases.items():
                    assert enc.lookup(key) == target, name


class TestWideKeys:
    """Regression: block ids >= 64 produce keys wider than a machine
    word. Width must be derived from the key set (a fixed 64 makes
    apply() truncate distinct keys into silent collisions)."""

    def test_find_hash_derives_width_past_64(self):
        keys = [key_of_members(frozenset(m))
                for m in ((70,), (85,), (70, 85), (3, 90))]
        fn = find_hash(keys)
        assert fn.width >= 91
        assert len({fn.apply(k) for k in keys}) == len(keys)

    def test_colliding_truncations_stay_distinct(self):
        # These keys are identical in their low 64 bits; a 64-bit
        # truncation would alias all three.
        base = 1 << 5
        keys = [base, base | (1 << 64), base | (1 << 80)]
        fn = find_hash(keys)
        assert len({fn.apply(k) for k in keys}) == 3

    def test_explicit_narrow_width_raises(self):
        keys = [1 << 5, 1 << 70]
        with pytest.raises(ConversionError, match="width"):
            find_hash(keys, width=64)

    def test_encode_branch_round_trips_wide_keys(self):
        cases = {key_of_members(frozenset(m)): i
                 for i, m in enumerate(((66,), (67,), (66, 67), (2, 99)))}
        enc = encode_branch(cases)
        for k, v in cases.items():
            assert enc.lookup(k) == v

    def test_program_with_more_than_64_blocks(self):
        import numpy as np

        from repro import convert_source, simulate_mimd, simulate_simd
        from repro.workloads import barrier_phases

        result = convert_source(barrier_phases(6, n_phases=22))
        assert max(result.cfg.blocks) >= 64
        prog = result.simd_program()
        assert any(
            node.encoding is not None and node.encoding.fn.width > 64
            for node in prog.nodes.values()
        )
        simd = simulate_simd(result, npes=8)
        mimd = simulate_mimd(result, nprocs=8)
        assert np.array_equal(simd.returns, mimd.returns, equal_nan=True)
