"""Unit tests for the meta-state SIMD machine."""

import numpy as np
import pytest

from repro import ConversionOptions, convert_source
from repro.errors import MachineError
from repro.simd.machine import PC_DONE, PC_IDLE, SimdMachine

from tests.helpers import LISTING1_RUNNABLE


def program(src: str, **kw):
    return convert_source(src, ConversionOptions(**kw)).simd_program()


class TestBasicExecution:
    def test_uniform_program(self):
        prog = program("main() { poly int x; x = 6 * 7; return (x); }")
        res = SimdMachine(npes=4).run(prog)
        np.testing.assert_array_equal(res.returns, [42] * 4)

    def test_divergent_pcs(self):
        prog = program(LISTING1_RUNNABLE)
        res = SimdMachine(npes=9).run(prog)
        assert (res.pc == PC_DONE).all()

    def test_guard_masks_inactive_threads(self):
        # PEs on the else-branch must not execute then-branch code.
        prog = program("""
main() {
    poly int x;
    if (procnum % 2) { x = 111; } else { x = 222; }
    return (x);
}
""")
        res = SimdMachine(npes=4).run(prog)
        np.testing.assert_array_equal(res.returns, [222, 111, 222, 111])

    def test_single_pe(self):
        prog = program(LISTING1_RUNNABLE)
        res = SimdMachine(npes=1).run(prog)
        assert res.returns.shape == (1,)


class TestAccounting:
    def test_cycle_split(self):
        prog = program(LISTING1_RUNNABLE)
        res = SimdMachine(npes=8).run(prog)
        assert res.cycles == res.body_cycles + res.transition_cycles
        assert res.meta_transitions > 0

    def test_no_fetch_decode_cost(self):
        """The headline claim: MSC pays no interpretation overhead —
        only globalor+dispatch transitions."""
        prog = program("main() { poly int x; x = 1; return (x); }")
        costs = prog.costs
        res = SimdMachine(npes=4).run(prog)
        # A single-chain program: transition cost is at most one
        # globalor (exit check) + final accounting; no per-instruction
        # fetch/decode term exists in the model at all.
        assert res.transition_cycles <= 2 * (
            costs.globalor_cost + costs.dispatch_cost
        )

    def test_utilization_below_one_when_divergent(self):
        prog = program(LISTING1_RUNNABLE)
        res = SimdMachine(npes=8).run(prog)
        assert 0 < res.utilization < 1

    def test_utilization_one_when_uniform_body(self):
        prog = program("main() { poly int x; x = procnum; return (x); }")
        res = SimdMachine(npes=8).run(prog)
        # Single meta state, all PEs enabled for every instruction.
        assert res.utilization == pytest.approx(
            res.body_cycles / res.cycles
        )

    def test_node_visits_recorded(self):
        prog = program(LISTING1_RUNNABLE)
        res = SimdMachine(npes=8).run(prog)
        assert sum(res.node_visits.values()) >= res.meta_transitions

    def test_compressed_fewer_transitions_than_base_states(self):
        base = program(LISTING1_RUNNABLE)
        comp = program(LISTING1_RUNNABLE, compress=True)
        rb = SimdMachine(npes=8).run(base)
        rc = SimdMachine(npes=8).run(comp)
        assert len(rc.node_visits) <= len(rb.node_visits)
        np.testing.assert_array_equal(rb.returns, rc.returns)


class TestErrors:
    def test_step_budget(self):
        prog = program("main() { poly int x; do { x=1; } while (x); return (x); }")
        with pytest.raises(MachineError, match="exceeded"):
            SimdMachine(npes=2).run(prog, max_steps=50)

    def test_zero_pes_rejected(self):
        with pytest.raises(MachineError):
            SimdMachine(npes=0)

    def test_bad_active(self):
        prog = program("main() { return (0); }")
        with pytest.raises(MachineError):
            SimdMachine(npes=2).run(prog, active=5)

    def test_division_by_zero_surfaces(self):
        prog = program("main() { poly int x; x = 1 / (procnum - procnum); return (x); }")
        with pytest.raises(MachineError, match="zero"):
            SimdMachine(npes=2).run(prog)


class TestGlobalOr:
    def test_globalor_of_live_pcs(self):
        m = SimdMachine(npes=4)
        pc = np.array([2, 3, PC_DONE, 2], dtype=np.int64)
        assert m._globalor(pc) == (1 << 2) | (1 << 3)

    def test_globalor_empty(self):
        m = SimdMachine(npes=2)
        pc = np.array([PC_DONE, -1], dtype=np.int64)
        assert m._globalor(pc) == 0

    def test_globalor_wide_ids(self):
        m = SimdMachine(npes=1)
        pc = np.array([80], dtype=np.int64)
        assert m._globalor(pc) == 1 << 80

    @pytest.mark.parametrize("wide", (False, True))
    def test_plan_table_matches_reference_loop(self, wide):
        # The plan's weight table is indexed by pc itself, sentinels
        # included; the wide plan (73 ids) holds exact Python ints.
        from repro.simd.shards import shard_bounds, shard_globalor, tree_or
        from repro.workloads import STANDARD, barrier_phases

        src = barrier_phases(6, n_phases=22) if wide \
            else STANDARD["barrier_phases"]()
        plan = convert_source(src, ConversionOptions(opt_level=1)) \
            .simd_program().plan()
        assert (plan.bit_weights.dtype == object) == wide
        assert (plan.n_bids == 73) == wide
        m = SimdMachine(npes=64)
        rng = np.random.default_rng(21)
        for _ in range(40):
            pc = rng.integers(PC_DONE, plan.n_bids, size=64)
            pc[:2] = PC_DONE, PC_IDLE
            rng.shuffle(pc)
            ref = 0
            for p in pc.tolist():
                if p >= 0:
                    ref |= 1 << p
            assert m._globalor(pc, plan) == ref
            assert shard_globalor(pc, plan.bit_weights) == ref
            assert tree_or(shard_globalor(pc[lo:hi], plan.bit_weights)
                           for lo, hi in shard_bounds(64, 3)) == ref
        parked = np.array([PC_DONE, PC_IDLE] * 4, dtype=np.int64)
        assert m._globalor(parked, plan) == 0
        assert shard_globalor(parked, plan.bit_weights) == 0
