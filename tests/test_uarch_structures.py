"""Unit tests for the core's pipeline structures (RF, RAT, ROB, IQ, LSQ, branch, frontend)."""

import pytest

from repro.uarch.branch import GShareBranchPredictor
from repro.uarch.config import CoreConfig
from repro.uarch.core import DynInstr
from repro.uarch.frontend import FrontEnd
from repro.uarch.issue_queue import IssueQueue
from repro.uarch.lsq import LoadStoreQueues
from repro.uarch.regfile import OutOfPhysicalRegisters, PhysicalRegisterFile
from repro.uarch.rename import RegisterAliasTable, RetirementRAT
from repro.uarch.rob import ReorderBuffer
from repro.uarch.stats import CoreStats
from repro.workloads.generators import strided_stream
from repro.workloads.trace import FP_REG_BASE, MicroOp, UopClass


def make_instr(seq, uop_class=UopClass.IALU, pc=None, dst=1, srcs=(), addr=None):
    uop = MicroOp(
        pc=pc if pc is not None else 0x400000 + 4 * seq,
        uop_class=uop_class,
        srcs=srcs,
        dst=dst,
        mem_addr=addr,
    )
    return DynInstr(uop=uop, seq=seq)


class TestPhysicalRegisterFile:
    def test_initial_free_count(self):
        rf = PhysicalRegisterFile(168)
        assert rf.num_free == 168 - 32
        assert rf.free_fraction == pytest.approx((168 - 32) / 168)

    def test_allocate_free_cycle(self):
        rf = PhysicalRegisterFile(40)
        reg = rf.allocate()
        assert rf.is_allocated(reg)
        assert not rf.is_ready(reg)
        rf.set_ready(reg)
        assert rf.is_ready(reg)
        rf.free(reg)
        assert not rf.is_allocated(reg)

    def test_double_free_rejected(self):
        rf = PhysicalRegisterFile(40)
        reg = rf.allocate()
        rf.free(reg)
        with pytest.raises(ValueError):
            rf.free(reg)

    def test_exhaustion_raises(self):
        rf = PhysicalRegisterFile(34)
        rf.allocate()
        rf.allocate()
        with pytest.raises(OutOfPhysicalRegisters):
            rf.allocate()

    def test_rebuild_restores_free_list(self):
        rf = PhysicalRegisterFile(40)
        for _ in range(6):
            rf.allocate()
        rf.rebuild(set(range(32)))
        assert rf.num_free == 8
        assert all(rf.is_ready(reg) for reg in range(32))


class TestRAT:
    def test_initial_mapping_is_identity_per_bank(self):
        rat = RegisterAliasTable()
        assert rat.physical(0) == 0
        assert rat.physical(FP_REG_BASE) == 0
        assert rat.physical(FP_REG_BASE + 5) == 5

    def test_rename_records_producer_pc(self):
        rat = RegisterAliasTable()
        previous = rat.rename(3, physical=77, producer_pc=0x400010)
        assert previous.physical == 3
        assert rat.physical(3) == 77
        assert rat.producer_pc(3) == 0x400010

    def test_checkpoint_restore(self):
        rat = RegisterAliasTable()
        checkpoint = rat.checkpoint()
        rat.rename(1, 50, 0x1000)
        rat.rename(2, 51, 0x1004)
        rat.restore(checkpoint)
        assert rat.physical(1) == 1
        assert rat.physical(2) == 2
        assert rat.producer_pc(1) is None

    def test_live_physicals_by_bank(self):
        rat = RegisterAliasTable()
        rat.rename(0, 99, 0x0)
        assert 99 in rat.live_physicals(fp=False)
        assert 99 not in rat.live_physicals(fp=True)

    def test_retirement_rat_commit_and_checkpoint(self):
        retire = RetirementRAT()
        old = retire.commit(4, 88)
        assert old == 4
        assert retire.physical(4) == 88
        checkpoint = retire.to_checkpoint()
        assert checkpoint.entries[4].physical == 88


class TestROB:
    def test_fifo_order_and_capacity(self):
        rob = ReorderBuffer(capacity=4)
        for seq in range(4):
            rob.push(make_instr(seq))
        assert rob.is_full
        with pytest.raises(OverflowError):
            rob.push(make_instr(99))
        assert rob.pop_head().seq == 0
        assert len(rob) == 3

    def test_find_other_instance(self):
        rob = ReorderBuffer()
        rob.push(make_instr(0, pc=0x100))
        rob.push(make_instr(1, pc=0x200))
        rob.push(make_instr(2, pc=0x100))
        found = rob.find_other_instance(0x100, exclude_seq=0)
        assert found is not None and found.seq == 2
        assert rob.find_other_instance(0x300, exclude_seq=0) is None

    def test_entries_before_sorted_youngest_first(self):
        rob = ReorderBuffer()
        for seq in range(5):
            rob.push(make_instr(seq))
        older = rob.entries_before(3)
        assert [instr.seq for instr in older] == [2, 1, 0]

    def test_clear_returns_entries(self):
        rob = ReorderBuffer()
        rob.push(make_instr(0))
        discarded = rob.clear()
        assert len(discarded) == 1
        assert rob.is_empty


class TestIssueQueue:
    # Readiness is driven through ready bits: an entry's sources are
    # (is_fp, preg) operands looked up in the int/fp ready-bit lists.
    INT_READY = [True] * 8
    FP_READY = [True] * 8

    def test_select_oldest_first_with_width(self):
        iq = IssueQueue(capacity=8)
        for seq in (5, 1, 3):
            instr = make_instr(seq)
            instr.src_ops = ((False, 2),)
            instr.earliest_issue_cycle = 0
            iq.insert(instr)
        picked = iq.select_ready(
            0, width=2, max_loads=2, max_stores=1,
            int_ready=self.INT_READY, fp_ready=self.FP_READY,
        )
        assert [instr.seq for instr in picked] == [1, 3]

    def test_port_limits(self):
        iq = IssueQueue()
        for seq in range(4):
            instr = make_instr(seq, uop_class=UopClass.LOAD, addr=64 * seq, dst=1)
            instr.src_ops = ((False, seq),)
            instr.earliest_issue_cycle = 0
            iq.insert(instr)
        picked = iq.select_ready(0, 4, 2, 1, self.INT_READY, self.FP_READY)
        assert len(picked) == 2

    def test_not_ready_filtered(self):
        iq = IssueQueue()
        instr = make_instr(0)
        instr.src_ops = ((False, 3), (True, 4))
        instr.earliest_issue_cycle = 0
        iq.insert(instr)
        int_ready = [True] * 8
        fp_ready = [True] * 8
        fp_ready[4] = False
        assert iq.select_ready(0, 4, 2, 1, int_ready, fp_ready) == []
        # Parked on p4 (fp): setting the bit alone is not seen until woken.
        fp_ready[4] = True
        assert iq.select_ready(0, 4, 2, 1, int_ready, fp_ready) == []
        iq.wake((True, 4))
        assert iq.select_ready(0, 4, 2, 1, int_ready, fp_ready) == [instr]

    def test_poisoned_source_follows_poison_rule(self):
        iq = IssueQueue()
        instr = make_instr(0)
        instr.src_ops = ((False, 3),)
        instr.earliest_issue_cycle = 0
        iq.insert(instr)
        int_ready = [False] * 8
        poisoned = {(False, 3)}
        never = lambda i: False  # noqa: E731
        assert iq.select_ready(0, 4, 2, 1, int_ready, [], poisoned, never) == []
        iq.wake((False, 3))
        picked = iq.select_ready(0, 4, 2, 1, int_ready, [], poisoned, lambda i: True)
        assert picked == [instr]
        assert instr.poisoned

    def test_earliest_issue_cycle_respected(self):
        iq = IssueQueue()
        instr = make_instr(0)
        instr.src_ops = ((False, 1),)
        instr.earliest_issue_cycle = 10
        iq.insert(instr)
        assert iq.select_ready(5, 4, 2, 1, self.INT_READY, self.FP_READY) == []
        assert iq.select_ready(10, 4, 2, 1, self.INT_READY, self.FP_READY) == [instr]

    def test_squash_predicate(self):
        iq = IssueQueue()
        normal = make_instr(0)
        runahead = make_instr(1)
        runahead.runahead = True
        iq.insert(normal)
        iq.insert(runahead)
        removed = iq.squash(lambda i: i.runahead)
        assert removed == [runahead]
        assert len(iq) == 1

    def test_overflow(self):
        iq = IssueQueue(capacity=1)
        iq.insert(make_instr(0))
        with pytest.raises(OverflowError):
            iq.insert(make_instr(1))


class TestLSQ:
    def test_occupancy_and_release(self):
        lsq = LoadStoreQueues(load_entries=2, store_entries=1)
        load = make_instr(0, UopClass.LOAD, addr=64, dst=1)
        store = make_instr(1, UopClass.STORE, addr=64, dst=None, srcs=(1,))
        lsq.dispatch(load)
        lsq.dispatch(store)
        assert lsq.load_occupancy == 1
        assert lsq.store_queue_full
        lsq.release(load)
        lsq.release(store)
        assert lsq.load_occupancy == 0

    def test_store_to_load_forwarding_youngest_older_store(self):
        lsq = LoadStoreQueues()
        store_a = make_instr(1, UopClass.STORE, addr=128, dst=None, srcs=(1,))
        store_b = make_instr(3, UopClass.STORE, addr=128, dst=None, srcs=(1,))
        load = make_instr(5, UopClass.LOAD, addr=128, dst=2)
        lsq.dispatch(store_a)
        lsq.dispatch(store_b)
        assert lsq.forwarding_store(load) is store_b
        younger_load = make_instr(2, UopClass.LOAD, addr=128, dst=2)
        assert lsq.forwarding_store(younger_load) is store_a

    def test_no_forwarding_for_different_address(self):
        lsq = LoadStoreQueues()
        lsq.dispatch(make_instr(1, UopClass.STORE, addr=256, dst=None, srcs=(1,)))
        load = make_instr(2, UopClass.LOAD, addr=512, dst=2)
        assert lsq.forwarding_store(load) is None


class TestBranchPredictor:
    def test_learns_always_taken(self):
        predictor = GShareBranchPredictor(table_entries=256, history_bits=8)
        pc = 0x400100
        for _ in range(8):
            prediction = predictor.predict(pc)
            predictor.update(pc, taken=True, predicted=prediction)
        assert predictor.predict(pc) is True
        assert predictor.stats.accuracy > 0.5

    def test_table_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            GShareBranchPredictor(table_entries=100)


class TestFrontEnd:
    def _frontend(self, num_uops=200):
        trace = strided_stream(num_uops=num_uops)
        config = CoreConfig()
        predictor = GShareBranchPredictor()
        return FrontEnd(trace, config, predictor, port=None, stats=CoreStats()), trace

    def test_delivers_after_pipeline_depth(self):
        frontend, _ = self._frontend()
        frontend.tick(0)
        assert len(frontend.uop_queue) == 0
        for cycle in range(1, CoreConfig().frontend_depth + 1):
            frontend.tick(cycle)
        assert len(frontend.uop_queue) > 0

    def test_pop_and_unpop_preserve_order(self):
        frontend, _ = self._frontend()
        for cycle in range(0, 20):
            frontend.tick(cycle)
        popped = frontend.pop_uops(3, 20)
        assert [entry.seq for entry in popped] == [0, 1, 2]
        frontend.unpop(popped)
        assert frontend.peek().seq == 0

    def test_redirect_flushes_and_restarts(self):
        frontend, _ = self._frontend()
        for cycle in range(0, 20):
            frontend.tick(cycle)
        frontend.redirect(5, cycle=20)
        assert len(frontend.uop_queue) == 0
        assert frontend.fetch_index == 5
        assert frontend.next_dispatch_seq() == 5

    def test_power_gating_stops_fetch(self):
        frontend, _ = self._frontend()
        frontend.power_gated = True
        moved = sum(frontend.tick(cycle) for cycle in range(10))
        assert moved == 0

    def test_trace_exhaustion(self):
        frontend, trace = self._frontend(num_uops=30)
        for cycle in range(200):
            frontend.tick(cycle)
            frontend.pop_uops(8, cycle)
        assert frontend.trace_exhausted
        assert frontend.is_drained
        assert frontend.next_dispatch_seq() is None
