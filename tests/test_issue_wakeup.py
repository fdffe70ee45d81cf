"""Missed-wakeup property: the event-driven issue queue against a polling reference.

The issue queue only re-checks an entry after an event wakes it, so a missed
wakeup would silently delay issue (and change timing).  These tests run short
random loop traces on every variant with a per-cycle probe that re-derives
each queued entry's readiness from scratch — ready bits, plus
``poisoned_pregs``, plus the controller's ``treat_poison_as_ready`` — and
asserts that no entry the queue holds as waiting is actually ready.  If that
invariant holds, scanning the candidates alone selects exactly what a scan of
the whole queue would.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import build_controller
from repro.registry import build_workload
from repro.simulation.simulator import run_variant
from repro.uarch.config import CoreConfig
from repro.uarch.core import DynInstr, OoOCore, SimulationDeadlock
from repro.uarch.probes import Probe
from repro.workloads.trace import (
    FP_REG_BASE,
    MicroOp,
    Trace,
    UopClass,
    uop_branch,
    uop_falu,
    uop_ialu,
    uop_load,
    uop_store,
)

VARIANTS = ("ooo", "runahead", "runahead_buffer", "pre", "pre_emq")

#: A shrunken core so that short traces fill the window and enter runahead.
SMALL_CORE = CoreConfig(
    rob_size=32,
    issue_queue_size=16,
    load_queue_size=16,
    store_queue_size=16,
    int_registers=56,
    fp_registers=56,
    prdq_entries=24,
    emq_entries=64,
    runahead_minimum_interval=8,
)


def reference_ready(core, instr) -> bool:
    """The operand-readiness rule, evaluated from the core's raw state."""
    controller = core.controller
    for op in instr.src_ops:
        is_fp, preg = op
        if core.regfile_for(is_fp).is_ready(preg):
            continue
        if (
            op in core.poisoned_pregs
            and controller is not None
            and controller.treat_poison_as_ready(instr)
        ):
            continue
        return False
    return True


class WakeupAuditProbe(Probe):
    """Fails the run on the first cycle a parked entry is in fact ready."""

    name = "wakeup_audit"

    def __init__(self) -> None:
        self.parked_checks = 0
        self.poisoned_cycles = 0

    def on_cycle(self, core, cycle: int) -> None:
        iq = core.iq
        assert len(list(iq)) == len(iq), "an entry was lost from the issue queue"
        if core.poisoned_pregs:
            self.poisoned_cycles += 1
        for op, parked in iq._waiters.items():
            for instr in parked:
                self.parked_checks += 1
                assert op in instr.src_ops
                assert not reference_ready(core, instr), (
                    f"cycle {cycle} ({core.mode}): {instr!r} parked on {op} but ready"
                )


def loop_trace(body, iterations: int, stride_lines: int) -> Trace:
    """Unroll ``body`` (a list of drawn micro-op specs) ``iterations`` times."""
    uops = []
    for iteration in range(iterations):
        for index, (kind, dst, srcs, region) in enumerate(body):
            pc = 0x400000 + 4 * index
            # Large odd strides scatter lines past the stride prefetcher.
            addr = (region << 24) + 64 * (stride_lines * iteration % 65536)
            if kind == "load":
                uops.append(uop_load(pc, dst, addr, srcs))
            elif kind == "store":
                uops.append(uop_store(pc, addr, srcs))
            elif kind == "falu":
                uops.append(uop_falu(pc, FP_REG_BASE + dst, [FP_REG_BASE + s for s in srcs]))
            elif kind == "branch":
                uops.append(uop_branch(pc, iteration % 3 != 0, 0x400000, srcs))
            else:
                uops.append(uop_ialu(pc, dst, srcs))
    return Trace(uops)


#: Few architectural registers, so loads feed addresses and chains form.
registers = st.integers(min_value=1, max_value=6)
uop_specs = st.tuples(
    st.sampled_from(("load", "load", "ialu", "falu", "store", "branch")),
    registers,
    st.lists(registers, max_size=2).map(tuple),
    st.integers(min_value=1, max_value=4),
)


@given(
    body=st.lists(uop_specs, min_size=3, max_size=10),
    iterations=st.integers(min_value=16, max_value=60),
    stride_lines=st.sampled_from((1, 17, 40503, 2654435761)),
)
@settings(max_examples=30, deadline=None)
def test_no_parked_entry_is_ready_on_random_loops(body, iterations, stride_lines):
    trace = loop_trace(body, iterations, stride_lines)
    for variant in VARIANTS:
        try:
            result = run_variant(
                trace, variant=variant, config=SMALL_CORE, probes=[WakeupAuditProbe()]
            )
        except SimulationDeadlock:
            # A separate, known model defect (pinned by the strict xfail
            # below): the audit still checked every cycle up to the deadlock.
            continue
        assert result.stats.committed_uops == len(trace)


def test_audit_covers_poisoned_runahead_on_every_variant():
    """The property is exercised where it matters: parked entries under poison."""
    trace = build_workload("mcf", num_uops=700)
    for variant in VARIANTS:
        audit = WakeupAuditProbe()
        run_variant(trace, variant=variant, probes=[audit])
        assert audit.parked_checks > 0, variant
        if variant != "ooo" and variant != "runahead_buffer":
            # The runahead buffer replays its chain outside the issue queue.
            assert audit.poisoned_cycles > 0, variant


def test_mode_change_wakes_entries_parked_on_a_poisoned_register():
    """RA's poison rule depends on the mode, so entering runahead must wake.

    The built-in controllers never hold poison across a mode change, so the
    random-trace property cannot reach this wakeup; drive it directly.
    """
    core = OoOCore(build_workload("mcf", num_uops=50), controller=build_controller("runahead"))
    preg = core.int_rf.allocate()
    instr = DynInstr(MicroOp(pc=0x40, uop_class=UopClass.IALU, srcs=(1,), dst=2), seq=1)
    instr.src_ops = ((False, preg),)
    core.iq.insert(instr)

    def select():
        return core.iq.select_ready(
            1, 4, 2, 1, core.int_rf._ready, core.fp_rf._ready, core.poisoned_pregs,
            core.controller.treat_poison_as_ready,
        )

    assert select() == []  # not ready: parks on preg
    core.poison(False, preg)
    assert select() == []  # normal mode: poison is not ready, parks again
    assert not reference_ready(core, instr)
    core.enter_runahead(1)
    assert reference_ready(core, instr)
    assert select() == [instr]
    assert instr.poisoned


def test_consumer_issuing_with_its_poisoned_producer_inherits_the_poison():
    """Poison is judged at issue, after this cycle's older issues.

    A stale ready bit (a pseudo-retired RA load writing back after the flush,
    into a register since reallocated) lets a consumer issue in the same
    cycle as its producer; the producer's fresh poison must still reach it.
    """
    core = OoOCore(build_workload("mcf", num_uops=50), controller=build_controller("runahead"))
    core.enter_runahead(0)
    invalid = core.int_rf.allocate()
    core.poison(False, invalid)
    dest = core.int_rf.allocate()
    core.int_rf._ready[dest] = True  # the stale bit
    producer = DynInstr(
        MicroOp(pc=0x40, uop_class=UopClass.IALU, srcs=(1,), dst=2), 1,
        src_ops=((False, invalid),), dest_is_fp=False, dest_preg=dest,
    )
    consumer = DynInstr(
        MicroOp(pc=0x44, uop_class=UopClass.IALU, srcs=(2,)), 2, src_ops=((False, dest),)
    )
    core.iq.insert(producer)
    core.iq.insert(consumer)
    assert core._issue() == 2
    assert producer.poisoned and consumer.poisoned


@pytest.mark.xfail(raises=SimulationDeadlock, strict=True)
def test_load_waiting_for_an_mshr_wakes_the_idle_core():
    """A load that found the MSHRs full should be retried when one frees.

    Found by the property above, and present before event-driven wakeup:
    when the MSHRs are held by prefetches (not core-scheduled events), the
    idle skip has no wake cycle for the retrying load, and RA and RA-buffer
    raise ``SimulationDeadlock``.  Waking on the MSHR file's earliest
    completion fixes it but re-times load retries (``lsq_accesses`` moves on
    Figure-2 cells), so the fix waits for a change that may move the goldens.
    """
    body = [
        ("store", 6, (), 3),
        ("ialu", 6, (), 2),
        ("load", 4, (4, 5), 3),
        ("load", 4, (), 1),
        ("branch", 3, (2,), 2),
        ("branch", 6, (1, 6), 2),
        ("store", 2, (5,), 4),
        ("load", 1, (), 3),
    ]
    trace = loop_trace(body, iterations=56, stride_lines=17)
    for variant in ("runahead", "runahead_buffer"):
        result = run_variant(trace, variant=variant, config=SMALL_CORE)
        assert result.stats.committed_uops == len(trace)
