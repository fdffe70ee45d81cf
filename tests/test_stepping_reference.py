"""The one stepping loop against a slow reference that never skips.

:class:`~repro.uarch.core.MultiCoreSimulator` fast-forwards idle spans with
``skip_to`` instead of stepping them.  That is exact only if an idle cycle
changes no state except through scheduled events.  The reference here
steps every cycle with ``step_cycle()`` and never skips; on random short
traces, for every variant, with and without a ``max_cycles`` budget, it must
reproduce ``run_simulation``'s ``CoreStats``.

Two known model defects break the claim; each is pinned by a strict xfail:

* PRE counts an SST lookup for the runahead queue head before checking that
  it can dispatch, so every stalled cycle that is stepped instead of skipped
  counts that lookup again (``sst_lookups``/``sst_hits`` only).
* A load refused because the MSHRs are full waits for the next scheduled
  event, while an MSHR freed by a fill that no core event tracks goes
  unnoticed (the same defect that makes RA deadlock, pinned in
  ``test_issue_wakeup``).  Stepping retries the load every cycle instead, so
  the timing differs.  The property skips runs in which a load was refused.
"""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import build_core
from repro.registry import build_workload
from repro.simulation.simulator import SimulationRequest, run_simulation
from repro.uarch.core import SimulationDeadlock
from test_issue_wakeup import SMALL_CORE, VARIANTS, loop_trace, uop_specs

#: The idle skip does not reproduce these counters (see the module docstring).
SKIP_SENSITIVE_EVENTS = ("sst_lookups", "sst_hits")


def stepping_reference(trace, variant, config, max_cycles, cycle_limit):
    """``(stats, refused)``: step every cycle to the budget, or to ``cycle_limit``.

    ``refused`` says whether some load found the MSHRs full.  Both loops
    are identical up to the first refusal, so it holds for the fast run too.
    """
    core = build_core(trace, variant, config=config)
    refusals = []
    issue_load = core._issue_load

    def recording_issue_load(instr):
        latency = issue_load(instr)
        if latency is None:
            refusals.append(core.cycle)
        return latency

    core._issue_load = recording_issue_load
    budget = min(cycle_limit, math.inf if max_cycles is None else max_cycles)
    while not core.finished and core.cycle < budget:
        if core.step_cycle() or not core.finished:
            core.cycle += 1
    return core.finish_run(), bool(refusals)


def comparable(stats) -> dict:
    record = stats.to_dict()
    for name in SKIP_SENSITIVE_EVENTS:
        del record["events"][name]
    return record


@given(
    body=st.lists(uop_specs, min_size=3, max_size=10),
    iterations=st.integers(min_value=8, max_value=40),
    stride_lines=st.sampled_from((1, 17, 40503, 2654435761)),
    budget=st.integers(min_value=1, max_value=3_000),
)
@settings(max_examples=30, deadline=None)
def test_idle_skip_matches_stepping_every_cycle(body, iterations, stride_lines, budget):
    trace = loop_trace(body, iterations, stride_lines)
    for variant in VARIANTS:
        for max_cycles in (None, budget):
            request = SimulationRequest(variant=variant, config=SMALL_CORE, max_cycles=max_cycles)
            try:
                fast = run_simulation(trace, request).stats
            except SimulationDeadlock:
                continue  # The MSHR-retry defect again (test_issue_wakeup).
            slow, refused = stepping_reference(
                trace, variant, SMALL_CORE, max_cycles, cycle_limit=fast.cycles + 1
            )
            if refused:
                continue  # The MSHR-retry defect, pinned below.
            assert comparable(slow) == comparable(fast), (variant, max_cycles)


@functools.lru_cache(maxsize=None)
def mcf_pre_runs():
    """The measured SST case: mcf on PRE at 600 micro-ops, default core."""
    trace = build_workload("mcf", num_uops=600)
    fast = run_simulation(trace, SimulationRequest(variant="pre")).stats
    slow, refused = stepping_reference(trace, "pre", None, None, cycle_limit=fast.cycles + 1)
    return fast, slow, refused


@functools.lru_cache(maxsize=None)
def refused_load_runs():
    """A random-loop example (found by the property) where RA refuses loads."""
    body = [
        ("load", 5, (), 3),
        ("load", 1, (), 4),
        ("ialu", 6, (), 3),
        ("load", 2, (), 2),
        ("store", 1, (), 1),
        ("falu", 1, (), 1),
        ("falu", 1, (), 1),
        ("load", 1, (), 1),
        ("load", 1, (), 1),
        ("ialu", 1, (), 1),
    ]
    trace = loop_trace(body, iterations=26, stride_lines=1)
    request = SimulationRequest(variant="runahead", config=SMALL_CORE)
    fast = run_simulation(trace, request).stats
    slow, refused = stepping_reference(
        trace, "runahead", SMALL_CORE, None, cycle_limit=fast.cycles + 1
    )
    return fast, slow, refused


def test_sst_case_matches_on_every_other_counter():
    fast, slow, refused = mcf_pre_runs()
    assert not refused
    assert comparable(slow) == comparable(fast)


@pytest.mark.xfail(strict=True, reason="PRE re-counts the SST lookup on stepped stall cycles")
def test_sst_counters_match_stepping_every_cycle():
    fast, slow, _ = mcf_pre_runs()
    for name in SKIP_SENSITIVE_EVENTS:
        assert getattr(slow.events, name) == getattr(fast.events, name), name


def test_refused_load_case_refuses_a_load():
    _, _, refused = refused_load_runs()
    assert refused


@pytest.mark.xfail(strict=True, reason="an idle core misses the MSHR that frees for a refused load")
def test_refused_load_timing_matches_stepping_every_cycle():
    fast, slow, _ = refused_load_runs()
    assert comparable(slow) == comparable(fast)
