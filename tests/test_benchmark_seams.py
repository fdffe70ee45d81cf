"""The repo benchmark's traced run wraps ``repro`` functions by name.

``e2ebench/e2e_trace.py`` patches class attributes and module globals of the
simulator in place (``--trace 1``).  A rename in ``src/`` would make a
wrapper silently miss its target, so this test installs the tracer, checks
that each seam it relies on is wrapped, runs a tiny single-core and a
two-core simulation under it, and checks that ``restore()`` puts every
original object back.
"""

from pathlib import Path

import pytest

import repro.simulation as simulation
import repro.simulation.engine as engine
import repro.simulation.multicore as multicore
import repro.simulation.simulator as simulator
from repro.registry import build_workload
from repro.uarch.core import MultiCoreSimulator, OoOCore

E2EBENCH = Path(__file__).resolve().parent.parent / "e2ebench"

#: Seams whose span names the per-layer metrics are derived from.
REQUIRED_SEAMS = (
    (OoOCore, "run"),
    (OoOCore, "step_cycle"),
    (OoOCore, "next_wake_cycle"),
    (OoOCore, "skip_to"),
    (MultiCoreSimulator, "run"),
    (simulator, "run_simulation"),
    (simulation, "run_simulation"),
    (engine, "run_simulation"),
    (multicore, "run_multicore"),
    (simulation, "run_multicore"),
    (engine, "run_multicore"),
)


@pytest.fixture
def e2e_trace(monkeypatch):
    monkeypatch.syspath_prepend(str(E2EBENCH))
    import e2e_trace

    return e2e_trace


def test_tracer_wraps_the_seams_and_restores_the_originals(e2e_trace):
    tracer = e2e_trace.Tracer()
    patches = e2e_trace.install_layers(tracer)
    try:
        wrapped = {(owner, attr): original for owner, attr, original in patches._undo}
        missing = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr in REQUIRED_SEAMS
            if (owner, attr) not in wrapped
        ]
        assert not missing, f"tracer no longer wraps: {', '.join(missing)}"
        for (owner, attr), original in wrapped.items():
            assert owner.__dict__[attr] is not original, f"{owner}.{attr}"

        trace = build_workload("milc", num_uops=300)
        single = simulation.run_simulation(trace, simulation.SimulationRequest(variant="pre"))
        pair = simulation.run_multicore([(trace, "pre"), (trace, "ooo")])
        assert single.stats.committed_uops == len(trace)
        assert [core.stats.committed_uops for core in pair.cores] == [len(trace)] * 2
        totals = tracer.totals()
        for span in (
            "simulation.run_simulation",
            "simulation.run_multicore",
            "simulation.multicore.driver",
            "uarch.step",
            "memory.access",
            "energy.evaluate",
        ):
            assert totals.get(span, (0,))[0] > 0, span
    finally:
        patches.restore()
    for (owner, attr), original in wrapped.items():
        assert owner.__dict__[attr] is original, f"{owner}.{attr} not restored"
