"""The benchmark's three workloads, driving only the public ``repro`` API.

Each workload builds its inputs from the workload seed in :meth:`setup`,
runs one operation per :meth:`op` call (timing only the call into
``repro``), checks the operation's outputs, and summarises a pass of
operations into end-to-end figures.  Operations repeat in rounds of
:attr:`ops_per_round`, so every timed pass covers whole rounds and the same
mix of work.

Simulated statistics start from empty caches and predictors in every cell,
with no warm-up, exactly like the repo's Figure-2 harness.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro.simulation as simulation
from repro.memory.hierarchy import SharedUncore
from repro.service.client import ServiceClient
from repro.service.server import ServiceThread
from repro.simulation import ExperimentEngine, SimulationRequest, SweepSpec
from repro.simulation.golden import stats_digest
from repro.simulation.metrics import arithmetic_mean
from repro.workloads.spec_surrogates import SPEC_SURROGATES

from e2e_stats import OpLog, OpRecord, Timing, percentile, ratio, supports
from e2e_trace import Patches

clock = time.perf_counter

#: The Figure-2 benchmarks and variants (``benchmarks/bench_common.py``).
FIG2_BENCHMARKS = ("mcf", "libquantum", "milc", "sphinx3", "bwaves", "lbm")
VARIANTS = ("ooo", "runahead", "runahead_buffer", "pre", "pre_emq")
PRE_VARIANTS = ("pre", "pre_emq")

#: Trace length per cell.  The Figure-2 harness (``benchmarks/``) runs
#: 5,000 micro-ops, so ``fig2_err_pp`` here is not that harness's figure.
FIG2_UOPS = 3_000

#: Mean speed-up over OoO in percent, per variant (Section 5.1 of the paper).
PAPER_SPEEDUP_PCT = {
    "runahead": 14.5,
    "runahead_buffer": 14.4,
    "pre": 35.5,
    "pre_emq": 28.6,
}

#: Co-runner mixes on one shared uncore: mixed variants, N=2 and one N=4.
MC_MIXES = (
    (("bwaves", "pre"), ("mcf", "ooo")),
    (("milc", "pre_emq"), ("libquantum", "runahead")),
    (("lbm", "runahead_buffer"), ("sphinx3", "pre")),
    (("mcf", "pre"), ("bwaves", "ooo"), ("milc", "runahead"), ("lbm", "pre_emq")),
)
MC_UOPS = 3_000

#: Service traffic follows the CI ``serve-smoke`` job: a sweep of two
#: workloads x ooo+pre at 600 micro-ops, then one resubmission of the same
#: document, which must be served entirely from the cache.  A round is one
#: such pair.  Cold documents must be new to the cache, so each block of
#: three cold documents pairs up the six Figure-2 benchmarks (seeded) at one
#: trace length, and the lengths are 600 plus a seeded permutation of
#: ``range(SERVICE_UOPS_SPAN)``, continuing at 600 + span when one runs out.
SERVICE_VARIANTS = ("ooo", "pre")
SERVICE_UOPS = 600
SERVICE_UOPS_SPAN = 100
#: The cold request compared with a direct ``run_sweep`` is one of the first
#: this many, chosen by the seed before the pass starts.
SERVICE_SAMPLE_FROM = 3


def build_trace(name: str, num_uops: int, seed: int):
    """The surrogate trace ``name`` under workload seed ``seed``.

    Seed 0 is the registry trace itself.  Any other seed is added to the
    surrogate generator's own ``seed`` parameter; the streaming generators
    (libquantum, lbm) are fully regular and ignore it.
    """
    bench = SPEC_SURROGATES[name]
    if seed == 0:
        return bench.build(num_uops=num_uops)
    base = int(bench.spec.params.get("seed", 0))
    trace = bench.spec.build(num_uops=num_uops, seed=base + seed)
    trace.name = name
    return trace


class UncoreCapture:
    """Collects every :class:`SharedUncore` built while installed.

    ``run_simulation`` and ``run_multicore`` return copies of the per-core
    uncore counters only; the shared totals the conservation check compares
    them against live on the uncore object.  Wrapping the constructor costs
    nothing per simulated cycle, and both the traced and untraced runs use it.
    """

    def __init__(self) -> None:
        self.items: List[SharedUncore] = []
        self._lock = threading.Lock()
        self._patches = Patches()
        original = SharedUncore.__init__

        def __init__(uncore, *args, **kwargs):
            original(uncore, *args, **kwargs)
            with self._lock:
                self.items.append(uncore)

        self._patches.replace(SharedUncore, "__init__", __init__)

    def take(self) -> List[SharedUncore]:
        with self._lock:
            taken, self.items = self.items, []
        return taken

    def close(self) -> None:
        self._patches.restore()


class SimCounters:
    """Simulated counters summed over a pass (identical traced or not)."""

    FIELDS = (
        "runahead_invocations",
        "runahead_prefetches",
        "runahead_useful_prefetches",
        "sst_lookups",
        "sst_hits",
        "l3_hits",
        "l3_misses",
        "dram_reads",
        "dram_queue_delay_cycles",
        "bus_busy_cycles",
    )

    def __init__(self) -> None:
        self.values = dict.fromkeys(self.FIELDS, 0)

    def add_stats(self, stats: Dict[str, Any]) -> None:
        """Add one core's statistics, given as ``CoreStats.to_dict()`` output."""
        values = self.values
        values["runahead_invocations"] += stats["runahead_invocations"]
        values["runahead_prefetches"] += stats["runahead_prefetches"]
        values["runahead_useful_prefetches"] += stats["runahead_useful_prefetches"]
        values["sst_lookups"] += stats["events"]["sst_lookups"]
        values["sst_hits"] += stats["events"]["sst_hits"]

    def add_uncores(self, uncores: List[SharedUncore]) -> None:
        values = self.values
        for uncore in uncores:
            values["l3_hits"] += sum(uncore.l3_hits)
            values["l3_misses"] += sum(uncore.l3_misses)
            values["dram_reads"] += sum(uncore.dram_reads)
            values["dram_queue_delay_cycles"] += sum(uncore.dram_queue_delay_cycles)
            values["bus_busy_cycles"] += sum(uncore.bus_busy_cycles)

    def layer_metrics(self) -> Dict[str, float]:
        values = self.values
        return {
            "core.runahead_invocations": values["runahead_invocations"],
            "core.useful_prefetch_ratio": ratio(
                values["runahead_useful_prefetches"], values["runahead_prefetches"]
            ),
            "core.sst_hit_ratio": ratio(values["sst_hits"], values["sst_lookups"]),
            "memory.l3_miss_ratio": ratio(
                values["l3_misses"], values["l3_hits"] + values["l3_misses"]
            ),
            "memory.dram_reads": values["dram_reads"],
            "memory.dram_queue_delay_cycles": values["dram_queue_delay_cycles"],
            "memory.bus_busy_cycles": values["bus_busy_cycles"],
        }


def _core_stats_dict(stats) -> Dict[str, Any]:
    """The counters :class:`SimCounters` reads, without going through serde."""
    return {
        "runahead_invocations": stats.runahead_invocations,
        "runahead_prefetches": stats.runahead_prefetches,
        "runahead_useful_prefetches": stats.runahead_useful_prefetches,
        "events": {
            "sst_lookups": stats.events.sst_lookups,
            "sst_hits": stats.events.sst_hits,
        },
    }


class Workload:
    """Base class: the protocol ``run.py`` drives."""

    name = ""
    #: Rounds in each pass of a traced run (a fixed amount of work).
    trace_rounds = 1
    #: Transient-failure retries of the service client.
    retries = 0

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.sim = SimCounters()
        self.capture: Optional[UncoreCapture] = None
        #: Report lines beyond the end-to-end figures.
        self.lines: List[str] = []
        self._first_digests: Dict[int, List[str]] = {}

    @property
    def ops_per_round(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        self.capture = UncoreCapture()

    def kind_of(self, index: int) -> str:
        """The class of operation ``index``, splitting traced aggregates."""
        return ""

    def op(self, index: int) -> OpRecord:
        raise NotImplementedError

    def finish(self, log: OpLog) -> None:
        """End-of-pass checks (untimed); failures go to ``log.run_problems``."""

    def close(self) -> None:
        if self.capture is not None:
            self.capture.close()
            self.capture = None

    def summary(self, log: OpLog) -> Dict[str, Tuple[float, str]]:
        """End-to-end figures of a pass: ``name -> (value, unit)``."""
        raise NotImplementedError

    def slot_medians(self, log: OpLog) -> List[float]:
        """Median host time of each position in the round, over all rounds.

        Their sum is a typical round's host time: a round slowed by other
        load on the host moves it far less than it moves a plain total.
        """
        slots: List[List[float]] = [[] for _ in range(self.ops_per_round)]
        for index, op in enumerate(log.ops):
            slots[index % self.ops_per_round].append(op.host_s)
        return [statistics.median(times) for times in slots]

    def typical_op_ms(self, log: OpLog) -> float:
        """Median over the round's positions of each position's median host time."""
        return statistics.median(self.slot_medians(log)) * 1e3

    def round_figures(self, log: OpLog, slots=None) -> Tuple[float, float]:
        """``(uops_per_s, ops_per_s)`` of a typical round, over ``slots`` (default all)."""
        medians = self.slot_medians(log)
        slots = range(self.ops_per_round) if slots is None else slots
        round_s = sum(medians[slot] for slot in slots)
        uops = sum(log.ops[slot].uops for slot in slots)
        return ratio(uops, round_s), ratio(len(slots), round_s)

    def _check_repeat(self, record: OpRecord, index: int) -> None:
        """Later rounds must reproduce the first round's statistics exactly."""
        first = self._first_digests.setdefault(index % self.ops_per_round, record.digests)
        if first != record.digests:
            record.problems.append("statistics differ from the first round")


class Fig2Single(Workload):
    """The 30 Figure-2 cells, each one in-process ``run_simulation`` call."""

    name = "fig2-single"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.cells = [(bench, variant) for bench in FIG2_BENCHMARKS for variant in VARIANTS]
        self.traces: Dict[str, Any] = {}
        self.cycles: Dict[Tuple[str, str], int] = {}

    @property
    def ops_per_round(self) -> int:
        return len(self.cells)

    def setup(self) -> None:
        super().setup()
        self.traces = {name: build_trace(name, FIG2_UOPS, self.seed) for name in FIG2_BENCHMARKS}

    def op(self, index: int) -> OpRecord:
        bench, variant = self.cells[index % len(self.cells)]
        trace = self.traces[bench]
        start = clock()
        result = simulation.run_simulation(trace, SimulationRequest(variant=variant))
        host_s = clock() - start
        stats = result.stats
        record = OpRecord(
            kind="pre" if variant in PRE_VARIANTS else variant,
            label=f"{bench}/{variant}",
            host_s=host_s,
            uops=stats.committed_uops,
            digests=[stats_digest(stats)],
        )
        if stats.committed_uops != len(trace):
            record.problems.append(
                f"committed {stats.committed_uops} of {len(trace)} micro-ops"
            )
        self._check_repeat(record, index)
        self.cycles[(bench, variant)] = stats.cycles
        self.sim.add_stats(_core_stats_dict(stats))
        self.sim.add_uncores(self.capture.take())
        return record

    def speedups(self) -> Dict[str, float]:
        """Mean simulated speed-up over OoO in percent, per runahead variant."""
        speedups = {}
        for variant in PAPER_SPEEDUP_PCT:
            normalized = [
                self.cycles[(bench, "ooo")] / self.cycles[(bench, variant)]
                for bench in FIG2_BENCHMARKS
            ]
            speedups[variant] = (arithmetic_mean(normalized) - 1.0) * 100.0
        return speedups

    def fig2_err_pp(self) -> float:
        speedups = self.speedups()
        return arithmetic_mean(
            [abs(speedups[v] - PAPER_SPEEDUP_PCT[v]) for v in PAPER_SPEEDUP_PCT]
        )

    def summary(self, log: OpLog) -> Dict[str, Tuple[float, str]]:
        cells = Timing.of(log.times())
        uops_per_s, ops_per_s = self.round_figures(log)
        pre_slots = [
            slot for slot, (_, variant) in enumerate(self.cells) if variant in PRE_VARIANTS
        ]
        figures = {
            "uops_per_s": (uops_per_s, "uops/s"),
            "pre_uops_per_s": (self.round_figures(log, pre_slots)[0], "uops/s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (self.typical_op_ms(log), "ms"),
        }
        self.lines.append(f"cell host time: {cells.describe_ms()}")
        if len(self.cycles) == len(self.cells):
            figures["fig2_err_pp"] = (self.fig2_err_pp(), "pp")
            speedups = self.speedups()
            self.lines.append(
                f"simulated mean speed-up over OoO vs the paper (Figure 2), percent, "
                f"at {FIG2_UOPS:,} micro-ops per cell (fig2_err_pp is computed at this "
                f"length; the Figure-2 harness runs 5,000, so its error differs):"
            )
            for variant, paper in PAPER_SPEEDUP_PCT.items():
                self.lines.append(
                    f"  {variant:16s} simulated {speedups[variant]:+8.3f}  "
                    f"paper {paper:+6.1f}  error {speedups[variant] - paper:+8.3f} pp"
                )
        return figures


class McContention(Workload):
    """Mixed-variant co-runners in lockstep on one shared L3/DRAM/bus."""

    name = "mc-contention"
    trace_rounds = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.traces: Dict[str, Any] = {}
        self.reports: Dict[int, Any] = {}

    @property
    def ops_per_round(self) -> int:
        return len(MC_MIXES)

    def setup(self) -> None:
        super().setup()
        names = sorted({name for mix in MC_MIXES for name, _ in mix})
        self.traces = {name: build_trace(name, MC_UOPS, self.seed) for name in names}

    def op(self, index: int) -> OpRecord:
        mix = MC_MIXES[index % len(MC_MIXES)]
        pairs = [(self.traces[name], variant) for name, variant in mix]
        start = clock()
        result = simulation.run_multicore(pairs)
        host_s = clock() - start
        uncores = self.capture.take()
        record = OpRecord(
            kind=f"n{len(mix)}",
            label=" + ".join(f"{name}/{variant}" for name, variant in mix),
            host_s=host_s,
            uops=sum(core.stats.committed_uops for core in result.cores),
            digests=[stats_digest(core.stats) for core in result.cores],
        )
        for core, (name, _) in zip(result.cores, mix):
            if core.stats.committed_uops != len(self.traces[name]):
                record.problems.append(
                    f"core {core.core_id} committed {core.stats.committed_uops} "
                    f"of {len(self.traces[name])} micro-ops"
                )
        record.problems.extend(_conservation_problems(result.uncore, uncores))
        self._check_repeat(record, index)
        self.reports[index % len(MC_MIXES)] = result.uncore
        for core in result.cores:
            self.sim.add_stats(_core_stats_dict(core.stats))
        self.sim.add_uncores(uncores)
        return record

    def summary(self, log: OpLog) -> Dict[str, Tuple[float, str]]:
        mixes = Timing.of(log.times())
        self.lines.append(f"mix host time: {mixes.describe_ms()}")
        self.lines.append("per-core shared-uncore usage (simulated, UncoreReport):")
        for index, report in sorted(self.reports.items()):
            self.lines.append(
                f"  mix {index} [{' + '.join(f'{n}/{v}' for n, v in MC_MIXES[index])}]: "
                f"dram_reads {report.dram_reads} "
                f"dram_queue_delay_cycles {report.dram_queue_delay_cycles} "
                f"bus_busy_cycles {report.bus_busy_cycles}"
            )
        uops_per_s, ops_per_s = self.round_figures(log)
        return {
            "uops_per_s": (uops_per_s, "uops/s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (self.typical_op_ms(log), "ms"),
        }


def _conservation_problems(report, uncores: List[SharedUncore]) -> List[str]:
    """Per-core uncore counters must sum to the shared L3/DRAM totals."""
    if len(uncores) != 1:
        return [f"expected one shared uncore per run, saw {len(uncores)}"]
    uncore = uncores[0]
    pairs = (
        ("l3_hits", uncore.l3.stats.hits),
        ("l3_misses", uncore.l3.stats.misses),
        ("dram_reads", uncore.dram.stats.reads),
        ("dram_writes", uncore.dram.stats.writes),
    )
    return [
        f"per-core {name} sum {sum(getattr(report, name))} != shared total {total}"
        for name, total in pairs
        if sum(getattr(report, name)) != total
    ]


def _result_digest(result: Dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def _sweep_stats(result: Dict[str, Any]):
    """Every cell's ``CoreStats`` dict in a sweep result document."""
    for cell in result["cells"]:
        for bench in cell["comparison"]["benchmarks"]:
            for variant_result in bench["results"].values():
                yield variant_result["stats"]


class ServiceSweeps(Workload):
    """One closed-loop client against an in-process experiment service.

    Each round submits one cold document (cells no earlier document ran)
    and then resubmits the same document warm, as the CI ``serve-smoke``
    job does.
    """

    name = "service-sweeps"
    trace_rounds = 10

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self._rng = random.Random(seed)
        self._uops = list(range(SERVICE_UOPS_SPAN))
        self._rng.shuffle(self._uops)
        self._pairs: List[List[str]] = []
        self.docs: List[Tuple[str, Dict[str, Any]]] = []
        #: Only the sampled cold result is kept, so memory use does not
        #: grow with the number of rounds a pass completes.
        self.sample_index = self.ops_per_round * self._rng.randrange(SERVICE_SAMPLE_FROM)
        self.sample_result: Optional[Dict[str, Any]] = None
        self.handle: Optional[ServiceThread] = None
        self.client: Optional[ServiceClient] = None
        self.state_dir = work_dir / f"service-{seed}"

    @property
    def ops_per_round(self) -> int:
        return 2

    def document(self, index: int) -> Tuple[str, Dict[str, Any]]:
        """The ``index``-th request of the seeded sequence: ``(kind, document)``."""
        while len(self.docs) <= index:
            position = len(self.docs)
            if position % self.ops_per_round:
                self.docs.append(("warm", self.docs[-1][1]))
                continue
            block = position // self.ops_per_round // (len(FIG2_BENCHMARKS) // 2)
            if not self._pairs:
                benches = list(FIG2_BENCHMARKS)
                self._rng.shuffle(benches)
                self._pairs = [benches[i : i + 2] for i in range(0, len(benches), 2)]
            spec = {
                "workloads": self._pairs.pop(),
                "variants": list(SERVICE_VARIANTS),
                "num_uops": SERVICE_UOPS
                + SERVICE_UOPS_SPAN * (block // SERVICE_UOPS_SPAN)
                + self._uops[block % SERVICE_UOPS_SPAN],
            }
            self.docs.append(("cold", {"kind": "sweep", "spec": spec}))
        return self.docs[index]

    def kind_of(self, index: int) -> str:
        return self.document(index)[0]

    def _sleep(self, seconds: float) -> None:
        self.retries += 1
        time.sleep(seconds)

    def setup(self) -> None:
        super().setup()
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.handle = ServiceThread(state_dir=str(self.state_dir), workers=1, max_concurrent=1)
        self.client = ServiceClient(self.handle.base_url, sleep=self._sleep)

    def op(self, index: int) -> OpRecord:
        kind, doc = self.document(index)
        client = self.client
        start = clock()
        admitted = client.submit(doc)
        summary = client.wait(admitted["id"], deadline=time.monotonic() + 120)
        fetched = client.result(admitted["id"]) if summary["state"] == "done" else None
        host_s = clock() - start
        self.sim.add_uncores(self.capture.take())
        record = OpRecord(kind=kind, label=f"{kind} {admitted['id']}", host_s=host_s)
        if fetched is None:
            record.problems.append(f"job ended {summary['state']}: {summary.get('error')}")
            return record
        result = fetched["result"]
        record.digests.append(_result_digest(result))
        accounting = summary.get("accounting") or {}
        cells = admitted["cells"]
        if kind == "warm":
            if accounting.get("simulated") != 0 or cells["cached"] != cells["total"]:
                record.problems.append(
                    f"warm resubmission not served from cache: admission {cells}, run {accounting}"
                )
        else:
            if accounting.get("simulated") != cells["total"]:
                record.problems.append(f"cold document served from cache: {accounting}")
            stats = list(_sweep_stats(result))
            record.uops = sum(cell["committed_uops"] for cell in stats)
            for cell in stats:
                self.sim.add_stats(cell)
            if index == self.sample_index:
                self.sample_result = result
        return record

    def finish(self, log: OpLog) -> None:
        """Compare the sampled cold result with a direct engine sweep."""
        if self.sample_result is None:
            log.run_problems.append(f"sampled cold request {self.sample_index} did not complete")
            return
        spec = SweepSpec.from_dict(self.document(self.sample_index)[1]["spec"])
        direct = ExperimentEngine(workers=1).run_sweep(spec).to_dict()
        if direct != self.sample_result:
            log.run_problems.append(
                f"service result of request {self.sample_index} differs from a direct run_sweep"
            )

    def close(self) -> None:
        try:
            if self.handle is not None:
                code = self.handle.stop()
                self.handle = None
                if code != 0:
                    raise RuntimeError(f"service stopped with exit code {code}")
        finally:
            super().close()
            shutil.rmtree(self.state_dir, ignore_errors=True)

    def summary(self, log: OpLog) -> Dict[str, Tuple[float, str]]:
        warm = Timing.of(log.times("warm"))
        cold = Timing.of(log.times("cold"))
        self.lines.append(f"warm round trip: {warm.describe_ms()}")
        self.lines.append(f"cold round trip: {cold.describe_ms()}")
        jobs_per_s = self.round_figures(log)[1]
        cold_rates = [op.uops / op.host_s for op in log.ops if op.kind == "cold" and op.host_s]
        figures = {
            "uops_per_s": (statistics.median(cold_rates) if cold_rates else 0.0, "uops/s"),
            "ops_per_s": (jobs_per_s, "1/s"),
            "op_p50_ms": (warm.p50 * 1e3, "ms"),
            "warm_rt_p50_ms": (warm.p50 * 1e3, "ms"),
            "cold_rt_p50_ms": (cold.p50 * 1e3, "ms"),
            "jobs_per_s": (jobs_per_s, "1/s"),
        }
        if supports(warm.count, 90):
            figures["warm_rt_p90_ms"] = (percentile(log.times("warm"), 90) * 1e3, "ms")
        else:
            self.lines.append(
                f"warm_rt_p90_ms not reported: {warm.count} warm samples leave "
                "fewer than 10 beyond p90"
            )
        figures["warm_samples"] = (warm.count, "count")
        figures["cold_samples"] = (cold.count, "count")
        return figures


WORKLOADS = {cls.name: cls for cls in (Fig2Single, McContention, ServiceSweeps)}
