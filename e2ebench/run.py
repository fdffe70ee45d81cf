"""End-to-end benchmark of the repro simulator, experiment engine and service.

Run from the repository root::

    python3 e2ebench/run.py --workload fig2-single --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole rounds of the workload for at least ``--seconds``
host seconds with tracing off and prints every end-to-end metric.
``--trace 1`` runs a fixed number of rounds twice, untraced and then with
every layer wrapped in spans, checks that both passes simulated identical
statistics, and prints every per-layer metric plus the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Host time is wall time of this process; simulated time is cycles of the
modelled core.  Every cell starts from empty caches, as in the repo's
Figure-2 harness.  See ``NOTES.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import time

#: Process start, before any ``repro`` import: set-up time includes imports.
START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
#: The checkout's own sources: the benchmark measures these, never an install.
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from e2e_stats import OpLog, OpRecord, host_fingerprint  # noqa: E402

clock = time.perf_counter

#: End-to-end metrics every workload reports with tracing off:
#: ``(name, unit, better)``.  Workload-specific figures are printed beside them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("uops_per_s", "uops/s", "higher"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Fresh processes that repeat the set-up, for a median ``setup_s``.
SETUP_PROBES = 4

#: Scratch space inside the checkout (service state directories).
WORK_DIR = Path(".e2ebench-work")
#: Per-run detail files: host fingerprint, per-operation digests, spans.
OUT_DIR = Path(".e2ebench-out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("fig2-single", "mc-contention", "service-sweeps")
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (0: registry traces)")
    parser.add_argument("--seconds", type=float, default=30.0, help="minimum timed host seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_op(workload, index: int, tracer=None) -> OpRecord:
    """Run one operation; an exception becomes a failed record, not an abort."""
    frame = None
    if tracer is not None:
        tracer.op_id = f"{workload.name}#{index}"
        tracer.tag = workload.kind_of(index)
        frame = tracer.enter("op")
    start = clock()
    try:
        return workload.op(index)
    except Exception as exc:  # noqa: BLE001 — counted in failed_ratio
        traceback.print_exc(file=sys.stderr)
        return OpRecord(
            kind="error",
            label=f"op {index}",
            host_s=clock() - start,
            problems=[f"{type(exc).__name__}: {exc}"],
        )
    finally:
        if frame is not None:
            tracer.exit(frame)


def run_pass(workload, log: OpLog, *, seconds=None, rounds=None, tracer=None) -> float:
    """Run whole rounds until ``rounds`` are done or ``seconds`` have passed."""
    start = clock()
    done = 0
    while True:
        for offset in range(workload.ops_per_round):
            log.add(run_op(workload, done * workload.ops_per_round + offset, tracer))
        done += 1
        elapsed = clock() - start
        if rounds is not None and done >= rounds:
            return elapsed
        if seconds is not None and elapsed >= seconds:
            return elapsed


def setup_probe(args) -> float:
    """Set-up time of a fresh process (imports, inputs, daemon start)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest_of(digests) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def emit(lines, detail_path: Path, detail, log: OpLog, metrics, units) -> None:
    """Print the report, write the detail file, then the result line last."""
    for line in lines:
        print(line)
    for problem in log.problems():
        print(f"FAILED: {problem}")
    OUT_DIR.mkdir(exist_ok=True)
    detail_path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(f"detail: {detail_path}")
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)


def pin_to_one_cpu() -> None:
    """Keep every thread of the benchmark on one CPU.

    On a small VM, waking a thread on an idle second vCPU costs a variable
    host-scheduling delay: unpinned, the service's warm round trip ranged
    from 19 to 40 ms between back-to-back runs, pinned it stayed within 14-16 ms.
    The highest CPU is chosen because device interrupts usually land on CPU 0.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    from e2e_workloads import WORKLOADS  # imports repro
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: repro imported from {repro.__file__}, not from {SRC}")
    cls = WORKLOADS[args.workload]
    work_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            workload = cls(args.seed, work_dir)
            try:
                workload.setup()
                print(json.dumps({"setup_s": clock() - START}))
            finally:
                workload.close()
            return 0
        if args.trace:
            return traced_run(args, cls, work_dir)
        return timed_run(args, cls, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()


def timed_run(args, cls, work_dir: Path) -> int:
    log = OpLog()
    workload = cls(args.seed, work_dir)
    try:
        workload.setup()
        setup_samples = [clock() - START]
        wall_s = run_pass(workload, log, seconds=args.seconds)
        workload.finish(log)
    finally:
        workload.close()
    setup_samples += [setup_probe(args) for _ in range(SETUP_PROBES)]
    figures = workload.summary(log)
    figures["setup_s"] = (statistics.median(setup_samples), "s")
    figures["peak_rss_mb"] = (peak_rss_mb(), "MB")
    figures["failed_ratio"] = (log.failed_ratio, "ratio")

    host = host_fingerprint()
    lines = [
        f"# e2ebench {args.workload} seed={args.seed} trace=0 "
        f"(host time: wall seconds of this process; simulated statistics start "
        f"from empty caches)",
        f"host: {json.dumps(host, sort_keys=True)}",
        f"timed: {len(log.ops)} operations in {wall_s:.3f} host s; "
        f"setup samples {[round(s, 4) for s in setup_samples]}",
        *workload.lines,
    ]
    for name, (value, unit) in sorted(figures.items()):
        lines.append(f"metric {name} = {value:.6g} {unit}")
    first_round = log.ops[: workload.ops_per_round]
    lines.append(
        f"stats_digest (first round): {digest_of([d for op in first_round for d in op.digests])}"
    )
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": 0,
        "host": host,
        "figures": {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()},
        "operations": [
            {"label": op.label, "host_s": op.host_s, "digests": op.digests, "problems": op.problems}
            for op in log.ops
        ],
    }
    emit(
        lines,
        OUT_DIR / f"{args.workload}-seed{args.seed}-trace0.json",
        detail,
        log,
        {name: figures[name][0] for name, _, _ in END_TO_END},
        {name: unit for name, unit, _ in END_TO_END},
    )
    return 0


def traced_run(args, cls, work_dir: Path) -> int:
    from e2e_trace import PER_LAYER, Tracer, install_layers, layer_metrics

    untraced_log, traced_log = OpLog(), OpLog()
    reference = cls(args.seed, work_dir)
    try:
        reference.setup()
        run_pass(reference, untraced_log, rounds=cls.trace_rounds)
        reference.finish(untraced_log)
    finally:
        reference.close()

    tracer = Tracer()
    patches = install_layers(tracer)
    traced = cls(args.seed, work_dir)
    try:
        with tracer.span("setup"):
            traced.setup()
        run_pass(traced, traced_log, rounds=cls.trace_rounds, tracer=tracer)
    finally:
        try:
            traced.close()
        finally:
            patches.restore()

    log = OpLog()
    log.ops = untraced_log.ops + traced_log.ops
    log.run_problems = list(untraced_log.run_problems)
    if traced_log.digests() != untraced_log.digests():
        log.run_problems.append("traced run's simulated statistics differ from the untraced run's")

    untraced_s = sum(untraced_log.times())
    traced_s = sum(traced_log.times())
    metrics = layer_metrics(tracer)
    metrics.update(traced.sim.layer_metrics())
    metrics["service.retries"] = traced.retries
    metrics["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0

    host = host_fingerprint()
    lines = [
        f"# e2ebench {args.workload} seed={args.seed} trace=1: {cls.trace_rounds} round(s) "
        f"of {traced.ops_per_round} operations, untraced then traced",
        f"host: {json.dumps(host, sort_keys=True)}",
        f"tracing overhead: traced {traced_s:.3f} host s / untraced {untraced_s:.3f} host s "
        f"= {metrics['trace.overhead_ratio']:.3f}",
        "layer spans (host s): name calls total self",
    ]
    for tag in tracer.tags():
        for name, (calls, total, own) in sorted(tracer.totals(tag).items()):
            label = f"[{tag}] {name}" if tag else name
            lines.append(f"  {label:45s} {calls:10d} {total:10.4f} {own:10.4f}")
    for name, unit, _ in PER_LAYER:
        lines.append(f"metric {name} = {metrics[name]:.6g} {unit}")
    lines.append(f"stats_digest (all operations): {digest_of(untraced_log.digests())}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": 1,
        "host": host,
        "metrics": metrics,
        "layers": {
            tag or "all": {name: list(entry) for name, entry in tracer.totals(tag).items()}
            for tag in tracer.tags()
        },
        "counts": tracer.counts(),
        "spans": [
            {"id": i, "parent": p, "name": n, "op": o, "start": s, "end": e}
            for i, p, n, o, s, e in tracer.spans
        ],
        "operations": [
            {"label": op.label, "host_s": op.host_s, "digests": op.digests, "problems": op.problems}
            for op in log.ops
        ],
    }
    emit(
        lines,
        OUT_DIR / f"{args.workload}-seed{args.seed}-trace1.json",
        detail,
        log,
        metrics,
        {name: unit for name, unit, _ in PER_LAYER},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
