"""Arithmetic of the end-to-end benchmark: percentiles, operation logs, host info.

Kept free of simulator imports so the harness's own tests exercise it
directly and a broken checkout still fails before any result is printed.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Percentiles considered for a tail figure, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not samples:
        raise ValueError("percentile() of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), pct) - 1]


def _rank(count: int, pct: float) -> int:
    # Rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct / 100.0 * count, 6)))


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``pct`` percentile."""
    return count - _rank(count, pct)


def supports(count: int, pct: float) -> bool:
    """Whether ``count`` samples leave at least :data:`MIN_BEYOND` beyond ``pct``."""
    return count > 0 and samples_beyond(count, pct) >= MIN_BEYOND


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the median leaves fewer than ten samples above it.
    """
    best = None
    for pct in TAIL_LADDER:
        if supports(count, pct):
            best = pct
    return best


@dataclass
class Timing:
    """A latency summary: median, the supported tail, and the sample count."""

    count: int
    p50: float
    tail_pct: Optional[float]
    tail: Optional[float]

    @classmethod
    def of(cls, samples: Sequence[float]) -> "Timing":
        if not samples:
            return cls(0, math.nan, None, None)
        pct = tail_percentile(len(samples))
        return cls(
            count=len(samples),
            p50=statistics.median(samples),
            tail_pct=pct,
            tail=percentile(samples, pct) if pct is not None else None,
        )

    def describe_ms(self) -> str:
        """The summary of host-second samples, in milliseconds."""
        tail = (
            f"p{self.tail_pct:g} {self.tail * 1e3:.4f} ms"
            if self.tail is not None
            else "no tail percentile has 10 samples beyond it"
        )
        return f"p50 {self.p50 * 1e3:.4f} ms, {tail} (n={self.count})"


@dataclass
class OpRecord:
    """One timed operation: a cell, a co-runner mix or a service request."""

    kind: str
    label: str
    host_s: float
    uops: int = 0
    #: Output-check failures; an exception counts as one failure.
    problems: List[str] = field(default_factory=list)
    #: Simulated-statistics digests of the operation's outputs, in order.
    digests: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class OpLog:
    """Every operation a run attempted, with the failures counted against them."""

    def __init__(self) -> None:
        self.ops: List[OpRecord] = []
        #: Check failures that belong to no single operation (end-of-run checks).
        self.run_problems: List[str] = []

    def add(self, record: OpRecord) -> None:
        self.ops.append(record)

    @property
    def attempted(self) -> int:
        return len(self.ops) + len(self.run_problems)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.failed) + len(self.run_problems)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def problems(self) -> List[str]:
        listed = [f"{op.label}: {problem}" for op in self.ops for problem in op.problems]
        return listed + list(self.run_problems)

    def times(self, kind: Optional[str] = None) -> List[float]:
        return [op.host_s for op in self.ops if kind is None or op.kind == kind]

    def digests(self) -> List[str]:
        return [digest for op in self.ops for digest in op.digests]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 where the denominator is 0."""
    return numerator / denominator if denominator else 0.0


def host_fingerprint() -> Dict[str, object]:
    """Identifies the host, so numbers from different machines are never compared."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
    }
