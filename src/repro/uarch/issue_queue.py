"""Issue queue (reservation stations).

Instructions wait here after dispatch until all their source physical
registers are ready, then issue oldest-first up to the issue width, subject to
per-cycle load/store port limits.  Capacity is 92 entries in the paper's
baseline.  Runahead-mode instructions share the queue with the stalled
window's instructions, which is why Section 3.4 reports free-entry statistics
at runahead entry.

Readiness is event-driven rather than polled: an entry found not ready parks
on the one source operand that blocks it, and only an event that can make
that operand ready — its ready bit being set, its register being poisoned, or
the core changing mode — moves the entry back into the candidate list that
:meth:`IssueQueue.select_ready` scans.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Callable, Collection, Dict, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uarch.core import DynInstr

_SEQ_KEY = operator.attrgetter("seq")

#: A source operand: (is_fp, physical register).
Operand = Tuple[bool, int]


class IssueQueue:
    """Bounded pool of not-yet-issued instructions with producer→consumer wakeup.

    Every entry is in exactly one of two places:

    * ``_ready`` — the *candidates*, kept sorted by sequence number (an
      out-of-order insert or a wakeup only flags the list; the sort happens
      lazily at the next select).  A candidate may or may not be ready.
    * ``_waiters[op]`` — entries *parked* on operand ``op``, which was not
      ready for them when last checked.

    Whoever makes an operand ready (sets its ready bit, poisons it, or flips
    the mode a poison rule depends on) must call :meth:`wake` for it; with
    that contract a parked entry is never ready, so scanning the candidates
    alone selects exactly what a scan of the whole queue would.
    """

    __slots__ = ("capacity", "_count", "_ready", "_sorted", "_waiters")

    def __init__(self, capacity: int = 92) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._count = 0
        self._ready: List["DynInstr"] = []
        self._sorted = True
        self._waiters: Dict[Operand, List["DynInstr"]] = {}

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator["DynInstr"]:
        entries = list(self._ready)
        for parked in self._waiters.values():
            entries.extend(parked)
        entries.sort(key=_SEQ_KEY)
        return iter(entries)

    @property
    def is_full(self) -> bool:
        """Whether dispatch must stall for lack of issue-queue space."""
        return self._count >= self.capacity

    @property
    def free_entries(self) -> int:
        """Number of unoccupied entries."""
        return self.capacity - self._count

    @property
    def free_fraction(self) -> float:
        """Fraction of the queue that is free (Section 3.4 statistic)."""
        return self.free_entries / self.capacity

    def insert(self, instr: "DynInstr") -> None:
        """Add a dispatched instruction to the queue (as a candidate)."""
        if self._count >= self.capacity:
            raise OverflowError("issue queue overflow")
        ready = self._ready
        if ready and instr.seq < ready[-1].seq:
            self._sorted = False
        ready.append(instr)
        self._count += 1

    def remove(self, instr: "DynInstr") -> None:
        """Remove an instruction :meth:`select_ready` returned, once it issues."""
        self._ready.remove(instr)
        self._count -= 1

    def wake(self, op: Operand) -> None:
        """Operand ``op`` may have become ready: move its waiters to the candidates."""
        parked = self._waiters.pop(op, None)
        if parked is not None:
            self._ready.extend(parked)
            self._sorted = False

    def select_ready(
        self,
        cycle: int,
        width: int,
        max_loads: int,
        max_stores: int,
        int_ready: Sequence[bool],
        fp_ready: Sequence[bool],
        poisoned: Collection[Operand] = frozenset(),
        treat_poison_as_ready: Optional[Callable[["DynInstr"], bool]] = None,
    ) -> List["DynInstr"]:
        """Pick up to ``width`` issuable candidates, oldest first.

        The one operand-readiness rule: a source is ready if its ready bit is
        set, or if it is poisoned and ``treat_poison_as_ready(instr)`` holds.
        A candidate with a source that is not ready parks on it.  A selected
        instruction with any poisoned source gets ``poisoned`` set, so the
        core propagates the INV value.  Load/store port limits are enforced
        here.  Selected instructions stay queued until the caller
        :meth:`remove`s them on actually issuing.
        """
        ready = self._ready
        if not self._sorted:
            ready.sort(key=_SEQ_KEY)
            self._sorted = True
        waiters = self._waiters
        selected: List["DynInstr"] = []
        parked: List["DynInstr"] = []
        loads = 0
        stores = 0
        for instr in ready:
            if instr.earliest_issue_cycle > cycle:
                continue
            if instr.is_load:
                if loads >= max_loads:
                    continue
            elif instr.is_store and stores >= max_stores:
                continue
            blocker = None
            poison_source = False
            for op in instr.src_ops:
                bit = fp_ready[op[1]] if op[0] else int_ready[op[1]]
                if poisoned and op in poisoned:
                    if bit or (treat_poison_as_ready is not None and treat_poison_as_ready(instr)):
                        poison_source = True
                        continue
                elif bit:
                    continue
                blocker = op
                break
            if blocker is not None:
                waiters.setdefault(blocker, []).append(instr)
                parked.append(instr)
                continue
            if poison_source:
                instr.poisoned = True
            selected.append(instr)
            if len(selected) >= width:
                break
            if instr.is_load:
                loads += 1
            elif instr.is_store:
                stores += 1
        for instr in parked:
            ready.remove(instr)
        return selected

    #: Deprecated alias of :meth:`select_ready`.  Its sole user is the traced
    #: benchmark (``e2ebench/e2e_trace.py:300``), which wraps it by name; it
    #: goes in the next benchmark change.
    select_ready_fast = select_ready

    def squash(self, predicate: Callable[["DynInstr"], bool]) -> List["DynInstr"]:
        """Remove every entry matching ``predicate``; return the removed entries.

        Survivors all become candidates again (the next select re-parks the
        ones still waiting), which keeps squash independent of the wakeup
        bookkeeping.
        """
        removed: List["DynInstr"] = []
        survivors: List["DynInstr"] = []
        for instr in self:
            (removed if predicate(instr) else survivors).append(instr)
        if removed:
            self._ready = survivors
            self._sorted = True
            self._waiters = {}
            self._count = len(survivors)
        return removed

    def clear(self) -> List["DynInstr"]:
        """Remove all entries (pipeline flush)."""
        removed = list(self)
        self._ready = []
        self._sorted = True
        self._waiters = {}
        self._count = 0
        return removed
