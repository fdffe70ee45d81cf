"""Runahead controller interface.

A *controller* implements one runahead technique on top of the baseline
out-of-order core.  The core (:class:`repro.uarch.core.OoOCore`) calls the
controller at well-defined points:

* :meth:`on_full_window_stall` — the ROB is full and its head is an
  uncompleted long-latency load (the runahead entry condition);
* :meth:`on_complete` — an instruction finished executing (used to detect the
  stalling load's return, i.e. the runahead exit condition);
* :meth:`on_decode` — a micro-op is renamed (PRE's SST learning hook);
* :meth:`runahead_dispatch` — called instead of normal dispatch while the core
  is in runahead mode;
* :meth:`tick` / :meth:`next_wake_cycle` — per-cycle controller work and idle
  skipping support;
* :meth:`treat_poison_as_ready` — whether an instruction may consume an
  invalid (INV) register value, which is how runahead execution drains past
  miss-dependent instructions.

The base class implements the "no runahead" behaviour so the baseline core can
also be expressed as ``OoOCore(trace)`` with no controller at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.hierarchy import AccessResult
    from repro.uarch.core import DynInstr, OoOCore
    from repro.workloads.trace import MicroOp


class RunaheadController:
    """Base class for runahead techniques; does nothing by itself."""

    #: Human-readable variant name used in reports.
    name = "ooo"

    #: Whether the ROB pseudo-retires (drains without architectural effect)
    #: while in runahead mode — true for traditional runahead.
    pseudo_retire_in_runahead = False

    #: Whether normal commit continues in runahead mode.  PRE stops commit
    #: (Section 3.1); it is moot in practice because the ROB head is the
    #: stalling load, which cannot commit until it returns.
    commit_in_runahead = True

    #: Whether the controller needs random access over the *whole* trace (an
    #: oracle of future dynamic instances, e.g. the runahead buffer's replay
    #: index).  Streaming sources are materialised for such controllers; all
    #: others run at O(window) memory on any :class:`TraceSource`.
    requires_trace_oracle = False

    def __init__(self) -> None:
        self.core: Optional["OoOCore"] = None

    # ------------------------------------------------------------- lifecycle

    def attach(self, core: "OoOCore") -> None:
        """Bind the controller to a core; called once by the core constructor."""
        self.core = core

    # ----------------------------------------------------------------- hooks

    def on_full_window_stall(self, head: "DynInstr", cycle: int) -> None:
        """The ROB filled up behind an outstanding long-latency load."""

    def on_complete(self, instr: "DynInstr", cycle: int) -> None:
        """``instr`` finished executing at ``cycle``."""

    def on_decode(self, uop: "MicroOp", runahead: bool) -> None:
        """``uop`` is being renamed (in normal or runahead mode)."""

    def on_runahead_prefetch(self, instr: "DynInstr", result: "AccessResult", cycle: int) -> None:
        """A runahead-mode load accessed the memory hierarchy."""

    def runahead_dispatch(self, cycle: int) -> int:
        """Dispatch work while in runahead mode; return the number of micro-ops handled."""
        return 0

    def tick(self, cycle: int) -> int:
        """Perform per-cycle controller work; return a progress count."""
        return 0

    def next_wake_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which the controller has work to do, if any."""
        return None

    def treat_poison_as_ready(self, instr: "DynInstr") -> bool:
        """Whether ``instr`` may issue with an invalid (poisoned) source value.

        The answer may depend only on ``instr`` and the core's ``mode``: the
        issue queue re-checks waiters on poisoned registers at poisoning time
        and at every mode change, not on every cycle.
        """
        return False
