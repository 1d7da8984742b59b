"""Wall-clock budget accounting.

``BudgetClock`` runs the timed sections of one training run against a fixed
total budget.  Consumption is read off the run's clock -- ``clock.now()``
minus the run's start -- so the time between sections is charged by
construction and nothing is fed in by hand.  ``section(label, work, ...)`` is
the one way work is timed: it enters ``clock.measure(label)``, records the
label's count, total and longest time, and refuses to start work whose
estimate no longer fits.  Batch time is measured over the warm-up pass and
then tracked as an exponentially weighted average, so iteration planning
stays honest when the active subset (and with it the per-batch cost) changes.

Timing sources are injectable: ``WallClock`` wraps the process monotonic
clock, ``VirtualClock`` replays scripted durations and moves only inside
``measure``, so every budget behaviour can be tested deterministically
without sleeping.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from .errors import BudgetError

# smoothing for the running batch-time estimate after warm-up
TB_EWMA_BETA = 0.9


@dataclass
class Span:
    label: str
    elapsed: float = 0.0
    value: Any = None  # what the work measured by ``BudgetClock.section`` returned


class WallClock:
    """Monotonic process clock."""

    is_wall = True

    def now(self) -> float:
        return time.monotonic()

    @contextmanager
    def measure(self, label: str = "work"):
        span = Span(label)
        start = time.monotonic()
        try:
            yield span
        finally:
            span.elapsed = time.monotonic() - start


class VirtualClock:
    """Deterministic clock: each measured section costs a scripted duration.

    ``sequences`` maps a section label to an ordered list of durations,
    consumed one per measurement; once a sequence is exhausted (or for labels
    without one) the fixed ``costs`` entry applies, defaulting to 0.  Time
    moves only inside ``measure``.
    """

    is_wall = False

    def __init__(
        self,
        costs: Mapping[str, float] | None = None,
        sequences: Mapping[str, Iterable[float]] | None = None,
    ):
        self._t = 0.0
        self._costs = dict(costs or {})
        self._sequences = {k: list(v) for k, v in (sequences or {}).items()}
        self._cursor = {k: 0 for k in self._sequences}
        scripted = [*self._costs.values(), *(c for seq in self._sequences.values() for c in seq)]
        if any(cost < 0 for cost in scripted):
            raise BudgetError(f"scripted section durations must be >= 0, got {min(scripted)}")

    def now(self) -> float:
        return self._t

    def _next_cost(self, label: str) -> float:
        seq = self._sequences.get(label)
        if seq is not None and self._cursor[label] < len(seq):
            cost = seq[self._cursor[label]]
            self._cursor[label] += 1
            return cost
        return self._costs.get(label, 0.0)

    @contextmanager
    def measure(self, label: str = "work"):
        span = Span(label)
        try:
            yield span
        finally:
            span.elapsed = self._next_cost(label)
            self._t += span.elapsed


@dataclass
class SectionStats:
    count: int = 0
    total: float = 0.0
    longest: float = 0.0


class BudgetClock:
    """Runs the sections of one training run against ``total_budget`` seconds of ``clock``.

    ``total_budget=None`` disables enforcement but keeps the accounting, so
    exposure-capped runs still report a full budget trace.
    """

    def __init__(self, total_budget: float | None, clock):
        if total_budget is not None and total_budget <= 0:
            raise BudgetError(f"time budget must be positive, got {total_budget}")
        self.total_budget = total_budget
        self.clock = clock
        self.start = clock.now()
        self.sections: dict[str, SectionStats] = defaultdict(SectionStats)
        self.tb: float | None = None
        self.tb_initial: float | None = None
        self.tb_max = 0.0
        self.warmup_elapsed: float | None = None

    @property
    def consumed(self) -> float:
        """Clock seconds since the run started: its sections and the time between them."""
        return self.clock.now() - self.start

    def section(self, label: str, work: Callable, *args, estimate: float | None = None):
        """Run ``work(*args)`` as the clock section ``label`` and record its time.

        Returns the finished span, whose ``value`` is what ``work`` returned,
        or None without running ``work`` when ``estimate`` seconds no longer
        fit the budget; ``estimate=None`` (nothing to estimate from) always
        runs.  A batch after warm-up also moves the batch-time estimate.
        """
        if estimate is not None and not self.fits(estimate):
            return None
        with self.clock.measure(label) as span:
            span.value = work(*args)
        stats = self.sections[label]
        stats.count += 1
        stats.total += span.elapsed
        stats.longest = max(stats.longest, span.elapsed)
        if label == "batch" and self.tb is not None:
            self.tb_max = max(self.tb_max, span.elapsed)
            self.tb = TB_EWMA_BETA * self.tb + (1.0 - TB_EWMA_BETA) * span.elapsed
        return span

    def longest(self, label: str) -> float | None:
        """The longest ``label`` section so far; None before the first."""
        stats = self.sections.get(label)
        return None if stats is None else stats.longest

    def finish_warmup(self) -> None:
        """Set the batch time tb to the warm-up's shuffle and batch seconds per batch."""
        batches = self.sections["batch"].count
        if batches <= 0:
            raise BudgetError(f"warm-up processed {batches} batches; need > 0")
        elapsed = self.sections["shuffle"].total + self.sections["batch"].total
        if elapsed == 0 and self.total_budget is not None:
            raise BudgetError("warm-up measured zero elapsed time; cannot plan a budget")
        self.tb = elapsed / batches
        self.tb_initial = self.tb
        self.tb_max = max(self.tb_max, self.tb)
        self.warmup_elapsed = elapsed

    def plan_iterations(self) -> int | None:
        """Batches that still fit: floor(remaining / tb); None when unbudgeted."""
        if self.total_budget is None:
            return None
        if self.tb is None or self.tb <= 0:
            raise BudgetError("batch time not measured; run warm-up first")
        remaining = self.total_budget - self.consumed
        if remaining <= 0:
            return 0
        return max(0, int(math.floor(remaining / self.tb + 1e-9)))

    def should_stop(self) -> bool:
        """True iff starting one more batch would overrun the budget."""
        return not self.fits(self.tb or 0.0)

    def fits(self, estimated_seconds: float) -> bool:
        if self.total_budget is None:
            return True
        return self.consumed + estimated_seconds <= self.total_budget

    def trace(self) -> dict:
        return {
            "budget_seconds": self.total_budget,
            "warmup_elapsed": self.warmup_elapsed,
            "tb_initial": self.tb_initial,
            "tb_final": self.tb,
            "tb_max": self.tb_max,
            # the warm-up is one measurement window and counts as one section
            "max_section_seconds": max(
                [s.longest for s in self.sections.values()] + [self.warmup_elapsed or 0.0]
            ),
            "consumed_total": self.consumed,
        }
