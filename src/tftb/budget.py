"""Wall-clock budget accounting.

``BudgetClock`` tracks one number that only ever grows -- consumed seconds --
against a fixed total budget.  Batch time is measured over the warm-up pass
and then tracked as an exponentially weighted average, so iteration planning
stays honest when the active subset (and with it the per-batch cost) changes.
Everything the engine spends time on -- training batches, validation, ranking,
score refreshes, ledger dumps -- is charged through the same clock.

Timing sources are injectable: ``WallClock`` wraps the process monotonic
clock, ``VirtualClock`` replays scripted durations so every budget behaviour
can be tested deterministically without sleeping.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import BudgetError

# smoothing for the running batch-time estimate after warm-up
TB_EWMA_BETA = 0.9


@dataclass
class Span:
    label: str
    elapsed: float = 0.0


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
    without one) the fixed ``costs`` entry applies, defaulting to 0.
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

    def now(self) -> float:
        return self._t

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise BudgetError(f"cannot advance a clock by {seconds} seconds")
        self._t += seconds

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


class BudgetClock:
    """Accounting against a fixed time budget of ``total_budget`` seconds.

    ``total_budget=None`` disables enforcement but keeps the accounting, so
    exposure-capped runs still report a full budget trace.
    """

    def __init__(self, total_budget: float | None):
        if total_budget is not None and total_budget <= 0:
            raise BudgetError(f"time budget must be positive, got {total_budget}")
        self.total_budget = total_budget
        self.consumed = 0.0
        self.tb: float | None = None
        self.tb_initial: float | None = None
        self.tb_max = 0.0
        self.max_section = 0.0
        self.warmup_elapsed: float | None = None

    def charge(self, seconds: float) -> None:
        """Add overhead time (ranking, validation, refreshes, ledger dumps) to consumed."""
        if seconds < 0:
            raise BudgetError(f"cannot charge {seconds} seconds")
        self.consumed += seconds
        self.max_section = max(self.max_section, seconds)

    def measure_warmup(self, batches_processed: int, elapsed: float) -> None:
        """Set the initial batch time tb = elapsed / batches and charge the time."""
        if batches_processed <= 0:
            raise BudgetError(f"warm-up processed {batches_processed} batches; need > 0")
        if elapsed < 0:
            raise BudgetError(f"warm-up elapsed {elapsed} is negative")
        if elapsed == 0 and self.total_budget is not None:
            raise BudgetError("warm-up measured zero elapsed time; cannot plan a budget")
        self.tb = elapsed / batches_processed
        self.tb_initial = self.tb
        self.tb_max = max(self.tb_max, self.tb)
        self.warmup_elapsed = elapsed
        self.charge(elapsed)

    def observe_batch(self, seconds: float) -> None:
        """Charge one training batch and fold its duration into the tb estimate."""
        self.charge(seconds)
        self.tb_max = max(self.tb_max, seconds)
        if self.tb is None:
            self.tb = seconds
        else:
            self.tb = TB_EWMA_BETA * self.tb + (1.0 - TB_EWMA_BETA) * seconds

    @property
    def remaining(self) -> float | None:
        if self.total_budget is None:
            return None
        return self.total_budget - self.consumed

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
        if self.total_budget is None:
            return False
        if self.tb is None:
            return self.consumed >= self.total_budget
        return self.consumed + self.tb > self.total_budget

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
            "max_section_seconds": self.max_section,
            "consumed_total": self.consumed,
        }
