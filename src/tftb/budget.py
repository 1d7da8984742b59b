"""Wall-clock budget accounting.

``BudgetClock`` runs the timed sections of one training run against a fixed
total budget.  Consumption is read off the run's clock -- ``clock.now()``
minus the run's start -- so the time between sections is charged by
construction and nothing is fed in by hand.  ``section(label, work, ...,
batches=)`` is the one way work is timed, and it owns every budget rule: it
enters ``clock.measure(label)``, records the label's count, total and
longest time, refuses to start work whose estimate no longer fits, and
checks that the warm-up fits.  Batch time is measured over the warm-up pass
and then tracked as an exponentially weighted average, so iteration planning
stays honest when the active subset (and with it the per-batch cost) changes.

Timing sources are injectable, and both clocks' ``measure(label)`` return
the same context manager, a ``__slots__`` class rather than a generator,
which costs about half as much per section: it yields a new ``Span`` and
sets its ``elapsed`` as the block ends, also when the block raises.  Only
the source of that time differs: ``WallClock`` reads the process monotonic
clock, and ``VirtualClock`` takes one scripted duration per ``measure`` and
moves only then, so every budget behaviour can be tested deterministically
without sleeping.  A clock that wraps ``super().measure(label)`` in its own
context manager, as a benchmark's may, yields that same span.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from .errors import BudgetError

# smoothing for the running batch-time estimate after warm-up
TB_EWMA_BETA = 0.9
_TB_EWMA_WEIGHT = 1.0 - TB_EWMA_BETA  # of the latest batch
# warm-up batches whose median projects the warm-up's cost: enough that a
# cold first batch of the process cannot move the projection
WARMUP_PROJECTION_BATCHES = 8


@dataclass
class Span:
    elapsed: float = 0.0
    value: Any = None  # what the work measured by ``BudgetClock.section`` returned


class _Measurement:
    """What both clocks' ``measure(label)`` return.  The clock is the source
    of the time: its ``_begin()`` is read as the block starts, and its
    ``_elapsed(label, begun)`` is the span's time as the block ends."""

    __slots__ = ("span", "_clock", "_label", "_begun")

    def __init__(self, clock, label: str):
        self.span, self._clock, self._label = Span(), clock, label

    def __enter__(self) -> Span:
        self._begun = self._clock._begin()
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.span.elapsed = self._clock._elapsed(self._label, self._begun)


class WallClock:
    """Monotonic process clock."""

    is_wall = True
    _begin = staticmethod(time.monotonic)

    def now(self) -> float:
        return time.monotonic()

    def measure(self, label: str = "work") -> _Measurement:
        return _Measurement(self, label)

    def _elapsed(self, label: str, begun: float) -> float:
        return time.monotonic() - begun


class VirtualClock:
    """Deterministic clock: each measured section costs a scripted duration.

    ``sequences`` maps a section label to an ordered list of durations,
    consumed one per measurement; once a sequence is exhausted (or for labels
    without one) the fixed ``costs`` entry applies, defaulting to 0.  Time
    moves only inside ``measure``, by one scripted duration as its block
    ends, also when the block raises.
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
        bad = [cost for cost in scripted if not 0 <= cost < math.inf]
        if bad:
            raise BudgetError(f"scripted section durations must be finite and >= 0, got {bad[0]}")

    def now(self) -> float:
        return self._t

    def measure(self, label: str = "work") -> _Measurement:
        return _Measurement(self, label)

    def _begin(self) -> None:
        return None  # the time a section takes is scripted, not read

    def _elapsed(self, label: str, begun: None) -> float:
        seq = self._sequences.get(label)
        if seq is not None and self._cursor[label] < len(seq):
            cost = seq[self._cursor[label]]
            self._cursor[label] += 1
        else:
            cost = self._costs.get(label, 0.0)
        self._t += cost
        return cost


@dataclass
class SectionStats:
    count: int = 0
    total: float = 0.0
    longest: float = 0.0


class BudgetClock:
    """Runs the sections of one training run against ``total_budget`` seconds of ``clock``.

    ``total_budget=None`` disables enforcement but keeps the accounting, so
    exposure-capped runs still report a full budget trace.
    ``warmup_batches`` is the number of batches the warm-up will run, from
    which the median of its first ``WARMUP_PROJECTION_BATCHES`` batches (all
    of them, if fewer) projects the warm-up's cost; 0 skips the projection.
    """

    def __init__(self, total_budget: float | None, clock, warmup_batches: int = 0):
        if total_budget is not None and not 0 < total_budget < math.inf:
            raise BudgetError(f"time budget must be finite and > 0, got {total_budget}")
        self.total_budget = total_budget
        self.clock = clock
        self.warmup_batches = warmup_batches
        self.start = clock.now()
        self.sections: dict[str, SectionStats] = defaultdict(SectionStats)
        self.tb: float | None = None
        self.tb_initial: float | None = None
        self.tb_max = 0.0
        self.warmup_elapsed: float | None = None
        self.warmup_count = 0  # batches the warm-up ran
        self._projecting: list[float] = []  # the warm-up batch times that project it
        self.planned_initial: int | None = None

    @property
    def consumed(self) -> float:
        """Clock seconds since the run started: its sections and the time between them."""
        return self.clock.now() - self.start

    def section(self, label: str, work: Callable, *args, batches: int | None = None):
        """Run ``work(*args)`` as the clock section ``label`` and record its time.

        Returns the finished span, whose ``value`` is what ``work`` returned,
        or None without running ``work`` when its estimate no longer fits the
        budget.  During the warm-up (until ``finish_warmup`` sets the batch
        time ``tb``) nothing is refused; instead the warm-up raises once its
        first few batches project it longer than the budget, and any
        warm-up batch raises once the budget is spent.  After it, work
        counted in ``batches`` is estimated at ``tb`` per batch, any other
        section at the longest ``label`` section so far, and the first
        section of a label always runs.  A batch after the warm-up moves
        ``tb``.
        """
        tb, stats = self.tb, self.sections.get(label)
        if tb is not None and self.total_budget is not None:
            if batches is not None:
                estimate = tb * batches
            elif stats is not None and stats.count:
                estimate = stats.longest
            else:
                estimate = None  # the first section of a label runs
            if estimate is not None and self.consumed + estimate > self.total_budget:
                return None
        with self.clock.measure(label) as span:
            span.value = work(*args)
        elapsed = span.elapsed
        if stats is None:
            stats = self.sections[label]
        stats.count += 1
        stats.total += elapsed
        if elapsed > stats.longest:
            stats.longest = elapsed
        if label == "batch":
            if self.tb is None:
                self._check_warmup(elapsed)
            else:
                if elapsed > self.tb_max:
                    self.tb_max = elapsed
                self.tb = TB_EWMA_BETA * self.tb + _TB_EWMA_WEIGHT * elapsed
        return span

    def _check_warmup(self, batch_seconds: float) -> None:
        T = self.total_budget
        if T is None:
            return
        wanted = min(WARMUP_PROJECTION_BATCHES, self.warmup_batches)
        if len(self._projecting) < wanted:
            self._projecting.append(batch_seconds)
            median = statistics.median(self._projecting)
            projected = median * self.warmup_batches
            if len(self._projecting) == wanted and projected > T:
                raise BudgetError(
                    f"budget {T}s smaller than projected warm-up cost {projected:.3f}s"
                    f" ({self.warmup_batches} batches at a median {median:.4f}s)"
                )
        consumed = self.consumed
        if consumed > T:
            done = self.sections["batch"].count
            raise BudgetError(
                f"budget {T}s exhausted during warm-up ({consumed:.3f}s elapsed after {done} batches)"
            )

    def finish_warmup(self) -> None:
        """End the warm-up: set the batch time tb to its shuffle and batch seconds
        per batch, and plan the batches that remain."""
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
        self.warmup_count = batches
        self.planned_initial = self.plan_iterations()

    def plan_iterations(self) -> int | None:
        """Batches that still fit: floor(remaining / tb), and 0 once the next
        batch does not fit; None when unbudgeted."""
        if self.total_budget is None:
            return None
        if self.tb is None or self.tb <= 0:
            raise BudgetError("batch time not measured; run warm-up first")
        consumed = self.consumed
        if consumed + self.tb > self.total_budget:
            return 0
        return int(math.floor((self.total_budget - consumed) / self.tb + 1e-9))

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
            "planned_batches_initial": self.planned_initial,
            "executed_batches": (  # batches run after the warm-up
                self.sections["batch"].count - self.warmup_count if self.tb is not None else 0
            ),
        }
