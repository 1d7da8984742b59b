"""Loss-based sample importance: score history, ranking, subset selection.

Each sample's importance is derived from its recent training losses: the
effective score is ``mean + lambda_var * std`` over a sliding window, so
samples the model still struggles with rank high, and samples whose loss
swings between passes get an extra push to stay in the pool.  Ranking is
descending by score with ascending-id tie-breaks, and the active subset keeps
the top ``(1 - alpha)`` fraction, either globally or per class.  Nothing is
sorted: each class's quota-th best score is found by partition, and the
subset is every score above it plus the ties at it in ascending-id order.
Each class partitions only its own rows, grouped once by the dataset, so a
ranking is O(N) in all.

All per-sample state is held in arrays in ascending-id order: the ledger's
``ids``, its loss windows, the scores ``effective_scores`` returns, and the
scores ``select_subset`` takes.  The ledger is written by row: a ledger
built from a dataset's ids has the dataset's rows, so the trainer records an
epoch's losses under the same row indices it trained on, a call per pass.

Samples outside the active subset receive no new losses; their history (and
hence their score) goes stale until the full universe is merged and re-ranked,
at which point a stale-but-high score wins back a slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from .data.dataset import Dataset
from .errors import ConfigError, LedgerError, SelectionError, check_count


def round_half_up(x: float) -> int:
    # tiny nudge so values like 0.7 * 50000 = 34999.999999999996 land right
    return int(math.floor(x + 0.5 + 1e-9))


def subset_size(n: int, alpha: float) -> int:
    """|X_s| for a dataset of n samples at sampling ratio alpha."""
    return round_half_up((1.0 - alpha) * n)


class ImportanceLedger:
    """Per-sample loss history over a sliding window of the last W passes.

    Row ``r`` of every per-sample array belongs to ``ids[r]``, and ids must
    ascend strictly, so a ledger built from a dataset's ids has its rows.
    The losses are stored slot-major, ``(W, N)``: column ``r`` holds row
    ``r``'s last W losses oldest first, right-aligned behind zero padding, so
    slot ``W - 1`` holds every row's newest loss and each slot is one
    contiguous vector.  ``_counts[r]`` counts the losses ever recorded for
    row ``r``, so its last ``min(_counts[r], W)`` slots are valid.
    ``last_observed_epoch`` is -1 for rows never observed.
    """

    def __init__(self, sample_ids, window: int):
        self.window = window = check_count("score window", window, 1)
        ids = np.asarray(sample_ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0 or (ids[1:] <= ids[:-1]).any():
            raise LedgerError(f"ledger ids must be a non-empty vector that ascends strictly: {ids}")
        self.ids = ids
        self._losses = np.zeros((window, ids.size))
        self._counts = np.zeros(ids.size, dtype=np.int64)
        self.last_observed_epoch = np.full(ids.size, -1, dtype=np.int64)

    def __len__(self) -> int:
        return self.ids.size

    def history(self, row: int) -> tuple[float, ...]:
        """The losses recorded for row ``row`` of ``ids``, oldest first."""
        valid = min(int(self._counts[row]), self.window)
        return tuple(self._losses[self.window - valid :, row].tolist())

    def record_losses(self, rows, losses, epoch: int) -> None:
        """Append ``losses[k]`` to the window of row ``rows[k]`` of ``ids``.

        Each row occurs at most once per call: a history that takes several
        losses in one epoch takes them in as many calls, oldest first.  The
        losses are taken as given: the model's loss functions have already
        rejected non-finite ones.  Rows outside ``ids`` and repeated rows are
        rejected before anything is written.  Nothing is sorted: the touched
        rows shift one slot and the newest losses are scattered behind them.
        """
        rows = np.asarray(rows, dtype=np.intp)
        losses = np.asarray(losses, dtype=np.float64)
        if rows.ndim != 1 or losses.shape != rows.shape:
            raise LedgerError(
                f"need one loss per row, got shapes {losses.shape} and {rows.shape}"
            )
        if rows.size == 0:
            return
        n = self.ids.size
        lo, hi = rows.min(), rows.max()
        if lo < 0 or hi >= n:
            raise LedgerError(f"rows must index the ledger's {n} ids, got rows {lo} to {hi}")
        occurrences = np.bincount(rows, minlength=n)
        most = occurrences.argmax()
        if occurrences[most] > 1:
            raise LedgerError(f"row {most} occurs {occurrences[most]} times in one call")
        touched = slice(None) if rows.size == n else rows
        slots = self._losses
        for older, newer in zip(slots[:-1], slots[1:]):
            older[touched] = newer[touched]
        slots[-1, rows] = losses
        self._counts += occurrences
        self.last_observed_epoch[rows] = epoch

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and population std of each window's valid losses; NaN where empty.

        Both sums run slot by slot in storage order, zero padding first,
        then oldest loss first, so each row's sums equal the in-order sums
        of its valid losses alone: the results are bit-identical to
        ``np.mean`` and ``np.std`` of the history wherever numpy sums in
        order, which it does for W < 8 (but for the sign of a partial
        window of -0.0 losses alone, whose padded sum is +0.0).  A row whose
        sums overflow is summed again from its losses scaled by the largest.
        """
        counts = np.minimum(self._counts, self.window)
        first_valid = self.window - counts  # slot of each row's oldest valid loss
        total, squares, dev = (np.zeros(self.ids.size) for _ in range(3))
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for slot in self._losses:
                total += slot
            mean = total / counts
            for j, slot in enumerate(self._losses):
                np.subtract(slot, mean, out=dev)
                np.multiply(dev, dev, out=dev)
                # padding adds zero; scattered to the padded rows, as a copy
                # masked by a ragged mask costs twice as much
                dev[np.flatnonzero(first_valid > j)] = 0.0
                squares += dev
            std = np.sqrt(squares / counts)
        # an overflowed sum, even just the mean's, leaves the squares infinite
        for row in np.flatnonzero(~np.isfinite(squares)):
            losses = self._losses[first_valid[row] :, row]
            scale = np.abs(losses).max()
            scaled = losses / scale
            mean[row], std[row] = scaled.mean() * scale, scaled.std() * scale
        return mean, std

    def effective_scores(self, lambda_var: float) -> np.ndarray:
        """mean + lambda_var * population std over each window, aligned with ``ids``.

        Every id must have at least one observation; selection before the
        warm-up pass has finished is a caller bug.
        """
        empty = self._counts == 0
        if empty.any():
            raise LedgerError(
                f"sample {self.ids[empty.argmax()]} has no observed losses; "
                "warm-up must precede selection"
            )
        return _scores(*self.moments(), lambda_var)


def _scores(mean: np.ndarray, std: np.ndarray, lambda_var: float) -> np.ndarray:
    with np.errstate(over="ignore"):  # inf only where the score exceeds the largest float
        return mean + lambda_var * std


def _top_rows(scores: np.ndarray, quota: int) -> np.ndarray:
    """Positions of the ``quota`` best ``scores``: descending score, ties
    taken in ascending position, without sorting.

    The ``quota``-th best score is found by partition; every score above it
    is in, and the ties at it fill the remaining places in position order.
    """
    if quota == 0:
        return np.arange(0)
    cut = np.partition(scores, scores.size - quota)[scores.size - quota]
    above = np.flatnonzero(scores > cut)
    ties = np.flatnonzero(scores == cut)[: quota - above.size]
    return np.concatenate((above, ties))


@dataclass(frozen=True, eq=False)
class SubsetPlan:
    """The current selected/excluded partition of a dataset's samples.

    ``selected[r]`` tells whether the sample ``ids[r]`` is in the active
    subset; ``ids`` are the dataset's, in its row order, so the mask is a
    partition of the dataset's rows by construction.
    """

    ids: np.ndarray
    selected: np.ndarray
    per_class_counts: dict[int, int]

    def __post_init__(self):
        if self.selected.dtype != np.bool_ or self.selected.shape != self.ids.shape:
            raise SelectionError(
                f"selection mask must be boolean of shape {self.ids.shape}, "
                f"got {self.selected.dtype} of shape {self.selected.shape}"
            )

    @cached_property
    def selected_rows(self) -> np.ndarray:
        return np.flatnonzero(self.selected)

    @cached_property
    def excluded_rows(self) -> np.ndarray:
        return np.flatnonzero(~self.selected)

    @cached_property
    def selected_ids(self) -> tuple[int, ...]:
        return tuple(self.ids[self.selected_rows].tolist())

    def __eq__(self, other):
        if not isinstance(other, SubsetPlan):
            return NotImplemented
        return (
            np.array_equal(self.ids, other.ids)
            and np.array_equal(self.selected, other.selected)
            and self.per_class_counts == other.per_class_counts
        )


def _stratified_quotas(class_sizes: dict[int, int], alpha: float, total_target: int) -> dict[int, int]:
    exact = {c: (1.0 - alpha) * n for c, n in class_sizes.items()}
    quotas = {c: round_half_up(v) for c, v in exact.items()}
    for c, q in quotas.items():
        if q == 0:
            raise SelectionError(
                f"alpha={alpha} leaves class {c} (size {class_sizes[c]}) with no retainable samples"
            )
    diff = total_target - sum(quotas.values())
    step = 1 if diff > 0 else -1
    # move the remainder one sample per class, largest classes first, among
    # the classes that can move (below their size to gain a sample, above one
    # to lose one); classes whose quota was rounded the other way go first,
    # so they move towards their exact share (sorted() is stable, so each
    # group keeps its size order)
    by_size = sorted(class_sizes, key=lambda c: (-class_sizes[c], c))
    movable = [c for c in by_size if (quotas[c] < class_sizes[c] if diff > 0 else quotas[c] > 1)]
    if len(movable) < abs(diff):
        raise SelectionError(
            f"cannot hit subset size {total_target} with class sizes {class_sizes} at alpha={alpha}"
        )
    for c in sorted(movable, key=lambda c: step * (exact[c] - quotas[c]) < 0)[: abs(diff)]:
        quotas[c] += step
    return quotas


def select_subset(scores, dataset: Dataset, alpha: float, stratified: bool) -> SubsetPlan:
    """Keep the top (1 - alpha) fraction by score, globally or per class.

    ``scores`` holds one score per row of ``dataset``, that is in ascending-id
    order, as ``ImportanceLedger.effective_scores`` returns them.
    """
    if not 0.0 <= alpha < 1.0:
        raise ConfigError(f"alpha must be in [0, 1), got {alpha}")
    if len(dataset) == 0:
        raise SelectionError("cannot select a subset of an empty dataset")
    ids, class_rows = dataset.ids, dataset.class_rows
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != ids.shape:
        raise LedgerError(
            f"{scores.size} scores for {ids.size} sample ids: "
            "no score for some ids, or scores for ids not in the dataset"
        )

    total_target = subset_size(ids.size, alpha)
    if stratified:
        sizes = {c: rows.size for c, rows in class_rows.items()}
        quotas = _stratified_quotas(sizes, alpha, total_target)
    nan = np.isnan(scores)
    if nan.any():
        raise LedgerError(f"NaN score for sample id {ids[nan.argmax()]}")
    selected = np.zeros(ids.size, dtype=bool)
    if stratified:
        for c, quota in quotas.items():
            rows = class_rows[c]
            selected[rows[_top_rows(scores[rows], quota)]] = True
    else:
        selected[_top_rows(scores, total_target)] = True
    counts = (int(np.count_nonzero(selected[rows])) for rows in class_rows.values())
    per_class_counts = {c: k for c, k in zip(class_rows, counts) if k}
    return SubsetPlan(ids=ids, selected=selected, per_class_counts=per_class_counts)


def merge_and_reselect(
    ledger: ImportanceLedger,
    previous: SubsetPlan,
    dataset: Dataset,
    alpha: float,
    lambda_var: float,
    stratified: bool,
) -> SubsetPlan:
    """Re-rank the full id universe (stale scores included) and re-partition.

    Scores are matched to the dataset by row, so the ledger and the previous
    plan must both be over the dataset's ids.
    """
    if not np.array_equal(previous.ids, dataset.ids):
        raise SelectionError("previous subset plan does not partition this dataset's ids")
    if not np.array_equal(ledger.ids, dataset.ids):
        raise SelectionError("ledger rows are not this dataset's ids")
    scores = ledger.effective_scores(lambda_var)
    return select_subset(scores, dataset, alpha, stratified)


@dataclass(frozen=True)
class AlphaSchedule:
    """Convergence-driven alpha adjustment; off by default.

    Over a window of recent losses, relative improvement below ``eps_slow``
    shrinks alpha (admit more diverse samples); improvement above
    ``eps_fast`` grows it (focus on high-impact samples).
    """

    enabled: bool = False
    window: int = 3
    eps_slow: float = 0.01
    eps_fast: float = 0.10
    delta_alpha: float = 0.05
    alpha_min: float = 0.0
    alpha_max: float = 0.9

    def __post_init__(self):
        object.__setattr__(self, "window", check_count("alpha schedule window", self.window, 2))
        if not -math.inf < self.eps_slow < self.eps_fast < math.inf:
            raise ConfigError("alpha schedule needs finite eps_slow < eps_fast")
        if not 0 < self.delta_alpha < math.inf:
            raise ConfigError(f"delta_alpha must be finite and > 0, got {self.delta_alpha}")
        if not 0.0 <= self.alpha_min <= self.alpha_max < 1.0:
            raise ConfigError("alpha schedule needs 0 <= alpha_min <= alpha_max < 1")


def adapt_alpha(current_alpha: float, loss_history: Sequence[float], cfg: AlphaSchedule) -> float:
    """New alpha from recent loss improvement, clamped to the schedule bounds."""
    if len(loss_history) < cfg.window:
        raise ConfigError(
            f"need at least {cfg.window} loss entries to adapt alpha, got {len(loss_history)}"
        )
    first = loss_history[-cfg.window]
    last = loss_history[-1]
    improvement = (first - last) / max(abs(first), 1e-12)
    if improvement < cfg.eps_slow:
        new_alpha = current_alpha - cfg.delta_alpha
    elif improvement > cfg.eps_fast:
        new_alpha = current_alpha + cfg.delta_alpha
    else:
        new_alpha = current_alpha
    return min(max(new_alpha, cfg.alpha_min), cfg.alpha_max)


def ledger_rows(
    ledger: ImportanceLedger, plan: SubsetPlan, lambda_var: float, epoch: int
) -> list[tuple[int, int, float, float, float, int]]:
    """Rows (epoch, sample_id, mean, std, effective_score, selected) for a CSV dump."""
    if not np.array_equal(plan.ids, ledger.ids):
        raise LedgerError("subset plan and ledger cover different sample ids")
    mean, std = ledger.moments()
    selected = plan.selected.astype(np.int64)
    return list(
        zip(
            repeat(epoch),
            ledger.ids.tolist(),
            mean.tolist(),
            std.tolist(),
            _scores(mean, std, lambda_var).tolist(),
            selected.tolist(),
        )
    )
