"""Loss-based sample importance: score history, ranking, subset selection.

Each sample's importance is derived from its recent training losses: the
effective score is ``mean + lambda_var * std`` over a sliding window, so
samples the model still struggles with rank high, and samples whose loss
swings between passes get an extra push to stay in the pool.  Ranking is
descending by score with ascending-id tie-breaks, and the active subset keeps
the top ``(1 - alpha)`` fraction, either globally or per class.

All per-sample state is held in arrays in ascending-id order: the ledger's
``ids``, its loss windows, the scores ``effective_scores`` returns, and the
scores ``select_subset`` takes.  The ledger is written by row: a ledger
built from a dataset's ids has the dataset's rows, so the trainer records a
batch of losses under the same row indices it trained on.

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
from .errors import ConfigError, LedgerError, SelectionError


def round_half_up(x: float) -> int:
    # tiny nudge so values like 0.7 * 50000 = 34999.999999999996 land right
    return int(math.floor(x + 0.5 + 1e-9))


def subset_size(n: int, alpha: float) -> int:
    """|X_s| for a dataset of n samples at sampling ratio alpha."""
    return round_half_up((1.0 - alpha) * n)


class ImportanceLedger:
    """Per-sample loss history over a sliding window of the last W passes.

    Row ``r`` of every array belongs to ``ids[r]``, and ids ascend, so a
    ledger built from a dataset's ids has the dataset's rows.  Each row of
    the ``(N, W)`` loss array holds that row's last W losses oldest first,
    right-aligned behind zero padding; ``_counts[r]`` counts the losses ever
    recorded for it, so the last ``min(_counts[r], W)`` entries are valid.
    ``last_observed_epoch`` is -1 for rows never observed.
    """

    def __init__(self, sample_ids, window: int):
        if window < 1:
            raise ConfigError(f"score window must be >= 1, got {window}")
        self.window = window
        self.ids = np.unique(np.asarray(sample_ids, dtype=np.int64))
        if self.ids.size == 0:
            raise LedgerError("ledger needs at least one sample id")
        self._losses = np.zeros((self.ids.size, window))
        self._counts = np.zeros(self.ids.size, dtype=np.int64)
        self.last_observed_epoch = np.full(self.ids.size, -1, dtype=np.int64)

    def __len__(self) -> int:
        return self.ids.size

    def history(self, row: int) -> tuple[float, ...]:
        """The losses recorded for row ``row`` of ``ids``, oldest first."""
        valid = min(int(self._counts[row]), self.window)
        return tuple(self._losses[row, self.window - valid :].tolist())

    def record_losses(self, rows, losses, epoch: int) -> None:
        """Append ``losses[k]`` to the window of row ``rows[k]`` of ``ids``, in call order.

        The losses are taken as given: the model's loss functions have
        already rejected non-finite ones.  Rows outside ``ids`` are rejected
        before anything is written.
        """
        rows = np.asarray(rows, dtype=np.intp)
        losses = np.asarray(losses, dtype=np.float64)
        if rows.ndim != 1 or losses.shape != rows.shape:
            raise LedgerError(
                f"need one loss per row, got shapes {losses.shape} and {rows.shape}"
            )
        self._append(rows, losses, epoch)

    def _append(self, rows: np.ndarray, losses: np.ndarray, epoch: int) -> None:
        ordered = np.sort(rows)
        if ordered.size and (ordered[0] < 0 or ordered[-1] >= self.ids.size):
            raise LedgerError(
                f"rows must index the ledger's {self.ids.size} ids, "
                f"got rows {ordered[0]} to {ordered[-1]}"
            )
        if np.count_nonzero(ordered[1:] == ordered[:-1]):
            # a row repeated in the call appends once per occurrence, in call
            # order: first occurrences now, the rest after them
            _, first = np.unique(rows, return_index=True)
            later = np.ones(rows.size, dtype=bool)
            later[first] = False
            self._append(rows[first], losses[first], epoch)
            self._append(rows[later], losses[later], epoch)
            return
        self._losses[rows, :-1] = self._losses[rows, 1:]
        self._losses[rows, -1] = losses
        self._counts[rows] += 1
        self.last_observed_epoch[rows] = epoch

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and population std of each window's valid losses; NaN where empty.

        The windows are summed zero padding first, then oldest loss first, so
        for W < 8, where numpy sums a row in order, each row's sums equal
        those of its valid losses alone: the results are bit-identical to
        ``np.mean`` and ``np.std`` of the history (but for the sign of a
        partial window of -0.0 losses alone, whose padded sum is +0.0).
        """
        counts = np.minimum(self._counts, self.window)
        valid = np.arange(self.window) >= (self.window - counts)[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = self._losses.sum(axis=1) / counts
            dev = np.where(valid, self._losses - mean[:, None], 0.0)
            std = np.sqrt((dev * dev).sum(axis=1) / counts)
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
        mean, std = self.moments()
        return mean + lambda_var * std


def _ranking(ids: np.ndarray, scores: np.ndarray, *outer_keys) -> np.ndarray:
    """Positions sorted by the outer keys, then descending score, then ascending id."""
    nan = np.isnan(scores)
    if nan.any():
        raise LedgerError(f"NaN score for sample id {ids[nan.argmax()]}")
    return np.lexsort((-scores,) + outer_keys)  # stable: ties keep the ascending-id row order


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
    if diff == 0:
        return quotas
    # push the remainder onto the largest classes first, preferring classes
    # whose quota was rounded the opposite way so every class stays within
    # one sample of exact proportionality
    by_size = sorted(class_sizes, key=lambda c: (-class_sizes[c], c))
    if diff > 0:
        preferred = [c for c in by_size if quotas[c] <= exact[c] and quotas[c] < class_sizes[c]]
        fallback = [c for c in by_size if c not in preferred and quotas[c] < class_sizes[c]]
        for c in (preferred + fallback)[:diff]:
            quotas[c] += 1
        diff = total_target - sum(quotas.values())
    if diff < 0:
        preferred = [c for c in by_size if quotas[c] >= exact[c] and quotas[c] > 1]
        fallback = [c for c in by_size if c not in preferred and quotas[c] > 1]
        for c in (preferred + fallback)[: -diff]:
            quotas[c] -= 1
        diff = total_target - sum(quotas.values())
    if diff != 0:
        raise SelectionError(
            f"cannot hit subset size {total_target} with class sizes {class_sizes} at alpha={alpha}"
        )
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
    ids, tags = dataset.ids, dataset.class_tags
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != ids.shape:
        raise LedgerError(
            f"{scores.size} scores for {ids.size} sample ids: "
            "no score for some ids, or scores for ids not in the dataset"
        )

    total_target = subset_size(ids.size, alpha)
    groups = tags if stratified else np.zeros_like(tags)
    classes, sizes = np.unique(groups, return_counts=True)
    if stratified:
        class_sizes = dict(zip(classes.tolist(), sizes.tolist()))
        quotas = _stratified_quotas(class_sizes, alpha, total_target)
        quota = np.array([quotas[c] for c in classes.tolist()])
    else:
        quota = np.array([total_target])
    # one sort groups the samples by class, best first within each class
    order = _ranking(ids, scores, groups)
    place_in_class = np.arange(ids.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    selected = np.zeros(ids.size, dtype=bool)
    selected[order] = place_in_class < np.repeat(quota, sizes)

    counted_classes, counts = np.unique(tags[selected], return_counts=True)
    return SubsetPlan(
        ids=ids,
        selected=selected,
        per_class_counts=dict(zip(counted_classes.tolist(), counts.tolist())),
    )


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
        if self.window < 2:
            raise ConfigError(f"alpha schedule window must be >= 2, got {self.window}")
        if self.eps_slow >= self.eps_fast:
            raise ConfigError("alpha schedule needs eps_slow < eps_fast")
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
            (mean + lambda_var * std).tolist(),
            selected.tolist(),
        )
    )
