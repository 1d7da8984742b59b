"""Training engine: budgeted selective training and its random-sampling baseline.

The selective mode follows one fixed shape: warm up for ``warmup_epochs``
passes over the full dataset while recording every sample's loss and the
batch time, rank samples by effective score, keep the top ``(1 - alpha)``
fraction, then loop epoch-equivalents on the active subset -- re-scoring what
it trains on, merging the full id universe, and re-selecting every
``rerank_period`` epochs -- until the time budget, the planned iteration
count, the epoch cap, or early stopping ends the run.

An epoch-equivalent always exposes the model to as many samples as one full
pass over the complete dataset, cycling and reshuffling the active subset as
needed, so baseline and selective runs are comparable per epoch index.
Batch order within the subset is shuffled: selection is by importance,
ordering stays random.

Both modes share one epoch loop, whose phase is ``warmup``, ``selective``
or ``full``.  The baseline trains on the full dataset with fresh random
shuffles each epoch and identical optimizer, losses, budget enforcement, and
early stopping.  The loop only sequences the work: every timed section --
shuffle, batch, validation, rank, refresh, ledger dump -- runs
through ``BudgetClock.section`` under its label and, where the work is
counted in batches, its size in batches.  The clock charges it, and the time
around it, to the budget, applies the warm-up checks, and skips the section
once its estimate no longer fits.

A run checks its data once and builds two ``BatchStep``s for its
architecture and loss kind: the training step, of ``batch_size`` rows, and
the wide step, of as many whole batches as ``WIDE_STEP_BYTES`` holds and the
data need (the training step itself when that is one batch).  The first
batch of each chunk of the epoch's row order gathers the chunk into the
wide step, and each batch runs ``loss_and_grad`` on the training step over
its slice of the chunk; validation and refresh run ``per_sample_losses`` on
the wide step, a chunk per call.  ``adam_step`` updates the parameters with
the temporaries its state holds.  A batch keeps its losses in an
epoch buffer laid out like the epoch's row order, and the ledger is written
once per pass of the pool and once per refresh.  The epoch's writes run in
the section that closes it, ``validation``, before the validation pass, so a
run that cannot afford them ends before anything reads the ledger; an epoch
cut short by a refused batch ends the run, and is not written.

A run holds one floating-point error state, ``float_errors_raised`` from
``tftb.nn`` (overflow and invalid operations raise), entered once around
the epoch loop; ``loss_and_grad`` and ``adam_step`` then switch none per
batch.  The once-per-epoch and once-per-chunk sites that rely on an
overflow giving ``inf`` keep their own ``ignore`` blocks: the forward-only
losses of validation and refresh, the loss means' in-order sums, and the
ledger's moments and scores.  A ``NonFiniteError`` ends the run as
``non_finite_abort``; its manifest is assembled outside the run's state,
which the caller gets back as it was.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from .budget import BudgetClock, WallClock
from .data.dataset import Dataset
from .errors import ConfigError, NonFiniteError, SelectionError, TrainingAbort, check_count
from .importance import (
    AlphaSchedule,
    ImportanceLedger,
    SubsetPlan,
    adapt_alpha,
    ledger_rows,
    merge_and_reselect,
    select_subset,
)
from .manifest import EpochReport, RunManifest
from .nn.adam import init_adam_state, adam_step
from .nn.models import (
    LOSS_KINDS,
    BatchStep,
    ModelParams,
    check_inputs,
    float_errors_raised,
    loss_and_grad,
    mean_of_losses,
    per_sample_losses,
)

MODES = ("baseline", "tftb")

# The bytes of buffers a run's wide step may hold.  The wide step gathers the
# training batches a chunk at a time and runs every forward-only pass, so an
# MLP run pays one gather per chunk and one forward call per chunk of
# validation or refresh, not one per batch.  A conv sample needs more than
# this budget holds at a batch of 32, so a conv run's wide step is its step.
WIDE_STEP_BYTES = 512 * 1024

# the least value of each count of a TrainConfig; max_epochs only when set
_COUNTS = {
    "warmup_epochs": 1, "batch_size": 1, "max_epochs": 1, "rerank_period": 1,
    "score_window": 1, "early_stop_patience": 1, "refresh_excluded_period": 0, "seed": 0,
}


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, checked when built; vary one with ``dataclasses.replace``."""

    mode: str = "baseline"
    alpha: float = 0.3
    warmup_epochs: int = 1
    batch_size: int = 32
    lr: float = 1e-2
    loss_kind: str = "cross_entropy"
    budget_seconds: float | None = None
    max_epochs: int | None = 20
    rerank_period: int = 1
    lambda_var: float = 1.0
    score_window: int = 5
    stratified: bool = True
    early_stop_patience: int = 5
    seed: int = 0
    adaptive_alpha: AlphaSchedule = field(default_factory=AlphaSchedule)
    refresh_excluded_period: int = 0  # 0 disables forward-only score refreshes

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"alpha must be in [0, 1), got {self.alpha}")
        for name, least in _COUNTS.items():
            value = getattr(self, name)
            if value is not None or name != "max_epochs":
                object.__setattr__(self, name, check_count(name, value, least))
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.budget_seconds is not None and not 0 < self.budget_seconds < math.inf:
            raise ConfigError(f"budget_seconds must be finite and > 0, got {self.budget_seconds}")
        if self.max_epochs is not None and self.max_epochs < self.warmup_epochs:
            raise ConfigError(
                f"max_epochs ({self.max_epochs}) smaller than warmup_epochs ({self.warmup_epochs})"
            )
        if self.budget_seconds is None and self.max_epochs is None:
            raise ConfigError("either budget_seconds or max_epochs must be set")
        if not 0 <= self.lambda_var < math.inf:
            raise ConfigError(f"lambda_var must be finite and >= 0, got {self.lambda_var}")

    def to_dict(self) -> dict:
        return asdict(self)


def epoch_equivalent_batches(dataset_size: int, batch_size: int) -> int:
    """Batches per epoch-equivalent: one full-dataset exposure."""
    dataset_size = check_count("dataset_size", dataset_size, 1)
    return math.ceil(dataset_size / check_count("batch_size", batch_size, 1))


def early_stop_check(val_losses, patience: int) -> bool:
    """True iff the best loss has not improved (by > 1e-9) for `patience` epochs."""
    check_count("patience", patience, 1)
    best = math.inf
    stale = 0
    for v in val_losses:
        if v < best - 1e-9:
            best = v
            stale = 0
        else:
            stale += 1
    return stale >= patience


def _epoch_batches(pool: np.ndarray, n_total: int, rng: np.random.Generator) -> np.ndarray:
    """The row order of one epoch-equivalent: ``n_total`` draws from the pool,
    cycling it with a fresh shuffle each pass; batches are consecutive slices.

    Each pass is shuffled in place in its own slice of one array, whole, so
    the RNG draws are those of shuffling a copy of the pool per pass."""
    if len(pool) == 0:
        raise SelectionError("the active subset is empty: alpha leaves no sample to train on")
    passes = np.empty((-(-n_total // len(pool)), len(pool)), dtype=pool.dtype)
    passes[:] = pool
    for perm in passes:
        rng.shuffle(perm)
    return passes.reshape(-1)[:n_total]


def _wide_step(step: BatchStep, rows: int) -> BatchStep:
    """The run's wide step: as many of ``step``'s batches as
    ``WIDE_STEP_BYTES`` holds and ``rows``, the most one pass reads, needs,
    and at least one; ``step`` itself when that is one batch."""
    b = step.batch_size
    fits = WIDE_STEP_BYTES // (b * BatchStep.forward_row_bytes(step.arch, step.loss_kind))
    batches = max(1, min(fits, -(-rows // b)))
    return step if batches == 1 else BatchStep(step.arch, batches * b, step.loss_kind)


def _forward_losses(params, feats, targets, rows, wide: BatchStep, batch_size: int):
    """Per-sample losses of ``rows`` of ``feats`` and ``targets``, every row
    if ``rows`` is None, forward only, one call per chunk of the wide step.

    Chunks hold whole training batches, and a row's loss does not depend on
    the batch it is in, except in a batch of one row, which numpy multiplies
    as a matrix-vector product with other bits.  So a last training batch of
    one row runs alone here too, and the losses are those of a pass of
    ``batch_size``-row batches, bit for bit."""
    n = len(feats) if rows is None else len(rows)
    end = n - (n > 1 and n % batch_size == 1)
    bounds = [(lo, min(lo + wide.batch_size, end)) for lo in range(0, end, wide.batch_size)]
    if end < n:
        bounds.append((end, n))
    losses = np.empty(n)
    for lo, hi in bounds:
        if rows is None:
            x, y = feats[lo:hi], targets[lo:hi]
        else:
            x, y = wide.gather(feats, targets, rows[lo:hi])
        losses[lo:hi] = per_sample_losses(params, x, y, wide)
    return losses


def train_tftb(
    params: ModelParams,
    train_set: Dataset,
    val_set: Dataset,
    cfg: TrainConfig,
    clock=None,
    ledger_writer: Callable | None = None,
) -> tuple[ModelParams, RunManifest]:
    """Budgeted selective training; returns the trained params and manifest."""
    if cfg.mode != "tftb":
        raise ConfigError(f"train_tftb requires mode='tftb', got {cfg.mode!r}")
    return _run(params, train_set, val_set, cfg, clock or WallClock(), ledger_writer)


def train_baseline(
    params: ModelParams,
    train_set: Dataset,
    val_set: Dataset,
    cfg: TrainConfig,
    clock=None,
) -> tuple[ModelParams, RunManifest]:
    """Random-sampling baseline under the same loop, budget, and early stopping."""
    if cfg.mode != "baseline":
        raise ConfigError(f"train_baseline requires mode='baseline', got {cfg.mode!r}")
    return _run(params, train_set, val_set, cfg, clock or WallClock(), None)


def _run(params, train_set, val_set, cfg, clock, ledger_writer):
    if len(train_set) == 0:
        raise ConfigError("training set is empty")
    selective = cfg.mode == "tftb"

    n = len(train_set)
    n_b = epoch_equivalent_batches(n, cfg.batch_size)
    rng = np.random.default_rng(cfg.seed)
    budget = BudgetClock(cfg.budget_seconds, clock, warmup_batches=n_b * cfg.warmup_epochs)
    adam_state = init_adam_state(params)
    # the data are checked once, here; the step checks nothing but the losses
    step = BatchStep(params.arch, cfg.batch_size, cfg.loss_kind)
    wide = _wide_step(step, max(n, len(val_set)))
    feats, targets = check_inputs(params.arch, train_set.features, train_set.targets, cfg.loss_kind)

    # pools and batches are arrays of dataset rows, and a dataset's rows are
    # in ascending-id order, so a pool lists its rows in ascending-id order;
    # the ledger is built from the same ids, so its rows are these rows too
    ids = train_set.ids
    all_rows = np.arange(n)

    have_val = len(val_set) > 0
    n_val_batches = 0
    if have_val:
        n_val_batches = epoch_equivalent_batches(len(val_set), cfg.batch_size)
        val_feats, val_targets = check_inputs(
            params.arch, val_set.features, val_set.targets, cfg.loss_kind
        )

    ledger = ImportanceLedger(ids, cfg.score_window) if selective else None
    # an epoch's losses in its row order, written to the ledger when it ends
    epoch_losses = np.empty(n) if selective else None
    plan: SubsetPlan | None = None
    alpha_now = cfg.alpha

    reports: list[EpochReport] = []
    val_losses: list[float] = []
    train_loss_hist: list[float] = []
    stop_reason: str | None = None
    epoch = 0

    chunk = None

    def batch_step(order, lo):
        """Train on rows ``order[lo : lo + batch_size]``, a slice of the wide
        step's chunk, which the first batch of each chunk gathers."""
        nonlocal chunk
        at = lo % wide.batch_size
        if at == 0:
            chunk = wide.gather(feats, targets, order[lo : lo + wide.batch_size])
        hi = at + cfg.batch_size
        try:
            result = loss_and_grad(params, chunk[0][at:hi], chunk[1][at:hi], step)
        except NonFiniteError as exc:  # a loss names its batch row; name its id
            if exc.row is None:
                raise
            sid = int(ids[order[lo + exc.row]])
            raise NonFiniteError(
                f"non-finite {cfg.loss_kind} loss for sample id {sid}", sample_id=sid
            ) from None
        adam_step(params, result.grad, adam_state, cfg.lr)
        if epoch_losses is not None:
            epoch_losses[lo : lo + len(result.per_sample_losses)] = result.per_sample_losses
        return result.mean_loss

    def close_epoch(rows, pool_size):
        """Write the epoch's losses to the ledger a pass at a time, then score validation."""
        if ledger is not None:
            for lo in range(0, len(rows), pool_size):
                hi = min(lo + pool_size, len(rows))
                ledger.record_losses(rows[lo:hi], epoch_losses[lo:hi], epoch)
        if have_val:  # the mean a pass of training-sized batches gives
            losses = _forward_losses(params, val_feats, val_targets, None, wide, cfg.batch_size)
            return mean_of_losses(losses, cfg.batch_size)
        return None

    def select():
        if plan is None:
            scores = ledger.effective_scores(cfg.lambda_var)
            return select_subset(scores, train_set, alpha_now, cfg.stratified)
        return merge_and_reselect(
            ledger, plan, train_set, alpha_now,
            lambda_var=cfg.lambda_var,
            stratified=cfg.stratified,
        )

    def dump_ledger():
        ledger_writer(ledger_rows(ledger, plan, cfg.lambda_var, epoch))

    def rank():
        """(Re-)select the subset, then dump the ledger; each only if it still fits."""
        nonlocal plan
        done = budget.section("rank", select)
        if done is not None:
            plan = done.value
            if ledger_writer is not None:
                budget.section("ledger", dump_ledger)

    def assemble_manifest(reason, error=None):
        budget_trace = budget.trace()
        budget_trace["epoch_equivalent_batches"] = n_b
        return RunManifest(
            mode=cfg.mode,
            seed=cfg.seed,
            config={"train": cfg.to_dict()},
            dataset={
                "train_fingerprint": train_set.fingerprint(),
                "val_fingerprint": val_set.fingerprint() if have_val else None,
                "n_train": n,
                "n_val": len(val_set),
                "num_classes": train_set.num_classes,
                "feature_shape": list(train_set.feature_shape),
                "meta": train_set.meta,
            },
            epochs=[r.to_dict() for r in reports],
            budget=budget_trace,
            final_metrics={
                "final_val_loss": val_losses[-1] if val_losses else None,
                "best_val_loss": min(val_losses) if val_losses else None,
                "final_train_loss": train_loss_hist[-1] if train_loss_hist else None,
            },
            stop_reason=reason,
            error=error,
            created_at=(
                datetime.now(timezone.utc).isoformat() if getattr(clock, "is_wall", False) else None
            ),
        )

    try:
        with float_errors_raised():  # the run's one error state
            # one epoch-equivalent per iteration: full-dataset warm-up epochs that
            # measure tb and seed the ledger, then selective (tftb) or full epochs
            while stop_reason is None:
                warm = epoch < cfg.warmup_epochs
                planned = None if warm else budget.plan_iterations()
                if not warm:
                    if cfg.max_epochs is not None and epoch >= cfg.max_epochs:
                        stop_reason = "epoch_cap"
                        break
                    if planned == 0:
                        stop_reason = "budget_exhausted"
                        break

                epoch += 1
                phase = "warmup" if warm else "selective" if selective else "full"
                pool = plan.selected_rows if phase == "selective" else all_rows
                shuffled = budget.section("shuffle", _epoch_batches, pool, n, rng)
                cap = 0 if shuffled is None else (n_b if planned is None else min(n_b, planned))

                batch_means, batch_rows = [], []
                epoch_wall = shuffled.elapsed if shuffled else 0.0
                out_of_budget = False
                order = shuffled.value[: cap * cfg.batch_size] if cap else None
                for lo in range(0, cap * cfg.batch_size, cfg.batch_size):
                    done = budget.section("batch", batch_step, order, lo, batches=1)
                    if done is None:
                        out_of_budget = True
                        break
                    epoch_wall += done.elapsed
                    batch_means.append(done.value)
                    batch_rows.append(min(cfg.batch_size, len(order) - lo))
                ran, samples_seen = len(batch_rows), sum(batch_rows)
                if ran == 0:
                    epoch -= 1
                    stop_reason = "budget_exhausted"
                    break

                val_loss = None
                if not out_of_budget and (have_val or ledger is not None):
                    # the epoch's ledger writes run in its closing section, so a
                    # run that cannot afford them ends here, before anything reads
                    # the ledger
                    done = budget.section(
                        "validation", close_epoch, shuffled.value[:samples_seen], len(pool),
                        batches=n_val_batches,
                    )
                    out_of_budget = done is None
                    if done is not None and done.value is not None:
                        val_loss = done.value
                        val_losses.append(val_loss)

                # the batch totals added in order
                mean_train = mean_of_losses(np.array(batch_means), 1, np.array(batch_rows))
                train_loss_hist.append(mean_train)
                reports.append(
                    EpochReport(
                        epoch=epoch,
                        phase=phase,
                        mean_train_loss=mean_train,
                        val_loss=val_loss,
                        selected_size=len(pool),
                        alpha=plan.alpha if phase == "selective" else 0.0,
                        samples_seen=samples_seen,
                        batches=ran,
                        wall_seconds=epoch_wall,
                        consumed_seconds=budget.consumed,
                    )
                )

                if out_of_budget:
                    stop_reason = "budget_exhausted"
                elif ran < n_b:
                    stop_reason = "planned_iterations_exhausted"
                elif early_stop_check(val_losses, cfg.early_stop_patience):
                    stop_reason = "early_stop"

                if warm and (epoch == cfg.warmup_epochs or stop_reason is not None):
                    # the first ranking and ledger dump have nothing to be gated on:
                    # they run before the warm-up ends and plans the batches that remain
                    if selective and stop_reason is None:
                        rank()
                    budget.finish_warmup()
                elif phase == "selective" and stop_reason is None:
                    schedule = cfg.adaptive_alpha
                    if schedule.enabled and len(train_loss_hist) >= schedule.window:
                        alpha_now = adapt_alpha(alpha_now, train_loss_hist, schedule)
                    since_warmup = epoch - cfg.warmup_epochs
                    period = cfg.refresh_excluded_period
                    if period and since_warmup % period == 0 and plan.excluded_rows.size:
                        excluded = plan.excluded_rows
                        chunks = epoch_equivalent_batches(excluded.size, cfg.batch_size)
                        budget.section(
                            "refresh", _refresh_excluded,
                            params, feats, targets, excluded, wide, cfg.batch_size, ledger, epoch,
                            batches=chunks,
                        )
                    if since_warmup % cfg.rerank_period == 0:
                        rank()
    except NonFiniteError as exc:
        manifest = assemble_manifest(
            "non_finite_abort",
            error={"message": str(exc), "sample_id": exc.sample_id},
        )
        raise TrainingAbort(str(exc), manifest=manifest) from exc

    return params, assemble_manifest(stop_reason or "epoch_cap")


def _refresh_excluded(params, feats, targets, rows, wide: BatchStep, batch_size, ledger, epoch):
    """Forward-only loss pass over excluded samples to un-stale their scores,
    written to the ledger in one call once every chunk has passed."""
    ledger.record_losses(rows, _forward_losses(params, feats, targets, rows, wide, batch_size),
                         epoch)
