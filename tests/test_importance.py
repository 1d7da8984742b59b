"""Importance scores, ranking, subset selection, and the alpha schedule."""

import collections
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # only the property test needs it, and is skipped without it
    hypothesis = None

from tftb.budget import VirtualClock
from tftb.data import UNSTRATIFIED, Dataset, synth_classification, train_val_split
from tftb.errors import ConfigError, LedgerError, SelectionError
from tftb.importance import (
    _stratified_quotas,
    AlphaSchedule,
    ImportanceLedger,
    SubsetPlan,
    adapt_alpha,
    ledger_rows,
    merge_and_reselect,
    select_subset,
    subset_size,
)
from tftb.nn import MlpArch, init_params
from tftb.trainer import TrainConfig, train_tftb

_FEATURES = np.zeros(1)


def make_dataset(class_of, num_classes=None):
    """Weightless dataset: id -> class_tag only, for selection tests."""
    ids, labels = zip(*sorted(class_of.items()))
    n_classes = num_classes if num_classes is not None else max(class_of.values()) + 1
    features = np.broadcast_to(_FEATURES, (len(ids), _FEATURES.size))
    return Dataset(ids, features, labels, num_classes=n_classes, split_tag="train")


def uniform_dataset(n, num_classes=1):
    return make_dataset({i: i % num_classes for i in range(n)}, num_classes)


# ---------------------------------------------------------------------------
# ledger


def test_record_losses_bookkeeping():
    ledger = ImportanceLedger([5, 6], window=4)
    ledger.record_losses([0], [2.0], epoch=1)  # row 0 is id 5
    assert ledger.history(0) == (2.0,)
    assert ledger.history(1) == ()
    assert ledger.last_observed_epoch.tolist() == [1, -1]  # id 6 never observed


def test_record_losses_window_keeps_last_w():
    ledger = ImportanceLedger([1], window=3)
    for epoch, loss in enumerate([1.0, 2.0, 3.0, 4.0], start=1):
        ledger.record_losses([0], [loss], epoch)
    assert ledger.history(0) == (2.0, 3.0, 4.0)
    assert ledger.last_observed_epoch[0] == 4


def test_record_losses_empty_observation_list_is_identity():
    ledger = ImportanceLedger([1, 2], window=3)
    ledger.record_losses([0], [0.5], epoch=1)
    before = [ledger.history(r) for r in range(len(ledger))]
    ledger.record_losses([], [], epoch=2)
    assert [ledger.history(r) for r in range(len(ledger))] == before


@pytest.mark.parametrize(
    "ids",
    [[2, 1, 3], [1, 2, 2, 3], [[1, 2], [3, 4]], []],
    ids=["unsorted", "repeated", "2-d", "empty"],
)
def test_ledger_refuses_ids_that_do_not_ascend_strictly(ids):
    """Row r of the ledger is row r of the caller's ids, so ids are never re-sorted."""
    with pytest.raises(LedgerError, match="non-empty vector that ascends strictly"):
        ImportanceLedger(ids, window=3)


@pytest.mark.parametrize(
    "rows", [[0, -1], [2, 3], [3, 0, 3]], ids=["negative", "past-end", "repeated-past-end"]
)
def test_record_losses_rejects_rows_outside_the_ledger_and_writes_nothing(rows):
    ledger = ImportanceLedger([1, 2, 3], window=2)
    ledger.record_losses([0, 1, 2], [0.5, 1.0, 1.5], epoch=1)
    before = [ledger.history(r) for r in range(3)], ledger.last_observed_epoch.tolist()
    with pytest.raises(LedgerError, match="rows must index the ledger's 3 ids"):
        ledger.record_losses(rows, np.ones(len(rows)), epoch=2)
    assert ([ledger.history(r) for r in range(3)], ledger.last_observed_epoch.tolist()) == before


def test_record_losses_refuses_a_repeated_row_and_writes_nothing():
    ledger = ImportanceLedger([1, 2, 3], window=2)
    ledger.record_losses([0, 1, 2], [0.5, 1.0, 1.5], epoch=1)
    before = [ledger.history(r) for r in range(3)], ledger.last_observed_epoch.tolist()
    with pytest.raises(LedgerError, match="row 1 occurs 2 times in one call"):
        ledger.record_losses([1, 2, 1], [2.0, 2.5, 3.0], epoch=2)
    assert ([ledger.history(r) for r in range(3)], ledger.last_observed_epoch.tolist()) == before


def test_record_losses_accepts_signed_zero_and_extreme_finite_losses():
    ledger = ImportanceLedger([1, 2, 3], window=2)
    ledger.record_losses([2, 0, 1], [-0.0, 5e-324, np.finfo(np.float64).max], epoch=1)
    assert [ledger.history(r) for r in (0, 1, 2)] == [(5e-324,), (1.7976931348623157e308,), (0.0,)]


def test_effective_scores_degenerate_and_two_point_cases():
    ledger = ImportanceLedger([1, 2], window=5)
    ledger.record_losses([0, 1], [2.0, 1.0], epoch=1)
    ledger.record_losses([1], [3.0], epoch=2)
    scores = dict(zip(ledger.ids.tolist(), ledger.effective_scores(lambda_var=1.0).tolist()))
    assert scores[1] == 2.0  # single observation: std term is zero
    assert scores[2] == pytest.approx(3.0)  # mean 2.0 + population std 1.0


def test_sums_that_overflow_give_finite_moments():
    """Finite losses whose sum overflows: the row is summed again from its
    scaled losses, with no overflow warning, and the other row keeps its bits."""
    ledger = ImportanceLedger([1, 2], window=3)
    ledger.record_losses([0, 1], [1e308, 1.0], epoch=1)
    ledger.record_losses([0], [1e308], epoch=1)
    mean, std = ledger.moments()
    assert mean.tolist() == [1e308, 1.0] and std.tolist() == [0.0, 0.0]
    for lambda_var in (0.0, 1.0):
        assert ledger.effective_scores(lambda_var).tolist() == [1e308, 1.0]
    ds = uniform_dataset(2)
    assert select_subset(ledger.effective_scores(0.0), ds, 0.5, False).selected_ids == (0,)
    # a finite sum whose squared deviations overflow
    ledger = ImportanceLedger([1], window=2)
    ledger.record_losses([0], [1e200], epoch=1)
    ledger.record_losses([0], [0.0], epoch=2)
    assert [m.tolist() for m in ledger.moments()] == [[1e200 / 2], [1e200 / 2]]


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
def test_scores_near_the_largest_float_are_finite_unless_they_exceed_it():
    """Losses near ``finfo.max``: mean and std are finite and close to the
    exact ones, and a score is inf only where mean + lambda_var * std
    really exceeds the largest float; no score is NaN."""
    big = np.finfo(np.float64).max
    loss = st.floats(0.0, 1.0).map(lambda f: f * big)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        window=st.integers(1, 9),
        lambda_var=st.sampled_from([0.0, 0.37, 1.0, 3.0]),
        passes=st.lists(st.lists(loss, min_size=2, max_size=2), min_size=1, max_size=10),
    )
    def check(window, lambda_var, passes):
        ledger = ImportanceLedger([0, 1], window)
        for epoch, losses in enumerate(passes, start=1):
            ledger.record_losses([0, 1], losses, epoch)
        mean, std = ledger.moments()
        scores = ledger.effective_scores(lambda_var)
        assert np.isfinite(mean).all() and np.isfinite(std).all()
        assert not np.isnan(scores).any()
        for row in (0, 1):
            history = np.array([losses[row] for losses in passes][-window:])
            scale = history.max()
            if scale == 0:
                assert (mean[row], std[row], scores[row]) == (0.0, 0.0, 0.0)
                continue
            # in units of the row's largest loss, where nothing overflows
            want_mean, want_std = (history / scale).mean(), (history / scale).std()
            want = want_mean + lambda_var * want_std
            assert mean[row] / scale == pytest.approx(want_mean, rel=1e-12, abs=1e-12)
            assert std[row] / scale == pytest.approx(want_std, rel=1e-12, abs=1e-12)
            if np.isinf(scores[row]):
                assert want >= big / scale * (1 - 1e-12)
            else:
                assert scores[row] / scale == pytest.approx(want, rel=1e-12, abs=1e-12)

    check()


def test_effective_scores_requires_warmup_coverage():
    ledger = ImportanceLedger([1, 2], window=5)
    ledger.record_losses([0], [2.0], epoch=1)
    with pytest.raises(LedgerError, match="warm-up"):
        ledger.effective_scores(1.0)


def test_effective_scores_match_two_pass_oracle():
    rng = np.random.default_rng(8)
    ids = list(range(100))
    ledger = ImportanceLedger(ids, window=10)
    histories = {}
    for i in ids:
        losses = rng.uniform(0.0, 5.0, size=rng.integers(1, 10)).tolist()
        histories[i] = losses
        for epoch, loss in enumerate(losses):
            ledger.record_losses([i], [loss], epoch)
    scores = dict(zip(ledger.ids.tolist(), ledger.effective_scores(lambda_var=0.5).tolist()))
    for i, losses in histories.items():
        mean = sum(losses) / len(losses)
        var = sum((v - mean) ** 2 for v in losses) / len(losses)
        want = mean + 0.5 * var**0.5
        assert abs(scores[i] - want) < 1e-12


def test_lambda_zero_reduces_to_running_mean():
    ledger = ImportanceLedger([1], window=5)
    for epoch, loss in enumerate([1.0, 2.0, 6.0]):
        ledger.record_losses([0], [loss], epoch)
    assert ledger.effective_scores(0.0)[0] == pytest.approx(3.0)


class ListLedger:
    """Reference ledger: one Python list of recent losses per id."""

    def __init__(self, ids, window):
        self.window = window
        self.hist = {i: [] for i in ids}
        self.last = {}

    def record(self, ids, losses, epoch):
        for i, loss in zip(ids, losses):
            self.hist[i].append(loss)
            del self.hist[i][: -self.window]
            self.last[i] = epoch

    def moments(self, i):
        arr = np.asarray(self.hist[i])
        return arr.mean(), arr.std()


def by_occurrence(rows, losses):
    """One call's rows and losses as calls that each take a row at most once:
    every row's first occurrence, then every second one, ...; in that order
    they append each row's losses in the call's order."""
    rows, losses = np.asarray(rows, dtype=np.int64), np.asarray(losses, dtype=np.float64)
    seen = collections.Counter()
    level = np.empty(rows.size, dtype=np.int64)
    for k, row in enumerate(rows.tolist()):
        level[k] = seen[row]
        seen[row] += 1
    return [(rows[level == k], losses[level == k]) for k in range(level.max(initial=-1) + 1)]


@pytest.mark.parametrize("window", [1, 3, 5, 7, 10])
def test_array_ledger_matches_list_ledger_on_random_streams(window):
    rng = np.random.default_rng(window)
    ids = np.sort(rng.choice(10_000, size=60, replace=False))
    ledger, ref = ImportanceLedger(ids, window), ListLedger(ids.tolist(), window)
    # a full pass first, so every id has a score; then random batches whose
    # ids repeat within a call, as at a reshuffle seam, and overflow windows
    calls = [ids] + [rng.choice(ids, size=rng.integers(0, 40)) for _ in range(60)]
    assert any(np.unique(batch).size < batch.size for batch in calls)
    seen = set()
    for epoch, batch in enumerate(calls, start=1):
        losses = rng.uniform(0.0, 5.0, size=batch.size)
        losses[rng.uniform(size=batch.size) < 0.05] = 0.0
        for rows, level in by_occurrence(np.searchsorted(ids, batch), losses):
            ledger.record_losses(rows, level, epoch)
        ref.record(batch.tolist(), losses.tolist(), epoch)
        seen.update("full" if len(h) == window else "partial" for h in ref.hist.values())
        want_hist = [tuple(ref.hist[i]) for i in ids.tolist()]
        assert [ledger.history(r) for r in range(ids.size)] == want_hist
        assert ledger.last_observed_epoch.tolist() == [ref.last.get(i, -1) for i in ids.tolist()]
        want_moments = np.array([ref.moments(i) for i in ids.tolist()]).T
        for lambda_var in (None, 0.0, 1.0, 0.37):
            if lambda_var is None:  # the mean and std that ledger_rows dumps
                got, want = np.array(ledger.moments()), want_moments
            else:
                got = ledger.effective_scores(lambda_var)
                want = want_moments[0] + lambda_var * want_moments[1]
            if window < 8:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    assert seen == ({"full"} if window == 1 else {"full", "partial"})
    assert np.unique(np.concatenate(calls), return_counts=True)[1].max() > window  # evictions


def test_trainer_writes_match_list_ledger_across_reshuffle_seams(monkeypatch):
    """An active pool smaller than two batches, so batches straddle reshuffle
    seams and an epoch repeats rows: the trainer writes each pass of the pool
    in a call of its own, which holds each row once, and every write,
    replayed into the list reference by row, gives the same histories and
    moments."""
    calls = []
    record = ImportanceLedger.record_losses

    def recorded(ledger, rows, losses, epoch):
        calls.append((ledger, np.array(rows), np.array(losses), epoch))
        record(ledger, rows, losses, epoch)

    monkeypatch.setattr(ImportanceLedger, "record_losses", recorded)
    train, val = train_val_split(synth_classification(3, 20, 3, 0.5), 0.1, 3)
    cfg = TrainConfig(mode="tftb", alpha=0.6, batch_size=16, max_epochs=6, seed=1,
                      early_stop_patience=50, refresh_excluded_period=1)
    params = init_params(MlpArch(train.feature_shape[0], (8,), 3), np.random.default_rng(0))
    _, manifest = train_tftb(params, train, val, cfg, clock=VirtualClock(costs={"batch": 0.01}))
    selective = [r for r in manifest.epochs if r["phase"] == "selective"]
    assert len(selective) == 5
    assert all(r["selected_size"] < 2 * cfg.batch_size for r in selective)
    ledger = calls[0][0]
    assert all(call[0] is ledger for call in calls)
    assert all(np.unique(rows).size == rows.size for _, rows, _, _ in calls)
    epoch_rows = collections.defaultdict(list)
    for _, rows, _, epoch in calls:
        epoch_rows[epoch].append(rows)
    assert any(np.unique(np.concatenate(rows)).size < sum(map(len, rows))
               for rows in epoch_rows.values())

    rows = range(len(train))
    ref = ListLedger(rows, cfg.score_window)
    for _, batch, losses, epoch in calls:
        ref.record(batch.tolist(), losses.tolist(), epoch)
    assert [ledger.history(r) for r in rows] == [tuple(ref.hist[r]) for r in rows]
    assert ledger.last_observed_epoch.tolist() == [ref.last[r] for r in rows]
    want = np.array([ref.moments(r) for r in rows]).T
    assert np.array(ledger.moments()).tobytes() == want.tobytes()


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
def test_record_losses_matches_appending_one_loss_at_a_time():
    """Streams whose rows repeat, also more often than the window holds, at
    windows down to 1, with empty calls, over ascending ids with gaps, written
    one occurrence level per call: the ledger matches a reference that
    appends one loss at a time, and a call with a row outside the ledger,
    mismatched shapes or a repeated row changes nothing."""
    loss = st.floats(0.0, 1e6, allow_nan=False).map(abs)  # no -0.0: see moments()

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        ids=st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True).map(sorted),
        window=st.integers(1, 4),
        lambda_var=st.sampled_from([0.0, 0.37, 1.0]),
        data=st.data(),
    )
    def check(ids, window, lambda_var, data):
        ledger = ImportanceLedger(ids, window)
        assert ledger.ids.tolist() == ids
        n = len(ledger)
        ref = ListLedger(range(n), window)
        calls = data.draw(st.lists(st.lists(st.tuples(st.integers(0, n - 1), loss),
                                            max_size=4 * n * window), max_size=5))

        def state():
            return [ledger.history(r) for r in range(n)], ledger.last_observed_epoch.tolist()

        for epoch, call in enumerate(calls, start=1):
            rows, losses = [r for r, _ in call], [v for _, v in call]
            before = state()
            bad = data.draw(st.sampled_from([-1, n]))
            with pytest.raises(LedgerError, match="rows must index"):
                ledger.record_losses(rows + [bad], losses + [1.0], epoch)
            with pytest.raises(LedgerError, match="one loss per row"):
                ledger.record_losses(rows, losses + [1.0], epoch)
            if len(set(rows)) < len(rows):
                with pytest.raises(LedgerError, match="times in one call"):
                    ledger.record_losses(rows, losses, epoch)
            assert state() == before
            for level_rows, level_losses in by_occurrence(rows, losses):
                ledger.record_losses(level_rows, level_losses, epoch)
            ref.record(rows, losses, epoch)
            assert state() == ([tuple(ref.hist[r]) for r in range(n)],
                               [ref.last.get(r, -1) for r in range(n)])
            if all(ref.hist.values()):
                mean, std = np.array([ref.moments(r) for r in range(n)]).T
                assert (ledger.effective_scores(lambda_var) == mean + lambda_var * std).all()

    check()


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
def test_record_losses_leaves_the_same_bytes_whatever_the_order_of_its_rows():
    """A call's rows and losses, given in any order, leave the same loss
    windows, counts and last epochs, byte for byte: calls that write every
    row or some, windows down to 1, and signed zeros among the losses."""
    loss = st.floats(-1e6, 1e6, allow_nan=False)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(n=st.integers(1, 12), window=st.integers(1, 4), data=st.data())
    def check(n, window, data):
        ids = np.arange(n) * 3 + 1
        given, shuffled = ImportanceLedger(ids, window), ImportanceLedger(ids, window)
        calls = data.draw(st.lists(st.sets(st.integers(0, n - 1)).map(sorted), max_size=6))
        for epoch, rows in enumerate(calls, start=1):
            losses = data.draw(st.lists(loss, min_size=len(rows), max_size=len(rows)))
            order = data.draw(st.permutations(range(len(rows))))
            given.record_losses(rows, losses, epoch)
            shuffled.record_losses([rows[k] for k in order], [losses[k] for k in order], epoch)
            for name in ("_losses", "_counts", "last_observed_epoch"):
                assert getattr(given, name).tobytes() == getattr(shuffled, name).tobytes()

    check()


@pytest.mark.parametrize("window", [1, 2, 5, 7])
def test_moments_match_the_list_ledger_at_every_fill_depth(window):
    """From the first pass, which leaves every row padded in its oldest
    W - 1 slots, through pool passes that leave some rows padded, to full
    passes that leave none, with -0.0 among the losses (and one row of -0.0
    alone), the moments and scores are the list ledger's, byte for byte.
    The one exception is the sign of a mean of -0.0 losses alone: the
    ledger's sums start at +0.0, so it is +0.0, and a numpy sum may keep
    the sign, so the reference's means are compared plus 0.0."""
    n = 40
    rng = np.random.default_rng(window)
    ledger, ref = ImportanceLedger(np.arange(n), window), ListLedger(range(n), window)
    passes = [np.arange(n)] + [rng.choice(n, size=28, replace=False) for _ in range(window)]
    passes += [np.arange(n)] * window
    seen = set()
    for epoch, rows in enumerate(passes, start=1):
        rows = rng.permutation(rows)
        losses = rng.uniform(0.0, 5.0, rows.size)
        losses[rng.uniform(size=rows.size) < 0.2] = -0.0
        losses[rows == 0] = -0.0
        ledger.record_losses(rows, losses, epoch)
        ref.record(rows.tolist(), losses.tolist(), epoch)
        padded = [len(ref.hist[r]) < window for r in range(n)]
        seen.add("every row padded" if all(padded) else "some" if any(padded) else "none")
        want_mean, want_std = np.array([ref.moments(r) for r in range(n)]).T
        mean, std = ledger.moments()
        assert mean.tobytes() == (want_mean + 0.0).tobytes()
        assert std.tobytes() == want_std.tobytes()
        for lambda_var in (0.0, 0.37, 1.0):
            want = want_mean + lambda_var * want_std
            assert ledger.effective_scores(lambda_var).tobytes() == want.tobytes()
    assert seen == ({"none"} if window == 1 else {"every row padded", "some", "none"})
    assert np.signbit(ledger.history(0)).all()  # a window of -0.0 alone


def test_one_selective_epoch_write_holds_a_few_vectors_of_memory():
    """Peak traced memory of one selective epoch's writes at N = 45k.

    The epoch draws N rows as the trainer draws them from a 70% pool, so 30%
    of the rows occur twice, and writes them one pass of the pool per call.
    Call one int64 or float64 array of N entries a vector (8N bytes).  A call
    holds the per-row occurrence counts (1 vector) and, while it shifts a
    slot, the touched rows' losses (0.7).  So the peak is under 2 vectors,
    and the bound is 3.
    """
    n = 45_000
    rng = np.random.default_rng(5)
    ledger = ImportanceLedger(np.arange(n), window=5)
    ledger.record_losses(np.arange(n), rng.uniform(0, 3, n), epoch=1)
    pool = np.sort(rng.choice(n, size=subset_size(n, 0.3), replace=False))
    rows = np.concatenate([rng.permutation(pool), rng.permutation(pool)])[:n]
    losses = rng.uniform(0, 3, n)
    assert np.bincount(rows).max() == 2
    tracemalloc.start()
    try:
        for lo in range(0, n, pool.size):
            ledger.record_losses(rows[lo : lo + pool.size], losses[lo : lo + pool.size], epoch=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n, f"peak {peak / (8 * n):.2f} vectors of {n} entries"


# ---------------------------------------------------------------------------
# ranking


def test_rank_rejects_nan_naming_id():
    ds = make_dataset({1: 0, 7: 0})
    with pytest.raises(LedgerError, match="sample id 7"):
        select_subset(np.array([0.5, float("nan")]), ds, alpha=0.5, stratified=False)


# ---------------------------------------------------------------------------
# subset selection
#
# scores are arrays in ascending-id order; these datasets have ids 0..n-1


def test_subset_size_matches_sampling_rule():
    assert subset_size(50000, 0.3) == 35000
    assert subset_size(50000, 0.0) == 50000
    assert subset_size(1001, 0.4) == 601


def test_select_subset_stratified_two_classes():
    class_of = {i: 0 for i in range(10)} | {i + 10: 1 for i in range(10)}
    ds = make_dataset(class_of)
    scores = np.array([float(i) for i in range(20)])
    plan = select_subset(scores, ds, alpha=0.4, stratified=True)
    assert plan.per_class_counts == {0: 6, 1: 6}
    assert set(plan.selected_ids) == {4, 5, 6, 7, 8, 9, 14, 15, 16, 17, 18, 19}


def test_select_subset_unstratified_matches_brute_force():
    rng = np.random.default_rng(11)
    ds = uniform_dataset(200)
    scores = np.array([float(rng.standard_normal()) for _ in range(200)])
    plan = select_subset(scores, ds, alpha=0.25, stratified=False)
    brute = sorted(range(200), key=lambda i: (-scores[i], i))[:150]
    assert set(plan.selected_ids) == set(brute)
    assert len(plan.selected_ids) == 150


def test_select_subset_alpha_zero_selects_everything():
    ds = uniform_dataset(17, num_classes=3)
    scores = np.ones(17)
    plan = select_subset(scores, ds, alpha=0.0, stratified=True)
    assert set(plan.selected_ids) == set(range(17))
    assert plan.excluded_rows.size == 0


def test_select_subset_partition_invariant():
    rng = np.random.default_rng(2)
    ds = uniform_dataset(101, num_classes=4)
    scores = np.array([float(rng.uniform()) for _ in range(101)])
    for alpha in (0.0, 0.25, 0.5, 0.9):
        for stratified in (False, True):
            plan = select_subset(scores, ds, alpha, stratified)
            excluded = set(plan.ids[plan.excluded_rows].tolist())
            assert set(plan.selected_ids) | excluded == set(range(101))
            assert set(plan.selected_ids) & excluded == set()
            assert len(plan.selected_ids) == subset_size(101, alpha)


def test_monotone_selection_within_class():
    rng = np.random.default_rng(6)
    ds = uniform_dataset(60, num_classes=3)
    scores = np.array([float(rng.uniform()) for _ in range(60)])
    plan = select_subset(scores, ds, alpha=0.35, stratified=True)
    tags = dict(zip(ds.ids.tolist(), ds.targets.tolist()))
    selected = set(plan.selected_ids)
    for a in range(60):
        for b in range(60):
            if tags[a] == tags[b] and scores[a] > scores[b] and b in selected:
                assert a in selected


def test_rank_order_invariant_under_positive_scaling():
    rng = np.random.default_rng(4)
    ds = uniform_dataset(50, num_classes=2)
    scores = np.array([float(rng.uniform(0.1, 5.0)) for _ in range(50)])
    base = select_subset(scores, ds, alpha=0.3, stratified=True)
    for c in (0.001, 7.3, 1e6):
        scaled = select_subset(c * scores, ds, 0.3, True)
        assert scaled.selected_ids == base.selected_ids


def test_select_subset_errors_when_class_unretainable():
    ds = make_dataset({0: 0, 1: 0, 2: 0, 3: 0, 4: 1})  # class 1 has one sample
    scores = np.ones(5)
    with pytest.raises(SelectionError, match="class 1"):
        select_subset(scores, ds, alpha=0.6, stratified=True)


def test_select_subset_validates_alpha_and_coverage():
    ds = uniform_dataset(4)
    scores = np.ones(4)
    with pytest.raises(ConfigError):
        select_subset(scores, ds, alpha=1.0, stratified=False)
    with pytest.raises(LedgerError, match="no score"):
        select_subset(np.array([1.0]), ds, alpha=0.5, stratified=False)


def test_threshold_selection_edge_quotas():
    # quota 1 among two tied scores takes the lower row; a one-sample class
    # with quota 1 keeps its sample
    ds = make_dataset({0: 0, 1: 0, 2: 1})
    plan = select_subset(np.ones(3), ds, alpha=0.5, stratified=True)
    assert plan.selected_rows.tolist() == [0, 2]
    # a global quota of 1 among eleven ties
    assert select_subset(np.ones(11), uniform_dataset(11), 0.9, False).selected_rows.tolist() == [0]
    # alpha 0: every quota is its class size
    assert select_subset(np.ones(3), ds, alpha=0.0, stratified=True).selected.all()


def unique_counts(tags) -> dict[int, int]:
    classes, counts = np.unique(tags, return_counts=True)
    return dict(zip(classes.tolist(), counts.tolist()))


@pytest.mark.parametrize(
    "dataset, stratified",
    [
        (make_dataset({i: 3 * (i % 3 == 0) for i in range(31)}, num_classes=4), True),
        (Dataset(np.arange(23), np.zeros((23, 1)), np.zeros((23, 2, 2)), 1, "train"), True),
        (make_dataset({i: i % 3 for i in range(30)}), False),
    ],
    ids=["classes-0-and-3", "unstratified-maps", "class-with-no-row-selected"],
)
def test_select_subset_counts_classes_as_unique_does(dataset, stratified):
    # each row's class: its label, or the one class of a density-map dataset
    tags = dataset.targets if dataset.targets.ndim == 1 else np.full(len(dataset), UNSTRATIFIED)
    # class 2 scores lowest, so an unstratified half leaves it out
    scores = np.where(tags == 2, -1.0, np.random.default_rng(3).uniform(0, 1, len(dataset)))
    plan = select_subset(scores, dataset, alpha=0.5, stratified=stratified)
    counts = plan.per_class_counts
    assert list(counts.items()) == list(unique_counts(tags[plan.selected]).items())
    assert all(type(k) is int and type(v) is int for k, v in counts.items())
    if stratified:
        quotas = _stratified_quotas(unique_counts(tags), 0.5, subset_size(len(dataset), 0.5))
        assert counts == quotas
    else:
        assert 2 in tags and 2 not in counts


@pytest.mark.parametrize(
    "alpha, want",
    [
        # exact 2.76, 1.38, 1.38 round to 3 + 1 + 1 = 5 of 6: the extra sample
        # goes to class 1, rounded down, not to the larger class 0, rounded up
        (0.54, {0: 3, 1: 2, 2: 1}),
        # exact 3.18, 1.59, 1.59 round to 3 + 2 + 2 = 7 of 6: class 1, rounded
        # up, gives one back, not the larger class 0, rounded down
        (0.47, {0: 3, 1: 1, 2: 2}),
    ],
)
def test_stratified_quotas_move_the_remainder_onto_classes_rounded_the_other_way(alpha, want):
    sizes = {0: 6, 1: 3, 2: 3}
    assert _stratified_quotas(sizes, alpha, subset_size(12, alpha)) == want


def test_stratified_quotas_refuse_a_total_no_class_can_move_to():
    with pytest.raises(SelectionError, match="cannot hit subset size 3"):
        _stratified_quotas({0: 1, 1: 1}, 0.0, 3)
    with pytest.raises(SelectionError, match="cannot hit subset size 1"):
        _stratified_quotas({0: 1, 1: 1}, 0.0, 1)


# ---------------------------------------------------------------------------
# merge and reselect


def seeded_ledger(ds, rng, window=5):
    ledger = ImportanceLedger(ds.ids, window)
    ledger.record_losses(np.arange(len(ds)), [float(rng.uniform(0, 4)) for _ in ds.ids], epoch=1)
    return ledger


def test_merge_and_reselect_is_idempotent_when_nothing_changes():
    rng = np.random.default_rng(9)
    ds = uniform_dataset(40, num_classes=2)
    ledger = seeded_ledger(ds, rng)
    plan1 = select_subset(ledger.effective_scores(1.0), ds, 0.3, True)
    plan2 = merge_and_reselect(ledger, plan1, ds, 0.3, lambda_var=1.0, stratified=True)
    assert plan2.selected_ids == plan1.selected_ids
    assert np.array_equal(plan2.excluded_rows, plan1.excluded_rows)


def test_a_plan_carries_the_alpha_it_was_selected_at():
    rng = np.random.default_rng(9)
    ds = uniform_dataset(40, num_classes=2)
    ledger = seeded_ledger(ds, rng)
    plan = select_subset(ledger.effective_scores(1.0), ds, 0.3, True)
    merged = merge_and_reselect(ledger, plan, ds, 0.25, lambda_var=1.0, stratified=True)
    assert (plan.alpha, merged.alpha) == (0.3, 0.25)
    # 0.31 keeps the same 28 rows as 0.3, 14 per class, but is another plan
    near = select_subset(ledger.effective_scores(1.0), ds, 0.31, True)
    assert np.array_equal(near.selected, plan.selected) and near.alpha == 0.31
    assert near != plan
    assert select_subset(ledger.effective_scores(1.0), ds, 0.3, True) == plan


def test_stale_high_score_reenters_after_merge():
    ds = uniform_dataset(6)
    ledger = ImportanceLedger(ds.ids, window=3)
    ledger.record_losses(range(6), [float(5 - i) for i in range(6)], epoch=1)
    plan = select_subset(ledger.effective_scores(1.0), ds, alpha=0.5, stratified=False)
    assert set(plan.selected_ids) == {0, 1, 2}
    # selected samples' losses collapse; excluded id 3 keeps its stale score 2.0
    ledger.record_losses([0, 1, 2], [0.1, 0.1, 0.1], epoch=2)
    merged = merge_and_reselect(ledger, plan, ds, 0.5, lambda_var=0.0, stratified=False)
    assert 3 in merged.selected_ids


def test_merge_rejects_plan_for_other_dataset():
    ds = uniform_dataset(6)
    other = uniform_dataset(8)
    rng = np.random.default_rng(0)
    ledger = seeded_ledger(other, rng)
    plan = select_subset(ledger.effective_scores(1.0), other, 0.25, False)
    with pytest.raises(SelectionError, match="partition"):
        merge_and_reselect(ledger, plan, ds, 0.25, lambda_var=1.0, stratified=False)
    # a ledger over other ids: its rows' scores would land on the wrong samples
    ds = uniform_dataset(4)
    ledger = ImportanceLedger([10, 11, 12, 13], window=3)
    ledger.record_losses([0, 1, 2, 3], [4.0, 3.0, 2.0, 1.0], epoch=1)
    plan = select_subset(np.arange(4.0), ds, 0.5, False)
    with pytest.raises(SelectionError, match="ledger"):
        merge_and_reselect(ledger, plan, ds, 0.5, lambda_var=1.0, stratified=False)


def test_partition_survives_fifty_merges_of_random_streams():
    rng = np.random.default_rng(14)
    ds = uniform_dataset(500, num_classes=5)
    ledger = seeded_ledger(ds, rng)
    plan = select_subset(ledger.effective_scores(1.0), ds, 0.3, True)
    all_ids = set(ds.ids)
    for epoch in range(2, 52):
        observed = [float(rng.uniform(0, 4)) for _ in plan.selected_ids]
        ledger.record_losses(plan.selected_rows, observed, epoch)
        plan = merge_and_reselect(ledger, plan, ds, 0.3, lambda_var=1.0, stratified=True)
        excluded = set(plan.ids[plan.excluded_rows].tolist())
        assert set(plan.selected_ids) | excluded == all_ids
        assert set(plan.selected_ids) & excluded == set()
        assert len(plan.selected_ids) == subset_size(500, 0.3)


def test_identical_observation_streams_give_identical_plans():
    def run():
        rng = np.random.default_rng(77)
        ds = uniform_dataset(120, num_classes=3)
        ledger = seeded_ledger(ds, rng)
        plan = select_subset(ledger.effective_scores(1.0), ds, 0.4, True)
        for epoch in range(2, 12):
            losses = [float(rng.uniform(0, 2)) for _ in plan.selected_ids]
            ledger.record_losses(plan.selected_rows, losses, epoch)
            plan = merge_and_reselect(ledger, plan, ds, 0.4, lambda_var=1.0, stratified=True)
        return plan

    a, b = run(), run()
    assert a == b


# ---------------------------------------------------------------------------
# adaptive alpha


def schedule(**kw):
    base = dict(enabled=True, window=3, eps_slow=0.01, eps_fast=0.10,
                delta_alpha=0.05, alpha_min=0.1, alpha_max=0.5)
    base.update(kw)
    return AlphaSchedule(**base)


def test_adapt_alpha_dead_zone_keeps_alpha():
    cfg = schedule()
    history = [1.0, 0.98, 0.95]  # 5% improvement, between the thresholds
    assert adapt_alpha(0.3, history, cfg) == 0.3


def test_adapt_alpha_stalled_loss_reduces_alpha():
    cfg = schedule()
    assert adapt_alpha(0.3, [1.0, 1.0, 1.0], cfg) == pytest.approx(0.25)


def test_adapt_alpha_fast_convergence_increases_alpha():
    cfg = schedule()
    assert adapt_alpha(0.3, [1.0, 0.7, 0.5], cfg) == pytest.approx(0.35)


def test_adapt_alpha_clamps_at_bounds():
    cfg = schedule()
    assert adapt_alpha(0.1, [1.0, 1.0, 1.0], cfg) == 0.1
    assert adapt_alpha(0.5, [1.0, 0.5, 0.2], cfg) == 0.5


def test_adapt_alpha_needs_full_window():
    with pytest.raises(ConfigError):
        adapt_alpha(0.3, [1.0, 0.9], schedule())


def test_alpha_schedule_validates():
    with pytest.raises(ConfigError):
        AlphaSchedule(eps_slow=0.2, eps_fast=0.1)
    with pytest.raises(ConfigError):
        AlphaSchedule(alpha_min=0.5, alpha_max=0.4)
    for field, value in [("eps_slow", math.nan), ("eps_slow", -math.inf), ("eps_fast", math.nan),
                         ("eps_fast", math.inf), ("delta_alpha", math.nan),
                         ("delta_alpha", math.inf), ("delta_alpha", 0.0)]:
        with pytest.raises(ConfigError, match=field):
            AlphaSchedule(**{field: value})


# ---------------------------------------------------------------------------
# ledger dump rows


def test_ledger_rows_report_selection_flags():
    ds = uniform_dataset(4)
    ledger = ImportanceLedger(ds.ids, window=3)
    ledger.record_losses(range(4), [float(i) for i in range(4)], epoch=1)
    plan = select_subset(ledger.effective_scores(1.0), ds, 0.5, False)
    rows = ledger_rows(ledger, plan, lambda_var=1.0, epoch=1)
    assert [r[0] for r in rows] == [1, 1, 1, 1]
    assert [r[1] for r in rows] == [0, 1, 2, 3]
    assert [r[5] for r in rows] == [0, 0, 1, 1]  # top half by loss selected


# sha256 of the plans' id tuples and of the ledger rows as the tuple-backed
# plans and the shifting loss windows produced them
ORACLE_PLANS_DIGEST = "4cbed214c9249e7b0e3ad3219c2e094c9600fedc420768bc3d77a679cb07e1a3"
LEDGER_ROWS_DIGEST = "668e7416b3132cdbe7fc40447b7826cbaf640285a7c574764f4d36abae781b06"


def test_ledger_rows_match_golden_digest():
    rng = np.random.default_rng(3)
    n = 60
    ds = Dataset(np.arange(0, 2 * n, 2), np.zeros((n, 1)), np.arange(n) % 3, 3, "train")
    ledger = ImportanceLedger(ds.ids, 4)
    ledger.record_losses(np.arange(n), rng.uniform(0, 3, n), 1)
    plan = select_subset(ledger.effective_scores(0.5), ds, 0.4, True)
    digest = hashlib.sha256()
    for epoch in range(2, 8):
        selected = plan.selected_rows
        ledger.record_losses(selected, rng.uniform(0, 3, selected.size), epoch)
        plan = merge_and_reselect(ledger, plan, ds, 0.4, lambda_var=0.5, stratified=True)
        digest.update(repr(ledger_rows(ledger, plan, 0.5, epoch)).encode())
    assert digest.hexdigest() == LEDGER_ROWS_DIGEST


def test_plan_id_tuples_match_golden_digest_on_the_oracle_cases():
    """The criterion-3 instances: ascending-id tuples of Python ints, as before."""
    zero = np.zeros(1)
    rng = np.random.default_rng(1)
    digest = hashlib.sha256()
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        ids = sorted(int(i) for i in rng.choice(2000, size=n, replace=False))
        dataset = Dataset(ids, np.broadcast_to(zero, (n, 1)), np.zeros(n, dtype=np.int64), 1,
                          "train")
        scores = np.array([float(rng.integers(0, 8)) for _ in ids])
        alpha = float(rng.uniform(0.0, 0.9))
        plan = select_subset(scores, dataset, alpha, stratified=False)
        excluded = tuple(plan.ids[plan.excluded_rows].tolist())
        assert np.array_equal(plan.ids, dataset.ids)
        assert all(type(i) is int for i in plan.selected_ids + excluded)
        assert plan.selected_ids == tuple(dataset.ids[plan.selected_rows].tolist())
        digest.update(repr((plan.selected_ids, excluded)).encode())
    assert digest.hexdigest() == ORACLE_PLANS_DIGEST


def test_plan_rows_partition_the_dataset():
    rng = np.random.default_rng(8)
    ds = uniform_dataset(50, num_classes=3)
    plan = select_subset(rng.uniform(0, 1, 50), ds, 0.3, True)
    rows = np.concatenate([plan.selected_rows, plan.excluded_rows])
    assert np.array_equal(np.sort(rows), np.arange(50))
    assert plan.selected[plan.selected_rows].all() and not plan.selected[plan.excluded_rows].any()
    assert plan.selected_rows.size == subset_size(50, 0.3)


@pytest.mark.parametrize(
    "mask",
    [np.ones(5, dtype=bool), np.ones(7, dtype=bool), np.ones(6, dtype=np.int64),
     np.ones((6, 1), dtype=bool)],
    ids=["short", "long", "integer", "two-dimensional"],
)
def test_subset_plan_rejects_malformed_masks(mask):
    with pytest.raises(SelectionError, match="mask"):
        SubsetPlan(ids=np.arange(6), selected=mask, per_class_counts={}, alpha=0.3)


def test_ledger_rows_reject_a_plan_for_other_ids():
    ds = uniform_dataset(4)
    ledger = ImportanceLedger([0, 1, 2, 5], window=3)
    ledger.record_losses([0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0], epoch=1)
    plan = select_subset(np.arange(4.0), ds, 0.5, False)
    with pytest.raises(LedgerError, match="different sample ids"):
        ledger_rows(ledger, plan, lambda_var=1.0, epoch=1)
