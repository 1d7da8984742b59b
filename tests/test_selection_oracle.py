"""Threshold selection against a full-sort oracle, as property tests.

Kept apart from ``test_importance.py`` so that, where hypothesis is not
installed, only these tests are skipped.
"""

import numpy as np
import pytest

from tftb.data import Dataset
from tftb.errors import LedgerError, SelectionError
from tftb.importance import _stratified_quotas, select_subset, subset_size

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def make_dataset(class_of, num_classes):
    """Weightless dataset: id -> class_tag only."""
    ids, labels = zip(*sorted(class_of.items()))
    features = np.zeros((len(ids), 1))
    return Dataset(ids, features, labels, num_classes=num_classes, split_tag="train")


def lexsort_oracle(scores, tags, quotas):
    """The mask of a full sort: each group's rows by descending score, ties
    in ascending row order, and the first ``quotas[group]`` of them kept."""
    order = np.lexsort((-scores, tags))
    mask = np.zeros(scores.size, dtype=bool)
    for c, quota in quotas.items():
        mask[[r for r in order if tags[r] == c][:quota]] = True
    return mask


# few distinct values, signed zeros and infinities among them: heavy ties
TIE_SCORES = st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.25, 0.25 + 2**-54, 1.0, 3.0, np.inf])


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    n=st.integers(1, 60),
    num_classes=st.integers(1, 4),
    alpha=st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.9, 0.95]) | st.floats(0.0, 0.99),
    stratified=st.booleans(),
    data=st.data(),
)
def test_threshold_selection_matches_the_sort_oracle(n, num_classes, alpha, stratified, data):
    tags = np.array(data.draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n)))
    scores = np.array(data.draw(st.lists(TIE_SCORES, min_size=n, max_size=n)))
    ds = make_dataset(dict(enumerate(tags.tolist())), num_classes)
    target = subset_size(n, alpha)
    if stratified:
        classes, sizes = np.unique(tags, return_counts=True)
        try:
            quotas = _stratified_quotas(dict(zip(classes.tolist(), sizes.tolist())), alpha, target)
        except SelectionError:
            with pytest.raises(SelectionError):
                select_subset(scores, ds, alpha, stratified)
            return
        groups = tags
    else:
        quotas, groups = {0: target}, np.zeros_like(tags)
    plan = select_subset(scores, ds, alpha, stratified)
    assert np.array_equal(plan.selected, lexsort_oracle(scores, groups, quotas))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(n=st.integers(1, 40), stratified=st.booleans(), data=st.data())
def test_threshold_selection_refuses_nan_naming_the_first_id(n, stratified, data):
    scores = np.array(data.draw(st.lists(TIE_SCORES, min_size=n, max_size=n)))
    nan_rows = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    scores[sorted(nan_rows)] = np.nan
    ds = make_dataset({10 * i + 3: i % 2 for i in range(n)}, 2)
    with pytest.raises(LedgerError, match=f"NaN score for sample id {10 * min(nan_rows) + 3}$"):
        select_subset(scores, ds, alpha=0.0, stratified=stratified)
