"""The train/validation split and the per-topic blocks the rankers use.

Feature tables keep their rows in canonical order (topic ascending,
venue ascending inside a topic), so a stable descending sort on scores
yields the same tie handling as the run builder: score descending,
venue id ascending.
"""

import copy

import numpy as np

from .._rng import PCG64
from ..errors import VenuerecError
from ..features import FeatureTable

METRICS = ("p5", "mrr")


def split_train_validation(table, fraction, seed):
    """Partition a FeatureTable into train and validation tables by topic.

    The sorted topic list is shuffled with numpy's default_rng stream
    seeded by `seed` (`_rng.PCG64`);
    the first ``round(fraction * n)`` topics (clamped so both sides stay
    non-empty) become the training side.  Row order is preserved.
    """
    if not 0.0 < fraction < 1.0:
        raise VenuerecError("split fraction must be in (0, 1), got %r"
                            % (fraction,))
    topics = [table.topic_ids[start] for start, _ in table.bounds]
    if len(topics) < 2:
        raise VenuerecError("need at least 2 topics to split, got %d"
                            % len(topics))
    perm = PCG64(seed).permutation(len(topics))
    n_train = int(round(fraction * len(topics)))
    n_train = min(max(n_train, 1), len(topics) - 1)
    train_topics = {topics[i] for i in perm[:n_train]}
    in_train = np.array([topic in train_topics for topic in table.topic_ids])
    sides = []
    for rows in (np.flatnonzero(in_train), np.flatnonzero(~in_train)):
        sides.append(FeatureTable._presorted(
            [table.topic_ids[i] for i in rows],
            [table.venue_ids[i] for i in rows],
            table.labels[rows], table.X[rows]))
    return tuple(sides)


class TopicBlocks:
    """A FeatureTable's matrix, labels and per-topic slices, for ranking.

    Built once per table; the trainers take it as their input, and
    `metric` scores any score vector aligned with `X`.  A row is
    relevant when its label is at least `cutoff`, and topics without a
    single relevant row are left out of the average, matching the run
    evaluator.  The arrays are read-only, so copies made by
    `without_feature` can share everything but `X` and the column
    order MART reads (`column_order`); a copy derives its order from
    this one's instead of sorting again.

    For the metric, the row indices of the included topics sit in one
    (topics × widest topic) matrix; a short topic is padded with the
    index one past the last row, which `metric` points at a NaN key.
    Keys are negated scores, so a topic ranks by ascending key, ties by
    row order, which is venue id order; NaN sorts after every number,
    so the padding always ranks last.

    One value sort of each padded row decides P@5: when the 5th and
    6th smallest keys differ and the 5th is a number, the top 5 is
    exactly the keys up to the 5th, however ties below it fall.
    MRR needs only the smallest key among the relevant rows: when no
    other row holds it, the first relevant rank is one more than the
    count of smaller keys.  Only when a tie crosses the cut does the
    metric run a stable argsort of each row, which puts the real rows
    in the same order as a stable sort of the topic alone.
    """

    def __init__(self, table, cutoff):
        self.X = table.X
        self.y = table.labels.astype(np.float64)
        self.rel = self.y >= cutoff
        self.bounds = table.bounds
        self.included = tuple(
            i for i, (lo, hi) in enumerate(self.bounds)
            if self.rel[lo:hi].any())

        width = max((self.bounds[i][1] - self.bounds[i][0]
                     for i in self.included), default=0)
        self._index = np.full((len(self.included), width), len(self.y),
                              dtype=np.intp)
        for r, i in enumerate(self.included):
            lo, hi = self.bounds[i]
            self._index[r, :hi - lo] = np.arange(lo, hi)
        self._padded_rel = np.append(self.rel, False)[self._index]
        self._order = None
        for array in (self.X, self.y, self.rel, self._index,
                      self._padded_rel):
            array.flags.writeable = False

    def __len__(self):
        return len(self.y)

    def without_feature(self, j):
        """A copy whose column `j` of `X` is zero; other arrays are shared.

        When this blocks' column order is sorted already, the copy's is
        that order with row `j` replaced: a stable argsort of a column
        of zeros is the identity.
        """
        clone = copy.copy(self)
        clone.X = self.X.copy()
        clone.X[:, j] = 0.0
        clone.X.flags.writeable = False
        if self._order is not None:
            clone._order = self._order.copy()
            clone._order[j] = np.arange(len(self.y))
            clone._order.flags.writeable = False
        return clone

    def column_order(self):
        """A stable argsort of each column of `X`, int32, features x rows.

        Sorted on the first call and kept, read-only.
        """
        if self._order is None:
            # a column at a time, so only one column's int64 sort is held
            self._order = np.empty(self.X.shape[::-1], dtype=np.int32)
            for j, column in enumerate(self.X.T):
                self._order[j] = np.argsort(column, kind="stable")
            self._order.flags.writeable = False
        return self._order

    def metric(self, scores, metric):
        """Mean P@5 or MRR of `scores` over topics with relevant rows.

        The per-topic values are added in topic order, so the mean is
        the same float a loop over the topics gives.
        """
        if metric not in METRICS:
            raise VenuerecError("unknown metric %r" % (metric,))
        if not self.included:
            return 0.0
        keys = np.empty(len(self.y) + 1)
        np.negative(scores, out=keys[:-1])
        keys[-1] = np.nan
        K = keys[self._index]
        rel = self._padded_rel
        k = 5
        if metric == "p5":
            if K.shape[1] <= k:
                return self._mean(rel.sum(axis=1) / k)
            s = np.sort(K, axis=1)
            cut = s[:, k - 1:k]
            if not (np.isnan(cut).any() or (s[:, k:k + 1] == cut).any()):
                return self._mean((rel & (K <= cut)).sum(axis=1) / k)
        else:
            first = np.where(rel, K, np.inf).min(axis=1, keepdims=True)
            if not (np.isnan(first).any()
                    or ((K == first).sum(axis=1) != 1).any()):
                return self._mean(1.0 / ((K < first).sum(axis=1) + 1.0))
        # a tie or a NaN at the cut: rank each row by a stable sort
        order = np.argsort(K, axis=1, kind="stable")
        if metric == "p5":
            hits = np.take_along_axis(rel, order[:, :k], axis=1)
            return self._mean(hits.sum(axis=1) / k)
        hits = np.take_along_axis(rel, order, axis=1)
        return self._mean(1.0 / (hits.argmax(axis=1) + 1.0))

    def _mean(self, values):
        return float(np.cumsum(values)[-1]) / len(self.included)
