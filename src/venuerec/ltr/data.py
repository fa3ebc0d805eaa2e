"""The train/validation split and the per-topic blocks the rankers use.

Feature tables keep their rows in canonical order (topic ascending,
venue ascending inside a topic), so a stable descending sort on scores
yields the same tie handling as the run builder: score descending,
venue id ascending.
"""

import numpy as np

from .._rng import PCG64
from ..errors import VenuerecError
from ..features import FeatureTable

METRICS = ("p5", "mrr")

# keys in the block a line search sorts at once: about 4 steps of
# 70 topics of up to 60 rows, reused, so it stays in cache
_LINE_CELLS = 1 << 14


def split_train_validation(table, fraction, seed):
    """Partition a FeatureTable into train and validation tables by topic.

    The sorted topic list is shuffled with numpy's default_rng stream
    seeded by `seed` (`_rng.PCG64`);
    the first ``round(fraction * n)`` topics (clamped so both sides stay
    non-empty) become the training side, for a `fraction` in (0, 1), as
    ``cli.SETTINGS`` checks it.  Row order is preserved.
    """
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
    `metric` scores any score vector aligned with `X`, or every step of
    a line search along a column of `X`.  A row is relevant when its
    label is at least `cutoff`, and topics without a single relevant
    row are left out of the average, matching the run evaluator.  The
    arrays are read-only, and the column order MART reads
    (`column_order`) is sorted once, so the baseline and every knockout
    of the feature study train on the same blocks.

    For the metric, the row indices of the included topics sit in one
    (topics × widest topic) matrix, and those of their relevant rows in
    a second (topics × most relevant rows) one; a short row is padded
    with the index one past the last row, which `metric` points at a
    NaN key.  Keys are negated scores, so a topic ranks by ascending
    key, ties by row order, which is venue id order; NaN sorts after
    every number, so the padding always ranks last.

    One value sort of each padded row decides P@5: when the 5th and
    6th smallest keys differ and the 5th is a number, the top 5 is
    exactly the keys up to the 5th, however ties below it fall, so the
    hits are the relevant keys up to it.  MRR needs only the smallest
    relevant key: when no other row holds it, the first relevant rank
    is one more than the count of smaller keys.  Only when a tie or a
    NaN is at the cut does the metric run a stable argsort of each
    row, which puts the real rows in the same order as a stable sort
    of the topic alone.

    A line search stacks the keys of a few steps into one block, made
    by the first line search and reused by the later ones, and decides
    them all with the same sort and counts as a single score vector; a
    step whose cut is unsure takes the argsort alone.
    """

    def __init__(self, table, cutoff):
        self.X = table.X
        self.y = table.labels.astype(np.float64)
        self.rel = self.y >= cutoff
        self.bounds = table.bounds
        self.included = tuple(
            i for i, (lo, hi) in enumerate(self.bounds)
            if self.rel[lo:hi].any())

        rows = [np.arange(*self.bounds[i]) for i in self.included]
        relevant = [r[self.rel[r]] for r in rows]
        self._index = _padded(rows, len(self.y))
        self._rel_index = _padded(relevant, len(self.y))
        self._padded_rel = np.append(self.rel, False)[self._index]
        self._order = None
        for array in (self.X, self.y, self.rel, self._index,
                      self._rel_index, self._padded_rel):
            array.flags.writeable = False
        self._buffers = []

    def __len__(self):
        return len(self.y)

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

    def metric(self, scores, metric, col=None, steps=None):
        """Mean P@5 or MRR of `scores` over topics with relevant rows;
        `metric` is one of METRICS.

        Given a column `col` and a sequence of `steps`, it returns the
        list of the metric of ``scores + d * col`` for each step d in
        turn, the very floats one call per step gives.  The per-topic
        values are added in topic order, so the mean is the same float
        a loop over the topics gives.
        """
        if not self.included:
            value = 0.0
        elif metric == "p5" and self._index.shape[1] <= 5:
            # every row is in the top 5, whatever the scores
            value = self._mean(self._padded_rel.sum(axis=1) / 5)
        elif col is not None:
            return self._line(scores, metric, col, steps)
        else:
            keys = _keys(scores)
            means, unsure = self._means(keys[self._index][None],
                                        keys[self._rel_index][None], metric)
            return self._stable(keys, metric) if unsure[0] else means[0]
        return value if col is None else [value] * len(steps)

    def _line(self, scores, metric, col, steps):
        # -(s + d*c) == d*(-c) + (-s): IEEE negation is exact and ufuncs
        # do not fuse, so each step's keys are the ones `_keys` makes
        # (but for the sign of a zero); the padding's column is 0
        keys = _keys(scores)
        dirs = np.zeros(len(keys))
        np.negative(col, out=dirs[:-1])
        if not self._buffers:
            # made by the first line search, and reused by the later ones
            n = max(1, _LINE_CELLS // self._index.size)
            self._buffers += [np.empty((n,) + index.shape)
                              for index in (self._index, self._rel_index)]
        values = []
        for lo in range(0, len(steps), len(self._buffers[0])):
            chunk = steps[lo:lo + len(self._buffers[0])]
            blocks = []
            for index, buffer in zip((self._index, self._rel_index),
                                     self._buffers):
                block = buffer[:len(chunk)]
                np.multiply.outer(chunk, dirs[index], out=block)
                block += keys[index]
                blocks.append(block)
            means, unsure = self._means(*blocks, metric)
            for step, value, redo in zip(chunk, means, unsure):
                values.append(self._stable(_keys(scores + step * col),
                                           metric) if redo else value)
        return values

    def _means(self, K, R, metric):
        """Each step's mean from its keys `K` (steps × topics × width)
        and its relevant keys `R`, and whether a tie or a NaN at a cut
        leaves the step to `_stable`.  Sorts `K` in place for P@5."""
        k = 5
        if metric == "p5":
            K.sort(axis=2)
            cut = K[:, :, k - 1:k]
            unsure = np.isnan(cut) | (K[:, :, k:k + 1] == cut)
            values = (R <= cut).sum(axis=2) / k
        else:
            # a relevant NaN ranks after every number, so it is never
            # first while a relevant number is; the padding is NaN too
            cut = np.fmin.reduce(R, axis=2, keepdims=True)
            ties = (K == cut).sum(axis=2, keepdims=True)
            unsure = np.isnan(cut) | (ties != 1)
            values = 1.0 / ((K < cut).sum(axis=2) + 1.0)
        means = np.cumsum(values, axis=1)[:, -1] / len(self.included)
        return means.tolist(), unsure.any(axis=(1, 2))

    def _stable(self, keys, metric):
        # a tie or a NaN at the cut: rank each row by a stable sort
        order = np.argsort(keys[self._index], axis=1, kind="stable")
        k = 5
        if metric == "p5":
            hits = np.take_along_axis(self._padded_rel, order[:, :k], axis=1)
            return self._mean(hits.sum(axis=1) / k)
        hits = np.take_along_axis(self._padded_rel, order, axis=1)
        return self._mean(1.0 / (hits.argmax(axis=1) + 1.0))

    def _mean(self, values):
        return float(np.cumsum(values)[-1]) / len(self.included)


def _padded(rows, pad):
    """The index arrays `rows` as the rows of one matrix, padded by `pad`."""
    index = np.full((len(rows), max(map(len, rows), default=0)), pad,
                    dtype=np.intp)
    for r, row in enumerate(rows):
        index[r, :len(row)] = row
    return index


def _keys(scores):
    """Negated `scores`, then the NaN key the padding points at."""
    keys = np.empty(len(scores) + 1)
    np.negative(scores, out=keys[:-1])
    keys[-1] = np.nan
    return keys
