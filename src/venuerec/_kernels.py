"""Numeric inner-loop kernels.

Three loops dominate the numeric work: the cosine scan behind
nearest-term search, the least-squares split search inside tree
boosting, and routing feature rows through fitted trees.  Each is a
vectorised numpy function and is bit-deterministic for a given input.
"""

import numpy as np


def cosine_scores(matrix, norms, query):
    """Cosine of `query` against every row of `matrix`.

    `norms` are precomputed row norms; zero-norm rows score 0.  A zero
    query scores 0 everywhere.  Scores are clamped to [-1, 1].
    """
    qnorm = np.sqrt(query @ query)
    out = np.zeros(matrix.shape[0])
    if qnorm == 0.0:
        return out
    denom = norms * qnorm
    nz = denom > 0.0
    out[nz] = (matrix @ query)[nz] / denom[nz]
    np.clip(out, -1.0, 1.0, out=out)
    return out


def best_split(values, targets, min_leaf):
    """Best least-squares split of a sorted value/target column.

    `values` must be ascending with `targets` aligned.  Returns
    ``(gain, pos)`` where rows ``[0:pos)`` go left; ``pos == 0`` means no
    split with positive gain exists.  Candidate cuts lie between distinct
    adjacent values only; among equal gains the lowest cut wins.
    """
    n = values.shape[0]
    if n < 2 * min_leaf:
        return 0.0, 0
    total = float(np.cumsum(targets)[-1])
    left_sums = np.cumsum(targets)[:-1]
    left_ns = np.arange(1, n, dtype=np.float64)
    right_ns = n - left_ns
    base = total * total / n
    gains = left_sums * left_sums / left_ns + (total - left_sums) * (total - left_sums) / right_ns - base
    valid = (values[1:] != values[:-1]) & (left_ns >= min_leaf) & (right_ns >= min_leaf)
    if not valid.any():
        return 0.0, 0
    gains = np.where(valid, gains, -np.inf)
    pos = int(np.argmax(gains))
    if gains[pos] <= 0.0:
        return 0.0, 0
    return float(gains[pos]), pos + 1


def apply_tree(feature, threshold, left, right, value, X):
    """Leaf outputs for every row of `X` under one array-encoded tree.

    Nodes with ``feature < 0`` are leaves.  A row goes left when its
    feature value is <= the node threshold.
    """
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = np.nonzero(feature[node] >= 0)[0]
    while active.size:
        cur = node[active]
        goleft = X[active, feature[cur]] <= threshold[cur]
        node[active] = np.where(goleft, left[cur], right[cur])
        active = active[feature[node[active]] >= 0]
    return value[node]
