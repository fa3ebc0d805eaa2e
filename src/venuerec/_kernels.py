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
    denom = norms * qnorm
    nz = denom > 0.0
    out[nz] = (matrix @ query)[nz] / denom[nz]
    np.clip(out, -1.0, 1.0, out=out)
    return out


# A node of at most this many row x feature cells is searched in one
# part; a larger one in three.
_ONE_PART_CELLS = 4096


def best_split(X, order, targets, min_leaf, skip=None):
    """Best least-squares split of one tree node on each feature.

    `X` is the C-contiguous rows x features matrix and `targets` holds
    one target per row; row ``j`` of the int32 `order` lists the node's
    rows ascending by feature ``j``.  Returns ``(gains, cuts)``, one
    entry per feature: the rows ``order[j, :cuts[j]]`` go left, and
    ``cuts[j] == 0`` means feature ``j`` has no split with positive
    gain.  Candidate cuts lie between distinct adjacent values only;
    among equal gains the lowest cut wins.  A feature constant at the
    node has no cut and is skipped, and so is the feature `skip`, as if
    its column were constant.

    Each feature's gains come from the same operations in the same
    order as a search of that feature alone, so they are the same
    floats.  Past `_ONE_PART_CELLS`, the features go in three parts
    through the same three buffers: 17 bytes for each row of a part's
    features, about 6.5 per row and feature, less than the 8 of
    gathering every feature's targets at once.
    """
    k, n = order.shape
    gains = np.zeros(k)
    cuts = np.zeros(k, dtype=np.intp)
    if n < 2 * min_leaf:
        return gains, cuts
    features = np.arange(k)
    # a feature is constant at the node when its extreme values agree
    varies = X[order[:, 0], features] != X[order[:, -1], features]
    if skip is not None:
        varies[skip] = False
    live = np.flatnonzero(varies)
    if not live.size:
        return gains, cuts
    left_ns = np.arange(1, n + 1, dtype=np.float64)
    right_ns = n - left_ns
    right_ns[-1] = 1.0      # the cut after the last row is masked below
    step = (live.size if n * live.size <= _ONE_PART_CELLS
            else -(-live.size // 3))
    row_buf = np.empty((step, n), dtype=np.intp)
    value_buf = np.empty((step, n))
    invalid_buf = np.empty((step, n), dtype=bool)
    flat = X.ravel()
    for lo in range(0, live.size, step):
        part = live[lo:lo + step]
        m = part.size
        rows, left, invalid = row_buf[:m], value_buf[:m], invalid_buf[:m]
        # rows become indices into flat X, row * k + feature, and then
        # row numbers again
        np.multiply(order[part], k, out=rows)
        rows += part[:, None]
        # the indices are all in range; "clip" only lets take write
        # straight into `out` instead of through a buffer
        values = flat.take(rows, out=left, mode="clip")
        np.equal(values[:, 1:], values[:, :-1], out=invalid[:, :-1])
        invalid[:, :min_leaf - 1] = True
        invalid[:, n - min_leaf:] = True
        rows //= k
        # the values are spent: their buffer takes the left sums, and
        # the row numbers' buffer the right sums
        targets.take(rows, out=left, mode="clip")
        np.cumsum(left, axis=1, out=left)
        total = left[:, -1:].copy()
        right = np.subtract(total, left, out=rows.view(np.float64))
        left *= left
        left /= left_ns
        right *= right
        right /= right_ns
        left += right
        left -= total * total / n
        np.putmask(left, invalid, -np.inf)
        pos = left.argmax(axis=1)
        best = left.ravel().take(pos + n * np.arange(m))
        found = ~(best <= 0.0)      # a NaN gain is kept, as one column's is
        gains[part[found]] = best[found]
        cuts[part[found]] = pos[found] + 1
    return gains, cuts


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
