"""Brute-force loop oracles for the numpy kernels in ``venuerec._kernels``.

Each function spells its kernel out one element at a time, in the
plainest order, so the vectorised version can be checked against it.
The two may differ in the last floating-point bits where summation
order differs.

`numpy_best_split` is the one-feature numpy search that the per-node
`_kernels.best_split` replaced: each feature's row of the per-node
search must equal it bit for bit, and the argsort tree oracle uses it.
"""

import numpy as np


def cosine_scores(matrix, norms, query):
    n, d = matrix.shape
    out = np.zeros(n)
    qsq = 0.0
    for j in range(d):
        qsq += query[j] * query[j]
    qnorm = np.sqrt(qsq)
    if qnorm == 0.0:
        return out
    for i in range(n):
        if norms[i] == 0.0:
            continue
        dot = 0.0
        for j in range(d):
            dot += matrix[i, j] * query[j]
        s = dot / (norms[i] * qnorm)
        if s > 1.0:
            s = 1.0
        elif s < -1.0:
            s = -1.0
        out[i] = s
    return out


def best_split(values, targets, min_leaf):
    n = values.shape[0]
    if n < 2 * min_leaf:
        return 0.0, 0
    total = 0.0
    for i in range(n):
        total += targets[i]
    base = total * total / n
    best_gain = 0.0
    best_pos = 0
    left = 0.0
    for i in range(1, n):
        left += targets[i - 1]
        if i < min_leaf or n - i < min_leaf:
            continue
        if values[i] == values[i - 1]:
            continue
        right = total - left
        gain = left * left / i + right * right / (n - i) - base
        if gain > best_gain:
            best_gain = gain
            best_pos = i
    return best_gain, best_pos


def numpy_best_split(values, targets, min_leaf):
    """Best least-squares split of a sorted value/target column.

    `values` must be ascending with `targets` aligned.  Returns
    ``(gain, pos)`` where rows ``[0:pos)`` go left; ``pos == 0`` means no
    split with positive gain exists.  Candidate cuts lie between distinct
    adjacent values only; among equal gains the lowest cut wins.
    """
    n = values.shape[0]
    if n < 2 * min_leaf:
        return 0.0, 0
    c = np.cumsum(targets)
    total = float(c[-1])
    left_sums = c[:-1]
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
    n = X.shape[0]
    out = np.empty(n)
    for i in range(n):
        node = 0
        while feature[node] >= 0:
            if X[i, feature[node]] <= threshold[node]:
                node = left[node]
            else:
                node = right[node]
        out[i] = value[node]
    return out
