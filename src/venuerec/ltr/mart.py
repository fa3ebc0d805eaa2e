"""Gradient-boosted regression trees over the ranking features.

Pointwise least squares on the graded labels: each stage fits a small
regression tree to the current residuals and the ensemble accumulates
shrunken leaf outputs.  Validation-metric early stopping keeps the best
prefix of trees.
"""

import dataclasses
import logging

import numpy as np

from .. import _kernels

log = logging.getLogger(__name__)

_EPS = 1e-12


@dataclasses.dataclass(frozen=True, kw_only=True)
class MARTConfig:
    """MART's settings, checked where they enter (`cli.SETTINGS`)."""

    n_trees: int = 100
    shrinkage: float = 0.1
    max_leaves: int = 7
    min_leaf: int = 1
    patience: int = 20      # 0 disables early stopping and keeps every tree
    metric: str
    seed: int


@dataclasses.dataclass(frozen=True)
class Tree:
    """One regression tree as parallel node arrays.

    ``feature[i] < 0`` marks a leaf; otherwise a row goes to
    ``left[i]`` when its feature value is <= ``threshold[i]``.
    """

    feature: tuple
    threshold: tuple
    left: tuple
    right: tuple
    value: tuple

    def arrays(self):
        return (np.asarray(self.feature, dtype=np.int64),
                np.asarray(self.threshold, dtype=np.float64),
                np.asarray(self.left, dtype=np.int64),
                np.asarray(self.right, dtype=np.int64),
                np.asarray(self.value, dtype=np.float64))


@dataclasses.dataclass(frozen=True)
class TreeEnsemble:
    trees: tuple
    shrinkage: float
    metric: str
    seed: int
    history: dict = dataclasses.field(default=None, compare=False, repr=False)


def _leaders(gains, features, skip=-1):
    """The features that lead a node's split choice, in the order they
    took the lead; the last one is the choice, and none means no split.

    `features` are taken in order, `skip` left out; a later one takes
    the lead only when it gains more than `_EPS` over the leader.
    """
    leaders = []
    best = None
    for j in features:
        if j == skip:
            continue
        gain = float(gains[j])
        if best is None or gain > best + _EPS:
            best = gain
            leaders.append(j)
    return leaders


def _best_candidate(X, resid, order, min_leaf, decisive, skip):
    """Best split of a node whose rows are `order`, one sorted row per feature.

    Returns ``(gain, feature, threshold, cut, order)``: the rows
    ``order[feature, :cut]`` go left.  None when no split gains.
    Adds to the set `decisive` each feature whose knockout would change
    the choice.  Only a leader can: the others never moved the lead.
    Feature `skip` takes no part.
    """
    gains, cuts = _kernels.best_split(X, order, resid, min_leaf, skip)
    features = np.flatnonzero(cuts).tolist()
    leaders = _leaders(gains, features)
    if not leaders:
        return None
    j = leaders[-1]
    for f in leaders:
        if f not in decisive and _leaders(gains, features, f)[-1:] != [j]:
            decisive.add(f)
    gain = float(gains[j])
    pos = int(cuts[j])
    below, above = X[order[j, pos - 1], j], X[order[j, pos], j]
    threshold = 0.5 * (float(below) + float(above))
    # rounding or overflow can carry the midpoint out of [below, above)
    if not below <= threshold < above:
        threshold = float(below)
    return gain, j, threshold, pos, order


def _partition(order, left_rows, n_rows):
    """`order` split per feature into the `left_rows` and the rest."""
    goes_left = np.zeros(n_rows, dtype=bool)
    goes_left[left_rows] = True
    flat = order.ravel()
    mask = goes_left.take(flat)
    n_features = order.shape[0]
    return (flat.compress(mask).reshape(n_features, -1),
            flat.compress(~mask).reshape(n_features, -1))


def fit_tree(X, resid, max_leaves, min_leaf, order, decisive=None,
             skip=None):
    """Grow one least-squares tree best-first up to `max_leaves` leaves.

    `order` holds a stable argsort of each column of `X`, features x
    rows, as `TopicBlocks.column_order` gives it; `train_mart` passes
    the same one to every tree.  A child keeps its parent's per-feature
    order with the other side's rows filtered out, so no node sorts
    again, and ties inside a column go by row index.  One search per
    node covers every feature but `skip`, the one a knockout leaves
    out.  The features whose knockout would change the choice at any
    searched node are added to the set `decisive`.
    """
    X = np.ascontiguousarray(X)
    if decisive is None:
        decisive = set()
    feature = [-1]
    threshold = [0.0]
    left = [0]
    right = [0]
    value = [float(resid.mean()) if resid.size else 0.0]
    candidates = {}
    cand = _best_candidate(X, resid, order, min_leaf, decisive, skip)
    if cand is not None:
        candidates[0] = cand
    n_leaves = 1
    while n_leaves < max_leaves and candidates:
        node = max(candidates, key=lambda nid: (candidates[nid][0], -nid))
        gain, j, thr, pos, node_order = candidates.pop(node)
        if gain <= _EPS:
            break
        feature[node] = j
        threshold[node] = thr
        left[node] = len(feature)
        right[node] = len(feature) + 1
        rows = node_order[j]
        for idx in (rows[:pos], rows[pos:]):
            feature.append(-1)
            threshold.append(0.0)
            left.append(0)
            right.append(0)
            value.append(float(resid[idx].mean()))
        n_leaves += 1
        # the children of the split that fills the tree are never split
        if n_leaves == max_leaves:
            break
        for child, child_order in zip(
                (left[node], right[node]),
                _partition(node_order, rows[:pos], X.shape[0])):
            cand = _best_candidate(X, resid, child_order, min_leaf,
                                   decisive, skip)
            if cand is not None:
                candidates[child] = cand
    return Tree(feature=tuple(feature), threshold=tuple(threshold),
                left=tuple(left), right=tuple(right), value=tuple(value))


def _tree_outputs(tree, X):
    f, t, l, r, v = tree.arrays()
    return _kernels.apply_tree(f, t, l, r, v, np.ascontiguousarray(X))


def train_mart(train, valid, config, skip=None):
    """Boost `config.n_trees` stages on the non-empty `train` TopicBlocks.

    After each stage the validation ranking metric is computed on the
    accumulated model; when `patience` consecutive stages bring no
    improvement the loop stops and the ensemble is cut back to the best
    scoring prefix (ties to the shorter one).  When the `valid`
    TopicBlocks is empty the training metric stands in.  No tree splits
    on feature `skip`.
    """
    X, y = train.X, train.y
    order = train.column_order()
    decisive = set()
    F = np.zeros(len(train))
    Fv = np.zeros(len(valid))
    trees = []
    train_mse = []
    valid_metric = []
    best_m = -np.inf
    best_stage = 0
    since_best = 0
    for stage in range(1, config.n_trees + 1):
        tree = fit_tree(X, y - F, config.max_leaves, config.min_leaf, order,
                        decisive, skip)
        trees.append(tree)
        F += config.shrinkage * _tree_outputs(tree, X)
        if len(valid):
            Fv += config.shrinkage * _tree_outputs(tree, valid.X)
        diff = y - F
        train_mse.append(float(diff @ diff) / len(train))
        if len(valid):
            vm = valid.metric(Fv, config.metric)
        else:
            vm = train.metric(F, config.metric)
        valid_metric.append(vm)
        if vm > best_m + _EPS:
            best_m = vm
            best_stage = stage
            since_best = 0
        else:
            since_best += 1
        if config.patience and since_best >= config.patience:
            log.info("early stop after stage %d (best was %d)",
                     stage, best_stage)
            break

    kept = len(trees) if config.patience == 0 else best_stage
    history = {"train_mse": tuple(train_mse),
               "valid_metric": tuple(valid_metric),
               "kept_trees": kept,
               "decisive": tuple(sorted(decisive))}
    return TreeEnsemble(trees=tuple(trees[:kept]),
                        shrinkage=config.shrinkage,
                        metric=config.metric, seed=config.seed,
                        history=history)
