"""Coordinate ascent over linear feature weights.

Greedy per-coordinate line search on the training ranking metric, with
random restarts.  Weights are L1-normalized after every sweep, which
leaves the ranking (and so the metric) unchanged but keeps magnitudes
comparable across restarts.
"""

import dataclasses
import logging
import math

import numpy as np

from ..errors import VenuerecError
from .data import METRICS

log = logging.getLogger(__name__)

_EPS = 1e-12


@dataclasses.dataclass(frozen=True)
class CAConfig:
    metric: str = "p5"
    restarts: int = 5
    max_sweeps: int = 25
    step_base: float = 0.05
    step_scales: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.metric not in METRICS:
            raise VenuerecError("unknown metric %r" % (self.metric,))
        for name in ("restarts", "max_sweeps", "step_scales"):
            if getattr(self, name) < 1:
                raise VenuerecError("%s must be >= 1, got %d"
                                    % (name, getattr(self, name)))
        if not 0.0 < self.step_base < math.inf:
            raise VenuerecError("step_base must be positive and finite")


@dataclasses.dataclass(frozen=True)
class LinearModel:
    weights: tuple
    metric: str
    seed: int

    def __post_init__(self):
        if not self.weights:
            raise VenuerecError("linear model needs at least one weight")


def _normalize(w):
    norm = np.abs(w).sum()
    if norm > 0.0:
        return w / norm
    return np.full(w.shape[0], 1.0 / w.shape[0])


def _ascend(blocks, w, config, deltas):
    """Optimize one start vector in place; returns its final train metric."""
    scores = blocks.X @ w
    cur = blocks.metric(scores, config.metric)
    for _ in range(config.max_sweeps):
        swept_gain = False
        for j in range(w.shape[0]):
            col = blocks.X[:, j]
            best_metric = cur
            best_delta = 0.0
            for delta in deltas:
                m = blocks.metric(scores + delta * col, config.metric)
                if m > best_metric + _EPS:
                    best_metric = m
                    best_delta = delta
            if best_delta != 0.0:
                w[j] += best_delta
                scores += best_delta * col
                cur = best_metric
                swept_gain = True
        if not swept_gain:
            break
        w[:] = _normalize(w)
        scores = blocks.X @ w
        cur = blocks.metric(scores, config.metric)
    return cur


def _better(valid_m, train_m, best):
    # Earlier restarts win exact ties because they are visited first.
    if valid_m > best[0] + _EPS:
        return True
    if valid_m < best[0] - _EPS:
        return False
    return train_m > best[1] + _EPS


def train_coordinate_ascent(train, valid, config=None):
    """Fit a LinearModel on `train`, pick the restart by `valid`.

    Both are TopicBlocks; when `valid` is empty the training metric
    stands in for the validation one.  Restart 0 starts from uniform
    weights; later restarts draw random positive starts from a
    generator seeded by (seed, restart).  Only restarts that at least
    match the uniform baseline on the training metric are eligible;
    among those the best validation metric wins, ties going to the
    higher training metric and then the earlier restart.
    """
    config = config or CAConfig()
    if not len(train):
        raise VenuerecError("no training rows")
    nf = train.X.shape[1]
    deltas = []
    for i in range(config.step_scales):
        step = config.step_base * 2.0 ** i
        deltas.append(step)
        deltas.append(-step)

    uniform = np.full(nf, 1.0 / nf)
    baseline = train.metric(train.X @ uniform, config.metric)

    best = None
    for restart in range(config.restarts):
        if restart == 0:
            w = uniform.copy()
        else:
            rng = np.random.default_rng([config.seed, restart])
            w = _normalize(rng.random(nf))
        train_m = _ascend(train, w, config, deltas)
        if train_m < baseline - _EPS:
            continue
        if len(valid):
            valid_m = valid.metric(valid.X @ w, config.metric)
        else:
            valid_m = train_m
        if best is None or _better(valid_m, train_m, best):
            best = (valid_m, train_m, w)

    valid_m, train_m, w = best
    if train_m <= baseline + _EPS and np.allclose(w, uniform):
        log.warning("training metric never improved over the uniform "
                    "baseline; returning uniform weights")
    return LinearModel(weights=tuple(float(x) for x in w),
                       metric=config.metric, seed=config.seed)
