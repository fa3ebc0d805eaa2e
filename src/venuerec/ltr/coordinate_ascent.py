"""Coordinate ascent over linear feature weights.

Greedy per-coordinate line search on the training ranking metric, with
random restarts.  One `TopicBlocks.metric` call scores every step of a
coordinate's line search, each step the float its own call would give.
Weights are L1-normalized after every sweep, which leaves the ranking
(and so the metric) unchanged but keeps magnitudes comparable across
restarts.
"""

import dataclasses
import logging
import math

import numpy as np

from .._rng import PCG64
from ..errors import VenuerecError
from .data import METRICS

log = logging.getLogger(__name__)

_EPS = 1e-12


@dataclasses.dataclass(frozen=True, kw_only=True)
class CAConfig:
    metric: str
    restarts: int = 5
    max_sweeps: int = 25
    step_base: float = 0.05
    step_scales: int = 10
    seed: int

    def __post_init__(self):
        if self.metric not in METRICS:
            raise VenuerecError("unknown metric %r" % (self.metric,))
        for name in ("restarts", "max_sweeps", "step_scales"):
            if getattr(self, name) < 1:
                raise VenuerecError("%s must be >= 1, got %d"
                                    % (name, getattr(self, name)))
        if not 0.0 < self.step_base < math.inf:
            raise VenuerecError("step_base must be positive and finite")
        try:
            math.ldexp(self.step_base, self.step_scales - 1)
        except OverflowError:
            raise VenuerecError(
                "step_base %r and step_scales %d make the largest step, "
                "step_base * 2**(step_scales - 1), overflow a float"
                % (self.step_base, self.step_scales)) from None


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


def _masked(w, skip):
    """`w` with weight `skip` zeroed, as scores are made from it."""
    if skip is None:
        return w
    w = w.copy()
    w[skip] = 0.0
    return w


def _ascend(blocks, w, config, deltas, skip):
    """Optimize one start vector in place; returns its final train
    metric, or -inf when a sweep leaves weights whose L1 norm is not
    finite.

    Feature `skip` is never searched and scores with weight 0, while its
    weight in `w` keeps its start value through each normalization.
    """
    scores = blocks.X @ _masked(w, skip)
    cur = blocks.metric(scores, config.metric)
    for _ in range(config.max_sweeps):
        swept_gain = False
        for j in range(w.shape[0]):
            col = blocks.X[:, j]
            # a step along a zero column leaves the scores, and so
            # `cur`, as they are
            if j == skip or not col.any():
                continue
            best_metric = cur
            best_delta = 0.0
            line = blocks.metric(scores, config.metric, col, deltas)
            for delta, m in zip(deltas, line):
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
        if not np.abs(w).sum() < math.inf:
            # a step overflowed the weights or their L1 norm; such a
            # restart is never eligible
            return -math.inf
        w[:] = _normalize(w)
        scores = blocks.X @ _masked(w, skip)
        cur = blocks.metric(scores, config.metric)
    return cur


def _better(valid_m, train_m, best):
    # Earlier restarts win exact ties because they are visited first.
    if valid_m > best[0] + _EPS:
        return True
    if valid_m < best[0] - _EPS:
        return False
    return train_m > best[1] + _EPS


def train_coordinate_ascent(train, valid, config, skip=None):
    """Fit a LinearModel on `train`, pick the restart by `valid`.

    Both are TopicBlocks, `train` never empty (split_train_validation
    keeps a topic on each side); when `valid` is empty the training
    metric stands in for the validation one.  Restart 0 starts from uniform
    weights; later restarts draw random positive starts from a
    generator seeded by (seed, restart).  Only restarts that at least
    match the uniform baseline on the training metric are eligible;
    among those the best validation metric wins, ties going to the
    higher training metric and then the earlier restart.  A restart
    whose weights overflow is not eligible, and with no eligible
    restart the model is the uniform weights.  Feature `skip` is left
    out of the search, and its weight is 0.
    """
    nf = train.X.shape[1]
    deltas = []
    for i in range(config.step_scales):
        step = math.ldexp(config.step_base, i)
        deltas.append(step)
        deltas.append(-step)

    uniform = np.full(nf, 1.0 / nf)
    baseline = train.metric(train.X @ _masked(uniform, skip), config.metric)

    best = None
    for restart in range(config.restarts):
        if restart == 0:
            w = uniform.copy()
        else:
            w = _normalize(np.array(PCG64([config.seed, restart]).random(nf)))
        # steps near the float limit overflow the scores; a restart
        # whose weights overflow with them is not eligible
        with np.errstate(over="ignore", invalid="ignore"):
            train_m = _ascend(train, w, config, deltas, skip)
        if train_m < baseline - _EPS:
            continue
        if len(valid):
            valid_m = valid.metric(valid.X @ _masked(w, skip), config.metric)
        else:
            valid_m = train_m
        if best is None or _better(valid_m, train_m, best):
            best = (valid_m, train_m, w)

    _, train_m, w = best or (None, baseline, uniform)
    if train_m <= baseline + _EPS and np.allclose(w, uniform):
        log.warning("training metric never improved over the uniform "
                    "baseline; returning uniform weights")
    return LinearModel(weights=tuple(float(x) for x in _masked(w, skip)),
                       metric=config.metric, seed=config.seed)
