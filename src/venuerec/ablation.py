"""Feature knockout study.

Retrains the configured ranker once per feature with that column zeroed
everywhere (train, validation, and scoring), then reports the relative
change of the ranking metric against the untouched baseline.  Zeroing
rather than dropping keeps every model the same shape.
"""

import dataclasses
import logging

from .errors import VenuerecError
from .features import FEATURE_NAMES
from .ltr import (
    CAConfig,
    MARTConfig,
    TopicBlocks,
    predict_matrix,
    split_train_validation,
    train_coordinate_ascent,
    train_mart,
)

log = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class AblationEntry:
    feature: str
    metric_value: float
    delta_percent: float


@dataclasses.dataclass(frozen=True)
class AblationReport:
    baseline: float
    metric: str
    learner: str
    seed: int
    entries: tuple


def _zero_column(rows, j):
    return [dataclasses.replace(
        row, features=tuple(0.0 if i == j else f
                            for i, f in enumerate(row.features)))
        for row in rows]


def _fit(train, valid, config):
    if isinstance(config, CAConfig):
        return train_coordinate_ascent(train, valid, config)
    return train_mart(train, valid, config)


def run_ablation(rows, config, split_fraction=0.67):
    """Train the full model and one knockout per feature column.

    `config` is a CAConfig or a MARTConfig; it picks the learner, and
    its metric and seed drive training, the validation split and the
    scoring alike.  Every variant is scored over all topics of `rows`,
    with the metric averaged the same way the trainers do it.
    """
    if isinstance(config, CAConfig):
        learner = "coordinate_ascent"
    elif isinstance(config, MARTConfig):
        learner = "mart"
    else:
        raise VenuerecError("unknown learner %r" % (config,))
    metric, seed = config.metric, config.seed
    rows = list(rows)
    train, valid = split_train_validation(rows, split_fraction, seed)

    baseline_model = _fit(train, valid, config)
    blocks = TopicBlocks(rows)
    baseline = blocks.metric(predict_matrix(baseline_model, blocks.X), metric)
    if baseline == 0.0:
        log.warning("baseline %s is zero; knockout deltas are reported as 0",
                    metric)

    entries = []
    for j, name in enumerate(FEATURE_NAMES):
        zeroed = _zero_column(rows, j)
        ztrain, zvalid = split_train_validation(zeroed, split_fraction, seed)
        model = _fit(ztrain, zvalid, config)
        zblocks = TopicBlocks(zeroed)
        value = zblocks.metric(predict_matrix(model, zblocks.X), metric)
        if baseline > 0.0:
            delta = 100.0 * (value - baseline) / baseline
        else:
            delta = 0.0
        entries.append(AblationEntry(feature=name, metric_value=value,
                                     delta_percent=delta))
        log.info("knockout %s: %s %.6f (%+.2f%%)", name, metric, value, delta)
    return AblationReport(baseline=baseline, metric=metric, learner=learner,
                          seed=seed, entries=tuple(entries))


def write_ablation(report, path):
    """Tab-separated knockout deltas, one feature per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# baseline\t%s\t%.6f\n" % (report.metric, report.baseline))
        fh.write("# learner\t%s\tseed\t%d\n" % (report.learner, report.seed))
        for entry in report.entries:
            fh.write("%s\t%.6f\n" % (entry.feature, entry.delta_percent))
