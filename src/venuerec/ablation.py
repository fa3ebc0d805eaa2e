"""Training, and the feature knockout study.

`fit` is the one training procedure: `train`, `pipeline` and the
study's baseline all call it, and every fit looks its trainer up in
this module, where `perfbench/traced.py` times it.  The study reports
the relative change of the ranking metric, against the untouched
baseline, when the ranker is trained with one feature left out of its
search.  A knockout fits on the baseline's own matrices with the
trainer's `skip` set to the feature: MART never splits on it, and
coordinate ascent never steps along it and gives it weight 0.  Its
model keeps every feature's slot, and gives the metric that one
trained and scored with the column zeroed everywhere gives, with no
copy of a matrix.

A MART knockout is retrained only for a feature in the baseline's
``history["decisive"]``; any other is the baseline, exactly.  The split
search gives each feature the same gain whichever others are live, so
skipping feature j only takes j out of each node's choice.  When that
changes no choice at any node the baseline searched, in any tree it
fitted, the knockout grows the same trees, stops at the same stage and
never reads column j.
"""

import dataclasses
import logging

from .features import FEATURE_NAMES
from .ltr import (
    CAConfig,
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


def _fit(train, valid, config, skip=None):
    if isinstance(config, CAConfig):
        return train_coordinate_ascent(train, valid, config, skip)
    return train_mart(train, valid, config, skip)


def fit(table, config, split_fraction, cutoff):
    """Train the learner `config` picks on `table`'s topics, split by
    `config.seed`, with rows labelled `cutoff` or more relevant; returns
    the model and the train and validation TopicBlocks."""
    train_table, valid_table = split_train_validation(table, split_fraction,
                                                      config.seed)
    train = TopicBlocks(train_table, cutoff)
    valid = TopicBlocks(valid_table, cutoff)
    return _fit(train, valid, config), train, valid


def _knockout(j, train, valid, blocks, config):
    """The metric on `blocks` of the model trained without feature `j`."""
    model = _fit(train, valid, config, skip=j)
    return blocks.metric(predict_matrix(model, blocks.X), config.metric)


def run_ablation(table, config, split_fraction, cutoff):
    """Train the full model and one knockout per feature column.

    `config` is a CAConfig or a MARTConfig; it picks the learner, and
    its metric and seed drive training, the validation split and the
    scoring alike.  Rows with a label of at least `cutoff` are the
    relevant ones, as in the run evaluator.  The baseline comes from
    `fit`; its train and validation TopicBlocks and the all-rows ones
    are built once, and each knockout trains and scores on them too,
    with its feature left out.  Every variant is scored over all topics
    of the FeatureTable `table`, with the metric averaged the same way
    the trainers do it.  Coordinate ascent trains every knockout, MART
    only those of the baseline's decisive features.
    """
    learner = "coordinate_ascent" if isinstance(config, CAConfig) else "mart"
    metric, seed = config.metric, config.seed
    baseline_model, train, valid = fit(table, config, split_fraction, cutoff)
    blocks = TopicBlocks(table, cutoff)
    baseline = blocks.metric(predict_matrix(baseline_model, blocks.X), metric)
    if baseline == 0.0:
        log.warning("baseline %s is zero; knockout deltas are reported as 0",
                    metric)

    refit = (baseline_model.history["decisive"] if learner == "mart"
             else range(len(FEATURE_NAMES)))
    entries = []
    for j, name in enumerate(FEATURE_NAMES):
        if j in refit:
            value = _knockout(j, train, valid, blocks, config)
        else:
            value = baseline
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
