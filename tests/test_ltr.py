"""Split handling, both rankers, and model file round trips."""

import json
import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference_models import (
    argsort_fit_tree,
    loop_metric,
    presort,
    table_bits,
    table_of,
    zeroed,
)
from venuerec.cli import SETTINGS
from venuerec.errors import FormatError, VenuerecError
from venuerec.features import N_FEATURES, FeatureTable
from venuerec.ltr import (
    CAConfig,
    LinearModel,
    MARTConfig,
    TopicBlocks,
    Tree,
    TreeEnsemble,
    fit_tree,
    predict_matrix,
    split_train_validation,
    train_coordinate_ascent,
    train_mart,
)
from venuerec import _kernels
from venuerec.ltr import coordinate_ascent
from venuerec.ltr import data as ltr_data
from venuerec.ltr.mart import _best_candidate, _leaders, _tree_outputs
from venuerec.ltr.serialize import load_model, save_model

CUTOFF = SETTINGS["cutoff"].default


def pad(*values):
    if len(values) > N_FEATURES:
        raise AssertionError("too many feature values")
    return tuple(float(v) for v in values) + (0.0,) * (N_FEATURES - len(values))


def make_rows(plan):
    """``{topic: [(venue, label, features tuple), ...]}`` to a FeatureTable."""
    return table_of([(topic, venue, label, features) for topic in plan
                     for venue, label, features in plan[topic]])


NO_ROWS = make_rows({})
NO_BLOCKS = TopicBlocks(NO_ROWS, CUTOFF)


def separable_rows(n_topics=4, n_candidates=8, seed=3):
    """Label-following feature 0 buried under louder noise in feature 1."""
    rng = random.Random(seed)
    plan = {}
    for t in range(n_topics):
        cands = []
        for c in range(n_candidates):
            label = 1 if c < 3 else 0
            cands.append(("v%02d" % c, label,
                          pad(float(label), 5.0 * rng.random())))
        plan["t%02d" % t] = cands
    return make_rows(plan)


class TestRowsByTopic:
    """A FeatureTable groups its rows by topic, in canonical order."""

    def test_groups_and_orders(self):
        table = make_rows({
            "t2": [("vB", 0, pad(1)), ("vA", 1, pad(2))],
            "t1": [("vZ", 0, pad(3))],
        })
        grouped = {table.topic_ids[start]: table.venue_ids[start:stop]
                   for start, stop in table.bounds}
        assert list(grouped) == ["t1", "t2"]
        assert list(grouped["t2"]) == ["vA", "vB"]

    def test_rejects_duplicate_rows(self):
        with pytest.raises(VenuerecError, match="duplicate row"):
            FeatureTable(["t1", "t1"], ["vA", "vA"], [0, 0], [pad(1)] * 2)


class TestSplit:
    def rows(self, n_topics):
        return make_rows({
            "t%02d" % t: [("vA", 1, pad(t)), ("vB", 0, pad(t))]
            for t in range(n_topics)
        })

    def test_topic_granularity(self):
        train, valid = split_train_validation(self.rows(10), 0.67, seed=5)
        train_topics = set(train.topic_ids)
        valid_topics = set(valid.topic_ids)
        assert not train_topics & valid_topics
        assert len(train_topics) == 7
        assert len(valid_topics) == 3

    def test_deterministic_per_seed(self):
        a = split_train_validation(self.rows(9), 0.67, seed=11)
        b = split_train_validation(self.rows(9), 0.67, seed=11)
        assert list(map(table_bits, a)) == list(map(table_bits, b))

    def test_seed_changes_assignment(self):
        splits = {split_train_validation(self.rows(12), 0.5, seed=s)[0]
                  .topic_ids for s in range(8)}
        assert len(splits) > 1

    def test_extreme_fractions_keep_both_sides(self):
        train, valid = split_train_validation(self.rows(10), 0.01, seed=0)
        assert len(train.bounds) == 1
        train, valid = split_train_validation(self.rows(10), 0.99, seed=0)
        assert len(valid.bounds) == 1

    def test_too_few_topics(self):
        with pytest.raises(VenuerecError, match="at least 2 topics"):
            split_train_validation(self.rows(1), 0.5, seed=0)


def brute_metric(table, scores, metric, k=5):
    """Mean metric over topics with a relevant row, by repeated max."""
    by_topic = {}
    for topic, venue, label, score in zip(table.topic_ids, table.venue_ids,
                                          table.labels, scores):
        by_topic.setdefault(topic, []).append((venue, label, float(score)))
    totals = []
    for topic in sorted(by_topic):
        rows = by_topic[topic]
        if not any(label >= 1 for _, label, _ in rows):
            continue
        ordered = sorted(rows, key=lambda r: (-r[2], r[0]))
        if metric == "p5":
            hits = sum(1 for _, label, _ in ordered[:k] if label >= 1)
            totals.append(hits / k)
        else:
            rr = 0.0
            for pos, (_, label, _) in enumerate(ordered):
                if label >= 1:
                    rr = 1.0 / (pos + 1)
                    break
            totals.append(rr)
    return sum(totals) / len(totals) if totals else 0.0


class TestTopicBlocks:
    def test_matches_brute_force_metrics(self):
        rng = random.Random(271)
        for _ in range(20):
            plan = {}
            for t in range(rng.randint(1, 6)):
                cands = []
                for c in range(rng.randint(1, 12)):
                    cands.append(("v%02d" % c, rng.choice([0, 0, 1, 2]),
                                  pad(rng.random(), rng.random())))
                plan["t%02d" % t] = cands
            table = make_rows(plan)
            blocks = TopicBlocks(table, CUTOFF)
            scores = np.asarray(
                [rng.choice([0.0, 0.5, 1.0]) for _ in range(len(table))])
            for metric in ("p5", "mrr"):
                got = blocks.metric(scores, metric)
                want = brute_metric(table, scores, metric)
                assert got == pytest.approx(want, abs=1e-12)

    def test_no_relevant_topics_scores_zero(self):
        rows = make_rows({"t1": [("vA", 0, pad(1.0))]})
        blocks = TopicBlocks(rows, CUTOFF)
        assert blocks.metric(np.ones(1), "p5") == 0.0

    def test_cutoff_sets_the_relevant_grade(self):
        # v0-v5 rank in id order; only v0 reaches grade 2
        rows = make_rows({"t1": [("v%d" % c, grade, pad(6.0 - c))
                                 for c, grade in enumerate((2, 1, 1, 0, 0,
                                                            0))]})
        scores = rows.X[:, 0]
        assert TopicBlocks(rows, 1).metric(scores, "p5") == 3 / 5
        assert TopicBlocks(rows, 2).metric(scores, "p5") == 1 / 5
        assert TopicBlocks(rows, 2).metric(scores, "mrr") == 1.0
        assert TopicBlocks(rows, 3).metric(scores, "p5") == 0.0

    def test_tie_break_matches_run_builder(self):
        # Equal scores rank venue ids ascending; vA relevant, vB not.
        rows = make_rows({"t1": [
            ("vA", 1, pad(0.0)), ("vB", 0, pad(0.0)),
        ]})
        blocks = TopicBlocks(rows, CUTOFF)
        assert blocks.metric(np.zeros(2), "mrr") == 1.0
        rows = make_rows({"t1": [
            ("vA", 0, pad(0.0)), ("vB", 1, pad(0.0)),
        ]})
        blocks = TopicBlocks(rows, CUTOFF)
        assert blocks.metric(np.zeros(2), "mrr") == 0.5


# Ties, signed zeros and the non-finite values a score vector can hold.
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, math.inf, -math.inf,
                     math.nan]),
    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def scored_topics(draw):
    """Ragged topics of 1-60 rows, labels mostly 0, and aligned scores."""
    sizes = draw(st.lists(st.integers(1, 60), max_size=6))
    labels = draw(hnp.arrays(np.int64, sum(sizes),
                             elements=st.sampled_from([0, 0, 0, 1, 2])))
    scores = draw(hnp.arrays(np.float64, sum(sizes), elements=SCORES))
    plan = {}
    for t, size in enumerate(sizes):
        plan["t%02d" % t] = [("v%02d" % c, int(label), pad())
                             for c, label in enumerate(labels[:size])]
        labels = labels[size:]
    return make_rows(plan), scores


def seven_rows(relevant):
    """One topic of venues v0-v6; the given ones are relevant."""
    return make_rows({"t1": [("v%d" % c, int(c in relevant), pad())
                             for c in range(7)]})


# Score vectors that put ties, signed zeros, NaN and infinities at the
# cut, and topics narrower than k, with no topic to include or several.
METRIC_CASES = (
    (NO_ROWS, np.zeros(0)),
    (make_rows({"t1": [("vA", 0, pad()), ("vB", 0, pad())]}), np.zeros(2)),
    (make_rows({
        "t1": [("vA", 0, pad()), ("vB", 1, pad())],
        "t2": [("v%d" % c, int(c == 0), pad()) for c in range(4)]}),
     np.array([1.0, math.nan, 0.0, 0.0, 0.0, 0.0])),
    (make_rows({"t1": [("v%d" % c, int(c == 6), pad()) for c in range(7)]}),
     np.array([0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0])),
    # a tie straddling places k and k+1; the later venue is relevant
    (seven_rows(relevant=(5,)),
     np.array([5.0, 4.0, 3.0, 2.0, 1.0, 1.0, 0.0])),
    # -0.0 and 0.0 on either side of the cut
    (seven_rows(relevant=(4, 5)),
     np.array([3.0, 2.0, 1.0, 0.5, -0.0, 0.0, -1.0])),
    (seven_rows(relevant=(4,)),
     np.array([3.0, 2.0, 1.0, 0.5, 0.0, -0.0, -1.0])),
    # NaN scores rank last, so here two of them fall inside the top k
    (seven_rows(relevant=(2, 4)),
     np.array([math.nan, 1.0, math.nan, 0.5, math.nan, 0.2, math.nan])),
    # a topic narrower than k: alone, and padded next to a wider one
    (make_rows({"t1": [("v%d" % c, int(c == 2), pad()) for c in range(3)]}),
     np.array([0.3, 0.2, 0.1])),
    (make_rows({
        "t1": [("v%d" % c, int(c == 2), pad()) for c in range(3)],
        "t2": [("v%d" % c, int(c == 6), pad()) for c in range(8)]}),
     np.array([0.3, 0.2, 0.1, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0])),
    # +-inf at the cut: tied across it, and alone at it
    (seven_rows(relevant=(5,)), np.array([math.inf] * 6 + [0.0])),
    (seven_rows(relevant=(6,)), np.array([1.0, 0.0] + [-math.inf] * 5)),
    (seven_rows(relevant=(4,)), np.array([math.inf] * 5 + [0.0, -1.0])),
    # for MRR, a row that ties the first relevant one and precedes it
    (seven_rows(relevant=(1, 3)),
     np.array([1.0, 1.0, 2.0, 0.5, 0.0, -1.0, -2.0])),
)


def with_cases(*lines):
    """Each of METRIC_CASES as an example `case` of a test, paired with
    each of `lines` as its `line` when any are given."""
    def decorate(test):
        for case in METRIC_CASES:
            for fixed in [{"line": line} for line in lines] or [{}]:
                test = example(case=case, **fixed)(test)
        return test
    return decorate


class TestMetricMatchesTopicLoop:
    """The padded-matrix metric gives the very float of a per-topic loop."""

    @given(case=scored_topics())
    @with_cases()
    @settings(max_examples=300, deadline=None)
    def test_equals_loop(self, case):
        rows, scores = case
        blocks = TopicBlocks(rows, CUTOFF)
        for metric in ("p5", "mrr"):
            assert (blocks.metric(scores, metric)
                    == loop_metric(blocks, scores, metric))

    def test_argsort_runs_only_for_a_tie_at_the_cut(self, monkeypatch):
        blocks = TopicBlocks(make_rows({
            "t%d" % t: [("v%d" % c, int(c in (t, 6)), pad())
                        for c in range(9)] for t in range(3)}), CUTOFF)
        tie_free = np.linspace(1.0, 0.0, len(blocks))
        tied = tie_free.copy()
        tied[4] = tied[5]
        want = {metric: loop_metric(blocks, tie_free, metric)
                for metric in ("p5", "mrr")}

        class ArgsortCalled(Exception):
            pass

        def argsort(*args, **kwargs):
            raise ArgsortCalled

        monkeypatch.setattr(np, "argsort", argsort)
        for metric in ("p5", "mrr"):
            assert blocks.metric(tie_free, metric) == want[metric]
            # steps that scale the scores keep their order
            assert (blocks.metric(tie_free, metric, tie_free, (0.5, -0.5))
                    == [want[metric]] * 2)
        with pytest.raises(ArgsortCalled):
            blocks.metric(tied, "p5")
        with pytest.raises(ArgsortCalled):
            blocks.metric(tied, "p5", np.zeros(len(tied)), (1.0,))

    def test_many_topics_add_in_topic_order(self):
        # Enough topics that a pairwise sum would round differently.
        rng = random.Random(5)
        for _ in range(20):
            plan = {"t%03d" % t: [("v%02d" % c, rng.choice([0, 0, 1]),
                                   pad())
                                  for c in range(rng.randint(1, 60))]
                    for t in range(rng.randint(20, 120))}
            blocks = TopicBlocks(make_rows(plan), CUTOFF)
            scores = np.asarray([rng.choice([0.0, 0.25, rng.random()])
                                 for _ in range(len(blocks))])
            for metric in ("p5", "mrr"):
                assert (blocks.metric(scores, metric)
                        == loop_metric(blocks, scores, metric))


# steps of both signs, as coordinate ascent takes them, and any others
STEPS = st.one_of(st.sampled_from([0.05, -0.05, 0.4, -0.4, 1.6, -1.6]),
                  st.floats(-1e6, 1e6))


@st.composite
def lines(draw):
    """A line search: a column pattern repeated over the rows, its steps,
    and the keys one block of steps may hold (`_LINE_CELLS`)."""
    pattern = draw(st.lists(SCORES, min_size=1, max_size=60))
    steps = draw(st.lists(STEPS, min_size=1, max_size=13))
    return pattern, steps, draw(st.integers(1, 2000))


class TestLineSearch:
    """One call scores every step of a line search, each the very float
    of a call per step and of a per-topic loop."""

    @given(case=scored_topics(), line=lines())
    # a zero column keeps each case's ties at every step; blocks of 1-2
    # steps leave a short last block
    @with_cases(((0.0,), (0.05, -0.05, 0.1, -0.1, 0.2), 15),
                ((1.0, -0.5, 0.0, 2.0), (0.05, -0.05, 0.4, -0.4, 1.6), 7))
    @settings(max_examples=300, deadline=None)
    def test_equals_one_call_per_step(self, case, line):
        rows, scores = case
        pattern, steps, cells = line
        col = np.resize(np.asarray(pattern, dtype=np.float64), len(scores))
        blocks = TopicBlocks(rows, CUTOFF)
        with (np.errstate(all="ignore"),
              mock.patch.object(ltr_data, "_LINE_CELLS", cells)):
            for metric in ("p5", "mrr"):
                per_step = [blocks.metric(scores + d * col, metric)
                            for d in steps]
                assert (repr(blocks.metric(scores, metric, col, steps))
                        == repr(per_step))
                assert repr(per_step) == repr(
                    [float(loop_metric(blocks, scores + d * col, metric))
                     for d in steps])


def per_step_ascend(blocks, w, config, deltas, skip):
    """`coordinate_ascent._ascend` with one `metric` call per step."""
    scores = blocks.X @ coordinate_ascent._masked(w, skip)
    cur = blocks.metric(scores, config.metric)
    for _ in range(config.max_sweeps):
        swept_gain = False
        for j in range(w.shape[0]):
            col = blocks.X[:, j]
            if j == skip or not col.any():
                continue
            best_metric = cur
            best_delta = 0.0
            for delta in deltas:
                m = blocks.metric(scores + delta * col, config.metric)
                if m > best_metric + coordinate_ascent._EPS:
                    best_metric = m
                    best_delta = delta
            if best_delta != 0.0:
                w[j] += best_delta
                scores += best_delta * col
                cur = best_metric
                swept_gain = True
        if not swept_gain:
            break
        w[:] = coordinate_ascent._normalize(w)
        scores = blocks.X @ coordinate_ascent._masked(w, skip)
        cur = blocks.metric(scores, config.metric)
    return cur


class TestCoordinateAscent:
    @pytest.mark.parametrize("metric", ["p5", "mrr"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_one_metric_call_per_step(self, monkeypatch, metric,
                                             seed):
        # ragged topics, and columns with ties, zeros and noise
        rng = random.Random(seed)
        plan = {"t%02d" % t: [
            ("v%02d" % c, rng.choice([0, 0, 0, 1, 2]),
             pad(*(rng.choice([0.0, 0.5, 1.0, rng.random()])
                   for _ in range(4))))
            for c in range(rng.randint(3, 40))] for t in range(12)}
        train, valid = (TopicBlocks(side, CUTOFF) for side in
                        split_train_validation(make_rows(plan), 0.67, seed))
        config = CAConfig(metric=metric, restarts=3, max_sweeps=4, seed=seed)
        model = train_coordinate_ascent(train, valid, config)
        monkeypatch.setattr(coordinate_ascent, "_ascend", per_step_ascend)
        assert repr(train_coordinate_ascent(train, valid, config)) == repr(
            model)

    def test_zero_columns_are_not_line_searched(self, monkeypatch):
        # two live columns; the other 11 are zero
        blocks = TopicBlocks(separable_rows(), CUTOFF)
        scored = []
        metric = TopicBlocks.metric

        def counted(self, scores, name, col=None, steps=None):
            scored.append(1 if steps is None else len(steps))
            return metric(self, scores, name, col, steps)
        monkeypatch.setattr(TopicBlocks, "metric", counted)
        config = CAConfig(restarts=1, max_sweeps=1, step_scales=3,
                          metric="p5", seed=0)
        train_coordinate_ascent(blocks, NO_BLOCKS, config)
        # the baseline, the start, 2 columns x 6 steps, and one rescore
        # after a sweep that gained
        assert sum(scored) - 2 - 2 * 6 in (0, 1)

    def test_separable_signal_reaches_perfect_p5(self):
        rows = separable_rows()
        config = CAConfig(restarts=2, max_sweeps=10, seed=1, metric="p5")
        model = train_coordinate_ascent(TopicBlocks(rows, CUTOFF),
                                        NO_BLOCKS, config)
        blocks = TopicBlocks(rows, CUTOFF)
        assert blocks.metric(predict_matrix(model, blocks.X),
                             "p5") == pytest.approx(3 / 5)
        # 3 relevant of 8 candidates: all three must land in the top 5,
        # and with only three relevant P@5 caps at 3/5.
        assert model.weights[0] > 0

    def test_anti_correlated_feature_gets_negative_weight(self):
        rng = random.Random(8)
        plan = {}
        for t in range(4):
            cands = []
            for c in range(8):
                label = 1 if c < 3 else 0
                cands.append(("v%02d" % c, label,
                              pad(-float(label), rng.random())))
            plan["t%02d" % t] = cands
        rows = make_rows(plan)
        model = train_coordinate_ascent(
            TopicBlocks(rows, CUTOFF), NO_BLOCKS,
            CAConfig(restarts=2, max_sweeps=10, seed=1, metric="p5"))
        assert model.weights[0] < 0
        blocks = TopicBlocks(rows, CUTOFF)
        ranked = blocks.metric(predict_matrix(model, blocks.X), "mrr")
        assert ranked == pytest.approx(1.0)

    def test_constant_features_return_uniform_with_warning(self, caplog):
        rows = make_rows({
            "t%d" % t: [("vA", 1, pad(2.0, 2.0)), ("vB", 0, pad(2.0, 2.0))]
            for t in range(3)
        })
        with caplog.at_level("WARNING", logger="venuerec.ltr"):
            model = train_coordinate_ascent(
                TopicBlocks(rows, CUTOFF), NO_BLOCKS,
                CAConfig(restarts=2, max_sweeps=3, seed=0, metric="p5"))
        assert model.weights == tuple([1.0 / N_FEATURES] * N_FEATURES)
        assert any("uniform" in rec.message for rec in caplog.records)

    def test_weights_are_l1_normalized(self):
        model = train_coordinate_ascent(
            TopicBlocks(separable_rows(), CUTOFF), NO_BLOCKS,
            CAConfig(restarts=1, max_sweeps=5, seed=0, metric="p5"))
        assert sum(abs(w) for w in model.weights) == pytest.approx(1.0)

    def test_deterministic_across_runs(self):
        config = CAConfig(restarts=3, max_sweeps=5, seed=42, metric="p5")
        a = train_coordinate_ascent(TopicBlocks(separable_rows(), CUTOFF),
                                    NO_BLOCKS, config)
        b = train_coordinate_ascent(TopicBlocks(separable_rows(), CUTOFF),
                                    NO_BLOCKS, config)
        assert a == b

    def test_config_validation(self):
        with pytest.raises(VenuerecError):
            CAConfig(metric="map", seed=0)
        with pytest.raises(VenuerecError):
            CAConfig(restarts=0, metric="p5", seed=0)
        with pytest.raises(VenuerecError):
            CAConfig(step_base=0.0, metric="p5", seed=0)

    @pytest.mark.parametrize("step_base", [math.inf, math.nan, -1.0])
    def test_step_base_must_be_finite_and_positive(self, step_base):
        with pytest.raises(VenuerecError, match="step_base must be positive"):
            CAConfig(step_base=step_base, metric="p5", seed=0)

    @pytest.mark.parametrize("step_base, step_scales", [
        (0.05, 1100), (1e308, 2), (5e-324, 2099), (0.05, 10 ** 30)])
    def test_largest_step_must_be_finite(self, step_base, step_scales):
        with pytest.raises(VenuerecError, match="largest step"):
            CAConfig(step_base=step_base, step_scales=step_scales,
                     metric="p5", seed=0)

    @pytest.mark.parametrize("step_base, step_scales", [
        (1e308, 1), (1e-300, 1100), (5e-324, 2098)])
    def test_largest_step_may_reach_the_float_limit(self, step_base,
                                                     step_scales):
        CAConfig(step_base=step_base, step_scales=step_scales, metric="p5",
                 seed=0)

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_weights_that_overflow_give_uniform_with_warning(self, caplog,
                                                             restarts):
        # feature 0 marks the relevant venues of topics 0-1, feature 1
        # those of topics 2-3, and feature 2 puts the others first under
        # uniform weights: a step of 1e308 along each of 0 and 1 gains,
        # and their L1 norm overflows
        rows = make_rows({"t%d" % t: [
            ("v%d" % c, int(c < 3),
             pad(float(c < 3 and t < 2), float(c < 3 and t >= 2),
                 0.0 if c < 3 else 2.0))
            for c in range(8)] for t in range(4)})
        config = CAConfig(step_base=1e308, step_scales=1, restarts=restarts,
                          max_sweeps=1, metric="p5", seed=0)
        with caplog.at_level("WARNING", logger="venuerec.ltr"):
            model = train_coordinate_ascent(TopicBlocks(rows, CUTOFF),
                                            NO_BLOCKS, config)
        assert model.weights == tuple([1.0 / N_FEATURES] * N_FEATURES)
        assert any("uniform" in rec.message for rec in caplog.records)


def leaves(tree):
    return sum(1 for f in tree.feature if f < 0)


class TestFitTree:
    def test_split_at_midpoint(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = fit_tree(X, y, max_leaves=2, min_leaf=1, order=presort(X))
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 2.5
        left, right = tree.left[0], tree.right[0]
        assert tree.value[left] == 0.0
        assert tree.value[right] == 1.0

    def test_equal_gains_take_lowest_threshold(self):
        # Symmetric targets: cutting after the first or before the last
        # row gains the same; the lower cut must win.
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 0.0, 0.0, 1.0])
        tree = fit_tree(X, y, max_leaves=2, min_leaf=1, order=presort(X))
        assert tree.threshold[0] == 1.5

    @pytest.mark.parametrize("below, above", [
        (1.0000000000000002, 1.0000000000000004),
        (1.7e308, 1.75e308),
        (-1.75e308, -1.7e308),
        (5e-324, 1e-323),
    ], ids=["adjacent", "overflow", "negative-overflow", "subnormal"])
    def test_threshold_separates_the_sides(self, below, above):
        # the midpoint rounds to `above` or overflows; `below` stands in
        X = np.array([[below], [above]])
        y = np.array([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = fit_tree(X, y, max_leaves=2, min_leaf=1,
                            order=presort(X))
            routed = _tree_outputs(tree, X)
        assert tree.threshold[0] == below
        assert tree.value[tree.left[0]] == 0.0
        assert tree.value[tree.right[0]] == 1.0
        assert routed.tolist() == [0.0, 1.0]

    def test_pure_targets_stay_a_leaf(self):
        X = np.array([[1.0], [2.0], [3.0]])
        tree = fit_tree(X, np.full(3, 0.7), max_leaves=4, min_leaf=1,
                        order=presort(X))
        assert tree.feature == (-1,)
        assert tree.value[0] == pytest.approx(0.7)

    def test_min_leaf_blocks_narrow_splits(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([5.0, 0.0, 0.0, 0.0])
        tree = fit_tree(X, y, max_leaves=2, min_leaf=2, order=presort(X))
        # The ideal cut isolates row 0 but min_leaf forces 2 + 2.
        assert tree.threshold[0] == 2.5

    def test_leaf_budget_respected(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        for budget in (2, 4, 7):
            tree = fit_tree(X, y, max_leaves=budget, min_leaf=1,
                            order=presort(X))
            assert leaves(tree) <= budget

    def test_best_first_picks_higher_gain_side(self):
        # The right branch is pure after the root split; the one extra
        # leaf must go to the left branch where variance remains.
        X = np.array([[0.0], [0.0], [10.0], [11.0], [20.0], [21.0]])
        y = np.array([0.0, 0.0, 4.0, 4.0, 9.0, 9.0])
        tree = fit_tree(X, y, max_leaves=3, min_leaf=1, order=presort(X))
        assert leaves(tree) == 3
        outs = predict_matrix(
            TreeEnsemble(trees=(tree,), shrinkage=1.0, metric="p5", seed=0), X)
        assert list(outs) == [0.0, 0.0, 4.0, 4.0, 9.0, 9.0]


@st.composite
def tree_problems(draw):
    """Feature matrix, residuals and sizes for one fit_tree call.

    Each column is tie-free, constant, zero or drawn from a few small
    integers, so full of ties.  Residuals are integer-valued or
    arbitrary floats.
    """
    n = draw(st.integers(1, 200))
    kinds = draw(st.lists(st.sampled_from(("distinct", "constant", "zero",
                                           "tied")), min_size=1,
                          max_size=6))
    columns = []
    for kind in kinds:
        if kind == "distinct":
            columns.append(draw(hnp.arrays(
                np.float64, n, unique=True,
                elements=st.floats(-1e3, 1e3, allow_subnormal=False))))
        elif kind == "constant":
            columns.append(np.full(n, draw(st.floats(-1e3, 1e3))))
        elif kind == "zero":
            columns.append(np.zeros(n))
        else:
            columns.append(draw(hnp.arrays(
                np.float64, n, elements=st.integers(-2, 2).map(float))))
    X = np.column_stack(columns)
    integer_resid = draw(st.booleans())
    if integer_resid:
        elements = st.integers(-1000, 1000).map(float)
    else:
        elements = st.floats(-10.0, 10.0)
    resid = draw(hnp.arrays(np.float64, n, elements=elements))
    exact = integer_resid or "tied" not in kinds
    return (X, resid, draw(st.integers(2, 9)), draw(st.integers(1, 4)),
            exact)


class TestPresortedSplitSearch:
    """fit_tree sorts each column once; the oracle sorts at every node."""

    @settings(max_examples=300, deadline=None)
    @given(tree_problems())
    def test_matches_the_per_node_argsort_oracle(self, problem):
        X, resid, max_leaves, min_leaf, exact = problem
        tree = fit_tree(X, resid, max_leaves, min_leaf, presort(X))
        oracle = argsort_fit_tree(X, resid, max_leaves, min_leaf)
        assert tree.feature == oracle.feature
        assert tree.threshold == oracle.threshold
        assert tree.left == oracle.left
        assert tree.right == oracle.right
        if exact:
            # Sums over tied rows may be added in another order, so only
            # without ties or with integer residuals are the values exact.
            assert tree.value == oracle.value

    @settings(max_examples=100, deadline=None)
    @given(tree_problems(), st.integers(0, 5))
    def test_a_skipped_feature_fits_as_a_zero_column(self, problem, j):
        X, resid, max_leaves, min_leaf, _ = problem
        j %= X.shape[1]
        Z = X.copy()
        Z[:, j] = 0.0
        decisive, zero_decisive = set(), set()
        tree = fit_tree(X, resid, max_leaves, min_leaf, presort(X), decisive,
                        skip=j)
        assert tree == fit_tree(Z, resid, max_leaves, min_leaf, presort(Z),
                                zero_decisive)
        assert j not in tree.feature
        assert decisive == zero_decisive

    @settings(max_examples=100, deadline=None)
    @given(tree_problems())
    def test_given_order_matches_own_sort(self, problem):
        X, resid, max_leaves, min_leaf, _ = problem
        order = np.argsort(X, axis=0, kind="stable").T.astype(np.int32)
        assert fit_tree(X, resid, max_leaves, min_leaf, order) == \
            fit_tree(X, resid, max_leaves, min_leaf, presort(X))


def choose(monkeypatch, gains):
    """The split feature and the decisive set of one node whose search
    gives feature j the gain ``gains[j]``, or no cut when that is None."""
    k = len(gains)
    cuts = np.array([0 if g is None else 1 for g in gains], dtype=np.intp)
    values = np.array([0.0 if g is None else g for g in gains])
    monkeypatch.setattr(_kernels, "best_split",
                        lambda X, order, targets, min_leaf, skip:
                        (values, cuts))
    X = np.array([[0.0] * k, [1.0] * k])
    decisive = set()
    cand = _best_candidate(X, np.zeros(2), presort(X), 1, decisive, None)
    return (None if cand is None else cand[1]), decisive


class TestDecisiveFeatures:
    """A feature is decisive when knocking it out changes the split
    choice at some node the fit searched."""

    def test_a_near_tie_chain_makes_an_unchosen_feature_decisive(
            self, monkeypatch):
        gains = [1.0, 1.0 + 1.5e-12, 1.0 + 2.2e-12, 1.0 + 3e-12]
        assert _leaders(gains, [0, 1, 2, 3]) == [0, 1, 3]
        # without feature 1, feature 2 leads by more than 1e-12 and 3
        # no longer does
        assert _leaders(gains, [0, 1, 2, 3], 1) == [0, 2]
        assert _leaders(gains, [0, 1, 2, 3], 0) == [1, 3]
        assert choose(monkeypatch, gains) == (3, {1, 3})

    def test_a_nan_gain_holds_the_lead_it_takes(self, monkeypatch):
        nan = float("nan")
        # NaN never takes the lead from a number, but once first it
        # keeps it: knocking out feature 0 hands the choice to the NaN
        assert choose(monkeypatch, [1.0, nan, 2.0]) == (2, {0, 2})
        assert choose(monkeypatch, [nan, 2.0, 1.0]) == (0, {0})

    def test_a_node_without_a_candidate_adds_nothing(self, monkeypatch):
        assert choose(monkeypatch, [None, None, None]) == (None, set())
        assert choose(monkeypatch, [None, 2.0, None]) == (1, {1})

    def test_constant_columns_give_no_candidate(self):
        X = np.ones((4, 2))
        decisive = set()
        tree = fit_tree(X, np.array([0.0, 1.0, 0.0, 1.0]), max_leaves=4,
                        min_leaf=1, order=presort(X), decisive=decisive)
        assert tree.feature == (-1,)
        assert decisive == set()

    def test_a_split_past_the_kept_prefix_is_decisive(self):
        # Feature 0 flags the relevant rows, feature 1 the grade-2 one
        # among them.  The first tree splits on feature 0 and already
        # ranks every topic perfectly; the second splits on feature 1,
        # brings no gain in P@5 and is cut away by patience.
        plan = {}
        for t in range(3):
            plan["t%d" % t] = [
                ("v%d" % c, label, pad(float(label > 0), float(label == 2)))
                for c, label in enumerate((2, 1, 1, 0, 0, 0, 0, 0))]
        blocks = TopicBlocks(make_rows(plan), CUTOFF)
        model = train_mart(blocks, blocks, MARTConfig(
            n_trees=5, shrinkage=1.0, max_leaves=2, patience=1, metric="p5",
            seed=0))
        assert len(model.history["valid_metric"]) == 2
        assert [tree.feature[0] for tree in model.trees] == [0]
        assert model.history["decisive"] == (0, 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_knockout_outside_the_set_fits_the_same_trees(self, seed):
        rng = random.Random(seed)
        rows = make_rows({"t%d" % t: [
            ("v%02d" % c, rng.choice([0, 0, 1, 2]),
             pad(*(round(rng.random(), 1) for _ in range(6))))
            for c in range(12)] for t in range(6)})
        sides = split_train_validation(rows, 0.6, seed)
        train, valid = (TopicBlocks(side, CUTOFF) for side in sides)
        config = MARTConfig(n_trees=12, max_leaves=4, patience=3, seed=seed,
                            metric="p5")
        model = train_mart(train, valid, config)
        decisive = model.history["decisive"]
        assert 0 < len(decisive) < 6
        for j in range(N_FEATURES):
            if j not in decisive:
                knocked = train_mart(*(TopicBlocks(zeroed(side, j), CUTOFF)
                                       for side in sides), config)
                assert knocked == model
                for key in ("train_mse", "valid_metric", "kept_trees"):
                    assert knocked.history[key] == model.history[key]


class TestMart:
    def test_overfits_tiny_regression(self):
        X = np.arange(8.0).reshape(8, 1)
        plan = {"t1": [("v%d" % i, int(y), pad(float(x)))
                       for i, (x, y) in enumerate(
                           zip(X[:, 0], [0, 0, 1, 1, 2, 2, 3, 3]))]}
        rows = make_rows(plan)
        config = MARTConfig(n_trees=200, shrinkage=0.1, max_leaves=4,
                            patience=0, seed=0, metric="p5")
        model = train_mart(TopicBlocks(rows, CUTOFF), NO_BLOCKS, config)
        assert len(model.trees) == 200
        rmse = math.sqrt(model.history["train_mse"][-1])
        assert rmse < 0.01

    def test_training_mse_never_increases(self):
        rng = random.Random(99)
        plan = {}
        for t in range(5):
            plan["t%d" % t] = [
                ("v%02d" % c, rng.choice([0, 1, 2]),
                 pad(rng.random(), rng.random(), rng.random()))
                for c in range(10)]
        rows = make_rows(plan)
        model = train_mart(TopicBlocks(rows, CUTOFF), NO_BLOCKS,
                           MARTConfig(n_trees=200, patience=0, metric="p5",
                                      seed=0))
        mse = model.history["train_mse"]
        assert len(mse) == 200
        assert all(b <= a + 1e-12 for a, b in zip(mse, mse[1:]))

    def test_patience_keeps_best_prefix(self):
        rows = separable_rows(n_topics=3)
        # One candidate per validation topic: the metric cannot move, so
        # the first stage stays the best and patience cuts right there.
        valid = make_rows({"v1": [("vA", 1, pad(0.3))]})
        model = train_mart(TopicBlocks(rows, CUTOFF),
                           TopicBlocks(valid, CUTOFF),
                           MARTConfig(n_trees=30, patience=1, seed=0,
                                      metric="p5"))
        assert len(model.trees) == 1
        assert model.history["kept_trees"] == 1
        assert len(model.history["valid_metric"]) == 2

    def test_patience_zero_keeps_all_trees(self):
        rows = separable_rows(n_topics=3)
        valid = make_rows({"v1": [("vA", 1, pad(0.3))]})
        model = train_mart(TopicBlocks(rows, CUTOFF),
                           TopicBlocks(valid, CUTOFF),
                           MARTConfig(n_trees=12, patience=0, seed=0,
                                      metric="p5"))
        assert len(model.trees) == 12

    def test_zero_trees_rejected(self):
        with pytest.raises(VenuerecError, match="n_trees"):
            MARTConfig(n_trees=0, metric="p5", seed=0)

    def test_config_validation(self):
        with pytest.raises(VenuerecError):
            MARTConfig(shrinkage=0.0, metric="p5", seed=0)
        with pytest.raises(VenuerecError):
            MARTConfig(max_leaves=1, metric="p5", seed=0)
        with pytest.raises(VenuerecError):
            MARTConfig(patience=-1, metric="p5", seed=0)

    def test_deterministic_across_runs(self):
        config = MARTConfig(n_trees=15, patience=0, seed=7, metric="p5")
        a = train_mart(TopicBlocks(separable_rows(), CUTOFF), NO_BLOCKS,
                       config)
        b = train_mart(TopicBlocks(separable_rows(), CUTOFF), NO_BLOCKS,
                       config)
        assert a == b

    def test_separable_signal_ranks_perfectly(self):
        rows = separable_rows(n_topics=5)
        train, valid = split_train_validation(rows, 0.6, seed=2)
        model = train_mart(TopicBlocks(train, CUTOFF),
                           TopicBlocks(valid, CUTOFF),
                           MARTConfig(n_trees=40, seed=0, metric="p5"))
        blocks = TopicBlocks(rows, CUTOFF)
        assert blocks.metric(predict_matrix(model, blocks.X),
                             "mrr") == pytest.approx(1.0)


class TestPredict:
    def test_linear_single_axis(self):
        weights = tuple([1.0] + [0.0] * (N_FEATURES - 1))
        model = LinearModel(weights=weights, metric="p5", seed=0)
        X = np.zeros((3, N_FEATURES))
        X[:, 0] = [0.5, -1.0, 2.0]
        assert list(predict_matrix(model, X)) == [0.5, -1.0, 2.0]

    def test_single_leaf_ensemble_is_constant(self):
        tree = Tree(feature=(-1,), threshold=(0.0,), left=(0,), right=(0,),
                    value=(5.0,))
        model = TreeEnsemble(trees=(tree,), shrinkage=0.1, metric="p5",
                             seed=0)
        out = predict_matrix(model, np.zeros((4, N_FEATURES)))
        assert list(out) == [0.5, 0.5, 0.5, 0.5]

    def test_dimension_mismatch(self):
        model = LinearModel(weights=(1.0, 2.0), metric="p5", seed=0)
        with pytest.raises(VenuerecError, match="features"):
            predict_matrix(model, np.zeros((2, 5)))

    def test_empty_rows(self):
        model = LinearModel(weights=(1.0,) * N_FEATURES, metric="p5", seed=0)
        assert predict_matrix(model, NO_ROWS.X).shape == (0,)

    def test_empty_rows_under_trees(self):
        tree = Tree(feature=(0, -1, -1), threshold=(0.5, 0.0, 0.0),
                    left=(1, 0, 0), right=(2, 0, 0), value=(0.0, 1.0, 2.0))
        model = TreeEnsemble(trees=(tree,), shrinkage=0.1, metric="p5",
                             seed=0)
        assert predict_matrix(model, NO_ROWS.X).shape == (0,)


_EDGE_FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308,
                     1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def random_trees(draw):
    """A tree grown by splitting random leaves, with edge-case floats."""
    feature, left, right = [-1], [0], [0]
    for _ in range(draw(st.integers(0, 6))):
        node = draw(st.sampled_from(
            [i for i, f in enumerate(feature) if f < 0]))
        feature[node] = draw(st.integers(0, N_FEATURES - 1))
        left[node], right[node] = len(feature), len(feature) + 1
        feature += [-1, -1]
        left += [0, 0]
        right += [0, 0]
    n = len(feature)
    floats = st.lists(_EDGE_FLOATS, min_size=n, max_size=n).map(tuple)
    return Tree(feature=tuple(feature), threshold=draw(floats),
                left=tuple(left), right=tuple(right), value=draw(floats))


def float_bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestModelRoundTripIsBitExact:
    """What save_model writes, load_model returns bit for bit."""

    @settings(deadline=None)
    @given(trees=st.lists(random_trees(), min_size=1, max_size=3),
           shrinkage=st.one_of(st.sampled_from([5e-324, 1e-310, 1.0]),
                               st.floats(5e-324, 1.0)))
    def test_tree_ensemble(self, tmp_path_factory, trees, shrinkage):
        model = TreeEnsemble(trees=tuple(trees), shrinkage=shrinkage,
                             metric="mrr", seed=3)
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path, {})
        back, _ = load_model(path)
        assert len(back.trees) == len(model.trees)
        for got, want in zip(back.trees, model.trees):
            assert got.feature == want.feature
            assert got.left == want.left
            assert got.right == want.right
            assert float_bits(got.threshold) == float_bits(want.threshold)
            assert float_bits(got.value) == float_bits(want.value)
        assert float_bits(back.shrinkage) == float_bits(shrinkage)
        assert (back.metric, back.seed) == ("mrr", 3)

    @settings(deadline=None)
    @given(weights=st.lists(_EDGE_FLOATS, min_size=1, max_size=N_FEATURES))
    def test_linear_model(self, tmp_path_factory, weights):
        model = LinearModel(weights=tuple(weights), metric="p5", seed=0)
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path, {})
        back, _ = load_model(path)
        assert float_bits(back.weights) == float_bits(weights)


class TestSerialization:
    def test_linear_round_trip_is_exact(self, tmp_path):
        model = train_coordinate_ascent(
            TopicBlocks(separable_rows(), CUTOFF), NO_BLOCKS,
            CAConfig(restarts=2, max_sweeps=5, seed=3, metric="p5"))
        path = tmp_path / "model.json"
        save_model(model, path, hyperparameters={"restarts": 2})
        loaded, hyperparameters = load_model(path)
        assert loaded == model
        assert hyperparameters == {"restarts": 2}
        X = separable_rows().X
        np.testing.assert_array_equal(predict_matrix(model, X),
                                      predict_matrix(loaded, X))

    def test_mart_round_trip_is_exact(self, tmp_path):
        model = train_mart(TopicBlocks(separable_rows(), CUTOFF),
                           NO_BLOCKS,
                           MARTConfig(n_trees=10, patience=0, seed=1,
                                      metric="p5"))
        path = tmp_path / "model.json"
        save_model(model, path, {})
        loaded, hyperparameters = load_model(path)
        assert loaded.trees == model.trees
        assert hyperparameters == {}
        assert loaded.shrinkage == model.shrinkage
        X = separable_rows().X
        np.testing.assert_array_equal(predict_matrix(model, X),
                                      predict_matrix(loaded, X))

    def test_serialized_bytes_are_deterministic(self, tmp_path):
        config = MARTConfig(n_trees=8, patience=0, seed=5, metric="p5")
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        for path in (one, two):
            save_model(train_mart(TopicBlocks(separable_rows(), CUTOFF),
                                  NO_BLOCKS, config), path, {})
        assert one.read_bytes() == two.read_bytes()

    def test_document_shape(self, tmp_path):
        model = LinearModel(weights=(0.25, 0.75), metric="mrr", seed=9)
        path = tmp_path / "model.json"
        save_model(model, path, hyperparameters={"max_sweeps": 25})
        doc = json.loads(path.read_text())
        assert doc["format"] == "venuerec-model"
        assert doc["version"] == 1
        assert doc["learner"] == "coordinate_ascent"
        assert doc["seed"] == 9
        assert doc["metric"] == "mrr"
        assert doc["weights"] == [0.25, 0.75]
        assert doc["hyperparameters"] == {"max_sweeps": 25}

    def write_doc(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return path

    def base_doc(self):
        return {"format": "venuerec-model", "version": 1,
                "learner": "coordinate_ascent", "seed": 0,
                "metric": "p5", "weights": [1.0], "hyperparameters": {}}

    def test_rejects_wrong_format_tag(self, tmp_path):
        doc = self.base_doc()
        doc["format"] = "something-else"
        with pytest.raises(FormatError, match="format tag"):
            load_model(self.write_doc(tmp_path, doc))

    def test_rejects_wrong_version(self, tmp_path):
        doc = self.base_doc()
        doc["version"] = 99
        with pytest.raises(FormatError, match="version"):
            load_model(self.write_doc(tmp_path, doc))

    def test_rejects_unknown_learner(self, tmp_path):
        doc = self.base_doc()
        doc["learner"] = "lambdarank"
        with pytest.raises(FormatError, match="unknown learner"):
            load_model(self.write_doc(tmp_path, doc))

    def test_rejects_truncated_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "venuerec-model", "ver')
        with pytest.raises(FormatError, match="JSON"):
            load_model(path)

    @pytest.mark.parametrize("normalize", ["false", 0, 1, None, [True]])
    def test_rejects_a_normalize_that_is_not_a_boolean(self, tmp_path,
                                                       normalize):
        doc = self.base_doc()
        doc["hyperparameters"] = {"normalize": normalize}
        path = self.write_doc(tmp_path, doc)
        with pytest.raises(FormatError) as info:
            load_model(path)
        assert str(info.value) == ("%s: hyperparameter 'normalize' must be "
                                   "true or false, got %r" % (path, normalize))

    def test_rejects_hyperparameters_that_are_not_an_object(self, tmp_path):
        doc = self.base_doc()
        doc["hyperparameters"] = [1]
        with pytest.raises(FormatError,
                           match="'hyperparameters' must be an object"):
            load_model(self.write_doc(tmp_path, doc))

    def test_rejects_empty_weights(self, tmp_path):
        doc = self.base_doc()
        doc["weights"] = []
        with pytest.raises(FormatError, match="empty"):
            load_model(self.write_doc(tmp_path, doc))

    def test_rejects_non_finite_weight(self, tmp_path):
        path = tmp_path / "model.json"
        doc = self.base_doc()
        doc["weights"] = [1.0, float("nan")]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="non-finite"):
            load_model(path)

    def test_rejects_ragged_tree_arrays(self, tmp_path):
        doc = {"format": "venuerec-model", "version": 1, "learner": "mart",
               "seed": 0, "metric": "p5", "shrinkage": 0.1,
               "hyperparameters": {},
               "trees": [{"feature": [-1, -1], "threshold": [0.0],
                          "left": [0], "right": [0], "value": [1.0]}]}
        with pytest.raises(FormatError, match="length"):
            load_model(self.write_doc(tmp_path, doc))

    def test_rejects_out_of_range_child(self, tmp_path):
        doc = {"format": "venuerec-model", "version": 1, "learner": "mart",
               "seed": 0, "metric": "p5", "shrinkage": 0.1,
               "hyperparameters": {},
               "trees": [{"feature": [0], "threshold": [0.5],
                          "left": [7], "right": [0], "value": [1.0]}]}
        with pytest.raises(FormatError, match="child index"):
            load_model(self.write_doc(tmp_path, doc))

    def mart_doc(self, shrinkage=0.1, **tree):
        node = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
                "left": [1, 0, 0], "right": [2, 0, 0],
                "value": [0.0, -1.0, 1.0]}
        node.update(tree)
        return {"format": "venuerec-model", "version": 1, "learner": "mart",
                "seed": 0, "metric": "p5", "shrinkage": shrinkage,
                "hyperparameters": {}, "trees": [node]}

    def test_accepts_a_well_formed_tree(self, tmp_path):
        model, _ = load_model(self.write_doc(tmp_path, self.mart_doc()))
        assert model.trees[0].left == (1, 0, 0)

    @pytest.mark.parametrize("tree, message", [
        ({"left": [0, 0, 0]}, "node 0 has a child index not after its own"),
        ({"feature": [0, 1, -1, -1, -1], "threshold": [0.0] * 5,
          "left": [1, 1, 0, 0, 0], "right": [2, 3, 0, 0, 0],
          "value": [0.0] * 5},
         "node 1 has a child index not after its own"),
        ({"right": [1, 0, 0]}, "node 1 is the child of 2 nodes, not 1"),
        ({"feature": [0, 0, -1, -1], "threshold": [0.0] * 4,
          "left": [1, 2, 0, 0], "right": [2, 3, 0, 0], "value": [0.0] * 4},
         "node 2 is the child of 2 nodes, not 1"),
        ({"feature": [0, -1, -1, -1], "threshold": [0.0] * 4,
          "left": [1, 0, 0, 0], "right": [2, 0, 0, 0], "value": [0.0] * 4},
         "node 3 is the child of 0 nodes, not 1"),
    ], ids=["root-cycle", "self-loop", "shared-child", "diamond", "orphan"])
    def test_rejects_a_tree_that_is_not_one(self, tmp_path, tree, message):
        path = self.write_doc(tmp_path, self.mart_doc(**tree))
        with pytest.raises(FormatError) as info:
            load_model(path)
        assert str(info.value) == "%s: tree 0 %s" % (path, message)

    @pytest.mark.parametrize("shrinkage", [
        float("nan"), float("inf"), float("-inf"), -0.1, 0.0, 1.5])
    def test_rejects_a_bad_shrinkage(self, tmp_path, shrinkage):
        path = self.write_doc(tmp_path, self.mart_doc(shrinkage=shrinkage))
        with pytest.raises(FormatError) as info:
            load_model(path)
        assert str(info.value) == "%s: shrinkage must be in (0, 1], got %r" \
            % (path, shrinkage)

    def test_tree_feature_past_the_matrix(self):
        tree = Tree(feature=(99, -1, -1), threshold=(0.5, 0.0, 0.0),
                    left=(1, 0, 0), right=(2, 0, 0), value=(0.0, -1.0, 1.0))
        model = TreeEnsemble(trees=(tree,), shrinkage=0.1, metric="p5",
                             seed=0)
        with pytest.raises(VenuerecError,
                           match="matrix has 13 features, model needs 100"):
            predict_matrix(model, np.zeros((2, N_FEATURES)))
