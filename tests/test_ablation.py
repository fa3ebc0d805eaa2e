"""Feature knockout study on planted signals with closed-form outcomes."""

import logging
import random

import pytest

import synthdata
from reference_models import fit_and_score, table_of, zeroed
from venuerec import ablation
from venuerec.ablation import AblationReport, AblationEntry, run_ablation, write_ablation
from venuerec.cli import SETTINGS
from venuerec.features import FEATURE_NAMES, N_FEATURES
from venuerec.ltr import (
    CAConfig,
    MARTConfig,
    TopicBlocks,
    split_train_validation,
    train_coordinate_ascent,
    train_mart,
)

SPLIT = SETTINGS["split_fraction"].default
CUTOFF = SETTINGS["cutoff"].default


def pad(*values):
    return tuple(list(values) + [0.0] * (N_FEATURES - len(values)))


def taste_rows(n_topics=6):
    """One relevant candidate per topic, flagged only by the uv_pos column.

    The relevant id sorts last, so once the column is knocked out the
    all-equal scores leave it at rank 4 and reciprocal rank 1/4.
    """
    rows = []
    for t in range(n_topics):
        for vid, flag, label in (("a0", 0.0, 0), ("a1", 0.0, 0),
                                 ("a2", 0.0, 0), ("z0", 1.0, 1)):
            rows.append(("t%d" % t, vid, label, pad(0, 0, 0, 0, 0, 0, flag)))
    return table_of(rows)


_FAST_MART = MARTConfig(n_trees=20, patience=5, metric="mrr", seed=0)


class TestKnockoutClosedForms:

    def test_informative_column_costs_its_planted_share(self):
        report = run_ablation(taste_rows(), _FAST_MART, SPLIT, CUTOFF)
        assert report.baseline == 1.0
        by_name = {e.feature: e for e in report.entries}
        assert by_name["uv_pos"].metric_value == 0.25
        assert by_name["uv_pos"].delta_percent == -75.0

    def test_dead_columns_cost_nothing(self):
        report = run_ablation(taste_rows(), _FAST_MART, SPLIT, CUTOFF)
        for entry in report.entries:
            if entry.feature != "uv_pos":
                assert entry.delta_percent == 0.0
                assert entry.metric_value == 1.0

    def test_coordinate_ascent_learner_agrees(self, caplog):
        with caplog.at_level(logging.ERROR, logger="venuerec.ltr"):
            report = run_ablation(
                taste_rows(),
                CAConfig(metric="mrr", restarts=2, max_sweeps=5, seed=0),
                SPLIT, CUTOFF)
        assert report.learner == "coordinate_ascent"
        by_name = {e.feature: e for e in report.entries}
        assert by_name["uv_pos"].delta_percent == -75.0

    def test_entries_follow_feature_order(self):
        report = run_ablation(taste_rows(), _FAST_MART, SPLIT, CUTOFF)
        assert tuple(e.feature for e in report.entries) == FEATURE_NAMES

    def test_zero_baseline_reports_zero_deltas(self, caplog):
        table = table_of([("t%d" % t, "v%d" % v, 0, pad(float(v)))
                          for t in range(3) for v in range(3)])
        with caplog.at_level(logging.WARNING, logger="venuerec.ablation"):
            report = run_ablation(table, MARTConfig(
                n_trees=2, patience=0, seed=0, metric="p5"), SPLIT, CUTOFF)
        assert report.baseline == 0.0
        assert all(e.delta_percent == 0.0 for e in report.entries)
        assert any("baseline p5 is zero" in r.message for r in caplog.records)


@pytest.fixture(scope="module")
def synth_rows(tmp_path_factory):
    paths = synthdata.write_corpus(tmp_path_factory.mktemp("synth"))
    return synthdata.feature_rows(paths)


class TestSyntheticCorpus:
    """The generated corpus reproduces its exported closed forms."""

    def test_deltas_match_the_planted_design(self, synth_rows):
        report = run_ablation(synth_rows,
                              MARTConfig(seed=synthdata.SEED, metric="p5"),
                              SPLIT, CUTOFF)
        assert report.baseline == synthdata.FULL_P5
        by_name = {e.feature: e for e in report.entries}
        # the per-topic values are exact; only the mean accumulates dust
        assert by_name["uv_pos"].metric_value == pytest.approx(
            synthdata.NO_TASTE_P5, abs=1e-12)
        for aspect in ("duration", "season", "group", "type"):
            assert by_name["cv_" + aspect].metric_value == pytest.approx(
                synthdata.NO_ASPECT_P5, abs=1e-12)
        for name in ("checkins", "likes", "comment_count", "photos",
                     "rating_avg", "unique_users", "uv_neg", "gv"):
            assert by_name[name].delta_percent == 0.0

    def test_taste_knockout_is_the_single_largest_drop(self, synth_rows):
        report = run_ablation(synth_rows,
                              MARTConfig(seed=synthdata.SEED, metric="p5"),
                              SPLIT, CUTOFF)
        worst = min(report.entries, key=lambda e: e.delta_percent)
        assert worst.feature == "uv_pos"
        runner_up = min(e.delta_percent for e in report.entries
                        if e.feature != "uv_pos")
        assert worst.delta_percent < runner_up


def trainer(config):
    if isinstance(config, CAConfig):
        return train_coordinate_ascent, "coordinate_ascent"
    return train_mart, "mart"


def rebuilt_ablation(table, config):
    """The knockout study from rebuilt tables: every knockout zeroes the
    column in a fresh FeatureTable, splits it and retrains on it."""
    train, learner = trainer(config)

    def score(table):
        return fit_and_score(table, train, config, SPLIT, CUTOFF)[1]

    baseline = score(table)
    entries = []
    for j, name in enumerate(FEATURE_NAMES):
        value = score(zeroed(table, j))
        delta = 100.0 * (value - baseline) / baseline if baseline else 0.0
        entries.append(AblationEntry(name, value, delta))
    return AblationReport(baseline=baseline, metric=config.metric,
                          learner=learner, seed=config.seed,
                          entries=tuple(entries))


def noisy_rows(n_topics=16, seed=11):
    """Ragged topics; relevance leaks weakly into the first six columns."""
    rng = random.Random(seed)
    rows = []
    for t in range(n_topics):
        for c in range(rng.randint(4, 30)):
            label = 1 if rng.random() < 0.25 else 0
            features = tuple(
                rng.gauss(0.0, 1.0) + (label * 0.3 * (6 - j) if j < 6 else 0)
                for j in range(N_FEATURES))
            rows.append(("t%02d" % t, "v%02d" % c, label, features))
    return table_of(rows)


# Small trees: the baseline needs 3 features, so 10 knockouts reuse it.
_FEW_LEAVES = MARTConfig(n_trees=3, max_leaves=3, patience=0, metric="p5",
                         seed=1)
# Early stopping discards trees fitted past the best stage.
_EARLY_STOP = MARTConfig(n_trees=40, max_leaves=3, patience=3, metric="p5",
                         seed=4)


def rows_of(data, synth_rows):
    return synth_rows if data == "synth" else noisy_rows()


def baseline_history(rows, config):
    train, valid = split_train_validation(rows, SPLIT, config.seed)
    return train_mart(TopicBlocks(train, CUTOFF), TopicBlocks(valid, CUTOFF),
                      config).history


class TestKnockoutOnTheMatrix:
    """Zeroing a column of the built matrices equals rebuilding the rows,
    and a MART knockout outside the baseline's decisive features equals
    the baseline."""

    @pytest.mark.parametrize("config", [
        CAConfig(metric="p5", restarts=2, max_sweeps=3, seed=3),
        CAConfig(metric="mrr", restarts=1, max_sweeps=2, seed=5),
        MARTConfig(n_trees=8, patience=3, metric="p5", seed=3),
        MARTConfig(n_trees=6, patience=0, metric="mrr", seed=5),
        _FEW_LEAVES,
        _EARLY_STOP,
    ], ids=["ca-p5", "ca-mrr", "mart-p5", "mart-mrr", "mart-few-leaves",
            "mart-early-stop"])
    @pytest.mark.parametrize("data", ["synth", "noisy"])
    def test_matches_rebuilt_rows(self, synth_rows, config, data):
        rows = rows_of(data, synth_rows)
        assert (run_ablation(rows, config, SPLIT, CUTOFF)
                == rebuilt_ablation(rows, config))

    @pytest.mark.parametrize("data", ["synth", "noisy"])
    def test_the_configs_cover_reuse_and_early_stopping(self, synth_rows,
                                                        data):
        rows = rows_of(data, synth_rows)
        assert len(baseline_history(rows, _FEW_LEAVES)["decisive"]) == 3
        history = baseline_history(rows, _EARLY_STOP)
        assert history["kept_trees"] < len(history["train_mse"])


class TestKnockoutSkipsTheFeature:
    """A knockout fitted on the baseline's blocks with its feature
    skipped equals a fit and score on copies with the column zeroed."""

    @pytest.mark.parametrize("config", [
        CAConfig(metric="p5", restarts=2, max_sweeps=3, seed=3),
        CAConfig(metric="mrr", restarts=1, max_sweeps=2, seed=5),
        MARTConfig(n_trees=8, patience=3, metric="p5", seed=3),
        _EARLY_STOP,
    ], ids=["ca-p5", "ca-mrr", "mart-p5", "mart-early-stop"])
    @pytest.mark.parametrize("data", ["synth", "noisy"])
    def test_every_knockout_equals_the_zeroed_copy(self, synth_rows, config,
                                                   data):
        rows = rows_of(data, synth_rows)
        train, learner = trainer(config)
        _, fit, valid = ablation.fit(rows, config, SPLIT, CUTOFF)
        blocks = TopicBlocks(rows, CUTOFF)
        for j in range(N_FEATURES):
            model, value = fit_and_score(zeroed(rows, j), train, config,
                                         SPLIT, CUTOFF)
            assert repr(ablation._knockout(j, fit, valid, blocks, config)) \
                == repr(value)
            skipped = train(fit, valid, config, j)
            if learner == "mart":
                assert skipped.trees == model.trees
                assert skipped.history == model.history
                assert all(j not in tree.feature for tree in skipped.trees)
            else:
                assert skipped.weights[j] == 0.0
                assert (skipped.weights[:j] + skipped.weights[j + 1:]
                        == model.weights[:j] + model.weights[j + 1:])


class TestFitCount:
    """MART refits only the knockouts of the baseline's decisive
    features; coordinate ascent refits every knockout."""

    def count_fits(self, monkeypatch, name, train):
        calls = []

        def counted(*args):
            calls.append(args)
            return train(*args)

        monkeypatch.setattr("venuerec.ablation." + name, counted)
        return calls

    @pytest.mark.parametrize("config", [_FEW_LEAVES, _EARLY_STOP],
                             ids=["few-leaves", "early-stop"])
    @pytest.mark.parametrize("data", ["synth", "noisy"])
    def test_mart_fits_the_decisive_knockouts(self, monkeypatch, synth_rows,
                                              config, data):
        rows = rows_of(data, synth_rows)
        decisive = baseline_history(rows, config)["decisive"]
        calls = self.count_fits(monkeypatch, "train_mart", train_mart)
        run_ablation(rows, config, SPLIT, CUTOFF)
        assert len(calls) == 1 + len(decisive)

    def test_coordinate_ascent_fits_every_knockout(self, monkeypatch,
                                                   synth_rows):
        calls = self.count_fits(monkeypatch, "train_coordinate_ascent",
                                train_coordinate_ascent)
        run_ablation(synth_rows, CAConfig(metric="p5", restarts=1,
                                          max_sweeps=2, seed=5),
                     SPLIT, CUTOFF)
        assert len(calls) == 1 + N_FEATURES


def test_write_ablation_freezes_the_layout(tmp_path):
    report = AblationReport(
        baseline=0.75, metric="mrr", learner="mart", seed=7,
        entries=(AblationEntry("uv_pos", 0.5625, -25.0),
                 AblationEntry("gv", 0.75, 0.0)))
    path = tmp_path / "ablation.tsv"
    write_ablation(report, str(path))
    assert path.read_text(encoding="utf-8") == (
        "# baseline\tmrr\t0.750000\n"
        "# learner\tmart\tseed\t7\n"
        "uv_pos\t-25.000000\n"
        "gv\t0.000000\n")
