"""Feature knockout study on planted signals with closed-form outcomes."""

import logging

import pytest

import synthdata
from venuerec.ablation import AblationReport, AblationEntry, run_ablation, write_ablation
from venuerec.errors import VenuerecError
from venuerec.features import FEATURE_NAMES, N_FEATURES, FeatureVector
from venuerec.ltr import CAConfig, MARTConfig


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
            rows.append(FeatureVector("t%d" % t, vid, label,
                                      pad(0, 0, 0, 0, 0, 0, flag)))
    return rows


_FAST_MART = MARTConfig(n_trees=20, patience=5, metric="mrr", seed=0)


class TestKnockoutClosedForms:

    def test_informative_column_costs_its_planted_share(self):
        report = run_ablation(taste_rows(), _FAST_MART)
        assert report.baseline == 1.0
        by_name = {e.feature: e for e in report.entries}
        assert by_name["uv_pos"].metric_value == 0.25
        assert by_name["uv_pos"].delta_percent == -75.0

    def test_dead_columns_cost_nothing(self):
        report = run_ablation(taste_rows(), _FAST_MART)
        for entry in report.entries:
            if entry.feature != "uv_pos":
                assert entry.delta_percent == 0.0
                assert entry.metric_value == 1.0

    def test_coordinate_ascent_learner_agrees(self, caplog):
        with caplog.at_level(logging.ERROR, logger="venuerec.ltr"):
            report = run_ablation(
                taste_rows(),
                CAConfig(metric="mrr", restarts=2, max_sweeps=5, seed=0))
        assert report.learner == "coordinate_ascent"
        by_name = {e.feature: e for e in report.entries}
        assert by_name["uv_pos"].delta_percent == -75.0

    def test_entries_follow_feature_order(self):
        report = run_ablation(taste_rows(), _FAST_MART)
        assert tuple(e.feature for e in report.entries) == FEATURE_NAMES

    def test_zero_baseline_reports_zero_deltas(self, caplog):
        rows = [FeatureVector("t%d" % t, "v%d" % v, 0, pad(float(v)))
                for t in range(3) for v in range(3)]
        with caplog.at_level(logging.WARNING, logger="venuerec.ablation"):
            report = run_ablation(rows, MARTConfig(
                n_trees=2, patience=0, seed=0))
        assert report.baseline == 0.0
        assert all(e.delta_percent == 0.0 for e in report.entries)
        assert any("baseline p5 is zero" in r.message for r in caplog.records)

    def test_unknown_learner_rejected(self):
        with pytest.raises(VenuerecError, match="unknown learner"):
            run_ablation(taste_rows(), "boosting")


@pytest.fixture(scope="module")
def synth_rows(tmp_path_factory):
    paths = synthdata.write_corpus(tmp_path_factory.mktemp("synth"))
    return synthdata.feature_rows(paths)


class TestSyntheticCorpus:
    """The generated corpus reproduces its exported closed forms."""

    def test_deltas_match_the_planted_design(self, synth_rows):
        report = run_ablation(synth_rows, MARTConfig(seed=synthdata.SEED))
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
        report = run_ablation(synth_rows, MARTConfig(seed=synthdata.SEED))
        worst = min(report.entries, key=lambda e: e.delta_percent)
        assert worst.feature == "uv_pos"
        runner_up = min(e.delta_percent for e in report.entries
                        if e.feature != "uv_pos")
        assert worst.delta_percent < runner_up


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
