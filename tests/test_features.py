"""Feature extraction values, bounds, and the feature-file round trip."""

import numpy as np
import pytest

from venuerec.corpus import (
    Comment,
    ContextPair,
    Qrels,
    UserProfile,
    Venue,
    VenueStats,
)
from venuerec.errors import FormatError
from venuerec.features import (
    FEATURE_NAMES,
    FeatureVector,
    ModelSet,
    extract_all,
    extract_features,
    extract_topic,
    feature_matrix,
    normalize_per_topic,
    read_features,
    write_features,
)
from venuerec.profiles import (
    ContextVector,
    GenderVector,
    UserVenueProfile,
    VenueVector,
)

SQRT_HALF = 0.7071067811865475


def make_models(**overrides):
    base = dict(
        venue_vectors={
            "v1": VenueVector("v1", np.array([1.0, 0.0])),
            "v0": VenueVector("v0", np.array([0.0, 0.0])),
        },
        user_profiles={
            "u1": UserVenueProfile("u1", np.array([4.0, 0.0]),
                                   np.array([0.0, 1.0]), 4, 3),
        },
        context_vectors={
            ("season", "summer"): ContextVector("season", "summer",
                                                np.array([0.0, 1.0])),
            ("group", "family"): ContextVector("group", "family",
                                               np.array([1.0, 1.0])),
        },
        gender_vectors={
            "male": GenderVector("male", np.array([1.0, 1.0])),
        },
    )
    base.update(overrides)
    return ModelSet(**base)


def make_pair(context=(("season", "summer"),), candidates=("v1",),
              user=None):
    if user is None:
        user = UserProfile("u1", "male", ())
    return ContextPair("t1", user, tuple(context), tuple(candidates))


def make_venue(vid="v1", **stats):
    return Venue(id=vid, stats=VenueStats(**stats))


class TestExtractFeatures:
    def test_feature_names_order(self):
        assert FEATURE_NAMES == (
            "checkins", "likes", "comment_count", "photos", "rating_avg",
            "unique_users", "uv_pos", "uv_neg", "cv_duration", "cv_season",
            "cv_group", "cv_type", "gv")

    def test_toy_chain_uv_pos_is_one(self):
        row = extract_features(make_pair(), make_venue(), make_models())
        assert row.features[6] == 1.0  # cosine((1,0),(4,0))

    def test_stats_fill_first_six(self):
        venue = make_venue(checkins=12, likes=3, comment_count=7, photos=2,
                           rating_avg=8.5, unique_users=4)
        row = extract_features(make_pair(), venue, make_models())
        assert row.features[:6] == (12.0, 3.0, 7.0, 2.0, 8.5, 4.0)

    def test_absent_stats_are_zero(self):
        row = extract_features(make_pair(), make_venue(likes=5), make_models())
        assert row.features[:6] == (0.0, 5.0, 0.0, 0.0, 0.0, 0.0)

    def test_zero_venue_vector_zeroes_cosines(self):
        row = extract_features(make_pair(candidates=("v0",)),
                               make_venue("v0"), make_models())
        assert row.features[6:] == (0.0,) * 7

    def test_absent_aspects_zero_bound_aspect_scored(self):
        row = extract_features(make_pair(), make_venue(), make_models())
        # only season bound: f9, f11, f12 zero; f10 = cosine((1,0),(0,1))
        assert row.features[8] == 0.0
        assert row.features[9] == 0.0
        assert row.features[10] == 0.0
        assert row.features[11] == 0.0

    def test_two_bound_aspects(self):
        pair = make_pair(context=(("season", "summer"), ("group", "family")))
        row = extract_features(pair, make_venue(), make_models())
        assert row.features[10] == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_gender_feature(self):
        row = extract_features(make_pair(), make_venue(), make_models())
        assert row.features[12] == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_unknown_user_profile_yields_zero_uv(self):
        pair = make_pair(user=UserProfile("ghost", "male", ()))
        row = extract_features(pair, make_venue(), make_models())
        assert row.features[6] == 0.0
        assert row.features[7] == 0.0

    def test_label_from_qrels(self):
        qrels = Qrels({("t1", "v1"): 3})
        row = extract_features(make_pair(), make_venue(), make_models(),
                               qrels)
        assert row.label == 3

    def test_unjudged_label_zero(self):
        row = extract_features(make_pair(), make_venue(), make_models(),
                               Qrels({}))
        assert row.label == 0

    def test_bounds_on_random_models(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            models = make_models(
                venue_vectors={"v1": VenueVector("v1", rng.normal(size=2))},
                user_profiles={"u1": UserVenueProfile(
                    "u1", rng.normal(size=2), rng.normal(size=2), 4, 3)},
                gender_vectors={"male": GenderVector(
                    "male", rng.normal(size=2))},
            )
            row = extract_features(make_pair(), make_venue(), models)
            for x in row.features[6:]:
                assert -1.0 <= x <= 1.0

    def test_identical_inputs_identical_features(self):
        a = extract_features(make_pair(), make_venue(checkins=5),
                             make_models())
        b = extract_features(make_pair(), make_venue(checkins=5),
                             make_models())
        assert a == b

    def test_scale_invariance_of_cosine_features(self):
        rng = np.random.default_rng(14)
        w2v = rng.normal(size=4)
        pos = rng.normal(size=4)
        cvv = rng.normal(size=4)
        gvv = rng.normal(size=4)
        base_models = make_models(
            venue_vectors={"v1": VenueVector("v1", w2v)},
            user_profiles={"u1": UserVenueProfile("u1", pos,
                                                  rng.normal(size=4), 4, 3)},
            context_vectors={("season", "summer"): ContextVector(
                "season", "summer", cvv)},
            gender_vectors={"male": GenderVector("male", gvv)},
        )
        base = extract_features(make_pair(), make_venue(), base_models)
        for c in (0.01, 3.0, 1e4):
            scaled_models = make_models(
                venue_vectors={"v1": VenueVector(
                    "v1", c * base_models.venue_vectors["v1"].vector)},
                user_profiles={"u1": UserVenueProfile(
                    "u1", c * base_models.user_profiles["u1"].positive,
                    c * base_models.user_profiles["u1"].negative, 4, 3)},
                context_vectors={("season", "summer"): ContextVector(
                    "season", "summer", c * cvv)},
                gender_vectors={"male": GenderVector("male", c * gvv)},
            )
            scaled = extract_features(make_pair(), make_venue(),
                                      scaled_models)
            np.testing.assert_allclose(scaled.features[6:], base.features[6:],
                                       atol=1e-12, rtol=0)


class TestExtractTopic:
    def test_dangling_candidate_kept_with_zeros(self):
        pair = make_pair(candidates=("v1", "ghost"))
        qrels = Qrels({("t1", "ghost"): 1})
        rows = extract_topic(pair, {"v1": make_venue()}, make_models(), qrels)
        assert [r.venue_id for r in rows] == ["v1", "ghost"]
        assert rows[1].features == (0.0,) * 13
        assert rows[1].label == 1

    def test_extract_all_orders_by_pair(self):
        pairs = [make_pair(candidates=("v1",)),
                 ContextPair("t2", UserProfile("u1", "male", ()), (),
                             ("v0",))]
        rows = extract_all(pairs, {"v1": make_venue(),
                                   "v0": make_venue("v0")}, make_models())
        assert [(r.topic_id, r.venue_id) for r in rows] == [
            ("t1", "v1"), ("t2", "v0")]


class TestFeatureVectorType:
    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector("t", "v", 0, (1.0, 2.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector("t", "v", 0, (float("inf"),) + (0.0,) * 12)

    def test_feature_matrix_shapes(self):
        rows = [FeatureVector("t", "v%d" % i, i, tuple(float(i)
                for _ in range(13))) for i in range(3)]
        X, y = feature_matrix(rows)
        assert X.shape == (3, 13)
        np.testing.assert_array_equal(y, [0.0, 1.0, 2.0])


class TestNormalizePerTopic:
    def test_minmax_per_topic(self):
        rows = [
            FeatureVector("t1", "a", 0, (10.0,) + (0.0,) * 12),
            FeatureVector("t1", "b", 0, (30.0,) + (0.0,) * 12),
            FeatureVector("t2", "a", 0, (5.0,) + (0.0,) * 12),
            FeatureVector("t2", "b", 0, (15.0,) + (0.0,) * 12),
        ]
        out = normalize_per_topic(rows)
        assert out[0].features[0] == 0.0
        assert out[1].features[0] == 1.0
        assert out[2].features[0] == 0.0
        assert out[3].features[0] == 1.0

    def test_constant_column_becomes_zero(self):
        rows = [FeatureVector("t1", "a", 0, (7.0,) + (0.0,) * 12),
                FeatureVector("t1", "b", 0, (7.0,) + (0.0,) * 12)]
        out = normalize_per_topic(rows)
        assert out[0].features[0] == 0.0
        assert out[1].features[0] == 0.0

    def test_cosine_columns_untouched_by_default(self):
        rows = [FeatureVector("t1", "a", 0, (1.0,) * 6 + (0.5,) * 7),
                FeatureVector("t1", "b", 0, (2.0,) * 6 + (0.9,) * 7)]
        out = normalize_per_topic(rows)
        assert out[0].features[6:] == (0.5,) * 7
        assert out[1].features[6:] == (0.9,) * 7


class TestFeatureFile:
    def rows(self):
        return [
            FeatureVector("t2", "v1", 0, tuple(np.linspace(-1, 1, 13))),
            FeatureVector("t1", "v9", 2,
                          (3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 0.25, -0.5,
                           0.125, 0.0, 1.0, -1.0, 0.75)),
            FeatureVector("t1", "v2", 1, (0.0,) * 13),
        ]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "features.txt"
        write_features(self.rows(), p)
        back = read_features(p)
        assert sorted(self.rows(), key=lambda r: (r.topic_id, r.venue_id)) \
            == back

    def test_writer_sorts(self, tmp_path):
        p = tmp_path / "features.txt"
        write_features(self.rows(), p)
        lines = p.read_text().splitlines()
        assert lines[0].endswith("# v2")
        assert lines[0].startswith("1 qid:t1 ")
        assert lines[1].endswith("# v9")
        assert lines[2].endswith("# v1")

    def test_line_shape(self, tmp_path):
        p = tmp_path / "features.txt"
        write_features([self.rows()[1]], p)
        line = p.read_text().rstrip("\n")
        parts = line.split(" ")
        assert parts[0] == "2"
        assert parts[1] == "qid:t1"
        assert parts[2] == "1:3.0"
        assert parts[14] == "13:0.75"
        assert parts[15] == "#"
        assert parts[16] == "v9"

    def test_missing_feature_13_is_error(self, tmp_path):
        p = tmp_path / "features.txt"
        body = "0 qid:t1 " + " ".join(
            "%d:0.0" % i for i in range(1, 13)) + " # v1\n"
        p.write_text(body)
        with pytest.raises(FormatError, match="line 1"):
            read_features(p)

    def test_missing_trailer_is_error(self, tmp_path):
        p = tmp_path / "features.txt"
        p.write_text("0 qid:t1 " + " ".join(
            "%d:0.0" % i for i in range(1, 14)) + "\n")
        with pytest.raises(FormatError, match="trailer"):
            read_features(p)

    def test_bad_label(self, tmp_path):
        p = tmp_path / "features.txt"
        p.write_text("x qid:t1 " + " ".join(
            "%d:0.0" % i for i in range(1, 14)) + " # v1\n")
        with pytest.raises(FormatError, match="label"):
            read_features(p)

    def test_out_of_order_feature_index(self, tmp_path):
        p = tmp_path / "features.txt"
        toks = ["%d:0.0" % i for i in range(1, 14)]
        toks[4], toks[5] = toks[5], toks[4]
        p.write_text("0 qid:t1 " + " ".join(toks) + " # v1\n")
        with pytest.raises(FormatError, match="expected feature 5"):
            read_features(p)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_its_line(self, tmp_path, token):
        p = tmp_path / "features.txt"
        good = "0 qid:t1 " + " ".join(
            "%d:0.0" % i for i in range(1, 14)) + " # v1\n"
        p.write_text(good + good.replace("3:0.0", "3:" + token))
        with pytest.raises(FormatError, match="feature 3 is not finite") \
                as err:
            read_features(p)
        assert (err.value.path, err.value.line) == (p, 2)

    def test_non_utf8_bytes_report_their_line(self, tmp_path):
        p = tmp_path / "features.txt"
        p.write_bytes(b"0 qid:t1 " + b" ".join(
            b"%d:0.0" % i for i in range(1, 14)) + b" # v\xe9\n")
        with pytest.raises(FormatError, match="line 1: not valid UTF-8"):
            read_features(p)

    def test_whitespace_identifier_rejected(self, tmp_path):
        row = FeatureVector("t 1", "v1", 0, (0.0,) * 13)
        with pytest.raises(ValueError, match="whitespace"):
            write_features([row], tmp_path / "f.txt")

    def test_values_survive_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(33)
        rows = [FeatureVector("t1", "v%02d" % i, int(rng.integers(0, 5)),
                              tuple(float(x) for x in rng.normal(size=13)))
                for i in range(20)]
        p = tmp_path / "features.txt"
        write_features(rows, p)
        assert read_features(p) == sorted(
            rows, key=lambda r: (r.topic_id, r.venue_id))
