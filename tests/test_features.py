"""Feature extraction values, bounds, the feature table and its file."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference_models import (
    FeatureRow,
    rowwise_extract_all,
    rowwise_normalize,
    table_bits,
    table_of,
)

from venuerec.corpus import (
    ASPECTS,
    GENDERS,
    ContextPair,
    UserProfile,
    Venue,
    VenueStats,
)
from venuerec import features
from venuerec.errors import FormatError, VenuerecError
from venuerec.evaluation import Qrels
from venuerec.features import (
    FEATURE_NAMES,
    N_FEATURES,
    normalize_per_topic,
    read_features,
    write_features,
)
from venuerec.profiles import (
    ModelSet,
    UserVenueProfile,
    VenueVector,
    extract_all,
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
                                   np.array([0.0, 1.0])),
        },
        context_vectors={
            ("season", "summer"): np.array([0.0, 1.0]),
            ("group", "family"): np.array([1.0, 1.0]),
            ("gender", "male"): np.array([1.0, 1.0]),
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


def one_row(pair, venue, models):
    """The one row extract_all gives `venue` as the pair's one candidate."""
    assert pair.candidates == (venue.id,)
    table = extract_all([pair], {venue.id: venue}, models, None)
    return tuple(table.X[0].tolist())


class TestExtractFeatures:
    def test_feature_names_order(self):
        assert FEATURE_NAMES == (
            "checkins", "likes", "comment_count", "photos", "rating_avg",
            "unique_users", "uv_pos", "uv_neg", "cv_duration", "cv_season",
            "cv_group", "cv_type", "gv")

    def test_context_columns_follow_the_aspect_table(self):
        assert FEATURE_NAMES[8:12] == tuple("cv_" + a for a in ASPECTS)

    def test_toy_chain_uv_pos_is_one(self):
        row = one_row(make_pair(), make_venue(), make_models())
        assert row[6] == 1.0  # cosine((1,0),(4,0))

    def test_stats_fill_first_six(self):
        venue = make_venue(checkins=12, likes=3, comment_count=7, photos=2,
                           rating_avg=8.5, unique_users=4)
        row = one_row(make_pair(), venue, make_models())
        assert row[:6] == (12.0, 3.0, 7.0, 2.0, 8.5, 4.0)

    def test_absent_stats_are_zero(self):
        row = one_row(make_pair(), make_venue(likes=5), make_models())
        assert row[:6] == (0.0, 5.0, 0.0, 0.0, 0.0, 0.0)

    def test_zero_venue_vector_zeroes_cosines(self):
        row = one_row(make_pair(candidates=("v0",)),
                      make_venue("v0"), make_models())
        assert row[6:] == (0.0,) * 7

    def test_absent_aspects_zero_bound_aspect_scored(self):
        row = one_row(make_pair(), make_venue(), make_models())
        # only season bound: f9, f11, f12 zero; f10 = cosine((1,0),(0,1))
        assert row[8] == 0.0
        assert row[9] == 0.0
        assert row[10] == 0.0
        assert row[11] == 0.0

    def test_two_bound_aspects(self):
        pair = make_pair(context=(("season", "summer"), ("group", "family")))
        row = one_row(pair, make_venue(), make_models())
        assert row[10] == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_gender_feature(self):
        row = one_row(make_pair(), make_venue(), make_models())
        assert row[12] == pytest.approx(SQRT_HALF, abs=1e-12)

        assert row[7] == 0.0

    def test_label_from_qrels(self):
        qrels = Qrels({("t1", "v1"): 3})
        table = extract_all([make_pair()], {"v1": make_venue()},
                            make_models(), qrels)
        assert table.labels.tolist() == [3]

    def test_unjudged_label_zero(self):
        table = extract_all([make_pair()], {"v1": make_venue()},
                            make_models(), Qrels({}))
        assert table.labels.tolist() == [0]

    def test_bounds_on_random_models(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            models = make_models(
                venue_vectors={"v1": VenueVector("v1", rng.normal(size=2))},
                user_profiles={"u1": UserVenueProfile(
                    "u1", rng.normal(size=2), rng.normal(size=2))},
                context_vectors={**make_models().context_vectors,
                                 ("gender", "male"): rng.normal(size=2)},
            )
            row = one_row(make_pair(), make_venue(), models)
            for x in row[6:]:
                assert -1.0 <= x <= 1.0

    def test_identical_inputs_identical_features(self):
        a = one_row(make_pair(), make_venue(checkins=5), make_models())
        b = one_row(make_pair(), make_venue(checkins=5), make_models())
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
                                                  rng.normal(size=4))},
            context_vectors={("season", "summer"): cvv,
                             ("gender", "male"): gvv},
        )
        base = one_row(make_pair(), make_venue(), base_models)
        for c in (0.01, 3.0, 1e4):
            scaled_models = make_models(
                venue_vectors={"v1": VenueVector(
                    "v1", c * base_models.venue_vectors["v1"].vector)},
                user_profiles={"u1": UserVenueProfile(
                    "u1", c * base_models.user_profiles["u1"].positive,
                    c * base_models.user_profiles["u1"].negative)},
                context_vectors={("season", "summer"): c * cvv,
                                 ("gender", "male"): c * gvv},
            )
            scaled = one_row(make_pair(), make_venue(), scaled_models)
            np.testing.assert_allclose(scaled[6:], base[6:],
                                       atol=1e-12, rtol=0)


class TestExtractTopic:
    def test_dangling_candidate_kept_with_zeros(self):
        pair = make_pair(candidates=("v1", "ghost"))
        qrels = Qrels({("t1", "ghost"): 1})
        table = extract_all([pair], {"v1": make_venue()}, make_models(),
                            qrels)
        assert table.venue_ids == ("ghost", "v1")
        assert tuple(table.X[0]) == (0.0,) * 13
        assert table.labels[0] == 1

    def test_extract_all_orders_by_pair(self):
        pairs = [make_pair(candidates=("v1",)),
                 ContextPair("t2", UserProfile("u1", "male", ()), (),
                             ("v0",))]
        table = extract_all(pairs, {"v1": make_venue(),
                                    "v0": make_venue("v0")}, make_models(),
                            None)
        assert list(zip(table.topic_ids, table.venue_ids)) == [
            ("t1", "v1"), ("t2", "v0")]


class TestOverflowingVector:
    """A vector whose squared norm overflows is named, never scored 0."""

    BIG = np.array([2.6e154, 2.6e154])

    @pytest.mark.parametrize("where, name", [
        ("venue", "venue vector 'v1'"),
        ("pos", "user vector 'u1/pos'"),
        ("neg", "user vector 'u1/neg'"),
        ("season", "context vector ('season', 'summer')"),
        ("gender", "context vector ('gender', 'male')"),
    ])
    def test_extract_all_names_topic_and_vector(self, where, name):
        models = make_models()
        big = self.BIG
        if where == "venue":
            models = make_models(venue_vectors={"v1": VenueVector("v1", big)})
        elif where in ("pos", "neg"):
            profile = models.user_profiles["u1"]
            models = make_models(user_profiles={"u1": UserVenueProfile(
                "u1", big if where == "pos" else profile.positive,
                big if where == "neg" else profile.negative)})
        else:
            key = ("season", "summer") if where == "season" else (
                "gender", "male")
            models.context_vectors[key] = big
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(VenuerecError) as exc:
                extract_all([make_pair()], {"v1": make_venue()}, models, None)
        assert str(exc.value) == (
            "topic t1: squared norm of %s overflows a float" % name)


class TestFeatureVectorType:
    """The constructor's checks on each row of a FeatureTable."""

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            table_of([("t", "v", 0, (1.0, 2.0))])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            table_of([("t", "v", 0, (float("inf"),) + (0.0,) * 12)])

    def test_feature_matrix_shapes(self):
        table = table_of([("t", "v%d" % i, i, tuple(float(i)
                           for _ in range(13))) for i in range(3)])
        assert table.X.shape == (3, 13)
        np.testing.assert_array_equal(table.labels, [0, 1, 2])


class TestNormalizePerTopic:
    def test_minmax_per_topic(self):
        out = normalize_per_topic(table_of([
            ("t1", "a", 0, (10.0,) + (0.0,) * 12),
            ("t1", "b", 0, (30.0,) + (0.0,) * 12),
            ("t2", "a", 0, (5.0,) + (0.0,) * 12),
            ("t2", "b", 0, (15.0,) + (0.0,) * 12),
        ]))
        assert out.X[0, 0] == 0.0
        assert out.X[1, 0] == 1.0
        assert out.X[2, 0] == 0.0
        assert out.X[3, 0] == 1.0

    def test_constant_column_becomes_zero(self):
        out = normalize_per_topic(table_of([
            ("t1", "a", 0, (7.0,) + (0.0,) * 12),
            ("t1", "b", 0, (7.0,) + (0.0,) * 12)]))
        assert out.X[0, 0] == 0.0
        assert out.X[1, 0] == 0.0

    def test_cosine_columns_untouched_by_default(self):
        out = normalize_per_topic(table_of([
            ("t1", "a", 0, (1.0,) * 6 + (0.5,) * 7),
            ("t1", "b", 0, (2.0,) * 6 + (0.9,) * 7)]))
        assert tuple(out.X[0, 6:]) == (0.5,) * 7
        assert tuple(out.X[1, 6:]) == (0.9,) * 7


class TestFeatureFile:
    def rows(self):
        return [
            ("t2", "v1", 0, tuple(np.linspace(-1, 1, 13))),
            ("t1", "v9", 2,
             (3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 0.25, -0.5,
              0.125, 0.0, 1.0, -1.0, 0.75)),
            ("t1", "v2", 1, (0.0,) * 13),
        ]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "features.txt"
        write_features(table_of(self.rows()), p)
        back = read_features(p)
        assert table_bits(back) == table_bits(table_of(self.rows()))

    def test_writer_sorts(self, tmp_path):
        p = tmp_path / "features.txt"
        write_features(table_of(self.rows()), p)
        lines = p.read_text().splitlines()
        assert lines[0].endswith("# v2")
        assert lines[0].startswith("1 qid:t1 ")
        assert lines[1].endswith("# v9")
        assert lines[2].endswith("# v1")

    def test_line_shape(self, tmp_path):
        p = tmp_path / "features.txt"
        write_features(table_of([self.rows()[1]]), p)
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
        with pytest.raises(ValueError, match="whitespace"):
            write_features(table_of([("t 1", "v1", 0, (0.0,) * 13)]),
                           tmp_path / "f.txt")

    def test_values_survive_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(33)
        table = table_of([("t1", "v%02d" % i, int(rng.integers(0, 5)),
                           tuple(float(x) for x in rng.normal(size=13)))
                          for i in range(20)])
        p = tmp_path / "features.txt"
        write_features(table, p)
        assert table_bits(read_features(p)) == table_bits(table)


class TestFeatureTable:
    def test_rows_sort_and_topics_bound(self):
        table = table_of([("t2", "vB", 0, (2.0,) * 13),
                          ("t10", "vZ", 1, (3.0,) * 13),
                          ("t2", "vA", 1, (1.0,) * 13)])
        assert table.topic_ids == ("t10", "t2", "t2")
        assert table.venue_ids == ("vZ", "vA", "vB")
        assert table.labels.tolist() == [1, 1, 0]
        assert table.X[:, 0].tolist() == [3.0, 1.0, 2.0]
        assert table.bounds == ((0, 1), (1, 3))
        assert len(table) == 3

    def test_empty_table(self):
        table = table_of([])
        assert (len(table), table.bounds, table.X.shape) == (0, (), (0, 13))

    def test_arrays_are_read_only(self):
        table = table_of([("t1", "v1", 0, (0.0,) * 13)])
        with pytest.raises(ValueError):
            table.X[0, 0] = 1.0
        with pytest.raises(ValueError):
            table.labels[0] = 1

    def test_duplicate_names_the_repeat(self):
        rows = [("t1", "v1", 0, (0.0,) * 13), ("t1", "v2", 0, (0.0,) * 13),
                ("t0", "v9", 0, (0.0,) * 13), ("t1", "v1", 1, (1.0,) * 13)]
        with pytest.raises(VenuerecError,
                           match="duplicate row for topic t1 venue v1") \
                as err:
            table_of(rows)
        assert err.value.row == 3

    @pytest.mark.parametrize("label", [2 ** 63, -2 ** 63 - 1])
    def test_label_beyond_64_bits(self, label):
        with pytest.raises(VenuerecError, match="does not fit in 64 bits") \
                as err:
            table_of([("t1", "v1", 0, (0.0,) * 13),
                      ("t1", "v2", label, (0.0,) * 13)])
        assert err.value.row == 1

    @pytest.mark.parametrize("line, message", [
        ("0 qid:t1 %s # v1", "duplicate row for topic t1 venue v1"),
        ("0 qid:t1 %s # v 2", "identifier 'v 2' is empty or has whitespace"),
        ("9223372036854775808 qid:t1 %s # v2",
         "label 9223372036854775808 does not fit in 64 bits"),
    ], ids=["repeat", "whitespace", "label"])
    def test_reader_names_the_line(self, tmp_path, line, message):
        feats = " ".join("%d:0.5" % i for i in range(1, 14))
        p = tmp_path / "features.txt"
        p.write_text("0 qid:t1 %s # v1\n1 qid:t0 %s # v1\n\n%s\n"
                     % (feats, feats, line % feats))
        with pytest.raises(FormatError) as err:
            read_features(p)
        assert str(err.value) == "%s: line 4: %s" % (p, message)


# Signed zeros, subnormals, the extremes, and ordinary floats.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-310, 1e308, -1e308, 1.7976931348623157e308, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def shuffled_rows(draw):
    """Ragged topics of (topic, venue, label, features) rows, any order."""
    names = st.text("ab1", min_size=1, max_size=3)
    keys = [(topic, venue)
            for topic in draw(st.lists(names, unique=True, max_size=5))
            for venue in draw(st.lists(names, unique=True, min_size=1,
                                       max_size=7))]
    labels = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                           min_size=len(keys), max_size=len(keys)))
    X = draw(hnp.arrays(np.float64, (len(keys), N_FEATURES),
                        elements=VALUES))
    rows = [(topic, venue, label, tuple(x.tolist()))
            for (topic, venue), label, x in zip(keys, labels, X)]
    return draw(st.permutations(rows))


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


# Ways a written features file can leave the layout the regular
# expression reads, each applied at one line.
TOKENS = ("1_0", "+1", "\u0661", "nan", "1e400")
MUTATIONS = ("tab", "crlf", "blank", "no trailer", "no final newline",
             "token", "non-utf8", "duplicate")


def mutate(lines, kind, at, token, field):
    """`lines` (bytes, newline kept) with mutation `kind` at line `at`;
    an empty file gets a blank line."""
    if not lines:
        return [b"\n"]
    lines = list(lines)
    line = lines[at]
    if kind == "tab":
        lines[at] = line.replace(b" ", b"\t", 1)
    elif kind == "crlf":
        lines[at] = line.replace(b"\n", b"\r\n")
    elif kind == "blank":
        lines.insert(at, b"\n")
    elif kind == "no trailer":
        lines[at] = line.partition(b" # ")[0] + b"\n"
    elif kind == "no final newline":
        lines[-1] = lines[-1].rstrip(b"\n")
    elif kind == "token":
        # field 0 is the label, 1-13 the feature values
        parts = line.split(b" ")
        if len(parts) < field + 2:
            return lines
        head = b"" if field == 0 else parts[field + 1].split(b":")[0] + b":"
        parts[0 if field == 0 else field + 1] = head + token.encode()
        lines[at] = b" ".join(parts)
    elif kind == "non-utf8":
        lines[at] = line[:-1] + b"\xff\n"
    else:
        lines.insert(at, line)
    return lines


def read_outcome(path):
    try:
        return table_bits(read_features(path))
    except FormatError as exc:
        return str(exc)


class TestFeatureFileFastPath:
    """The regular-expression reader against the line parser."""

    def test_written_file_never_reaches_the_line_parser(self, tmp_path):
        table = table_of(TestFeatureFile().rows())
        p = tmp_path / "features.txt"
        write_features(table, p)
        with mock.patch.object(features, "_parse_feature_lines",
                               side_effect=AssertionError("line parser")):
            assert table_bits(read_features(p)) == table_bits(table)

    def test_crlf_file_goes_to_the_line_parser(self, tmp_path):
        table = table_of(TestFeatureFile().rows())
        p = tmp_path / "features.txt"
        write_features(table, p)
        p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
        assert table_bits(read_features(p)) == table_bits(table)
        with mock.patch.object(features, "_parse_feature_lines",
                               side_effect=AssertionError("line parser")):
            with pytest.raises(AssertionError, match="line parser"):
                read_features(p)

    @given(rows=shuffled_rows(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_line_parser(self, tmp_path_factory, rows, data):
        path = tmp_path_factory.mktemp("mutated") / "features.txt"
        write_features(table_of(rows), path)
        lines = path.read_bytes().splitlines(keepends=True)
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, max(len(lines) - 1, 0)))
            lines = mutate(lines, data.draw(st.sampled_from(MUTATIONS)), at,
                           data.draw(st.sampled_from(TOKENS)),
                           data.draw(st.integers(0, N_FEATURES)))
        path.write_bytes(b"".join(lines))
        got = read_outcome(path)
        with mock.patch.object(features, "_match_features",
                               return_value=None):
            assert got == read_outcome(path)


class TestTableProperties:
    """The table against sorted(), its own file, and the row oracle."""

    @given(rows=shuffled_rows())
    @settings(max_examples=300, deadline=None)
    def test_holds_its_rows_in_sorted_order(self, rows):
        table = table_of(rows)
        want = sorted(rows, key=lambda r: (r[0], r[1]))
        assert list(zip(table.topic_ids, table.venue_ids)) == [
            (r[0], r[1]) for r in want]
        assert table.labels.tolist() == [r[2] for r in want]
        assert table.X.tobytes() == bits([r[3] for r in want])

    @given(rows=shuffled_rows())
    @settings(max_examples=100, deadline=None)
    def test_file_round_trip_is_bit_exact(self, tmp_path_factory, rows):
        table = table_of(rows)
        path = tmp_path_factory.mktemp("table") / "features.txt"
        write_features(table, path)
        back = read_features(path)
        assert table_bits(back) == table_bits(table)

    @given(rows=shuffled_rows())
    @settings(max_examples=300, deadline=None)
    def test_normalize_matches_the_row_oracle(self, rows):
        table = table_of(rows)
        canonical = [FeatureRow(t, v, int(label), tuple(x))
                     for t, v, label, x in zip(
                         table.topic_ids, table.venue_ids, table.labels,
                         table.X.tolist())]
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = rowwise_normalize(canonical)
            except ValueError:
                # a topic's range overflows to inf: the oracle's rows
                # and the table both refuse the non-finite result
                with pytest.raises(ValueError, match="not finite"):
                    normalize_per_topic(table)
                return
            got = normalize_per_topic(table)
        assert got.X.tobytes() == bits([r.features for r in want])
        assert (got.topic_ids, got.venue_ids) == (table.topic_ids,
                                                  table.venue_ids)
        assert got.labels.tolist() == table.labels.tolist()


# Vector components: signed zeros, subnormals and magnitudes up to 1e100,
# whose squared norms stay finite at every dimension drawn.
COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e100, -1e100]),
    st.floats(-1e100, 1e100))
STATS = st.builds(
    VenueStats,
    **{name: st.none() | st.integers(0, 10 ** 6)
       for name in ("checkins", "likes", "comment_count", "photos",
                    "unique_users")},
    rating_avg=st.none() | st.just(-0.0) | st.floats(0.0, 10.0))
VENUES = ["v%d" % i for i in range(8)]
CONTEXT_KEYS = [(aspect, dim)
                for aspect, dims in {**ASPECTS, "gender": GENDERS}.items()
                for dim in dims]


@st.composite
def extraction_inputs(draw):
    """Pairs, venues by id, models and qrels, with every gap extract_all
    fills with zeros: dangling candidates, zero venue and user vectors,
    unbound aspects and zero context and gender vectors.  Every venue
    by id and every pair's user has a vector, as cli._load_models
    requires, and every context and gender vector is present, as
    load_context_vectors requires; a vector of a venue absent from
    venues by id may be missing."""
    dim = draw(st.integers(1, 300))
    rows = len(VENUES) + 4 + len(CONTEXT_KEYS)
    M = draw(hnp.arrays(np.float64, (rows, dim), elements=COMPONENTS))
    M[draw(hnp.arrays(np.bool_, rows))] = 0.0
    vectors = iter(M)
    venues_by_id = {vid: Venue(id=vid, stats=draw(STATS))
                    for vid in draw(st.sets(st.sampled_from(VENUES)))}
    venue_vectors = {vid: VenueVector(vid, next(vectors)) for vid in VENUES}
    for vid in draw(st.sets(st.sampled_from(VENUES))) - set(venues_by_id):
        del venue_vectors[vid]
    user_profiles = {uid: UserVenueProfile(uid, next(vectors), next(vectors))
                     for uid in ("u0", "u1")}
    context_vectors = {key: next(vectors) for key in CONTEXT_KEYS}
    models = ModelSet(venue_vectors, user_profiles, context_vectors)

    pairs = []
    for t in range(draw(st.integers(0, 4))):
        user = UserProfile(draw(st.sampled_from(["u0", "u1"])),
                           draw(st.sampled_from(GENDERS)))
        context = tuple(
            (aspect, draw(st.sampled_from(dims)))
            for aspect, dims in ASPECTS.items() if draw(st.booleans()))
        candidates = draw(st.lists(st.sampled_from(VENUES + ["g0", "g1"]),
                                   unique=True, max_size=8))
        pairs.append(ContextPair("t%d" % t, user, context, tuple(candidates)))
    qrels = draw(st.none() | st.builds(Qrels, st.dictionaries(
        st.tuples(st.sampled_from(["t0", "t1"]), st.sampled_from(VENUES)),
        st.integers(0, 3))))
    return pairs, venues_by_id, models, qrels


class TestExtractAllOracle:
    """The batched extract_all against the per-row formula it replaced."""

    @given(inputs=extraction_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_row_oracle_bit_for_bit(self, inputs):
        got = extract_all(*inputs)
        want = rowwise_extract_all(*inputs)
        assert got.X.tobytes() == want.X.tobytes()
        assert table_bits(got) == table_bits(want)
