"""Corpus loader validation and round-trip behaviour."""

import json
import logging

import pytest

from venuerec.corpus import (
    DEFAULT_SCHEMA,
    ContextSchema,
    Qrels,
    load_contexts,
    load_profiles,
    load_qrels,
    load_venues,
    save_contexts,
    save_profiles,
    save_qrels,
    save_venues,
)
from venuerec.errors import FormatError


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.fixture
def venue_file(tmp_path):
    p = tmp_path / "venues.jsonl"
    write_jsonl(p, [
        {"id": "v1", "name": "Cafe One", "checkins": 120, "likes": 30,
         "comment_count": 2, "photos": 9, "rating_avg": 8.4,
         "unique_users": 75,
         "comments": ["Great coffee and cakes!", "Lovely garden seating."]},
        {"id": "v2", "name": "Museum", "comments": []},
    ])
    return p


@pytest.fixture
def profile_file(tmp_path):
    p = tmp_path / "profiles.jsonl"
    write_jsonl(p, [
        {"user_id": "u1", "gender": "female",
         "ratings": [{"venue_id": "v1", "rating": 4},
                     {"venue_id": "v2", "rating": 1}]},
        {"user_id": "u2", "gender": "male", "ratings": []},
    ])
    return p


class TestLoadVenues:
    def test_comments_tokenized(self, venue_file):
        venues = load_venues(venue_file)
        v1 = venues[0]
        assert v1.id == "v1"
        assert v1.stats.checkins == 120
        assert v1.comments[0].tokens == ("great", "coffe", "cake")
        assert v1.comments[1].tokens == ("love", "garden", "seat")

    def test_missing_stats_are_none_not_zero(self, venue_file):
        v2 = load_venues(venue_file)[1]
        assert v2.stats.checkins is None
        assert v2.stats.rating_avg is None

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "v.jsonl"
        write_jsonl(p, [{"id": "v1"}, {"id": "v1"}])
        with pytest.raises(FormatError, match="duplicate venue id 'v1'"):
            load_venues(p)

    def test_negative_stat(self, tmp_path):
        p = tmp_path / "v.jsonl"
        write_jsonl(p, [{"id": "v1", "likes": -3}])
        with pytest.raises(FormatError, match="'likes'"):
            load_venues(p)

    def test_rating_avg_range(self, tmp_path):
        p = tmp_path / "v.jsonl"
        write_jsonl(p, [{"id": "v1", "rating_avg": 11.0}])
        with pytest.raises(FormatError, match="rating_avg"):
            load_venues(p)

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "v.jsonl"
        p.write_text('{"id": "v1"}\n{oops\n')
        with pytest.raises(FormatError, match="line 2"):
            load_venues(p)

    def test_bool_rejected_for_count(self, tmp_path):
        p = tmp_path / "v.jsonl"
        write_jsonl(p, [{"id": "v1", "checkins": True}])
        with pytest.raises(FormatError, match="checkins"):
            load_venues(p)

    def test_empty_file_is_an_error(self, tmp_path):
        p = tmp_path / "v.jsonl"
        p.write_text("\n")
        with pytest.raises(FormatError, match="no venue records") as err:
            load_venues(p)
        assert err.value.path == p

    def test_non_utf8_bytes_report_their_line(self, tmp_path):
        # far past the first read buffer, so the line must be exact
        p = tmp_path / "v.jsonl"
        good = "".join(json.dumps({"id": "v%d" % i}) + "\n"
                       for i in range(1000))
        p.write_bytes(good.encode() + b'{"id": "caf\xe9"}\n')
        with pytest.raises(FormatError, match="not valid UTF-8") as err:
            load_venues(p)
        assert (err.value.path, err.value.line) == (p, 1001)


class TestLoadProfiles:
    def test_basic(self, profile_file):
        profiles = load_profiles(profile_file)
        assert profiles[0].ratings == (("v1", 4), ("v2", 1))
        assert profiles[1].gender == "male"

    def test_bad_gender(self, tmp_path):
        p = tmp_path / "p.jsonl"
        write_jsonl(p, [{"user_id": "u1", "gender": "other", "ratings": []}])
        with pytest.raises(FormatError, match="gender"):
            load_profiles(p)

    def test_rating_outside_scale(self, tmp_path):
        p = tmp_path / "p.jsonl"
        write_jsonl(p, [{"user_id": "u1", "gender": "male",
                         "ratings": [{"venue_id": "v1", "rating": 9}]}])
        with pytest.raises(FormatError, match="outside scale"):
            load_profiles(p)

    def test_custom_scale_admits_wider_ratings(self, tmp_path):
        p = tmp_path / "p.jsonl"
        write_jsonl(p, [{"user_id": "u1", "gender": "male",
                         "ratings": [{"venue_id": "v1", "rating": 5}]}])
        assert load_profiles(p, rating_scale=(1, 5))[0].ratings == (("v1", 5),)

    def test_duplicate_rated_venue(self, tmp_path):
        p = tmp_path / "p.jsonl"
        write_jsonl(p, [{"user_id": "u1", "gender": "male",
                         "ratings": [{"venue_id": "v1", "rating": 1},
                                     {"venue_id": "v1", "rating": 2}]}])
        with pytest.raises(FormatError, match="duplicate rating"):
            load_profiles(p)

    def test_duplicate_user(self, tmp_path):
        p = tmp_path / "p.jsonl"
        write_jsonl(p, [{"user_id": "u1", "gender": "male", "ratings": []},
                        {"user_id": "u1", "gender": "male", "ratings": []}])
        with pytest.raises(FormatError, match="duplicate user id"):
            load_profiles(p)

    def test_empty_file_is_an_error(self, tmp_path):
        p = tmp_path / "p.jsonl"
        p.write_text("")
        with pytest.raises(FormatError, match="no user profile records") \
                as err:
            load_profiles(p)
        assert err.value.path == p


class TestLoadContexts:
    def make_users(self, profile_file):
        return load_profiles(profile_file)

    def test_two_aspects_bound(self, tmp_path, profile_file):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "u1",
                         "candidates": ["v1", "v2"],
                         "context": {"season": "summer", "group": "family"}}])
        pairs = load_contexts(p, self.make_users(profile_file))
        assert pairs[0].context == (("season", "summer"), ("group", "family"))
        assert pairs[0].dimension_of("season") == "summer"
        assert pairs[0].dimension_of("duration") is None

    def test_illegal_dimension(self, tmp_path, profile_file):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "u1",
                         "candidates": ["v1"],
                         "context": {"season": "monday"}}])
        with pytest.raises(FormatError,
                           match="'monday' is not legal for aspect 'season'"):
            load_contexts(p, self.make_users(profile_file))

    def test_unknown_aspect(self, tmp_path, profile_file):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "u1",
                         "candidates": ["v1"],
                         "context": {"weather": "rainy"}}])
        with pytest.raises(FormatError, match="unknown aspect 'weather'"):
            load_contexts(p, self.make_users(profile_file))

    def test_underscore_dimension_normalized(self, tmp_path, profile_file):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "u1",
                         "candidates": ["v1"],
                         "context": {"duration": "Day_Time"}}])
        pairs = load_contexts(p, self.make_users(profile_file))
        assert pairs[0].dimension_of("duration") == "day time"

    def test_unknown_user(self, tmp_path, profile_file):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "ghost",
                         "candidates": ["v1"], "context": {}}])
        with pytest.raises(FormatError, match="unknown user id 'ghost'"):
            load_contexts(p, self.make_users(profile_file))

    def test_dangling_candidate_warns_and_keeps(self, tmp_path, profile_file,
                                                caplog):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "u1",
                         "candidates": ["v1", "vX"], "context": {}}])
        with caplog.at_level(logging.WARNING, logger="venuerec.corpus"):
            pairs = load_contexts(p, self.make_users(profile_file),
                                  venues={"v1"})
        assert pairs[0].candidates == ("v1", "vX")
        assert any("not present" in r.message for r in caplog.records)

    def test_duplicate_topic(self, tmp_path, profile_file):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "u1",
                         "candidates": ["v1"], "context": {}},
                        {"topic_id": "t1", "user_id": "u2",
                         "candidates": ["v2"], "context": {}}])
        with pytest.raises(FormatError, match="duplicate topic id"):
            load_contexts(p, self.make_users(profile_file))


class TestQrels:
    def test_parse(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("t1 0 v1 2\nt1 0 v2 0\nt2 0 v1 1\n")
        q = load_qrels(p)
        assert q.grade("t1", "v1") == 2
        assert q.grade("t1", "missing") == 0
        assert q.is_judged("t1", "v2")
        assert not q.is_judged("t2", "v2")
        assert q.topics() == ["t1", "t2"]
        assert q.relevant_venues("t1") == {"v1"}
        assert q.relevant_venues("t1", cutoff=2) == {"v1"}
        assert q.relevant_venues("t1", cutoff=3) == set()

    def test_duplicate_judgment(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("t1 0 v1 2\nt1 0 v1 1\n")
        with pytest.raises(FormatError, match="duplicate judgment"):
            load_qrels(p)

    def test_wrong_columns(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("t1 v1 2\n")
        with pytest.raises(FormatError, match="4 columns"):
            load_qrels(p)

    def test_bad_grade(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("t1 0 v1 high\n")
        with pytest.raises(FormatError, match="not an integer"):
            load_qrels(p)

    def test_negative_grade(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("t1 0 v1 -1\n")
        with pytest.raises(FormatError, match=">= 0"):
            load_qrels(p)


class TestSchema:
    def test_default_aspects(self):
        assert DEFAULT_SCHEMA.aspect_names() == (
            "duration", "season", "group", "type")
        assert DEFAULT_SCHEMA.dimensions("duration") == (
            "day time", "night time", "weekend")
        assert DEFAULT_SCHEMA.dimensions("season") == (
            "spring", "summer", "autumn", "winter")
        assert DEFAULT_SCHEMA.dimensions("group") == (
            "alone", "friends", "family")
        assert DEFAULT_SCHEMA.dimensions("type") == ("business", "holiday")

    def test_is_legal(self):
        assert DEFAULT_SCHEMA.is_legal("season", "winter")
        assert not DEFAULT_SCHEMA.is_legal("season", "monday")
        assert not DEFAULT_SCHEMA.is_legal("weather", "rainy")

    def test_custom_schema(self):
        schema = ContextSchema(aspects=(("mood", ("calm", "busy")),))
        assert schema.is_legal("mood", "busy")
        assert not schema.is_legal("season", "summer")


class TestRoundTrips:
    def test_venues(self, tmp_path, venue_file):
        venues = load_venues(venue_file)
        out = tmp_path / "again.jsonl"
        save_venues(venues, out)
        assert load_venues(out) == venues

    def test_profiles(self, tmp_path, profile_file):
        profiles = load_profiles(profile_file)
        out = tmp_path / "again.jsonl"
        save_profiles(profiles, out)
        assert load_profiles(out) == profiles

    def test_contexts(self, tmp_path, profile_file):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "u1",
                         "candidates": ["v2", "v1"],
                         "context": {"duration": "weekend"}}])
        users = load_profiles(profile_file)
        pairs = load_contexts(p, users)
        out = tmp_path / "again.jsonl"
        save_contexts(pairs, out)
        assert load_contexts(out, users) == pairs

    def test_qrels(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("t2 0 v1 1\nt1 0 v9 3\n")
        q = load_qrels(p)
        out = tmp_path / "again.txt"
        save_qrels(q, out)
        assert load_qrels(out) == q

    def test_qrels_non_utf8_bytes_report_their_line(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_bytes(b"t1 0 v1 1\nt1 0 v\xff 1\n")
        with pytest.raises(FormatError, match="line 2: not valid UTF-8"):
            load_qrels(p)
