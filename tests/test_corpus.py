"""Corpus loader validation and round-trip behaviour."""

import json
import logging
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venuerec.cli import SETTINGS
from venuerec.corpus import (
    ASPECTS,
    _has_space,
    load_contexts,
    load_profiles,
    load_venues,
)
from venuerec.embeddings import read_text_vectors, write_text_vectors
from venuerec.errors import FormatError, VenuerecError
from venuerec.evaluation import load_qrels
from writers import save_contexts, save_profiles, save_qrels, save_venues

RATING_SCALE = (SETTINGS["rating_min"].default, SETTINGS["rating_max"].default)


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

    def test_unstemmed_load_keeps_ids_and_statistics_only(self, venue_file):
        stemmed = load_venues(venue_file)
        bare = load_venues(venue_file, stem=False)
        assert [(v.id, v.stats) for v in bare] == \
            [(v.id, v.stats) for v in stemmed]
        assert [v.comments for v in bare] == [(), ()]

    @pytest.mark.parametrize("stem", [True, False])
    @pytest.mark.parametrize("comments, message", [
        (["fine", 7], "field 'comments' must hold strings"),
        ("fine", "field 'comments' must be a list"),
    ], ids=["non-string", "non-list"])
    def test_comments_are_checked_either_way(self, tmp_path, stem, comments,
                                             message):
        p = tmp_path / "v.jsonl"
        write_jsonl(p, [{"id": "v1", "comments": ["fine"]},
                        {"id": "v2", "comments": comments}])
        with pytest.raises(FormatError, match="line 2: " + message):
            load_venues(p, stem=stem)

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

    def test_name_is_checked_though_not_kept(self, tmp_path):
        p = tmp_path / "v.jsonl"
        write_jsonl(p, [{"id": "v1", "name": "Cafe"},
                        {"id": "v2", "name": 7}])
        with pytest.raises(FormatError, match="line 2: field 'name' must "
                                              "be a string") as err:
            load_venues(p)
        assert (err.value.path, err.value.line) == (p, 2)

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
        profiles = load_profiles(profile_file, RATING_SCALE)
        assert profiles[0].ratings == (("v1", 4), ("v2", 1))
        assert profiles[1].gender == "male"

    def test_bad_gender(self, tmp_path):
        p = tmp_path / "p.jsonl"
        write_jsonl(p, [{"user_id": "u1", "gender": "other", "ratings": []}])
        with pytest.raises(FormatError, match="gender"):
            load_profiles(p, RATING_SCALE)

    # json's position in a record is always line 1, so only its column
    # is kept: the record's line is already in the prefix
    @pytest.mark.parametrize("record, reason", [
        ('{"user_id": "u1\n', "Invalid control character at: column 16"),
        ('{oops\n', "Expecting property name enclosed in double quotes: "
                    "column 2"),
    ], ids=["control-character", "property-name"])
    def test_bad_json_names_its_column(self, tmp_path, record, reason):
        p = tmp_path / "p.jsonl"
        p.write_text('{"user_id": "u0", "gender": "male"}\n' + record,
                     encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_profiles(p, RATING_SCALE)
        assert str(err.value) == "%s: line 2: bad JSON (%s)" % (p, reason)

    def test_rating_outside_scale(self, tmp_path):
        p = tmp_path / "p.jsonl"
        write_jsonl(p, [{"user_id": "u1", "gender": "male",
                         "ratings": [{"venue_id": "v1", "rating": 9}]}])
        with pytest.raises(FormatError, match="outside scale"):
            load_profiles(p, RATING_SCALE)

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
            load_profiles(p, RATING_SCALE)

    def test_duplicate_user(self, tmp_path):
        p = tmp_path / "p.jsonl"
        write_jsonl(p, [{"user_id": "u1", "gender": "male", "ratings": []},
                        {"user_id": "u1", "gender": "male", "ratings": []}])
        with pytest.raises(FormatError, match="duplicate user id"):
            load_profiles(p, RATING_SCALE)

    def test_empty_file_is_an_error(self, tmp_path):
        p = tmp_path / "p.jsonl"
        p.write_text("")
        with pytest.raises(FormatError, match="no user profile records") \
                as err:
            load_profiles(p, RATING_SCALE)
        assert err.value.path == p


class TestLoadContexts:
    def load(self, path, profile_file, venues=("v1", "v2")):
        users = {u.user_id: u
                 for u in load_profiles(profile_file, RATING_SCALE)}
        return load_contexts(path, users, set(venues))

    def test_two_aspects_bound(self, tmp_path, profile_file):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "u1",
                         "candidates": ["v1", "v2"],
                         "context": {"season": "summer", "group": "family"}}])
        pairs = self.load(p, profile_file)
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
            self.load(p, profile_file)

    def test_unknown_aspect(self, tmp_path, profile_file):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "u1",
                         "candidates": ["v1"],
                         "context": {"weather": "rainy"}}])
        with pytest.raises(FormatError, match="unknown aspect 'weather'"):
            self.load(p, profile_file)

    @pytest.mark.parametrize("context", [[], 0, False, "", "x", [1]])
    def test_non_object_context_rejected(self, tmp_path, profile_file,
                                         context):
        # falsy values included: only an absent or null field means no
        # context
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "u1",
                         "candidates": ["v1"], "context": context}])
        with pytest.raises(FormatError,
                           match="line 1: field 'context' must be an object"):
            self.load(p, profile_file)

    @pytest.mark.parametrize("record", [{}, {"context": None}],
                             ids=["absent", "null"])
    def test_absent_or_null_context_is_empty(self, tmp_path, profile_file,
                                             record):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [dict(record, topic_id="t1", user_id="u1",
                             candidates=["v1"])])
        assert self.load(p, profile_file)[0].context == ()

    def test_underscore_dimension_normalized(self, tmp_path, profile_file):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "u1",
                         "candidates": ["v1"],
                         "context": {"duration": "Day_Time"}}])
        pairs = self.load(p, profile_file)
        assert pairs[0].dimension_of("duration") == "day time"

    def test_unknown_user(self, tmp_path, profile_file):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "ghost",
                         "candidates": ["v1"], "context": {}}])
        with pytest.raises(FormatError, match="unknown user id 'ghost'"):
            self.load(p, profile_file)

    def test_dangling_candidate_warns_and_keeps(self, tmp_path, profile_file,
                                                caplog):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "u1",
                         "candidates": ["v1", "vX"], "context": {}}])
        with caplog.at_level(logging.WARNING, logger="venuerec.corpus"):
            pairs = self.load(p, profile_file, venues={"v1"})
        assert pairs[0].candidates == ("v1", "vX")
        assert any("not present" in r.message for r in caplog.records)

    def test_duplicate_topic(self, tmp_path, profile_file):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "u1",
                         "candidates": ["v1"], "context": {}},
                        {"topic_id": "t1", "user_id": "u2",
                         "candidates": ["v2"], "context": {}}])
        with pytest.raises(FormatError, match="duplicate topic id"):
            self.load(p, profile_file)


class TestQrels:
    def test_parse(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("t1 0 v1 2\nt1 0 v2 0\nt2 0 v1 1\n")
        q = load_qrels(p)
        assert q.grade("t1", "v1") == 2
        assert q.grade("t1", "missing") == 0
        assert q.relevant_venues("t1", cutoff=0) == {"v1", "v2"}
        assert q.relevant_venues("t2", cutoff=0) == {"v1"}
        assert q.topics() == ["t1", "t2"]
        assert q.relevant_venues("t1", cutoff=1) == {"v1"}
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

    def test_grade_past_64_bits(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("t1 0 v1 %d\nt1 0 v2 %d\n" % (2 ** 63 - 1, 2 ** 63))
        with pytest.raises(FormatError, match="line 2: grade must fit in 64"):
            load_qrels(p)


class TestSchema:
    def test_default_aspects(self):
        assert list(ASPECTS.items()) == [
            ("duration", ("day time", "night time", "weekend")),
            ("season", ("spring", "summer", "autumn", "winter")),
            ("group", ("alone", "friends", "family")),
            ("type", ("business", "holiday")),
        ]


class TestRoundTrips:
    def test_venues(self, tmp_path, venue_file):
        venues = load_venues(venue_file)
        # a venue keeps only its stemmed tokens; the raw texts to write
        # back come from the file
        with open(venue_file, encoding="utf-8") as fh:
            texts = {obj["id"]: obj["comments"]
                     for obj in map(json.loads, fh)}
        out = tmp_path / "again.jsonl"
        save_venues(venues, texts, out)
        assert load_venues(out) == venues

    def test_profiles(self, tmp_path, profile_file):
        profiles = load_profiles(profile_file, RATING_SCALE)
        out = tmp_path / "again.jsonl"
        save_profiles(profiles, out)
        assert load_profiles(out, RATING_SCALE) == profiles

    def test_contexts(self, tmp_path, profile_file):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [{"topic_id": "t1", "user_id": "u1",
                         "candidates": ["v2", "v1"],
                         "context": {"duration": "weekend"}}])
        users = {u.user_id: u
                 for u in load_profiles(profile_file, RATING_SCALE)}
        pairs = load_contexts(p, users, {"v1", "v2"})
        out = tmp_path / "again.jsonl"
        save_contexts(pairs, out)
        assert load_contexts(out, users, {"v1", "v2"}) == pairs

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


# Any text a JSON string can hold, with lone surrogates, whitespace and
# the empty string drawn often.
_ID_TEXT = st.one_of(
    st.sampled_from(["", " ", "v\t1", "v\u2028", "\udc80v", "v\ud800"]),
    st.text(st.characters(exclude_categories=()), max_size=6))


class TestIdFields:
    """An id field either fails to load or can be written as the key of
    a vector cache line, as build-profiles writes it."""

    @settings(deadline=None)
    @given(field=st.sampled_from(["id", "user_id", "venue_id", "topic_id",
                                  "candidate"]),
           text=_ID_TEXT)
    def test_loads_or_raises(self, tmp_path_factory, field, text):
        ids = {"id": "v1", "user_id": "u1", "venue_id": "v1",
               "topic_id": "t1", "candidate": "v1", field: text}
        d = tmp_path_factory.mktemp("ids")
        write_jsonl(d / "venues.jsonl", [{"id": ids["id"]}])
        write_jsonl(d / "profiles.jsonl", [{
            "user_id": ids["user_id"], "gender": "male",
            "ratings": [{"venue_id": ids["venue_id"], "rating": 4}]}])
        write_jsonl(d / "contexts.jsonl", [{
            "topic_id": ids["topic_id"], "user_id": ids["user_id"],
            "candidates": [ids["candidate"]]}])
        try:
            venues = load_venues(d / "venues.jsonl")
            profiles = load_profiles(d / "profiles.jsonl", RATING_SCALE)
            pairs = load_contexts(d / "contexts.jsonl",
                                  {p.user_id: p for p in profiles},
                                  {v.id for v in venues})
        except VenuerecError:
            return
        loaded = [venues[0].id, profiles[0].user_id,
                  profiles[0].ratings[0][0], pairs[0].topic_id,
                  pairs[0].candidates[0]]
        assert loaded == [ids[key] for key in ("id", "user_id", "venue_id",
                                               "topic_id", "candidate")]
        keys = sorted(set(loaded))
        write_text_vectors([(key, [0.0]) for key in keys], d / "keys.txt")
        assert [key for _, key, _ in read_text_vectors(d / "keys.txt")] \
            == keys


def test_whitespace_check_agrees_with_isspace_on_every_code_point():
    """`str.split` splits on exactly the `str.isspace` characters, alone
    or inside an id."""
    texts = (text for code in range(sys.maxunicode + 1)
             for text in (chr(code), "v%c1" % code))
    assert [text for text in texts
            if _has_space(text) != any(c.isspace() for c in text)] == []
