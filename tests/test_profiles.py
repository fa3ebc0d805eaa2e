"""Preference-vector builders against hand values and the brute-force route."""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synthdata
from reference_models import (
    brute_context_terms,
    brute_term_sum,
    brute_user_vectors,
    brute_venue_vector,
)
from venuerec.cli import SETTINGS
from venuerec.corpus import ASPECTS, GENDERS, Comment, UserProfile, Venue
from venuerec.embeddings import EmbeddingStore, write_text_vectors
from venuerec.errors import FormatError, VenuerecError
from venuerec.profiles import (
    UserVenueProfile,
    VenueVector,
    build_context_vectors,
    build_venue_vectors,
    context_terms,
    load_context_vectors,
    load_user_vectors,
    load_venue_vectors,
    save_context_vectors,
    save_user_vectors,
    save_venue_vectors,
    seed_tokens,
    seed_vector,
    user_profile_vectors,
    venue_vector,
)


# the user_profile_vectors settings when no config or flag sets them
DEFAULTS = {key: SETTINGS[key].default
            for key in ("pos_threshold", "neg_threshold", "shifted_negative")}
K = SETTINGS["k"].default


def make_venue(vid, token_lists):
    return Venue(id=vid, comments=tuple(
        Comment(tokens=tuple(toks)) for toks in token_lists))


@pytest.fixture
def ab_store():
    return EmbeddingStore(["a", "b"], [[1.0, 0.0], [0.0, 2.0]])


class TestVenueVector:
    def test_two_comments(self, ab_store):
        venue = make_venue("v1", [["a", "b"], ["a"]])
        got = venue_vector(ab_store, venue)
        np.testing.assert_array_equal(got.vector, [2.0, 2.0])

    def test_no_comments_zero(self, ab_store):
        got = venue_vector(ab_store, make_venue("v1", []))
        np.testing.assert_array_equal(got.vector, [0.0, 0.0])

    def test_all_oov_zero(self, ab_store):
        got = venue_vector(ab_store, make_venue("v1", [["xx", "yy"]]))
        np.testing.assert_array_equal(got.vector, [0.0, 0.0])

    def test_repeated_token_counts_per_occurrence(self, ab_store):
        got = venue_vector(ab_store, make_venue("v1", [["a", "a", "a"]]))
        np.testing.assert_array_equal(got.vector, [3.0, 0.0])

    def test_additive_over_comment_split(self):
        rng = np.random.default_rng(3)
        store = EmbeddingStore(["t%d" % i for i in range(8)],
                               rng.normal(size=(8, 5)))
        all_comments = [["t0", "t3"], ["t5"], ["t1", "t1", "t7"], ["t2"]]
        whole = venue_vector(store, make_venue("v", all_comments)).vector
        part1 = venue_vector(store, make_venue("v", all_comments[:2])).vector
        part2 = venue_vector(store, make_venue("v", all_comments[2:])).vector
        np.testing.assert_allclose(part1 + part2, whole, atol=1e-9, rtol=0)

    @settings(deadline=None)
    @given(data=st.data())
    def test_equals_the_running_sum_bit_for_bit(self, data):
        # a lone column, which numpy would add pairwise, and wider ones;
        # signed zeros and magnitudes far apart, where the order of the
        # additions shows in the last bits
        dim = data.draw(st.integers(1, 4))
        terms = ["t%d" % i for i in range(data.draw(st.integers(1, 6)))]
        value = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300]),
                          st.floats(-1e300, 1e300))
        vectors = {t: data.draw(st.lists(value, min_size=dim, max_size=dim))
                   for t in terms}
        store = EmbeddingStore(terms, [vectors[t] for t in terms])
        tokens = data.draw(st.lists(st.lists(
            st.sampled_from(terms + ["oov"]), max_size=12), max_size=4))
        got = venue_vector(store, make_venue("v", tokens)).vector
        want = np.array(brute_venue_vector(vectors, tokens, dim))
        assert got.tobytes() == want.tobytes()


class TestUserProfileVectors:
    def make_vv(self, mapping):
        from venuerec.profiles import VenueVector
        return {k: VenueVector(k, np.asarray(v, dtype=np.float64))
                for k, v in mapping.items()}

    def test_hand_expanded_split(self, ab_store):
        vv = self.make_vv({"A": [1.0, 0.0], "B": [0.0, 1.0]})
        prof = UserProfile("u1", "male", (("A", 4), ("B", 1)))
        got = user_profile_vectors(ab_store.dimension, vv, prof,
                                   pos_threshold=4, neg_threshold=2,
                                   shifted_negative=False)
        np.testing.assert_array_equal(got.positive, [4.0, 0.0])
        np.testing.assert_array_equal(got.negative, [0.0, 1.0])

    def test_empty_profile_zero(self, ab_store):
        got = user_profile_vectors(ab_store.dimension, {},
                                   UserProfile("u", "male", ()), **DEFAULTS)
        np.testing.assert_array_equal(got.positive, [0.0, 0.0])
        np.testing.assert_array_equal(got.negative, [0.0, 0.0])

    def test_zero_rating_annihilates_negative(self, ab_store):
        vv = self.make_vv({"A": [5.0, 5.0]})
        prof = UserProfile("u", "male", (("A", 0),))
        got = user_profile_vectors(ab_store.dimension, vv, prof, **DEFAULTS)
        np.testing.assert_array_equal(got.negative, [0.0, 0.0])

    def test_shifted_negative_keeps_zero_rated(self, ab_store):
        vv = self.make_vv({"A": [5.0, 5.0]})
        prof = UserProfile("u", "male", (("A", 0),))
        got = user_profile_vectors(ab_store.dimension, vv, prof,
                                   **dict(DEFAULTS, shifted_negative=True))
        np.testing.assert_array_equal(got.negative, [5.0, 5.0])

    def test_between_thresholds_contributes_nowhere(self, ab_store):
        # pos>=4, neg<=2 leaves rating 3 in neither profile
        vv = self.make_vv({"A": [1.0, 1.0]})
        prof = UserProfile("u", "male", (("A", 3),))
        got = user_profile_vectors(ab_store.dimension, vv, prof,
                                   pos_threshold=4, neg_threshold=2,
                                   shifted_negative=False)
        np.testing.assert_array_equal(got.positive, [0.0, 0.0])
        np.testing.assert_array_equal(got.negative, [0.0, 0.0])

    def test_default_thresholds_partition_grades(self, ab_store):
        # default pos>=4 / neg<=3: every grade on the 0-4 scale lands
        # on exactly one side (4 positive, 1-3 negative, 0 annihilated)
        vv = self.make_vv({"A": [1.0, 0.0], "B": [1.0, 0.0],
                           "C": [0.0, 1.0]})
        prof = UserProfile("u", "male", (("A", 4), ("B", 3), ("C", 2)))
        got = user_profile_vectors(ab_store.dimension, vv, prof, **DEFAULTS)
        np.testing.assert_array_equal(got.positive, [4.0, 0.0])
        np.testing.assert_array_equal(got.negative, [3.0, 2.0])

    def test_unknown_venue_skipped_silently(self, ab_store, caplog):
        # one warning for all users comes from the build-profiles step
        import logging
        prof = UserProfile("u", "male", (("ghost", 4),))
        with caplog.at_level(logging.WARNING, logger="venuerec.profiles"):
            got = user_profile_vectors(ab_store.dimension, {}, prof,
                                       **DEFAULTS)
        np.testing.assert_array_equal(got.positive, [0.0, 0.0])
        assert not caplog.records


TWO_SEASONS = ("spring", "summer")

# every (aspect, dimension) key of a context vector cache, gender last
CONTEXT_KEYS = [(aspect, dim)
                for aspect, dims in {**ASPECTS, "gender": GENDERS}.items()
                for dim in dims]


def with_zero_seeds(terms, rows):
    """A store of `terms` plus every other seed token as a zero vector,
    so that build_context_vectors runs; a zero seed finds no terms."""
    seeds = sorted({tok for _, dim in CONTEXT_KEYS
                    for tok in seed_tokens(dim)} - set(terms))
    rows = [list(row) for row in rows]
    return EmbeddingStore(list(terms) + seeds,
                          rows + [[0.0] * len(rows[0])] * len(seeds))


class TestContextTerms:
    def test_degenerate_two_dimension_aspect(self):
        store = EmbeddingStore(["spring", "summer", "w", "far"],
                               [[1.0, 0.0, 0.0],
                                [0.0, 1.0, 0.0],
                                [0.9, -0.9, 0.0],
                                [0.0, 0.0, 1.0]])
        # one key per sibling dimension, in their order
        assert list(context_terms(store, TWO_SEASONS, k=1).items()) == [
            ("spring", ("w",)), ("summer", ("far",))]

    def test_seeds_never_in_expansion(self):
        rng = np.random.default_rng(9)
        terms = ["spring", "summer"] + ["c%d" % i for i in range(6)]
        store = EmbeddingStore(terms, rng.normal(size=(8, 3)))
        got = context_terms(store, TWO_SEASONS, k=8)["summer"]
        assert "spring" not in got
        assert "summer" not in got

    def test_multiword_seed_mean_and_exclusion(self):
        # "day time" seeds through tokens dai+time; the mean of the two
        # vectors is the seed, and both tokens are excluded
        store = EmbeddingStore(["dai", "night", "time", "sun", "moon"],
                               [[1.0, 0.0],
                                [-1.0, 0.0],
                                [0.0, 1.0],
                                [1.0, 0.0],
                                [-1.0, 0.0]])
        np.testing.assert_array_equal(seed_vector(store, "day time"),
                                      [0.5, 0.5])
        got = context_terms(store, ("day time", "night time"), k=3)
        # query = (0.5,0.5) - (-0.5,0.5) = (1,0): sun 1.0, moon -1.0
        assert got["day time"] == ("moon", "sun")

    def test_seeds_whose_difference_overflows_rank_by_true_cosine(self):
        # the query spring - summer = (2.4e154, 0) has a squared norm
        # past the largest float, though every row's is finite
        store = EmbeddingStore(["spring", "summer", "warm", "cold", "mild"],
                               [[1.2e154, 0.0],
                                [-1.2e154, 0.0],
                                [1.0, 0.1],
                                [-1.0, 0.1],
                                [0.0, 1.0]])
        # cosines against (1, 0): warm 0.995, mild 0.0, cold -0.995
        for k, terms in ((1, ("warm",)), (2, ("mild", "warm"))):
            assert context_terms(store, TWO_SEASONS, k=k)["spring"] == terms

    def test_seed_oov_raises_naming_token(self):
        store = EmbeddingStore(["spring"], [[1.0, 0.0]])
        with pytest.raises(VenuerecError, match="'summer'"):
            context_terms(store, TWO_SEASONS, k=1)


class TestGender:
    def test_toy_subtraction(self):
        store = with_zero_seeds(["male", "femal", "w", "x"],
                                [[1.0, 0.0],
                                 [0.0, 1.0],
                                 [1.0, -1.0],
                                 [0.3, 0.3]])
        assert context_terms(store, GENDERS, k=1)["male"] == ("w",)
        gv = build_context_vectors(store, k=1)[("gender", "male")]
        np.testing.assert_array_equal(gv, [1.0, -1.0])

    def test_female_uses_opposite_subtraction(self):
        store = EmbeddingStore(["male", "femal", "w", "v"],
                               [[1.0, 0.0],
                                [0.0, 1.0],
                                [1.0, -1.0],
                                [-1.0, 1.0]])
        assert context_terms(store, GENDERS, k=1) == {"male": ("w",),
                                                      "female": ("v",)}


def synth_vocab_store(**overrides):
    vocab = dict(synthdata.build_vocab(), **overrides)
    terms = sorted(vocab)
    return EmbeddingStore(terms, [vocab[t] for t in terms])


class TestContextVectorsOfTheSynthCorpus:
    def test_fourteen_dimensions_gender_last(self):
        vectors = build_context_vectors(synth_vocab_store(), K)
        assert list(vectors) == CONTEXT_KEYS
        assert list(vectors)[-2:] == [("gender", "male"),
                                      ("gender", "female")]
        # each gender's expansion is the 10-term cluster on its own axis
        for gender, axis in (("male", 12), ("female", 13)):
            want = np.zeros(synthdata.DIMENSION)
            want[axis] = 10.0
            np.testing.assert_array_equal(vectors[("gender", gender)], want)

    def test_empty_term_sets_give_zero_vectors_and_warn(self, caplog):
        # male and femal are equal, so each gender's query is zero and
        # finds no terms
        import logging
        vocab = synthdata.build_vocab()
        store = synth_vocab_store(femal=vocab["male"])
        with caplog.at_level(logging.WARNING, logger="venuerec.profiles"):
            vectors = build_context_vectors(store, K)
        for gender in GENDERS:
            np.testing.assert_array_equal(vectors[("gender", gender)],
                                          np.zeros(synthdata.DIMENSION))
        assert [r.getMessage() for r in caplog.records] == [
            "empty term set for gender/%s; context vector is zero" % g
            for g in GENDERS]


class TestSeedTokens:
    @pytest.mark.parametrize("dim,toks", [
        ("day time", ("dai", "time")),
        ("night time", ("night", "time")),
        ("weekend", ("weekend",)),
        ("spring", ("spring",)),
        ("summer", ("summer",)),
        ("autumn", ("autumn",)),
        ("winter", ("winter",)),
        ("alone", ("alon",)),
        ("friends", ("friend",)),
        ("family", ("famili",)),
        ("business", ("busi",)),
        ("holiday", ("holidai",)),
        ("male", ("male",)),
        ("female", ("femal",)),
    ])
    def test_default_schema_seed_tokens(self, dim, toks):
        # frozen stems of every dimension name; stopword removal is
        # skipped here ("alone" is a stopword) but stemming is not
        assert seed_tokens(dim) == toks


class TestBruteForceAgreement:
    def fixture(self, rng):
        terms = sorted({tok for _, dim in CONTEXT_KEYS
                        for tok in seed_tokens(dim)})
        terms += ["c%d" % i for i in range(6)]
        vectors = {t: [float(x) for x in rng.normal(size=4)] for t in terms}
        store = EmbeddingStore(sorted(terms),
                               [vectors[t] for t in sorted(terms)])
        return store, vectors

    def test_random_fixtures(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            store, vectors = self.fixture(rng)
            tokens = [[rng.choice(list(vectors)) for _ in range(4)]
                      for _ in range(3)]
            vv = venue_vector(store, make_venue("v", tokens))
            np.testing.assert_allclose(
                vv.vector, brute_venue_vector(vectors, tokens, 4),
                atol=1e-9, rtol=0)

            venue_vecs = {"A": vv.vector,
                          "B": np.asarray(vectors["c0"], dtype=np.float64)}
            ratings = (("A", int(rng.integers(0, 5))),
                       ("B", int(rng.integers(0, 5))))
            prof = UserProfile("u", "male", ratings)
            from venuerec.profiles import VenueVector
            up = user_profile_vectors(
                store.dimension,
                {k: VenueVector(k, v) for k, v in venue_vecs.items()},
                prof, **DEFAULTS)
            bp, bn = brute_user_vectors(
                {k: list(v) for k, v in venue_vecs.items()}, ratings, 4, 4, 3)
            np.testing.assert_allclose(up.positive, bp, atol=1e-9, rtol=0)
            np.testing.assert_allclose(up.negative, bn, atol=1e-9, rtol=0)

            k = int(rng.integers(1, 5))
            terms = context_terms(store, TWO_SEASONS, k=k)["spring"]
            want_terms = brute_context_terms(
                vectors, [("spring", ["spring"]), ("summer", ["summer"])],
                "spring", k)
            assert list(terms) == want_terms

            cvs = build_context_vectors(store, k)
            want_terms = brute_context_terms(
                vectors, [(d, list(seed_tokens(d)))
                          for d in ASPECTS["season"]], "spring", k)
            np.testing.assert_allclose(
                cvs[("season", "spring")],
                brute_term_sum(vectors, want_terms, 4), atol=1e-9, rtol=0)

            gterms = context_terms(store, GENDERS, k=k)["male"]
            want_g = brute_context_terms(
                vectors, [("male", ["male"]), ("female", ["femal"])],
                "male", k)
            assert list(gterms) == want_g


class TestCaches:
    def test_venue_vector_round_trip(self, tmp_path, ab_store):
        vv = build_venue_vectors(ab_store, [
            make_venue("v2", [["a"]]), make_venue("v1", [["b", "b"]])])
        p = tmp_path / "venue_vectors.txt"
        save_venue_vectors(vv, p)
        back = load_venue_vectors(p)
        assert back.keys() == vv.keys()
        for vid in vv:
            np.testing.assert_array_equal(back[vid].vector, vv[vid].vector)

    def test_user_vector_round_trip(self, tmp_path, ab_store):
        from venuerec.profiles import VenueVector
        vvs = {"A": VenueVector("A", np.array([1.0, 0.5]))}
        prof = UserProfile("u1", "female", (("A", 4),))
        ups = {"u1": user_profile_vectors(ab_store.dimension, vvs, prof,
                                          **DEFAULTS)}
        p = tmp_path / "user_vectors.txt"
        save_user_vectors(ups, p)
        back = load_user_vectors(p)
        np.testing.assert_array_equal(back["u1"].positive,
                                      ups["u1"].positive)
        np.testing.assert_array_equal(back["u1"].negative,
                                      ups["u1"].negative)

    def test_context_vector_round_trip(self, tmp_path):
        cvs = build_context_vectors(synth_vocab_store(), k=2)
        p = tmp_path / "context_vectors.txt"
        save_context_vectors(cvs, p)
        back = load_context_vectors(p)
        # keys come back sorted, "day_time" as "day time"
        assert list(back) == sorted(CONTEXT_KEYS)
        for key, vec in cvs.items():
            np.testing.assert_array_equal(back[key], vec)

    @pytest.mark.parametrize("key", [
        "weather/rainy", "season/monday", "gender/other", "season",
        "season/", "gender/femal", "duration/day__time"])
    def test_context_key_outside_the_table_rejected(self, tmp_path, key):
        p = tmp_path / "context_vectors.txt"
        write_text_vectors([("season/spring", np.ones(2)),
                            (key, np.ones(2))], p)
        # line 1 is the header
        with pytest.raises(FormatError,
                           match="line 3: bad context vector key %r" % key):
            load_context_vectors(p)

    def test_missing_context_key_rejected(self, tmp_path):
        p = tmp_path / "context_vectors.txt"
        write_text_vectors([("%s/%s" % (aspect, dim.replace(" ", "_")),
                             np.ones(2)) for aspect, dim in CONTEXT_KEYS
                            if dim != "weekend"], p)
        with pytest.raises(FormatError) as exc:
            load_context_vectors(p)
        assert str(exc.value) == (
            "%s: no context vector for key 'duration/weekend'" % p)

    def test_cache_determinism(self, tmp_path, ab_store):
        vv = build_venue_vectors(ab_store, [make_venue("v1", [["a"]])])
        p1 = tmp_path / "one.txt"
        p2 = tmp_path / "two.txt"
        save_venue_vectors(vv, p1)
        save_venue_vectors(vv, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_whitespace_key_rejected(self, tmp_path, ab_store):
        vv = build_venue_vectors(ab_store, [make_venue("bad id", [["a"]])])
        with pytest.raises(VenuerecError, match="whitespace"):
            save_venue_vectors(vv, tmp_path / "x.txt")


# Any finite float64, with -0.0, subnormals and values near the top of
# the range drawn often.
_FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308,
                     1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
_IDS = st.text(alphabet=string.ascii_letters + string.digits + "-./",
               min_size=1, max_size=8)


@st.composite
def vector_tables(draw, keys, size=5, min_size=1):
    """``{key: float64 vector}`` with `min_size` to `size` keys of one
    length."""
    dim = draw(st.integers(1, 4))
    ids = draw(st.lists(keys, min_size=min_size, max_size=size,
                        unique=True))
    return {key: np.array(draw(st.lists(_FLOATS, min_size=dim,
                                        max_size=dim)), dtype=np.float64)
            for key in ids}


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestCacheRoundTripIsBitExact:
    """What a cache writer saves, its reader returns bit for bit."""

    @given(table=vector_tables(_IDS))
    def test_venue_vectors(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("cache") / "venue_vectors.txt"
        save_venue_vectors({k: VenueVector(k, v) for k, v in table.items()},
                           path)
        back = load_venue_vectors(path)
        assert back.keys() == table.keys()
        for key, vec in table.items():
            assert back[key].venue_id == key
            assert same_bits(back[key].vector, vec)

    @given(table=vector_tables(_IDS, size=6))
    def test_user_vectors(self, tmp_path_factory, table):
        keys = sorted(table)
        half = len(keys) // 2 or 1
        users = {}
        for user_id, neg_key in zip(keys[:half], keys[half:] + keys[:1]):
            users[user_id] = UserVenueProfile(
                user_id, table[user_id], table[neg_key])
        path = tmp_path_factory.mktemp("cache") / "user_vectors.txt"
        save_user_vectors(users, path)
        back = load_user_vectors(path)
        assert back.keys() == users.keys()
        for user_id, up in users.items():
            assert same_bits(back[user_id].positive, up.positive)
            assert same_bits(back[user_id].negative, up.negative)

    @given(table=vector_tables(st.sampled_from(CONTEXT_KEYS), size=14,
                               min_size=14))
    def test_context_and_gender_vectors(self, tmp_path_factory, table):
        # a dimension's spaces are stored as '_' in the cache key
        path = tmp_path_factory.mktemp("cache") / "context_vectors.txt"
        save_context_vectors(table, path)
        back = load_context_vectors(path)
        assert back.keys() == table.keys()
        for key, vec in table.items():
            assert same_bits(back[key], vec)
