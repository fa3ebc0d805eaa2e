"""Preference-vector builders against hand values and the brute-force route."""

import numpy as np
import pytest

from reference_models import (
    brute_context_terms,
    brute_term_sum,
    brute_user_vectors,
    brute_venue_vector,
)
from venuerec.corpus import Comment, ContextSchema, UserProfile, Venue
from venuerec.embeddings import EmbeddingStore, vec_combine
from venuerec.errors import VenuerecError
from venuerec.profiles import (
    ContextTermSet,
    build_context_vectors,
    build_venue_vectors,
    context_terms,
    context_vector,
    gender_terms,
    gender_vector,
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


def make_venue(vid, token_lists):
    return Venue(id=vid, comments=tuple(
        Comment(raw=" ".join(toks), tokens=tuple(toks))
        for toks in token_lists))


@pytest.fixture
def ab_store():
    return EmbeddingStore.from_pairs([("a", [1.0, 0.0]), ("b", [0.0, 2.0])])


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
        store = EmbeddingStore.from_pairs(
            [("t%d" % i, rng.normal(size=5)) for i in range(8)])
        all_comments = [["t0", "t3"], ["t5"], ["t1", "t1", "t7"], ["t2"]]
        whole = venue_vector(store, make_venue("v", all_comments)).vector
        part1 = venue_vector(store, make_venue("v", all_comments[:2])).vector
        part2 = venue_vector(store, make_venue("v", all_comments[2:])).vector
        np.testing.assert_allclose(part1 + part2, whole, atol=1e-9, rtol=0)


class TestUserProfileVectors:
    def make_vv(self, mapping):
        from venuerec.profiles import VenueVector
        return {k: VenueVector(k, np.asarray(v, dtype=np.float64))
                for k, v in mapping.items()}

    def test_hand_expanded_split(self, ab_store):
        vv = self.make_vv({"A": [1.0, 0.0], "B": [0.0, 1.0]})
        prof = UserProfile("u1", "male", (("A", 4), ("B", 1)))
        got = user_profile_vectors(ab_store, vv, prof, pos_threshold=4,
                                   neg_threshold=2)
        np.testing.assert_array_equal(got.positive, [4.0, 0.0])
        np.testing.assert_array_equal(got.negative, [0.0, 1.0])

    def test_empty_profile_zero(self, ab_store):
        got = user_profile_vectors(ab_store, {}, UserProfile("u", "male", ()))
        np.testing.assert_array_equal(got.positive, [0.0, 0.0])
        np.testing.assert_array_equal(got.negative, [0.0, 0.0])

    def test_zero_rating_annihilates_negative(self, ab_store):
        vv = self.make_vv({"A": [5.0, 5.0]})
        prof = UserProfile("u", "male", (("A", 0),))
        got = user_profile_vectors(ab_store, vv, prof)
        np.testing.assert_array_equal(got.negative, [0.0, 0.0])

    def test_shifted_negative_keeps_zero_rated(self, ab_store):
        vv = self.make_vv({"A": [5.0, 5.0]})
        prof = UserProfile("u", "male", (("A", 0),))
        got = user_profile_vectors(ab_store, vv, prof, shifted_negative=True)
        np.testing.assert_array_equal(got.negative, [5.0, 5.0])

    def test_between_thresholds_contributes_nowhere(self, ab_store):
        # pos>=4, neg<=2 leaves rating 3 in neither profile
        vv = self.make_vv({"A": [1.0, 1.0]})
        prof = UserProfile("u", "male", (("A", 3),))
        got = user_profile_vectors(ab_store, vv, prof, pos_threshold=4,
                                   neg_threshold=2)
        np.testing.assert_array_equal(got.positive, [0.0, 0.0])
        np.testing.assert_array_equal(got.negative, [0.0, 0.0])

    def test_default_thresholds_partition_grades(self, ab_store):
        # default pos>=4 / neg<=3: every grade on the 0-4 scale lands
        # on exactly one side (4 positive, 1-3 negative, 0 annihilated)
        vv = self.make_vv({"A": [1.0, 0.0], "B": [1.0, 0.0],
                           "C": [0.0, 1.0]})
        prof = UserProfile("u", "male", (("A", 4), ("B", 3), ("C", 2)))
        got = user_profile_vectors(ab_store, vv, prof)
        np.testing.assert_array_equal(got.positive, [4.0, 0.0])
        np.testing.assert_array_equal(got.negative, [3.0, 2.0])

    def test_unknown_venue_skipped_with_warning(self, ab_store, caplog):
        import logging
        prof = UserProfile("u", "male", (("ghost", 4),))
        with caplog.at_level(logging.WARNING, logger="venuerec.profiles"):
            got = user_profile_vectors(ab_store, {}, prof)
        np.testing.assert_array_equal(got.positive, [0.0, 0.0])
        assert any("missing" in r.message for r in caplog.records)

    def test_threshold_order_enforced(self, ab_store):
        prof = UserProfile("u", "male", ())
        with pytest.raises(ValueError):
            user_profile_vectors(ab_store, {}, prof, pos_threshold=2,
                                 neg_threshold=3)


TWO_SEASONS = ContextSchema(aspects=(("season", ("spring", "summer")),))


class TestContextTerms:
    def test_degenerate_two_dimension_aspect(self):
        store = EmbeddingStore.from_pairs([
            ("spring", [1.0, 0.0, 0.0]),
            ("summer", [0.0, 1.0, 0.0]),
            ("w", [0.9, -0.9, 0.0]),
            ("far", [0.0, 0.0, 1.0]),
        ])
        ts = context_terms(store, "season", "spring", k=1,
                           schema=TWO_SEASONS)
        assert ts.terms == ("w",)
        assert ts.aspect == "season"
        assert ts.dimension == "spring"

    def test_seeds_never_in_expansion(self):
        rng = np.random.default_rng(9)
        pairs = [("spring", rng.normal(size=3)),
                 ("summer", rng.normal(size=3))]
        pairs += [("c%d" % i, rng.normal(size=3)) for i in range(6)]
        store = EmbeddingStore.from_pairs(pairs)
        ts = context_terms(store, "season", "summer", k=8, schema=TWO_SEASONS)
        assert "spring" not in ts.terms
        assert "summer" not in ts.terms

    def test_multiword_seed_mean_and_exclusion(self):
        # "day time" seeds through tokens dai+time; the mean of the two
        # vectors is the seed, and both tokens are excluded
        schema = ContextSchema(aspects=(
            ("duration", ("day time", "night time")),))
        store = EmbeddingStore.from_pairs([
            ("dai", [1.0, 0.0]),
            ("night", [-1.0, 0.0]),
            ("time", [0.0, 1.0]),
            ("sun", [1.0, 0.0]),
            ("moon", [-1.0, 0.0]),
        ])
        np.testing.assert_array_equal(seed_vector(store, "day time"),
                                      [0.5, 0.5])
        ts = context_terms(store, "duration", "day time", k=3, schema=schema)
        # query = (0.5,0.5) - (-0.5,0.5) = (1,0): sun 1.0, moon -1.0
        assert ts.terms == ("moon", "sun")

    def test_seed_oov_raises_naming_token(self):
        store = EmbeddingStore.from_pairs([("spring", [1.0, 0.0])])
        with pytest.raises(VenuerecError, match="'summer'"):
            context_terms(store, "season", "spring", k=1, schema=TWO_SEASONS)

    def test_illegal_dimension(self, ab_store):
        with pytest.raises(ValueError, match="not legal"):
            context_terms(ab_store, "season", "monday", k=1,
                          schema=TWO_SEASONS)

    def test_k_validated(self, ab_store):
        with pytest.raises(ValueError):
            context_terms(ab_store, "season", "spring", k=0,
                          schema=TWO_SEASONS)


class TestContextVector:
    def test_two_term_sum(self, ab_store):
        ts = ContextTermSet("season", "spring", ("a", "b"), 2)
        got = context_vector(ab_store, ts)
        np.testing.assert_array_equal(got.vector, [1.0, 2.0])

    def test_empty_set_zero_vector(self, ab_store):
        ts = ContextTermSet("season", "spring", (), 2)
        got = context_vector(ab_store, ts)
        np.testing.assert_array_equal(got.vector, [0.0, 0.0])

    def test_equals_unit_weight_combine(self, ab_store):
        ts = ContextTermSet("season", "spring", ("a", "b"), 2)
        got = context_vector(ab_store, ts)
        want = vec_combine([(ab_store.vector_of(t), 1.0) for t in ts.terms])
        np.testing.assert_array_equal(got.vector, want)


class TestGender:
    def test_toy_subtraction(self):
        store = EmbeddingStore.from_pairs([
            ("male", [1.0, 0.0]),
            ("femal", [0.0, 1.0]),
            ("w", [1.0, -1.0]),
            ("x", [0.3, 0.3]),
        ])
        ts = gender_terms(store, "male", k=1)
        assert ts.terms == ("w",)
        gv = gender_vector(store, "male", k=1)
        np.testing.assert_array_equal(gv.vector, [1.0, -1.0])

    def test_female_uses_opposite_subtraction(self):
        store = EmbeddingStore.from_pairs([
            ("male", [1.0, 0.0]),
            ("femal", [0.0, 1.0]),
            ("w", [1.0, -1.0]),
            ("v", [-1.0, 1.0]),
        ])
        assert gender_terms(store, "male", k=1).terms == ("w",)
        assert gender_terms(store, "female", k=1).terms == ("v",)

    def test_bad_gender(self, ab_store):
        with pytest.raises(ValueError):
            gender_vector(ab_store, "unknown", k=1)


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
        terms = ["spring", "summer", "male", "femal"]
        terms += ["c%d" % i for i in range(6)]
        vectors = {t: [float(x) for x in rng.normal(size=4)] for t in terms}
        store = EmbeddingStore.from_pairs(sorted(vectors.items()))
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
                store, {k: VenueVector(k, v) for k, v in venue_vecs.items()},
                prof)
            bp, bn = brute_user_vectors(
                {k: list(v) for k, v in venue_vecs.items()}, ratings, 4, 4, 3)
            np.testing.assert_allclose(up.positive, bp, atol=1e-9, rtol=0)
            np.testing.assert_allclose(up.negative, bn, atol=1e-9, rtol=0)

            k = int(rng.integers(1, 5))
            ts = context_terms(store, "season", "spring", k=k,
                               schema=TWO_SEASONS)
            want_terms = brute_context_terms(
                vectors, [("spring", ["spring"]), ("summer", ["summer"])],
                "spring", k)
            assert list(ts.terms) == want_terms

            cv = context_vector(store, ts)
            np.testing.assert_allclose(
                cv.vector, brute_term_sum(vectors, ts.terms, 4),
                atol=1e-9, rtol=0)

            gts = gender_terms(store, "male", k=k)
            want_g = brute_context_terms(
                vectors, [("male", ["male"]), ("female", ["femal"])],
                "male", k)
            assert list(gts.terms) == want_g


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
        ups = {"u1": user_profile_vectors(ab_store, vvs, prof)}
        p = tmp_path / "user_vectors.txt"
        save_user_vectors(ups, p)
        back = load_user_vectors(p)
        np.testing.assert_array_equal(back["u1"].positive,
                                      ups["u1"].positive)
        np.testing.assert_array_equal(back["u1"].negative,
                                      ups["u1"].negative)

    def test_context_vector_round_trip(self, tmp_path):
        store = EmbeddingStore.from_pairs([
            ("dai", [1.0, 0.0]), ("night", [-1.0, 0.0]),
            ("time", [0.0, 1.0]), ("sun", [0.5, 0.5]),
            ("male", [1.0, 1.0]), ("femal", [-1.0, 1.0]),
        ])
        schema = ContextSchema(aspects=(
            ("duration", ("day time", "night time")),))
        cvs = build_context_vectors(store, k=2, schema=schema)
        gvs = [gender_vector(store, g, k=2) for g in ("male", "female")]
        p = tmp_path / "context_vectors.txt"
        save_context_vectors(cvs, gvs, p)
        by_dim, by_gender = load_context_vectors(p)
        assert set(by_dim) == {("duration", "day time"),
                               ("duration", "night time")}
        for cv in cvs:
            np.testing.assert_array_equal(
                by_dim[(cv.aspect, cv.dimension)].vector, cv.vector)
        for gv in gvs:
            np.testing.assert_array_equal(by_gender[gv.gender].vector,
                                          gv.vector)

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
