"""Embedding store: file formats, cosine, exact top-K search."""

import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venuerec import embeddings
from venuerec.embeddings import (
    EmbeddingStore,
    NormOverflowError,
    SimilarTerm,
    cosine_matrix,
    load_embeddings,
    read_text_vectors,
    similar_k,
    write_text_vectors,
)
from venuerec.errors import FormatError, VenuerecError
from reference_models import brute_cosine, brute_similar_k
from writers import save_embeddings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def brute_force_similar(store, query, k, exclude=()):
    # independent route: per-term cosine, python sort on (-score, term)
    query = np.asarray(query, dtype=np.float64)
    qn = float(np.sqrt(np.dot(query, query)))
    if qn == 0.0:
        return []
    rows = []
    for term in store.terms:
        if term in exclude:
            continue
        v = store.vector_of(term)
        vn = float(np.sqrt(np.dot(v, v)))
        if vn == 0.0:
            score = 0.0
        else:
            score = float(np.dot(v, query)) / (vn * qn)
            score = min(1.0, max(-1.0, score))
        rows.append((term, score))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return [SimilarTerm(t, s) for t, s in rows[:k]]


@pytest.fixture
def toy_store():
    return EmbeddingStore(["a", "b", "c"],
                          [[1.0, 0.0],
                           [0.9, 0.1],
                           [0.0, 1.0]])


class TestStoreBasics:
    def test_dimension_and_len(self, toy_store):
        assert toy_store.dimension == 2
        assert len(toy_store) == 3

    def test_vector_of_known(self, toy_store):
        np.testing.assert_array_equal(toy_store.vector_of("a"), [1.0, 0.0])

    def test_vector_of_unknown_is_none(self, toy_store):
        assert toy_store.vector_of("zzz") is None

    def test_vector_of_empty_string_is_none(self, toy_store):
        assert toy_store.vector_of("") is None

    def test_contains(self, toy_store):
        assert "a" in toy_store
        assert "nope" not in toy_store

    def test_store_vectors_read_only(self, toy_store):
        v = toy_store.vector_of("a")
        with pytest.raises((ValueError, RuntimeError)):
            v[0] = 99.0

    def test_duplicate_term_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingStore(["a", "a"], [[1.0], [2.0]])

    def test_empty_term_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            EmbeddingStore([""], [[1.0]])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            EmbeddingStore(["a"], [[float("nan")]])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("cell", [(0, 0), (1, 1), (2, 0)])
    def test_non_finite_value_anywhere_rejected(self, value, cell):
        matrix = np.ones((3, 2))
        matrix[1] = [1e200, 1e200]  # a finite row whose norm overflows
        matrix[cell] = value
        with pytest.raises(ValueError, match="vectors must be finite"):
            EmbeddingStore(["a", "b", "c"], matrix)

    def test_finite_rows_whose_squared_norm_overflows_accepted(self):
        store = EmbeddingStore(["a", "b"], [[1e200, 1e200], [1.0, 0.0]])
        assert store.vector_of("a").tolist() == [1e200, 1e200]
        assert len(store) == 2


class TestCosine:
    """cosine_matrix, on each pair of rows."""

    def test_self_similarity_is_one(self):
        v = np.array([0.3, -1.2, 7.0])
        assert cosine_matrix([v], [v]).tolist() == [[1.0]]

    def test_orthogonal(self):
        assert cosine_matrix([[1.0, 0.0]], [[0.0, 1.0]]).tolist() == [[0.0]]

    def test_analytic_45_degrees(self):
        got = cosine_matrix([[1.0, 1.0], [1.0, 0.0]], [[1.0, 0.0]])
        assert got.shape == (2, 1)
        assert got[0, 0] == pytest.approx(0.7071067811865475, abs=1e-15)
        assert got[1, 0] == 1.0

    def test_zero_norm_returns_zero(self):
        got = cosine_matrix([[0.0, 0.0], [3.0, 4.0]],
                            [[3.0, 4.0], [0.0, 0.0]])
        assert got.tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine_matrix([[1.0, 2.0]], [[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            cosine_matrix([1.0, 2.0], [1.0, 2.0])

    def test_symmetry_exact(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(50, 6))
        b = rng.normal(size=(7, 6))
        np.testing.assert_array_equal(cosine_matrix(a, b),
                                      cosine_matrix(b, a).T)

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(5, 8))
        b = rng.normal(size=(3, 8))
        base = cosine_matrix(a, b)
        for alpha, beta in [(0.01, 3.0), (1e4, 1e-3), (7.0, 7.0)]:
            np.testing.assert_allclose(cosine_matrix(alpha * a, beta * b),
                                       base, atol=1e-12, rtol=0)

    def test_overflowing_squared_norm_names_its_row(self):
        # the rows of A count first, then those of B
        big = [2.6e154, 2.6e154]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormOverflowError) as a_row:
                cosine_matrix([[1.0, 1.0], big], [[1.0, 1.0]])
            with pytest.raises(NormOverflowError) as b_row:
                cosine_matrix([[1.0, 1.0]], [[1.0, 0.0], big])
        assert (a_row.value.row, b_row.value.row) == (1, 2)

    def test_largest_finite_squared_norm_still_scores(self):
        # 9.4e153 squared, twice, is 1.77e308, just under the largest
        # float: the row still scores its cosine
        got = cosine_matrix([[9.4e153, 9.4e153]], [[1.0, 0.0]])
        assert got.tolist() == [[pytest.approx(0.7071067811865476,
                                               abs=1e-15)]]


class TestSimilarK:
    def test_top1_with_exclusion(self, toy_store):
        got = similar_k(toy_store, [1.0, 0.0], k=1, exclude={"a"})
        assert len(got) == 1
        assert got[0].term == "b"
        assert got[0].score == pytest.approx(0.9 / np.sqrt(0.82), abs=1e-12)

    def test_k_larger_than_vocab(self, toy_store):
        got = similar_k(toy_store, [1.0, 0.0], k=5, exclude=())
        assert [s.term for s in got] == ["a", "b", "c"]

    def test_zero_query_empty(self, toy_store):
        assert similar_k(toy_store, [0.0, 0.0], k=3, exclude=()) == []

    def test_query_dimension_checked(self, toy_store):
        with pytest.raises(ValueError):
            similar_k(toy_store, [1.0, 0.0, 0.0], k=1, exclude=())

    def test_exact_tie_broken_lexicographically(self):
        store = EmbeddingStore(["zed", "ant", "mid", "off"],
                               [[1.0, 0.0],
                                [1.0, 0.0],
                                [2.0, 0.0],
                                [0.0, 1.0]])
        got = similar_k(store, [3.0, 0.0], k=4, exclude=())
        # ant, mid, zed all score exactly 1.0
        assert [s.term for s in got] == ["ant", "mid", "zed", "off"]

    def test_zero_norm_store_row_scores_zero_but_present(self):
        store = EmbeddingStore(["live", "dead"], [[1.0, 0.0], [0.0, 0.0]])
        got = similar_k(store, [1.0, 0.0], k=2, exclude=())
        assert got[0] == SimilarTerm("live", 1.0)
        assert got[1] == SimilarTerm("dead", 0.0)

    def test_tie_at_the_cut_broken_lexicographically(self):
        # four rows tie at 1.0; the k-th best falls inside the tie
        store = EmbeddingStore(["z", "y", "x", "w", "off"],
                               [[1.0, 0.0], [2.0, 0.0], [1.0, 0.0],
                                [4.0, -0.0], [0.0, 1.0]])
        got = similar_k(store, [1.0, 0.0], k=2, exclude={"w"})
        assert got == [SimilarTerm("x", 1.0), SimilarTerm("y", 1.0)]

    def test_overflowing_dot_scores_nan_and_ranks_last(self):
        store = EmbeddingStore(["b", "a", "c", "d"],
                               [[1e200, 1e200], [1e200, 1e200],
                                [1.0, 0.0], [0.0, -1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = similar_k(store, [1e200, 1e200], k=4, exclude=())
            top = similar_k(store, [1e200, 1e200], k=1, exclude=("c",))
        assert [(s.term, repr(s.score)) for s in got] == [
            ("c", "0.0"), ("d", "-0.0"), ("a", "nan"), ("b", "nan")]
        assert top == [SimilarTerm("d", -0.0)]

    def test_query_whose_squared_norm_overflows_is_scaled(self):
        # 4e308 overflows; every row's squared norm is finite, as in a
        # loaded store, and no RuntimeWarning is raised
        store = EmbeddingStore(["a", "b"], [[1e154, 0.0], [0.0, 1.0]])
        assert similar_k(store, [2e154, 0.0], k=2, exclude=()) == [
            SimilarTerm("a", 1.0), SimilarTerm("b", 0.0)]

    def test_scaling_a_query_by_a_power_of_two_changes_no_cosine(self):
        rng = np.random.default_rng(43)
        terms = ["t%02d" % i for i in range(40)]
        store = EmbeddingStore(terms, rng.normal(size=(40, 5)) * 1e153)
        for _ in range(10):
            query = rng.normal(size=5) * 1e155
            with np.errstate(over="ignore"):
                assert query @ query == np.inf
            assert (similar_k(store, query, k=40, exclude=())
                    == similar_k(store, query * 2.0 ** -520, k=40,
                                 exclude=()))

    def test_matches_brute_force_on_random_store(self):
        rng = np.random.default_rng(41)
        terms = ["t%03d" % i for i in range(200)]
        rng.shuffle(terms)
        matrix = rng.normal(size=(200, 8))
        matrix[17] = 0.0  # one dead row
        store = EmbeddingStore(terms, matrix)
        for _ in range(20):
            q = rng.normal(size=8)
            k = int(rng.integers(1, 40))
            excl = set(rng.choice(terms, size=5, replace=False))
            got = similar_k(store, q, k, excl)
            want = brute_force_similar(store, q, k, excl)
            assert [s.term for s in got] == [s.term for s in want]
            np.testing.assert_allclose([s.score for s in got],
                                       [s.score for s in want],
                                       atol=1e-12, rtol=0)


# Components whose products and sums are exact small integers, so the
# kernel and the pure-Python oracle compute the very same cosines, and
# colinear, duplicate and zero rows tie exactly.
_SMALL = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@st.composite
def _searches(draw):
    """``(vectors, query, k, exclude)``: a term -> vector dict and one
    similar_k call on it."""
    dim = draw(st.integers(1, 3))
    rows = st.lists(_SMALL, min_size=dim, max_size=dim)
    terms = draw(st.lists(st.text("abcd", min_size=1, max_size=2),
                          min_size=1, max_size=14, unique=True))
    vectors = {t: draw(rows) for t in terms}
    query = draw(rows.filter(any))
    k = draw(st.integers(1, len(terms) + 2))
    # the best rows excluded, then a few others, some not in the store
    ranked = brute_similar_k(vectors, query, len(terms), ())
    exclude = set(ranked[:draw(st.integers(0, len(terms)))])
    exclude |= draw(st.sets(st.sampled_from(terms + ["zz", "a-"]),
                            max_size=3))
    return vectors, query, k, exclude


class TestSimilarKOracle:
    """similar_k against reference_models.brute_similar_k."""

    @settings(deadline=None, max_examples=300)
    @given(search=_searches())
    def test_equals_the_brute_force_ranking(self, search):
        vectors, query, k, exclude = search
        store = EmbeddingStore(list(vectors), list(vectors.values()))
        got = similar_k(store, query, k, exclude)
        want = brute_similar_k(vectors, query, k, exclude)
        assert [(s.term, repr(s.score)) for s in got] == [
            (t, repr(brute_cosine(vectors[t], query))) for t in want]


class TestTextFormat:
    def test_round_trip_with_header(self, tmp_path, toy_store):
        p = tmp_path / "emb.txt"
        save_embeddings(toy_store, p, format="text")
        back = load_embeddings(p, format="text")
        assert back.terms == toy_store.terms
        np.testing.assert_array_equal(back._matrix, toy_store._matrix)

    def test_headerless_accepted(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("alpha 1.0 2.0\nbeta 3.0 4.5\n")
        store = load_embeddings(p, format="text")
        assert store.dimension == 2
        np.testing.assert_array_equal(store.vector_of("beta"), [3.0, 4.5])

    def test_header_count_mismatch(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("3 2\na 1 2\nb 3 4\n")
        with pytest.raises(FormatError, match="declares 3"):
            load_embeddings(p, format="text")

    def test_wrong_component_count_names_term(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("2 3\na 1 2 3\nb 1 2\n")
        with pytest.raises(FormatError, match="'b'"):
            load_embeddings(p, format="text")

    def test_duplicate_term_names_term(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1 2\na 3 4\n")
        with pytest.raises(FormatError, match="duplicate term 'a'"):
            load_embeddings(p, format="text")

    def test_unparseable_number_has_line(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1 2\nb x 4\n")
        with pytest.raises(FormatError, match="line 2"):
            load_embeddings(p, format="text")

    def test_overflowing_squared_norm_has_line(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("a 1e154 0.0\nb 1e154 1e154\n")
        with pytest.raises(FormatError, match="line 2: squared norm of "
                                              "term 'b' overflows a float"):
            load_embeddings(p, format="text")

    def test_values_survive_shortest_repr(self, tmp_path):
        rng = np.random.default_rng(5)
        store = EmbeddingStore(["w%d" % i for i in range(20)],
                               rng.normal(size=(20, 4)))
        p = tmp_path / "emb.txt"
        save_embeddings(store, p, format="text")
        back = load_embeddings(p, format="text")
        np.testing.assert_array_equal(back._matrix, store._matrix)


# Any finite float64, with -0.0, subnormals and the range's ends drawn
# often; any key a line can hold: no whitespace, no surrogate.
_FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308,
                     1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
_KEYS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                max_size=8).filter(lambda key: key.split() == [key])


class TestTextVectorWriter:
    """write_text_vectors is the one writer of the text format."""

    @settings(deadline=None)
    @given(data=st.data())
    def test_read_gives_back_every_bit(self, tmp_path_factory, data):
        dim = data.draw(st.integers(1, 5))
        keys = data.draw(st.lists(_KEYS, min_size=1, max_size=6,
                                  unique=True))
        rows = [np.array(data.draw(st.lists(_FLOATS, min_size=dim,
                                            max_size=dim)))
                for _ in keys]
        path = tmp_path_factory.mktemp("vectors") / "vectors.txt"
        write_text_vectors(zip(keys, rows), path)
        back = list(read_text_vectors(path))
        assert [key for _, key, _ in back] == keys
        assert [vec.tobytes() for _, _, vec in back] == \
            [row.tobytes() for row in rows]

    def test_writes_the_header_and_entries_in_order(self, tmp_path):
        path = tmp_path / "vectors.txt"
        write_text_vectors([("b", np.array([0.1, -0.0])),
                            ("a", np.array([1e308, 5e-324]))], path)
        assert path.read_text(encoding="utf-8") == (
            "2 2\nb 0.1 -0.0\na 1e+308 5e-324\n")

    @pytest.mark.parametrize("key", ["", "a b", "a\tb", "a\u2028b", "a\n"])
    def test_rejects_a_key_a_line_cannot_hold(self, tmp_path, key):
        path = tmp_path / "vectors.txt"
        with pytest.raises(VenuerecError, match="empty or contains "
                                                "whitespace"):
            write_text_vectors([("ok", [1.0]), (key, [2.0])], path)
        assert not path.exists()


def _outcome(read):
    """``(line, term, bits)`` of each entry `read` gives, or the text
    of the FormatError it raises."""
    try:
        return [(line, term, vec.tobytes()) for line, term, vec in read()]
    except FormatError as exc:
        return str(exc)


def _loaded(path):
    try:
        store = load_embeddings(path, format="text")
    except FormatError as exc:
        return str(exc)
    return list(store.terms), store._matrix.tobytes()


def _loaded_line_by_line(path):
    """load_embeddings' result by the line parser and a per-row norm
    check: the first line at fault, malformed or overflowing, is
    named."""
    terms, rows = [], []
    try:
        with np.errstate(over="ignore"):
            for line, term, vec in embeddings._read_lines(path):
                if not np.isfinite(np.dot(vec, vec)):
                    raise FormatError("squared norm of term %r overflows a "
                                      "float" % term, path=path, line=line)
                terms.append(term)
                rows.append(vec)
    except FormatError as exc:
        return str(exc)
    return terms, np.array(rows).tobytes()


# Values float() reads and loadtxt does not (1_0 and the non-ASCII
# digits), values that are not finite, and one whose square overflows.
_ODD_VALUES = ["1_0", "\u0661\u0662", "\uff11", "nan", "1e400", "-inf",
               "1e200"]
_MUTATIONS = ("extra column", "missing column", "tab", "double space",
              "crlf", "blank line", "no header", "wrong count",
              "duplicate term", "odd value", "nbsp in term", "bad byte")


def _mutate(lines, mutation, data):
    """The lines, each a str without its newline and line 0 the header,
    after one mutation; "crlf" and "bad byte" act on the whole file and
    are applied by the caller."""
    body = range(1, len(lines))
    if mutation == "extra column":
        i = data.draw(st.sampled_from(body))
        lines[i] += " 1.5"
    elif mutation == "missing column":
        i = data.draw(st.sampled_from(body))
        lines[i] = lines[i].rpartition(" ")[0]
    elif mutation in ("tab", "double space"):
        spaces = [(i, j) for i, line in enumerate(lines)
                  for j, ch in enumerate(line) if ch == " "]
        if spaces:
            i, j = data.draw(st.sampled_from(spaces))
            lines[i] = "%s%s%s" % (lines[i][:j], "\t" if mutation == "tab"
                                   else "  ", lines[i][j + 1:])
    elif mutation == "blank line":
        lines.insert(data.draw(st.integers(0, len(lines))), "")
    elif mutation == "no header":
        del lines[0]
    elif mutation == "wrong count":
        step = data.draw(st.sampled_from([-1, 1]))
        lines[0] = re.sub(r"^[0-9]+", lambda m: str(int(m[0]) + step),
                          lines[0])
    elif mutation == "duplicate term":
        i, j = data.draw(st.sampled_from(body)), data.draw(
            st.sampled_from(body))
        lines[j] = lines[i].partition(" ")[0] + " " + \
            lines[j].partition(" ")[2]
    elif mutation == "odd value":
        i = data.draw(st.sampled_from(body))
        term, *values = lines[i].split(" ")
        j = data.draw(st.integers(0, max(0, len(values) - 1)))
        values[j:j + 1] = [data.draw(st.sampled_from(_ODD_VALUES))]
        lines[i] = " ".join([term] + values)
    elif mutation == "nbsp in term":
        i = data.draw(st.sampled_from(body))
        j = data.draw(st.integers(0, len(lines[i].partition(" ")[0])))
        lines[i] = lines[i][:j] + "\xa0" + lines[i][j:]
    return lines


class TestTextVectorReader:
    """read_text_vectors parses a file as write_text_vectors writes it
    with numpy, and every other file line by line."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_the_line_parser_on_mutated_files(self, tmp_path_factory,
                                                     data):
        dim = data.draw(st.integers(1, 4))
        keys = data.draw(st.lists(_KEYS, min_size=1, max_size=5,
                                  unique=True))
        rows = [data.draw(st.lists(_FLOATS, min_size=dim, max_size=dim))
                for _ in keys]
        path = tmp_path_factory.mktemp("vectors") / "vectors.txt"
        write_text_vectors(zip(keys, rows), path)
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        mutations = data.draw(st.lists(st.sampled_from(_MUTATIONS),
                                       max_size=3))
        for mutation in mutations:
            if len(lines) > 1:
                lines = _mutate(lines, mutation, data)
        end = "\r\n" if "crlf" in mutations else "\n"
        blob = "".join(line + end for line in lines).encode("utf-8")
        if "bad byte" in mutations:
            at = data.draw(st.integers(0, len(blob)))
            blob = blob[:at] + b"\xff" + blob[at:]
        path.write_bytes(blob)

        want = _outcome(lambda: embeddings._read_lines(path))
        assert _outcome(lambda: read_text_vectors(path)) == want
        assert _loaded(path) == _loaded_line_by_line(path)

    @pytest.mark.parametrize("text", [
        "2 2\na 1_0 2\nb 3 4\n",
        "2 2\na \u0661\u0662 2\nb 3 4\n",
        "2 2\na \uff11 2\nb 3 4\n",
    ])
    def test_values_only_float_reads_still_load(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        store = load_embeddings(path, format="text")
        assert store.vector_of("a").tolist() == [float(text.split()[3]), 2.0]

    @pytest.mark.parametrize("text", ["0 1\na 1\n", "1 0\na", "1 -1\na"])
    def test_non_positive_header_counts(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match="line 1: header counts must "
                                              "be positive"):
            list(read_text_vectors(path))

    def test_extra_column_is_not_dropped(self, tmp_path):
        # loadtxt with usecols would load "b 4 5 6 7" as three values
        path = tmp_path / "emb.txt"
        path.write_text("2 3\na 1 2 3\nb 4 5 6 7\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 3: term 'b' has 4 "
                                              "components, expected 3"):
            list(read_text_vectors(path))

    @pytest.fixture
    def no_line_parser(self, monkeypatch):
        def refuse(path):
            raise AssertionError("line parser used for %s" % path)
        monkeypatch.setattr(embeddings, "_read_lines", refuse)

    def test_written_file_takes_the_fast_path(self, tmp_path, no_line_parser):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(50, 7))
        rows[3, 2] = -0.0
        path = tmp_path / "vectors.txt"
        write_text_vectors([("k%d" % i, row) for i, row in enumerate(rows)],
                           path)
        back = list(read_text_vectors(path))
        assert [(line, key) for line, key, _ in back] == \
            [(i + 2, "k%d" % i) for i in range(50)]
        assert np.array([vec for _, _, vec in back]).tobytes() == \
            rows.tobytes()
        store = load_embeddings(path, format="text")
        assert store._matrix.tobytes() == rows.tobytes()

    def test_headerless_copy_takes_the_fast_path(self, tmp_path,
                                                 no_line_parser):
        # the layout GloVe ships: no header, one space before each value
        rng = np.random.default_rng(9)
        store = EmbeddingStore(["k%d" % i for i in range(50)],
                               rng.normal(size=(50, 7)))
        path = tmp_path / "store.txt"
        save_embeddings(store, path, format="text")
        headerless = tmp_path / "headerless.txt"
        headerless.write_text(path.read_text(encoding="utf-8")
                              .split("\n", 1)[1], encoding="utf-8")
        assert [(line, key) for line, key, _ in
                read_text_vectors(headerless)] == \
            [(i + 1, "k%d" % i) for i in range(50)]
        back = load_embeddings(headerless, format="text")
        assert back.terms == store.terms
        assert back._matrix.tobytes() == store._matrix.tobytes()

    def test_generated_embeddings_take_the_fast_path(self, tmp_path,
                                                     no_line_parser):
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        shape = dict(bench.WORKLOADS["pipeline-mart"]["shape"], roots=300,
                     clusters=4, venues=80, users=10, topics=3)
        subprocess.run([sys.executable,
                        os.path.join(ROOT, "perfbench", "gen.py"), "pipeline",
                        os.path.join(ROOT, "src"), str(tmp_path), "1",
                        json.dumps(shape)], check=True, capture_output=True)
        path = tmp_path / "embeddings.txt"
        store = load_embeddings(path, format="text")
        with open(path, encoding="utf-8") as fh:
            count, dim = map(int, next(fh).split())
            want = [line.split() for line in fh]
        assert (len(store), store.dimension) == (count, dim)
        assert list(store.terms) == [parts[0] for parts in want]
        assert store._matrix.tobytes() == np.array(
            [[float(x) for x in parts[1:]] for parts in want]).tobytes()


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        vals = rng.normal(size=(4, 3)).astype(np.float32).astype(np.float64)
        store = EmbeddingStore(["aa", "bb", "cc", "dd"], vals)
        p = tmp_path / "emb.bin"
        save_embeddings(store, p, format="binary")
        back = load_embeddings(p, format="binary")
        np.testing.assert_array_equal(back._matrix, store._matrix)

        p2 = tmp_path / "emb2.bin"
        save_embeddings(back, p2, format="binary")
        assert p.read_bytes() == p2.read_bytes()

    def test_loads_without_record_newlines(self, tmp_path):
        p = tmp_path / "emb.bin"
        body = b"2 2\n"
        body += b"ab " + np.array([1.5, -2.0], dtype="<f4").tobytes()
        body += b"cd " + np.array([0.25, 8.0], dtype="<f4").tobytes()
        p.write_bytes(body)
        store = load_embeddings(p, format="binary")
        np.testing.assert_array_equal(store.vector_of("cd"), [0.25, 8.0])

    def test_truncated_vector(self, tmp_path):
        p = tmp_path / "emb.bin"
        p.write_bytes(b"1 4\nab " + b"\x00" * 7)
        with pytest.raises(FormatError, match="truncated"):
            load_embeddings(p, format="binary")

    def test_missing_record(self, tmp_path):
        p = tmp_path / "emb.bin"
        p.write_bytes(b"2 1\nab " + np.float32(1).tobytes())
        with pytest.raises(FormatError, match="truncated"):
            load_embeddings(p, format="binary")

    def test_trailing_garbage(self, tmp_path):
        p = tmp_path / "emb.bin"
        p.write_bytes(b"1 1\nab " + np.float32(1).tobytes() + b"\nEXTRA")
        with pytest.raises(FormatError, match="trailing"):
            load_embeddings(p, format="binary")

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "emb.bin"
        p.write_bytes(b"nonsense\n")
        with pytest.raises(FormatError, match="header"):
            load_embeddings(p, format="binary")


def test_unknown_format_rejected(tmp_path, toy_store):
    with pytest.raises(ValueError):
        save_embeddings(toy_store, tmp_path / "x", format="csv")
