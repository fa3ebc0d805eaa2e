"""End-to-end acceptance checklist.

Ten independent checks, one test each, covering the parsing layer, the
embedding-space equations against brute-force oracles, metric and
significance arithmetic, both learners, and the full command line
pipeline on the planted-signal corpus.  Wall-clock budgets guard
against accidental complexity blowups.
"""

import contextlib
import math
import time

import numpy as np
import pytest

import synthdata
from venuerec.cli import main
from venuerec.corpus import Comment, ContextSchema, UserProfile, Venue, VenueStats
from venuerec.embeddings import EmbeddingStore, load_embeddings, save_embeddings
from venuerec.evaluation import evaluate_run, paired_t_test, ranked_run, write_run
from venuerec.features import FeatureVector, N_FEATURES, feature_matrix
from venuerec.ltr import (
    CAConfig,
    MARTConfig,
    TopicBlocks,
    predict_rows,
    split_train_validation,
    train_coordinate_ascent,
    train_mart,
)
from venuerec.profiles import (
    context_terms,
    context_vector,
    gender_terms,
    gender_vector,
    user_profile_vectors,
    venue_vector,
)
from venuerec.text import preprocess


@contextlib.contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, "took %.2fs, budget %ss" % (elapsed, seconds)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return synthdata.write_corpus(tmp_path_factory.mktemp("corpus"))


def run_pipeline(corpus, out_dir):
    argv = ["pipeline", "--out-dir", str(out_dir), "--seed", "42",
            "--embeddings", corpus["embeddings"],
            "--venues", corpus["venues"],
            "--profiles", corpus["profiles"],
            "--contexts", corpus["contexts"],
            "--qrels", corpus["qrels"]]
    assert main(argv) == 0


@pytest.fixture(scope="module")
def pipeline_dir(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    run_pipeline(corpus, out)
    return out


# -- 1 ----------------------------------------------------------------------

def test_a01_embedding_fixtures_load_exactly(tmp_path):
    """Text loads within 1e-6; binary is bit-exact and re-saves byte-equal."""
    with budget(1):
        terms = ("north", "south", "east", "west", "center")
        text = tmp_path / "five.txt"
        rows = [(0.123456, -0.654321, 0.000001),
                (1.5, -2.25, 0.75),
                (0.000001, 0.999999, -0.5),
                (-1.0, 0.0, 1.0),
                (0.25, 0.125, -0.0625)]
        with open(text, "w", encoding="utf-8") as fh:
            fh.write("5 3\n")
            for term, vec in zip(terms, rows):
                fh.write(term + " " + " ".join("%.6f" % x for x in vec) + "\n")
        store = load_embeddings(str(text))
        for term, vec in zip(terms, rows):
            assert store.vector_of(term) == pytest.approx(vec, abs=1e-6)

        blob = tmp_path / "five.bin"
        f32 = np.array(rows, dtype="<f4")
        with open(blob, "wb") as fh:
            fh.write(b"5 3\n")
            for term, vec in zip(terms, f32):
                fh.write(term.encode() + b" " + vec.tobytes() + b"\n")
        bstore = load_embeddings(str(blob), format="binary")
        for term, vec in zip(terms, f32):
            np.testing.assert_array_equal(bstore.vector_of(term),
                                          vec.astype(np.float64))
        resaved = tmp_path / "five2.bin"
        save_embeddings(bstore, str(resaved), format="binary")
        assert resaved.read_bytes() == blob.read_bytes()


# -- 2 ----------------------------------------------------------------------

def brute_cos(a, b):
    num = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return num / (na * nb)


def brute_expand(vocab, dims, seed_of, target, k):
    exclude = {seed_of[d] for d in dims}
    tvec = vocab[seed_of[target]]
    found = set()
    for d in dims:
        if d == target:
            continue
        query = [a - b for a, b in zip(tvec, vocab[seed_of[d]])]
        if not any(query):
            continue
        ranked = sorted((t for t in vocab if t not in exclude),
                        key=lambda t: (-brute_cos(query, vocab[t]), t))
        found.update(ranked[:k])
    return tuple(sorted(found))


def test_a02_vector_equations_match_brute_force():
    """Venue, taste, context and gender vectors vs independent oracles."""
    with budget(5):
        terms = ("sun", "moon", "red", "blue", "male", "femal",
                 "alpha", "beta", "gamma", "delta")
        schema = ContextSchema(aspects=(("mood", ("sun", "moon")),
                                        ("hue", ("red", "blue"))))
        stats = VenueStats(None, None, None, None, None, None)
        rng = np.random.default_rng(202)
        for _ in range(200):
            vocab = {t: [float(x) for x in rng.normal(size=4)]
                     for t in terms}
            store = EmbeddingStore(terms,
                                   np.array([vocab[t] for t in terms]))
            k = int(rng.integers(1, 4))

            venues = {}
            brute_vv = {}
            for vid in ("v1", "v2", "v3", "v4"):
                raws = [" ".join(rng.choice(terms,
                                            size=int(rng.integers(1, 7))))
                        for _ in range(int(rng.integers(1, 4)))]
                venues[vid] = Venue(
                    id=vid, name=vid, stats=stats,
                    comments=tuple(Comment(raw, tuple(preprocess(raw)))
                                   for raw in raws))
                acc = [0.0, 0.0, 0.0, 0.0]
                for raw in raws:
                    for tok in raw.split():
                        acc = [a + b for a, b in zip(acc, vocab[tok])]
                brute_vv[vid] = acc
                got = venue_vector(store, venues[vid])
                assert got.vector == pytest.approx(acc, abs=1e-9)

            ratings = tuple((vid, int(rng.integers(0, 5)))
                            for vid in venues)
            profile = UserProfile(user_id="u", gender="male",
                                  ratings=ratings)
            impl_vv = {vid: venue_vector(store, v)
                       for vid, v in venues.items()}
            up = user_profile_vectors(store, impl_vv, profile)
            pos = [0.0] * 4
            neg = [0.0] * 4
            for vid, r in ratings:
                if r >= 4:
                    pos = [a + r * b for a, b in zip(pos, brute_vv[vid])]
                elif r <= 3:
                    neg = [a + r * b for a, b in zip(neg, brute_vv[vid])]
            assert up.positive == pytest.approx(pos, abs=1e-9)
            assert up.negative == pytest.approx(neg, abs=1e-9)

            for aspect, dims in (("mood", ("sun", "moon")),
                                 ("hue", ("red", "blue"))):
                for dim in dims:
                    ts = context_terms(store, aspect, dim, k, schema)
                    want = brute_expand(vocab, dims, {d: d for d in dims},
                                        dim, k)
                    assert ts.terms == want
                    cv = context_vector(store, ts)
                    acc = [0.0] * 4
                    for t in want:
                        acc = [a + b for a, b in zip(acc, vocab[t])]
                    assert cv.vector == pytest.approx(acc, abs=1e-9)

            seed_of = {"male": "male", "female": "femal"}
            for gender in ("male", "female"):
                want = brute_expand(vocab, ("male", "female"), seed_of,
                                    gender, k)
                assert gender_terms(store, gender, k).terms == want
                gv = gender_vector(store, gender, k)
                acc = [0.0] * 4
                for t in want:
                    acc = [a + b for a, b in zip(acc, vocab[t])]
                assert gv.vector == pytest.approx(acc, abs=1e-9)


# -- 3 ----------------------------------------------------------------------

def test_a03_nearest_terms_match_exhaustive_scan():
    """similar_k ordering equals a full scan, ties broken by term."""
    with budget(5):
        from venuerec.embeddings import similar_k
        rng = np.random.default_rng(303)
        terms = tuple("t%04d" % i for i in range(1000))
        matrix = rng.normal(size=(1000, 16))
        for i in rng.choice(np.arange(1, 1000), size=80, replace=False):
            matrix[i] = matrix[i - 1]       # exact duplicates force ties
        store = EmbeddingStore(terms, matrix)
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        for qi in range(100):
            query = rng.normal(size=16)
            k = (1, 5, 10, 37)[qi % 4]
            scores = matrix @ query / (norms * np.linalg.norm(query))
            want = sorted(range(1000),
                          key=lambda i: (-scores[i], terms[i]))[:k]
            got = [hit.term for hit in similar_k(store, query, k)]
            assert got == [terms[i] for i in want]


# -- 4 ----------------------------------------------------------------------

def test_a04_cosine_features_are_scale_invariant(corpus, tmp_path):
    """Scaling every stored vector leaves f7-f13 and run files unchanged."""
    base_rows = synthdata.feature_rows(corpus)
    X0, _ = feature_matrix(base_rows)
    train, valid = split_train_validation(base_rows, 0.67, 0)
    model = train_mart(train, valid, MARTConfig(n_trees=20, patience=5,
                                                seed=0))

    def run_bytes(rows, name):
        scored = {}
        for row, score in zip(rows, predict_rows(model, rows)):
            scored.setdefault(row.topic_id, []).append(
                (row.venue_id, float(score)))
        path = tmp_path / name
        write_run(ranked_run("scale", scored), str(path))
        return path.read_bytes()

    reference = run_bytes(base_rows, "base.txt")
    for c in (0.01, 3.0, 1e4):
        rows = synthdata.feature_rows(corpus, scale=c)
        assert [r.venue_id for r in rows] == [r.venue_id for r in base_rows]
        X, _ = feature_matrix(rows)
        assert np.abs(X[:, 6:13] - X0[:, 6:13]).max() <= 1e-12
        assert run_bytes(rows, "c%s.txt" % c) == reference


# -- 5 ----------------------------------------------------------------------

def brute_eval(scored, relevant):
    """P@5 and MRR from scratch: sort, count, average over scored topics."""
    p5s, rrs = [], []
    for topic in sorted(scored):
        if topic not in relevant or not relevant[topic]:
            continue
        ranked = sorted(scored[topic], key=lambda vs: (-vs[1], vs[0]))
        hits = [vid in relevant[topic] for vid, _ in ranked]
        p5s.append(sum(hits[:5]) / 5)
        rrs.append(next((1.0 / (i + 1) for i, h in enumerate(hits) if h),
                        0.0))
    if not p5s:
        return 0.0, 0.0
    return sum(p5s) / len(p5s), sum(rrs) / len(rrs)


def test_a05_metrics_match_hand_computation():
    """P@5 and MRR agree exactly with a brute evaluator on 50 fixtures."""
    with budget(5):
        from venuerec.corpus import Qrels
        rng = np.random.default_rng(505)
        for case in range(50):
            scored = {}
            judgments = {}
            relevant = {}
            for t in range(int(rng.integers(1, 7))):
                topic = "q%d" % t
                n = int(rng.integers(6, 13))
                vids = ["d%02d" % v for v in range(n)]
                rng.shuffle(vids)
                scored[topic] = [(vid, float(rng.integers(0, 5)))
                                 for vid in vids]
                if rng.random() < 0.85:     # leave some topics unjudged
                    rel = set()
                    for vid in vids:
                        grade = int(rng.integers(0, 3))
                        judgments[(topic, vid)] = grade
                        if grade >= 1:
                            rel.add(vid)
                    relevant[topic] = rel
            if not judgments:
                continue
            run = ranked_run("fix", scored)
            report = evaluate_run(run, Qrels(judgments))
            want_p5, want_mrr = brute_eval(scored, relevant)
            assert report.mean_p_at_k == want_p5
            assert report.mrr == want_mrr

        # the two canonical spot values
        run = ranked_run("spot", {
            "q1": [("vA", 3.0), ("vB", 2.0), ("vC", 1.0)],
            "q2": [("v%d" % i, float(9 - i)) for i in range(6)]})
        qrels = Qrels({("q1", "vA"): 0, ("q1", "vB"): 0, ("q1", "vC"): 1,
                       ("q2", "v0"): 1, ("q2", "v1"): 0, ("q2", "v2"): 1,
                       ("q2", "v3"): 0, ("q2", "v4"): 0, ("q2", "v5"): 0})
        report = evaluate_run(run, qrels)
        by_topic = {t: (p, rr) for t, p, rr in report.per_topic}
        assert by_topic["q1"][1] == 1.0 / 3.0
        assert by_topic["q2"][0] == 0.4


# -- 6 ----------------------------------------------------------------------

def test_a06_paired_t_test_value_and_antisymmetry():
    """d=[1,2,3] gives t=2*sqrt(3) and p=0.0742; swapping negates t."""
    a, b = [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]
    fwd = paired_t_test(a, b)
    assert fwd.t_statistic == pytest.approx(3.4641, abs=1e-4)
    assert fwd.p_value == pytest.approx(0.0742, abs=1e-3)
    rev = paired_t_test(b, a)
    assert rev.t_statistic == -fwd.t_statistic
    assert rev.p_value == fwd.p_value


# -- 7 ----------------------------------------------------------------------

def test_a07_coordinate_ascent_learns_the_separating_feature():
    """With f7 separating perfectly, training P@5 hits 1.0 and w7 leads."""
    with budget(10):
        rng = np.random.default_rng(0)
        rows = []
        for t in range(20):
            for c in range(8):
                label = 1 if c < 5 else 0
                feats = [float(5.0 * rng.random())
                         for _ in range(N_FEATURES)]
                feats[6] = 1.0 if label else 0.0
                rows.append(FeatureVector("t%02d" % t, "v%02d%d" % (t, c),
                                          label, tuple(feats)))
        model = train_coordinate_ascent(rows, [], CAConfig(seed=0))
        blocks = TopicBlocks(rows)
        weights = np.array(model.weights)
        assert blocks.metric(blocks.X @ weights, "p5") == 1.0
        magnitude = np.abs(weights)
        assert magnitude.argmax() == 6
        assert magnitude[6] > np.delete(magnitude, 6).max()


# -- 8 ----------------------------------------------------------------------

def test_a08_mart_training_error_shrinks_monotonically():
    """MSE never rises over 200 stages; an 8-row toy overfits below 0.01."""
    with budget(10):
        rng = np.random.default_rng(808)
        rows = [FeatureVector("t%d" % (i // 10), "v%02d" % i,
                              int(rng.integers(0, 5)),
                              tuple(float(x)
                                    for x in rng.normal(size=N_FEATURES)))
                for i in range(40)]
        config = MARTConfig(n_trees=200, patience=0, max_leaves=4, seed=0)
        model = train_mart(rows, [], config)
        mse = model.history["train_mse"]
        assert len(mse) == 200
        assert all(b <= a + 1e-12 for a, b in zip(mse, mse[1:]))

        toy = [FeatureVector("t0", "v%d" % i, i // 2,
                             tuple([float(i)] + [0.0] * (N_FEATURES - 1)))
               for i in range(8)]
        overfit = train_mart(toy, [], config)
        assert math.sqrt(overfit.history["train_mse"][-1]) < 0.01


# -- 9 ----------------------------------------------------------------------

def test_a09_planted_signal_pipeline_end_to_end(corpus, pipeline_dir):
    """Default pipeline reaches P@5 >= 0.9; taste knockout hurts most."""
    with budget(60):
        metrics = (pipeline_dir / "metrics.txt").read_text(encoding="utf-8")
        p5 = next(float(line.split("\t")[2])
                  for line in metrics.splitlines()
                  if line.startswith("P5\tall\t"))
        assert p5 >= 0.9

        assert main(["ablate", "--out-dir", str(pipeline_dir),
                     "--seed", "42",
                     "--features", str(pipeline_dir / "features.txt")]) == 0
        deltas = {}
        for line in (pipeline_dir / "ablation.tsv").read_text(
                encoding="utf-8").splitlines():
            if not line.startswith("#"):
                name, value = line.split("\t")
                deltas[name] = float(value)
        others = {n: d for n, d in deltas.items() if n != "uv_pos"}
        assert deltas["uv_pos"] < min(others.values())
        for aspect in ("duration", "season", "group", "type"):
            assert deltas["cv_" + aspect] < 0.0


# -- 10 ---------------------------------------------------------------------

def test_a10_pipeline_reruns_are_byte_identical(corpus, pipeline_dir,
                                                tmp_path):
    """Same config and seed produce the same artifact bytes."""
    run_pipeline(corpus, tmp_path)
    for name in ("features.txt", "model.json", "run.txt", "metrics.txt"):
        assert (tmp_path / name).read_bytes() == \
            (pipeline_dir / name).read_bytes(), name
