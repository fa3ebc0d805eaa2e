"""Seeded input generators for the benchmark workloads.

Nothing is downloaded: every input is drawn from a numpy generator
seeded by the run's ``--seed``, so one seed always gives the same files.
Token draws are vectorised (one draw for every token of the corpus)
because a per-comment weighted choice is minutes slower at this size.

Two kinds of input are made:

* a text corpus for ``venuerec pipeline``: embeddings, venues,
  profiles, contexts and qrels.  Relevance is planted through taste
  clusters: each user likes one cluster, and a topic's relevant
  candidates are venues whose comments lean towards that cluster, so
  the user-taste cosine separates them from the rest;
* a features file for ``venuerec ablate``, written directly in the
  SVMlight layout so the ablate workloads never touch the text path.
  Labels follow a planted linear score over a few feature columns.
"""

import argparse
import json
import os
import sys

import numpy as np

FEATURES = 13

# Comment filler that the SMART list removes before stemming.
_FILLER = ("the", "and", "was", "very", "with", "this", "they", "were")
_ONSETS = ("b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "z", "br", "cl", "dr", "gr", "pl", "st", "tr")
_NUCLEI = ("a", "e", "i", "o", "u")
_CODAS = ("b", "d", "g", "k", "m", "n", "p", "r", "t", "x")
# The context schema and gender names of the venuerec file formats.
_ASPECTS = (("duration", ("day time", "night time", "weekend")),
            ("season", ("spring", "summer", "autumn", "winter")),
            ("group", ("alone", "friends", "family")),
            ("type", ("business", "holiday")))
_SEED_DIMENSIONS = tuple(d for _, dims in _ASPECTS for d in dims) + (
    "male", "female")
# Inflections the stemmer folds back onto the root, so that about two
# generated words share each stem.
_SUFFIXES = ("", "s", "ing", "ed", "er")


def _roots(rng, n, banned):
    """`n` distinct alphabetic roots of two or three syllables."""
    out = []
    seen = set(banned)
    while len(out) < n:
        want = n - len(out)
        syll = rng.integers(2, 4, size=want)
        on = rng.integers(len(_ONSETS), size=(want, 3))
        nu = rng.integers(len(_NUCLEI), size=(want, 3))
        co = rng.integers(len(_CODAS), size=want)
        for i in range(want):
            word = "".join(_ONSETS[on[i, s]] + _NUCLEI[nu[i, s]]
                           for s in range(syll[i])) + _CODAS[co[i]]
            if word not in seen:
                seen.add(word)
                out.append(word)
    return out


def _zipf(n, exponent=1.0):
    p = 1.0 / np.arange(1, n + 1) ** exponent
    return p / p.sum()


def _write_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in records:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_corpus(out_dir, seed, shape, stem, stopwords, seed_stems):
    """Write a pipeline corpus into `out_dir`; returns its properties.

    `stem` maps a word to its stem and `stopwords` is the filter the
    loader applies, both taken from the package under test so the
    embedding file is keyed the way the loader will look terms up.
    `seed_stems` are the stems of the context and gender dimension
    names, which must all have vectors.
    """
    rng = np.random.default_rng([seed, 1])
    n_clusters = shape["clusters"]
    dim = shape["dim"]

    roots = _roots(rng, shape["roots"], stopwords)
    words = []
    for root in roots:
        for suffix in rng.choice(_SUFFIXES, size=2, replace=False):
            word = root + suffix
            if word not in stopwords and stem(word) not in stopwords:
                words.append(word)
    words = np.array(words)
    stems = sorted({stem(w) for w in words})
    stem_index = {s: i for i, s in enumerate(stems)}
    word_stem = np.array([stem_index[stem(w)] for w in words])

    # Each stem leans towards one taste cluster in embedding space.
    centers = rng.normal(size=(n_clusters, dim))
    stem_cluster = rng.integers(n_clusters, size=len(stems))
    vectors = 0.7 * centers[stem_cluster] + rng.normal(size=(len(stems), dim))
    word_cluster = stem_cluster[word_stem]

    keep = rng.random(len(stems)) >= shape["oov_stems"]
    extra = sorted(set(seed_stems) - set(stems))
    emb_terms = [s for s, k in zip(stems, keep) if k] + extra
    emb_vectors = np.vstack([vectors[keep],
                             rng.normal(size=(len(extra), dim))])
    for s in seed_stems:
        if s in stem_index and not keep[stem_index[s]]:
            emb_terms.append(s)
            emb_vectors = np.vstack([emb_vectors, vectors[stem_index[s]]])

    # Global Zipf over words, and a Zipf within each cluster's words.
    global_p = _zipf(len(words))
    rank = rng.permutation(len(words))
    cluster_words = [np.nonzero(word_cluster == c)[0] for c in
                     range(n_clusters)]

    n_venues = shape["venues"]
    venue_cluster = np.arange(n_venues) % n_clusters
    rng.shuffle(venue_cluster)
    n_tok = n_venues * shape["comments"] * shape["tokens"]
    tok_venue = np.repeat(np.arange(n_venues),
                          shape["comments"] * shape["tokens"])
    tokens = rank[rng.choice(len(words), size=n_tok, p=global_p)]
    in_cluster = rng.random(n_tok) < shape["cluster_share"]
    sizes = np.array([len(ws) for ws in cluster_words])
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    flat = np.concatenate(cluster_words)
    tc = venue_cluster[tok_venue[in_cluster]]
    # Zipf-like pick within the cluster: floor of size * u^3 favours
    # the cluster's first words.
    pick = (sizes[tc] * rng.random(tc.size) ** 3).astype(np.int64)
    tokens[in_cluster] = flat[offsets[tc] + pick]
    text = words[tokens].astype(object)
    filler = rng.random(n_tok) < shape["filler_share"]
    text[filler] = np.array(_FILLER)[rng.integers(len(_FILLER),
                                                  size=filler.sum())]
    digits = rng.random(n_tok) < 0.02
    text[digits] = rng.integers(1, 500, size=digits.sum()).astype(str)
    text = text.reshape(n_venues, shape["comments"], shape["tokens"])

    checkins = rng.lognormal(5.0, 1.2, size=n_venues).astype(np.int64)
    venues = []
    for v in range(n_venues):
        venues.append({
            "id": "v%05d" % v, "name": "venue %d" % v,
            "checkins": int(checkins[v]),
            "likes": int(checkins[v] * rng.uniform(0.05, 0.4)),
            "comment_count": shape["comments"],
            "photos": int(rng.integers(0, 60)),
            "rating_avg": round(float(rng.uniform(4.0, 9.5)), 1),
            "unique_users": int(checkins[v] * rng.uniform(0.3, 0.9)),
            "comments": [" ".join(c) for c in text[v]],
        })

    by_cluster = [np.nonzero(venue_cluster == c)[0] for c in
                  range(n_clusters)]
    profiles = []
    liked = rng.integers(n_clusters, size=shape["users"])
    for u in range(shape["users"]):
        pool = by_cluster[liked[u]]
        n_pos = shape["ratings"] // 2
        pos = rng.choice(pool, size=n_pos, replace=False)
        others = np.setdiff1d(np.arange(n_venues), pool)
        neg = rng.choice(others, size=shape["ratings"] - n_pos,
                         replace=False)
        ratings = [(int(v), 4) for v in pos]
        ratings += [(int(v), int(r)) for v, r in
                    zip(neg, rng.integers(1, 4, size=neg.size))]
        ratings.sort()
        profiles.append({
            "user_id": "u%04d" % u,
            "gender": ("male", "female")[u % 2],
            "ratings": [{"venue_id": "v%05d" % v, "rating": r}
                        for v, r in ratings]})

    contexts = []
    qrels = []
    n_cand = shape["candidates"]
    for t in range(shape["topics"]):
        u = int(rng.integers(shape["users"]))
        n_rel = int(rng.integers(shape["relevant"][0],
                                 shape["relevant"][1] + 1))
        pool = by_cluster[liked[u]]
        others = np.setdiff1d(np.arange(n_venues), pool)
        # Some relevant venues come from outside the liked cluster and
        # some irrelevant ones from inside it, so the taste cosine is
        # informative but not a perfect separator.
        rel_in = rng.binomial(n_rel, shape["rel_in_cluster"])
        rest_in = rng.binomial(n_cand - n_rel, shape["nonrel_in_cluster"])
        inside = rng.choice(pool, size=rel_in + rest_in, replace=False)
        outside = rng.choice(others, size=n_cand - rel_in - rest_in,
                             replace=False)
        rel = np.concatenate([inside[:rel_in], outside[:n_rel - rel_in]])
        rest = np.concatenate([inside[rel_in:], outside[n_rel - rel_in:]])
        cands = np.concatenate([rel, rest])
        rng.shuffle(cands)
        context = {}
        for name, dims in _ASPECTS:
            if rng.random() < 0.6:
                context[name] = dims[int(rng.integers(len(dims)))]
        topic = "t%04d" % t
        contexts.append({"topic_id": topic, "user_id": "u%04d" % u,
                         "context": context,
                         "candidates": ["v%05d" % v for v in cands]})
        relset = set(rel.tolist())
        for v in sorted(cands.tolist()):
            qrels.append("%s 0 v%05d %d\n" % (topic, v, 1 if v in relset
                                              else 0))

    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name) for name in (
        "embeddings.txt", "venues.jsonl", "profiles.jsonl",
        "contexts.jsonl", "qrels.txt")}
    with open(paths["embeddings.txt"], "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % (len(emb_terms), dim))
        for term, row in zip(emb_terms, emb_vectors):
            fh.write(term + " " + " ".join("%.5f" % x for x in row) + "\n")
    _write_jsonl(venues, paths["venues.jsonl"])
    _write_jsonl(profiles, paths["profiles.jsonl"])
    _write_jsonl(contexts, paths["contexts.jsonl"])
    with open(paths["qrels.txt"], "w", encoding="utf-8") as fh:
        fh.writelines(qrels)

    n_relevant = sum(1 for line in qrels if line.endswith(" 1\n"))
    props = {
        "token_occurrences": int(n_tok),
        "generated_words": int(len(words)),
        "generated_stems": int(len(stems)),
        "embedding_terms": int(len(emb_terms)),
        "topics": shape["topics"],
        "topic_size_min": n_cand,
        "topic_size_max": n_cand,
        "relevant_share": n_relevant / len(qrels),
        "zero_relevance_topics": 0,
        "random_p5": n_relevant / len(qrels),
    }
    return props


def write_features(path, seed, shape):
    """Write a labelled SVMlight features file; returns input properties.

    Topic sizes are drawn from ``shape["sizes"]`` (inclusive range).
    Relevance comes from a planted score over four columns plus noise;
    the top candidates of each topic by that score are relevant, and a
    ``shape["empty_share"]`` of topics has no relevant candidate.
    """
    rng = np.random.default_rng([seed, 2])
    lo, hi = shape["sizes"]
    sizes = rng.integers(lo, hi + 1, size=shape["topics"])
    n = int(sizes.sum())
    X = np.empty((n, FEATURES))
    counts = rng.lognormal(5.0, 1.2, size=n)
    X[:, 0] = np.floor(counts)
    X[:, 1] = np.floor(counts * rng.uniform(0.05, 0.4, size=n))
    X[:, 2] = rng.integers(0, 40, size=n)
    X[:, 3] = rng.integers(0, 60, size=n)
    X[:, 4] = np.round(rng.uniform(4.0, 9.5, size=n), 1)
    X[:, 5] = np.floor(counts * rng.uniform(0.3, 0.9, size=n))
    X[:, 6:] = np.round(np.tanh(rng.normal(0.0, 0.6, size=(n, 7))), 6)
    planted = (1.5 * X[:, 6] - 0.8 * X[:, 7] + 0.6 * X[:, 8]
               + 0.15 * (X[:, 4] - 6.75) + rng.normal(0.0, 0.2, size=n))

    labels = np.zeros(n, dtype=np.int64)
    lines = []
    start = 0
    empty = 0
    rel_total = 0
    random_p5 = []
    for t, size in enumerate(sizes):
        stop = start + int(size)
        if rng.random() < shape["empty_share"]:
            empty += 1
        else:
            n_rel = max(1, int(round(size * shape["relevant_share"])))
            top = start + np.argsort(-planted[start:stop],
                                     kind="stable")[:n_rel]
            labels[top] = 1
            labels[top[:max(1, n_rel // 3)]] = 2
            rel_total += n_rel
            random_p5.append(n_rel / size)
        for i in range(start, stop):
            feats = " ".join("%d:%r" % (j + 1, float(X[i, j]))
                             for j in range(FEATURES))
            lines.append("%d qid:t%04d %s # v%05d\n"
                         % (labels[i], t, feats, i))
        start = stop

    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return {
        "rows": n,
        "topics": int(shape["topics"]),
        "topic_size_min": int(sizes.min()),
        "topic_size_max": int(sizes.max()),
        "topic_size_mean": float(sizes.mean()),
        "relevant_share": rel_total / n,
        "zero_relevance_topics": empty,
        "random_p5": float(np.mean(random_p5)),
    }


def main(argv=None):
    """Write one workload's inputs; prints their properties as JSON.

    Runs in its own process so that the benchmark's parent never holds
    numpy or the corpus, whose memory the children's peak RSS would
    otherwise inherit.  The stemmer comes from the ``src/`` tree given
    on the command line, never from an installed copy.
    """
    parser = argparse.ArgumentParser()
    parser.add_argument("kind", choices=("pipeline", "features"))
    parser.add_argument("src")
    parser.add_argument("out_dir")
    parser.add_argument("seed", type=int)
    parser.add_argument("shape", type=json.loads)
    args = parser.parse_args(argv)
    if args.kind == "features":
        props = write_features(os.path.join(args.out_dir, "features.txt"),
                               args.seed, args.shape)
        print(json.dumps(props))
        return 0

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import venuerec
    from venuerec.profiles import seed_tokens
    from venuerec.text import DEFAULT_CONFIG, porter_stem

    if not os.path.abspath(venuerec.__file__).startswith(src + os.sep):
        sys.exit("venuerec imported from %s, not from %s"
                 % (venuerec.__file__, src))
    seed_stems = sorted({t for d in _SEED_DIMENSIONS for t in seed_tokens(d)})
    props = write_corpus(args.out_dir, args.seed, args.shape, porter_stem,
                         DEFAULT_CONFIG.stopwords, seed_stems)
    print(json.dumps(props))
    return 0


if __name__ == "__main__":
    sys.exit(main())
