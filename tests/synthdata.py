"""Deterministic planted-signal corpus for end-to-end checks.

Everything lives on an orthonormal token basis so every downstream
quantity has a closed form.  Axes 0-11 carry the twelve context
dimensions in ASPECTS order, axes 12-13 the two genders, axes 14-15 a
liked and a disliked taste direction, and axis 16 is inert padding.
Ten content terms share each axis exactly, so seed subtraction pulls
in whole clusters and every aspect vector comes out as an exact
multiple of its axis.

Each topic gets twelve candidates in four groups:

* five relevant venues mixing liked-taste tokens with the topic's
  context cluster and the user's gender cluster;
* two decoys identical to the relevant venues except the taste tokens
  are swapped for padding, so only the positive-taste cosine tells
  them apart;
* two decoys identical except the context tokens come from a sibling
  dimension, so only the matching aspect cosine tells them apart;
* three noise venues built from disliked-taste tokens.

Decoy ids sort before relevant ids.  Score ties rank decoys first, so
knocking out the one column that separates a decoy group from the
relevant group costs a fixed, predictable amount of precision.  The
closed-form outcomes for the default corpus are exported as module
constants; the acceptance checks assert them.
"""

import json
import os
import sys

import numpy as np

from venuerec.cli import SETTINGS
from venuerec.corpus import (
    ASPECTS,
    GENDERS,
    load_contexts,
    load_profiles,
    load_qrels,
    load_venues,
)
from venuerec.embeddings import EmbeddingStore, load_embeddings
from venuerec.features import ModelSet, extract_all
from venuerec.profiles import (
    build_context_vectors,
    build_venue_vectors,
    seed_tokens,
    user_profile_vectors,
)
from writers import save_embeddings

N_TOPICS = 20
N_RELEVANT = 5
N_CANDIDATES = 12
SEED = 42

DIMENSION = 17
_MALE, _FEMALE, _LIKED, _DISLIKED, _PAD = 12, 13, 14, 15, 16
_CLUSTER = 10       # content terms per axis; matches the expansion depth
_TERM = "w%02d%02d"

# token occurrence counts per candidate group
_TASTE_N, _CONTEXT_N, _GENDER_N = 2, 3, 2

_STATS = {"checkins": 120, "likes": 45, "comment_count": 3, "photos": 10,
          "rating_avg": 4.0, "unique_users": 80}

# Closed forms for the default corpus.  With the taste column knocked
# out the first decoy pair ties the relevant group and sorts ahead of
# it, so every topic drops to 3/5.  Knocking out one aspect column
# does the same on the five topics where that aspect is salient.
FULL_P5 = 1.0
NO_TASTE_P5 = 0.6
NO_ASPECT_P5 = 0.9


def _dimension_axes():
    axes = {}
    axis = 0
    for aspect, dims in ASPECTS.items():
        for dim in dims:
            axes[(aspect, dim)] = axis
            axis += 1
    return axes


_DIM_AXES = _dimension_axes()


def _seed_vocab():
    """Seed token -> vector; tokens shared by dimensions average theirs."""
    owners = {}
    for (aspect, dim), axis in _DIM_AXES.items():
        for tok in seed_tokens(dim):
            owners.setdefault(tok, set()).add(axis)
    for gender, axis in zip(GENDERS, (_MALE, _FEMALE)):
        for tok in seed_tokens(gender):
            owners.setdefault(tok, set()).add(axis)
    vocab = {}
    for tok, axes in owners.items():
        vec = np.zeros(DIMENSION)
        for axis in axes:
            vec[axis] = 1.0 / len(axes)
        vocab[tok] = vec
    return vocab


def build_vocab():
    vocab = _seed_vocab()
    for axis in range(DIMENSION):
        basis = np.zeros(DIMENSION)
        basis[axis] = 1.0
        for i in range(_CLUSTER):
            vocab[_TERM % (axis, i)] = basis
    return vocab


def topic_id(t):
    return "t%02d" % t


def user_id(t):
    return "u%02d" % t


def relevant_ids(t):
    return tuple("v%02dr%d" % (t, i) for i in range(N_RELEVANT))


def decoy_ids(t):
    return tuple("v%02da%d" % (t, i) for i in range(N_CANDIDATES - N_RELEVANT))


def salient_context(t):
    """(aspect, dimension, sibling dimension) for topic t."""
    aspects = list(ASPECTS)
    aspect = aspects[t % len(aspects)]
    dims = ASPECTS[aspect]
    i = (t // len(aspects)) % len(dims)
    return aspect, dims[i], dims[(i + 1) % len(dims)]


def _tokens(parts, salt):
    out = []
    for axis, count in parts:
        out.extend(_TERM % (axis, (salt + j) % _CLUSTER) for j in range(count))
    return out


def _comments(parts, salt):
    toks = _tokens(parts, salt)
    cut = (len(toks) + 1) // 2
    return ["the " + " ".join(chunk)
            for chunk in (toks[:cut], toks[cut:]) if chunk]


def _venue(vid, parts, salt):
    obj = {"id": vid, "name": vid, "comments": _comments(parts, salt)}
    obj.update(_STATS)
    return obj


def build_corpus(n_topics=N_TOPICS, seed=SEED):
    rng = np.random.default_rng(seed)
    venues = []
    contexts = []
    qrels = []

    taste_venues = []
    for flavor, axis, rating in (("pa", _LIKED, 4), ("pb", _DISLIKED, 1)):
        for i in range(3):
            vid = "%s%d" % (flavor, i)
            venues.append(_venue(vid, [(axis, 3)], i))
            taste_venues.append((vid, rating))

    profiles = [{"user_id": user_id(t), "gender": GENDERS[t % 2],
                 "ratings": [{"venue_id": v, "rating": r}
                             for v, r in taste_venues]}
                for t in range(n_topics)]

    for t in range(n_topics):
        aspect, dim, sibling = salient_context(t)
        ctx = _DIM_AXES[(aspect, dim)]
        sib = _DIM_AXES[(aspect, sibling)]
        gender = _MALE if t % 2 == 0 else _FEMALE
        groups = [
            [(_LIKED, _TASTE_N), (ctx, _CONTEXT_N), (gender, _GENDER_N)],
            [(_PAD, _TASTE_N), (ctx, _CONTEXT_N), (gender, _GENDER_N)],
            [(_LIKED, _TASTE_N), (sib, _CONTEXT_N), (gender, _GENDER_N)],
            [(sib, _CONTEXT_N), (_DISLIKED, _TASTE_N)],
        ]
        plan = [(vid, groups[0], 1) for vid in relevant_ids(t)]
        for i, vid in enumerate(decoy_ids(t)):
            plan.append((vid, groups[1 if i < 2 else 2 if i < 4 else 3], 0))
        candidates = []
        for salt, (vid, parts, grade) in enumerate(plan):
            venues.append(_venue(vid, parts, t + salt))
            qrels.append((topic_id(t), vid, grade))
            candidates.append(vid)
        rng.shuffle(candidates)
        contexts.append({"topic_id": topic_id(t), "user_id": user_id(t),
                         "context": {aspect: dim},
                         "candidates": candidates})

    return {"vocab": build_vocab(), "venues": venues, "profiles": profiles,
            "contexts": contexts, "qrels": qrels}


def _write_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in records:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_corpus(out_dir, n_topics=N_TOPICS, seed=SEED):
    corpus = build_corpus(n_topics, seed)
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name + ext)
             for name, ext in (("embeddings", ".txt"), ("venues", ".jsonl"),
                               ("profiles", ".jsonl"), ("contexts", ".jsonl"),
                               ("qrels", ".txt"))}
    vocab = corpus["vocab"]
    terms = sorted(vocab)
    store = EmbeddingStore(terms, np.array([vocab[t] for t in terms]))
    save_embeddings(store, paths["embeddings"])
    _write_jsonl(corpus["venues"], paths["venues"])
    _write_jsonl(corpus["profiles"], paths["profiles"])
    _write_jsonl(corpus["contexts"], paths["contexts"])
    with open(paths["qrels"], "w", encoding="utf-8") as fh:
        for topic, vid, grade in corpus["qrels"]:
            fh.write("%s 0 %s %d\n" % (topic, vid, grade))
    return paths


def feature_rows(paths, scale=1.0):
    """The labeled FeatureTable of a written corpus, via the library
    wiring under the default settings.

    `scale` multiplies every stored embedding before the vectors are
    built, which must leave all cosine features unchanged.
    """
    cfg = {key: setting.default for key, setting in SETTINGS.items()}
    store = load_embeddings(paths["embeddings"], cfg["embedding_format"])
    if scale != 1.0:
        matrix = np.array([store.vector_of(t) for t in store.terms]) * scale
        store = EmbeddingStore(store.terms, matrix)
    venues = load_venues(paths["venues"])
    by_id = {v.id: v for v in venues}
    profiles = load_profiles(paths["profiles"],
                             (cfg["rating_min"], cfg["rating_max"]))
    pairs = load_contexts(paths["contexts"],
                          {p.user_id: p for p in profiles}, by_id)
    qrels = load_qrels(paths["qrels"])
    venue_vectors = build_venue_vectors(store, venues)
    models = ModelSet(
        venue_vectors=venue_vectors,
        user_profiles={p.user_id: user_profile_vectors(
            store.dimension, venue_vectors, p, cfg["pos_threshold"],
            cfg["neg_threshold"], cfg["shifted_negative"])
            for p in profiles},
        context_vectors=build_context_vectors(store, cfg["k"]))
    return extract_all(pairs, by_id, models, qrels)


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "synth-corpus"
    for name, path in sorted(write_corpus(target).items()):
        print("%s\t%s" % (name, path))
