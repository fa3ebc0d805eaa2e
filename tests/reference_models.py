"""Brute-force reference routes for the vector constructions, the metric,
the per-topic normalization and the tree learner.

Everything here works with explicit loops, sharing no code with the
package implementation: venue sums, rating-weighted user sums,
subtraction-based term expansion, and the summed context/gender vectors
on plain dicts and python lists (tests assert the package matches these
within 1e-9 per component), and the ranking metric topic by topic
(tests assert the package gives the same float).  The normalization
rescales one row record at a time (tests assert the package gives the
same bits).  The tree learner sorts every column afresh at every node,
and searches each column with the one-feature numpy kernel of
`reference_kernels`; it shares only the gain tolerance and the `Tree`
record with the package.  `presort` is the column order `fit_tree`
takes, sorted directly from a matrix.  `extract_features` is the per-row feature
extraction that the batched `extract_all` replaced, with its scalar
`cosine`; `rowwise_extract_all` builds the table from it one row at a
time.  `table_of` and `table_bits` build and compare the package's
FeatureTable for the tests.  `zeroed` copies a FeatureTable with one
feature column zero and `fit_and_score` splits, fits and scores one: a
knockout as the study once ran it, which tests assert the trainers'
`skip` matches.
"""

import math
from dataclasses import dataclass

import numpy as np

from reference_kernels import numpy_best_split
from venuerec.corpus import ASPECTS
from venuerec.features import N_FEATURES, FeatureTable
from venuerec.ltr import TopicBlocks, predict_matrix, split_train_validation
from venuerec.ltr.mart import _EPS, Tree

_STAT_FIELDS = ("checkins", "likes", "comment_count", "photos", "rating_avg",
                "unique_users")


def brute_cosine(a, b):
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    s = sum(x * y for x, y in zip(a, b)) / (na * nb)
    return min(1.0, max(-1.0, s))


def brute_venue_vector(vectors, comment_token_lists, dim):
    acc = [0.0] * dim
    for tokens in comment_token_lists:
        for tok in tokens:
            if tok in vectors:
                v = vectors[tok]
                for i in range(dim):
                    acc[i] += v[i]
    return acc


def brute_user_vectors(venue_vecs, ratings, dim, pos_threshold, neg_threshold,
                       shifted_negative=False):
    pos = [0.0] * dim
    neg = [0.0] * dim
    for venue_id, rating in ratings:
        if venue_id not in venue_vecs:
            continue
        v = venue_vecs[venue_id]
        if rating >= pos_threshold:
            for i in range(dim):
                pos[i] += rating * v[i]
        elif rating <= neg_threshold:
            w = rating + 1 if shifted_negative else rating
            for i in range(dim):
                neg[i] += w * v[i]
    return pos, neg


def brute_seed_vector(vectors, tokens):
    dim = len(next(iter(vectors.values())))
    acc = [0.0] * dim
    for tok in tokens:
        v = vectors[tok]
        for i in range(dim):
            acc[i] += v[i]
    return [x / len(tokens) for x in acc]


def brute_similar_k(vectors, query, k, exclude):
    scored = []
    for term in vectors:
        if term in exclude:
            continue
        scored.append((term, brute_cosine(vectors[term], query)))
    scored.sort(key=lambda r: (-r[1], r[0]))
    return [t for t, _ in scored[:k]]


def brute_context_terms(vectors, seed_tokens_by_dim, target, k):
    """seed_tokens_by_dim: ordered list of (dimension, [seed tokens])."""
    exclude = set()
    for _, toks in seed_tokens_by_dim:
        exclude.update(toks)
    seeds = {d: brute_seed_vector(vectors, toks)
             for d, toks in seed_tokens_by_dim}
    union = set()
    for dim, _ in seed_tokens_by_dim:
        if dim == target:
            continue
        q = [a - b for a, b in zip(seeds[target], seeds[dim])]
        union.update(brute_similar_k(vectors, q, k, exclude))
    return sorted(union)


def brute_term_sum(vectors, terms, dim):
    acc = [0.0] * dim
    for term in sorted(terms):
        v = vectors[term]
        for i in range(dim):
            acc[i] += v[i]
    return acc


def cosine(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("cosine requires two vectors of equal length")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def extract_features(pair, venue, models):
    """The 13 features of one row; degenerate inputs give zeros, not errors."""
    venue_id = venue.id if venue is not None else None
    stats = venue.stats if venue is not None else None
    row = []
    for name in _STAT_FIELDS:
        value = getattr(stats, name) if stats is not None else None
        row.append(float(value) if value is not None else 0.0)

    vv = models.venue_vectors.get(venue_id) if venue_id is not None else None
    if vv is not None:
        w2v = vv.vector
    else:
        w2v = None  # no vector at all: every cosine below is 0

    profile = models.user_profiles.get(pair.user.user_id)
    if w2v is None or profile is None:
        row.extend([0.0, 0.0])
    else:
        row.append(cosine(w2v, profile.positive))
        row.append(cosine(w2v, profile.negative))

    for aspect in ASPECTS:
        dim = pair.dimension_of(aspect)
        cv = models.context_vectors.get((aspect, dim)) if dim else None
        if w2v is None or cv is None:
            row.append(0.0)
        else:
            row.append(cosine(w2v, cv))

    gv = models.context_vectors.get(("gender", pair.user.gender))
    if w2v is None or gv is None:
        row.append(0.0)
    else:
        row.append(cosine(w2v, gv))
    return tuple(row)


def rowwise_extract_all(pairs, venues_by_id, models, qrels=None):
    """The FeatureTable of every candidate, one extract_features row each."""
    topic_ids, venue_ids, labels, rows = [], [], [], []
    for pair in pairs:
        for venue_id in pair.candidates:
            topic_ids.append(pair.topic_id)
            venue_ids.append(venue_id)
            labels.append(qrels.grade(pair.topic_id, venue_id)
                          if qrels is not None else 0)
            rows.append(extract_features(pair, venues_by_id.get(venue_id),
                                         models))
    return FeatureTable(topic_ids, venue_ids, labels, rows)


@dataclass(frozen=True)
class FeatureRow:
    """One feature row as a record, as `rowwise_normalize` takes it."""

    topic_id: str
    venue_id: str
    label: int
    features: tuple

    def __post_init__(self):
        if len(self.features) != N_FEATURES:
            raise ValueError("expected %d features, got %d"
                             % (N_FEATURES, len(self.features)))
        if not all(math.isfinite(x) for x in self.features):
            raise ValueError("features must be finite")


def table_of(rows):
    """The FeatureTable of ``(topic, venue, label, features)`` tuples."""
    return FeatureTable([r[0] for r in rows], [r[1] for r in rows],
                        [r[2] for r in rows], [r[3] for r in rows])


def table_bits(table):
    """What a FeatureTable holds, as a value that compares bit for bit."""
    return (table.topic_ids, table.venue_ids, table.labels.tolist(),
            table.bounds, table.X.tobytes())


def zeroed(table, j):
    """A copy of the FeatureTable `table` whose feature column `j` is zero."""
    X = table.X.copy()
    X[:, j] = 0.0
    return FeatureTable(table.topic_ids, table.venue_ids, table.labels, X)


def fit_and_score(table, train, config, split_fraction, cutoff):
    """Split `table` by `config.seed`, fit the split with the trainer
    `train` and score all of `table`; returns the model and the metric."""
    fit, valid = split_train_validation(table, split_fraction, config.seed)
    model = train(TopicBlocks(fit, cutoff), TopicBlocks(valid, cutoff), config)
    blocks = TopicBlocks(table, cutoff)
    return model, blocks.metric(predict_matrix(model, blocks.X), config.metric)


def rowwise_normalize(rows, columns=range(6)):
    """Min-max scale the given feature columns within each topic.

    Intended for the linear learner on raw count features; a constant
    column maps to 0.  Returns new rows, input order preserved.
    """
    columns = tuple(columns)
    by_topic = {}
    for row in rows:
        by_topic.setdefault(row.topic_id, []).append(row)
    replacement = {}
    for topic_rows in by_topic.values():
        matrix = np.array([r.features for r in topic_rows], dtype=np.float64)
        for c in columns:
            lo = matrix[:, c].min()
            hi = matrix[:, c].max()
            if hi > lo:
                matrix[:, c] = (matrix[:, c] - lo) / (hi - lo)
            else:
                matrix[:, c] = 0.0
        for r, vals in zip(topic_rows, matrix):
            replacement[id(r)] = FeatureRow(
                topic_id=r.topic_id, venue_id=r.venue_id, label=r.label,
                features=tuple(float(x) for x in vals))
    return [replacement[id(r)] for r in rows]


def loop_metric(blocks, scores, metric):
    """Mean P@5 or MRR of `scores` over a TopicBlocks, one topic at a time.

    Each topic is ranked by a stable descending sort of its own slice,
    and the per-topic values are added in topic order.
    """
    if not blocks.included:
        return 0.0
    total = 0.0
    for i in blocks.included:
        lo, hi = blocks.bounds[i]
        order = np.argsort(-scores[lo:hi], kind="stable")
        rel = blocks.rel[lo:hi][order]
        if metric == "p5":
            total += float(rel[:5].sum()) / 5
        else:
            hits = np.nonzero(rel)[0]
            total += 1.0 / (hits[0] + 1.0)
    return total / len(blocks.included)


def _argsort_best_candidate(X, resid, idx, min_leaf):
    """Best split of the rows `idx`: (gain, feature, threshold, left, right)."""
    best = None
    for j in range(X.shape[1]):
        col = X[idx, j]
        order = np.argsort(col, kind="stable")
        gain, pos = numpy_best_split(col[order], resid[idx][order],
                                     min_leaf)
        if pos == 0:
            continue
        if best is None or gain > best[0] + _EPS:
            sorted_idx = idx[order]
            below = float(col[order[pos - 1]])
            above = float(col[order[pos]])
            threshold = 0.5 * (below + above)
            # the threshold must separate the sides: fall back to below
            if not below <= threshold < above:
                threshold = below
            best = (gain, j, threshold, sorted_idx[:pos], sorted_idx[pos:])
    return best


def presort(X):
    """A stable argsort of each column of `X`, int32, features x rows."""
    return np.argsort(X.T, axis=1, kind="stable").astype(np.int32)


def argsort_fit_tree(X, resid, max_leaves=7, min_leaf=1):
    """Best-first least-squares tree that argsorts each column at each node.

    A node's rows keep the order of its parent's split column, so ties
    inside a column follow the chain of ancestor split features.
    """
    feature = [-1]
    threshold = [0.0]
    left = [0]
    right = [0]
    value = [float(resid.mean()) if resid.size else 0.0]
    all_idx = np.arange(X.shape[0], dtype=np.int64)
    candidates = {}
    cand = _argsort_best_candidate(X, resid, all_idx, min_leaf)
    if cand is not None:
        candidates[0] = cand
    n_leaves = 1
    while n_leaves < max_leaves and candidates:
        node = max(candidates, key=lambda nid: (candidates[nid][0], -nid))
        gain, j, thr, left_idx, right_idx = candidates.pop(node)
        if gain <= _EPS:
            break
        feature[node] = j
        threshold[node] = thr
        for side, idx in ((0, left_idx), (1, right_idx)):
            child = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(0)
            right.append(0)
            value.append(float(resid[idx].mean()))
            if side == 0:
                left[node] = child
            else:
                right[node] = child
            cand = _argsort_best_candidate(X, resid, idx, min_leaf)
            if cand is not None:
                candidates[child] = cand
        n_leaves += 1
    return Tree(feature=tuple(feature), threshold=tuple(threshold),
                left=tuple(left), right=tuple(right), value=tuple(value))
