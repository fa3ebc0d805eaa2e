"""Preference vectors: venue content, user taste, and context.

A venue's vector is the sum of the embedding vectors of every token
occurrence in its comments.  A user's taste splits into a positive and
a negative vector: rating-weighted sums of the vectors of the venues
they rated at or above the positive threshold, resp. at or below the
negative one.  A contextual dimension's vector sums the embeddings of
the terms found by subtracting each sibling dimension's seed vector
from its own and taking the top-K most similar vocabulary terms.
The aspects and their dimensions are those of ASPECTS; gender is built
as one more aspect, ``gender``, whose two dimensions are the names in
GENDERS.  `extract_all` turns the vectors into the feature table: the
venue statistics and the cosines of a venue's vector with the user's
tastes and the topic's context vectors, in the order of
``features.FEATURE_NAMES``.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import ASPECTS, GENDERS
from .embeddings import (
    NormOverflowError,
    cosine_matrix,
    read_text_vectors,
    similar_k,
    write_text_vectors,
)
from .errors import FormatError, VenuerecError
from .features import N_FEATURES, STAT_FIELDS, FeatureTable
from .text import PreprocessConfig, preprocess

log = logging.getLogger(__name__)

# dimension names run through the comment pipeline minus stopword
# removal: several dimension words ("alone", "us"-like) are classic
# stopwords and must survive to act as seeds
_SEED_CONFIG = PreprocessConfig(stopwords=frozenset())

# every aspect a context vector is built for, gender last
_CONTEXT_ASPECTS = {**ASPECTS, "gender": GENDERS}


@dataclass(frozen=True)
class VenueVector:
    venue_id: str
    vector: np.ndarray


@dataclass(frozen=True)
class UserVenueProfile:
    user_id: str
    positive: np.ndarray
    negative: np.ndarray


def seed_tokens(dimension):
    """Embedding-space key tokens for a dimension name."""
    toks = preprocess(dimension, _SEED_CONFIG)
    if not toks:
        raise VenuerecError("dimension %r yields no seed tokens" % dimension)
    return tuple(toks)


def seed_vector(store, dimension):
    """Mean of the dimension's seed token vectors; all must be known."""
    vecs = []
    for tok in seed_tokens(dimension):
        v = store.vector_of(tok)
        if v is None:
            raise VenuerecError(
                "seed token %r for dimension %r is not in the embedding "
                "store" % (tok, dimension))
        vecs.append(v)
    return np.mean(vecs, axis=0)


def venue_vector(store, venue):
    """Sum of embeddings over every token occurrence in the comments."""
    return VenueVector(venue_id=venue.id, vector=store.sum_of(
        tok for comment in venue.comments for tok in comment.tokens))


def build_venue_vectors(store, venues):
    """VenueVector for every venue, keyed by id."""
    return {v.id: venue_vector(store, v) for v in venues}


def user_profile_vectors(dimension, venue_vectors, profile, pos_threshold,
                         neg_threshold, shifted_negative):
    """Rating-weighted sums over the user's positive and negative venues.

    `shifted_negative` weighs negative venues by rating + 1 so that
    zero-rated venues still register; off, the weighting is literal (a
    rating of 0 annihilates its venue).  Ratings of
    venues missing from `venue_vectors` are skipped; the caller warns
    about them once for all users.  `neg_threshold` is below
    `pos_threshold`, as the config rule in `cli.resolve_config` holds.
    """
    pos = np.zeros(dimension, dtype=np.float64)
    neg = np.zeros(dimension, dtype=np.float64)
    for venue_id, rating in profile.ratings:
        vv = venue_vectors.get(venue_id)
        if vv is None:
            continue
        if rating >= pos_threshold:
            pos += rating * vv.vector
        elif rating <= neg_threshold:
            weight = rating + 1 if shifted_negative else rating
            neg += weight * vv.vector
    return UserVenueProfile(user_id=profile.user_id, positive=pos,
                            negative=neg)


def context_terms(store, dims, k):
    """``{dimension: sorted terms}`` over an aspect's sibling dimensions
    `dims`: each dimension's terms are the union of the top-k terms over
    subtracting each sibling's seed vector from its own.

    Every seed token of the aspect is excluded from the search; `k` is
    at least 1, as ``cli.SETTINGS`` checks.
    """
    seeds = {d: seed_vector(store, d) for d in dims}
    exclude = {tok for d in dims for tok in seed_tokens(d)}
    return {d: tuple(sorted({hit.term for other in dims if other != d
                             for hit in similar_k(
                                 store, seeds[d] - seeds[other], k,
                                 exclude)}))
            for d in dims}


def build_context_vectors(store, k):
    """``{(aspect, dimension): vector}`` over ASPECTS, then ``gender``;
    each vector is the unit-weight sum of the dimension's terms."""
    out = {}
    for aspect, dims in _CONTEXT_ASPECTS.items():
        for dim, terms in context_terms(store, dims, k).items():
            if not terms:
                log.warning("empty term set for %s/%s; context vector is "
                            "zero", aspect, dim)
            out[(aspect, dim)] = store.sum_of(terms)
    return out


# ---------------------------------------------------------------------------
# Feature extraction from the vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSet:
    """Everything extract_all needs, keyed for lookup."""

    venue_vectors: dict
    user_profiles: dict          # user_id -> UserVenueProfile
    # (aspect, dimension) -> vector for every dimension of ASPECTS and
    # of the aspect "gender", as load_context_vectors checks
    context_vectors: dict


def _topic_block(pair, venues, models):
    """The 13 features of each candidate venue; None marks a dangling one.

    Degenerate inputs give zeros, not errors: a missing statistic is 0,
    and a zero row stands in for an absent vector, so its cosines are 0.
    A vector whose squared norm overflows a float is an error naming
    the topic and the vector.
    """
    block = np.zeros((len(venues), N_FEATURES))
    for row, venue in zip(block, venues):
        for j, name in enumerate(STAT_FIELDS):
            value = getattr(venue.stats, name) if venue is not None else None
            if value is not None:
                row[j] = float(value)
    found = [models.venue_vectors.get(venue.id) if venue is not None
             else None for venue in venues]
    known = [vv.vector for vv in found if vv is not None]
    if not known:
        return block
    zero = np.zeros(len(known[0]))
    A = np.array([vv.vector if vv is not None else zero for vv in found])
    # the user's two tastes, one context vector per aspect, the gender
    user = pair.user
    profile = models.user_profiles.get(user.user_id)
    tastes = ([profile.positive, profile.negative] if profile is not None
              else [zero, zero])
    keys = [(aspect, pair.dimension_of(aspect)) for aspect in ASPECTS]
    keys.append(("gender", user.gender))
    # an aspect the topic leaves unbound scores 0
    B = np.array(tastes + [zero if dim is None
                           else models.context_vectors[(aspect, dim)]
                           for aspect, dim in keys])
    try:
        block[:, len(STAT_FIELDS):] = cosine_matrix(A, B)
    except NormOverflowError as exc:
        others = ["user vector '%s/%s'" % (user.user_id, side)
                  for side in ("pos", "neg")]
        others += ["context vector %r" % (key,) for key in keys]
        name = ("venue vector %r" % found[exc.row].venue_id
                if exc.row < len(found) else others[exc.row - len(found)])
        raise VenuerecError("topic %s: squared norm of %s overflows a float"
                            % (pair.topic_id, name)) from None
    return block


def extract_all(pairs, venues_by_id, models, qrels):
    """The FeatureTable of every candidate of every pair.

    A dangling candidate, one missing from `venues_by_id`, keeps its id
    and label and is ranked on zero features.  With `qrels` None, every
    label is 0.
    """
    topic_ids, venue_ids, labels, blocks = [], [], [], []
    for pair in pairs:
        topic_ids += [pair.topic_id] * len(pair.candidates)
        venue_ids += pair.candidates
        labels += [qrels.grade(pair.topic_id, v) if qrels is not None else 0
                   for v in pair.candidates]
        blocks.append(_topic_block(
            pair, [venues_by_id.get(v) for v in pair.candidates], models))
    return FeatureTable(topic_ids, venue_ids, labels,
                        np.concatenate(blocks) if blocks else ())


# ---------------------------------------------------------------------------
# Vector caches, stored in the text embedding format with composite keys
# ---------------------------------------------------------------------------

def save_venue_vectors(vectors, path):
    write_text_vectors(sorted((vv.venue_id, vv.vector)
                              for vv in vectors.values()), path)


def load_venue_vectors(path):
    return {key: VenueVector(venue_id=key, vector=vec)
            for _, key, vec in read_text_vectors(path)}


def save_user_vectors(profiles, path):
    write_text_vectors(sorted(
        (up.user_id + side, vec) for up in profiles.values()
        for side, vec in (("/pos", up.positive), ("/neg", up.negative))),
        path)


def load_user_vectors(path):
    halves = {}
    for lineno, key, vec in read_text_vectors(path):
        user_id, _, side = key.rpartition("/")
        if side not in ("pos", "neg") or not user_id:
            raise FormatError("bad user vector key %r" % key, path=path,
                              line=lineno)
        halves.setdefault(user_id, {})[side] = vec
    out = {}
    for user_id, sides in sorted(halves.items()):
        if set(sides) != {"pos", "neg"}:
            raise FormatError("user %r is missing a profile side" % user_id,
                              path=path)
        out[user_id] = UserVenueProfile(
            user_id=user_id, positive=sides["pos"], negative=sides["neg"])
    return out


def save_context_vectors(context_vectors, path):
    """Cache ``{(aspect, dimension): vector}``; a dimension's spaces are
    stored as '_' in its key."""
    write_text_vectors(sorted(
        ("%s/%s" % (aspect, dim.replace(" ", "_")), vec)
        for (aspect, dim), vec in context_vectors.items()), path)


def load_context_vectors(path):
    """``{(aspect, dimension): vector}``; every key names an aspect of
    ASPECTS or ``gender``, and one of its dimensions, and every such
    pair has a key."""
    out = {}
    for lineno, key, vec in read_text_vectors(path):
        aspect, _, rest = key.partition("/")
        dim = rest.replace("_", " ")
        if dim not in _CONTEXT_ASPECTS.get(aspect, ()):
            raise FormatError("bad context vector key %r" % key, path=path,
                              line=lineno)
        out[(aspect, dim)] = vec
    for aspect, dims in _CONTEXT_ASPECTS.items():
        for dim in dims:
            if (aspect, dim) not in out:
                raise FormatError("no context vector for key '%s/%s'"
                                  % (aspect, dim.replace(" ", "_")),
                                  path=path)
    return out
