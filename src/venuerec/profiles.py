"""Preference vectors: venue content, user taste, context, and gender.

A venue's vector is the sum of the embedding vectors of every token
occurrence in its comments.  A user's taste splits into a positive and
a negative vector: rating-weighted sums of the vectors of the venues
they rated at or above the positive threshold, resp. at or below the
negative one.  A contextual dimension's vector sums the embeddings of
the terms found by subtracting each sibling dimension's seed vector
from its own and taking the top-K most similar vocabulary terms.  The
gender vector applies the same construction to the two-dimension
pseudo-aspect male/female.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import DEFAULT_SCHEMA, GENDERS
from .embeddings import load_embeddings, similar_k
from .errors import FormatError, VenuerecError
from .text import PreprocessConfig, preprocess

log = logging.getLogger(__name__)

# dimension names run through the comment pipeline minus stopword
# removal: several dimension words ("alone", "us"-like) are classic
# stopwords and must survive to act as seeds
_SEED_CONFIG = PreprocessConfig(stopwords=frozenset())

DEFAULT_K = 10
DEFAULT_POS_THRESHOLD = 4
DEFAULT_NEG_THRESHOLD = 3


@dataclass(frozen=True)
class VenueVector:
    venue_id: str
    vector: np.ndarray


@dataclass(frozen=True)
class UserVenueProfile:
    user_id: str
    positive: np.ndarray
    negative: np.ndarray
    pos_threshold: int
    neg_threshold: int


@dataclass(frozen=True)
class ContextTermSet:
    aspect: str
    dimension: str
    terms: tuple  # sorted, deduplicated
    k: int


@dataclass(frozen=True)
class ContextVector:
    aspect: str
    dimension: str
    vector: np.ndarray


@dataclass(frozen=True)
class GenderVector:
    gender: str
    vector: np.ndarray


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
    acc = np.zeros(store.dimension, dtype=np.float64)
    for comment in venue.comments:
        for tok in comment.tokens:
            v = store.vector_of(tok)
            if v is not None:
                acc += v
    return VenueVector(venue_id=venue.id, vector=acc)


def build_venue_vectors(store, venues):
    """VenueVector for every venue, keyed by id."""
    return {v.id: venue_vector(store, v) for v in venues}


def user_profile_vectors(store, venue_vectors, profile,
                         pos_threshold=DEFAULT_POS_THRESHOLD,
                         neg_threshold=DEFAULT_NEG_THRESHOLD,
                         shifted_negative=False):
    """Rating-weighted sums over the user's positive and negative venues.

    `shifted_negative` weighs negative venues by rating + 1 so that
    zero-rated venues still register; off by default, which follows the
    literal weighting (a rating of 0 annihilates its venue).
    """
    if neg_threshold >= pos_threshold:
        raise ValueError("neg_threshold must be below pos_threshold")
    pos = np.zeros(store.dimension, dtype=np.float64)
    neg = np.zeros(store.dimension, dtype=np.float64)
    skipped = 0
    for venue_id, rating in profile.ratings:
        vv = venue_vectors.get(venue_id)
        if vv is None:
            skipped += 1
            continue
        if rating >= pos_threshold:
            pos += rating * vv.vector
        elif rating <= neg_threshold:
            weight = rating + 1 if shifted_negative else rating
            neg += weight * vv.vector
    if skipped:
        log.warning("user %s: %d rated venues missing from the corpus",
                    profile.user_id, skipped)
    return UserVenueProfile(user_id=profile.user_id, positive=pos,
                            negative=neg, pos_threshold=pos_threshold,
                            neg_threshold=neg_threshold)


def _expand_terms(store, seeds, target, k):
    """Union of top-k terms over subtraction against each sibling seed.

    `seeds` is an ordered list of (dimension, seed vector); every seed
    token of every listed dimension is excluded from the search.
    """
    exclude = set()
    for dim, _ in seeds:
        exclude.update(seed_tokens(dim))
    target_vec = dict(seeds)[target]
    found = set()
    for dim, vec in seeds:
        if dim == target:
            continue
        for hit in similar_k(store, target_vec - vec, k, exclude):
            found.add(hit.term)
    return tuple(sorted(found))


def context_terms(store, aspect, dimension, k=DEFAULT_K,
                  schema=DEFAULT_SCHEMA):
    if k < 1:
        raise ValueError("k must be >= 1")
    dims = schema.dimensions(aspect)
    if dimension not in dims:
        raise ValueError("dimension %r is not legal for aspect %r"
                         % (dimension, aspect))
    seeds = [(d, seed_vector(store, d)) for d in dims]
    terms = _expand_terms(store, seeds, dimension, k)
    return ContextTermSet(aspect=aspect, dimension=dimension, terms=terms,
                          k=k)


def context_vector(store, term_set):
    """Unit-weight sum of the expansion terms' vectors."""
    if not term_set.terms:
        log.warning("empty term set for %s/%s; context vector is zero",
                    term_set.aspect, term_set.dimension)
    acc = np.zeros(store.dimension, dtype=np.float64)
    for term in term_set.terms:
        v = store.vector_of(term)
        if v is None:
            raise VenuerecError("term %r vanished from the store" % term)
        acc += v
    return ContextVector(aspect=term_set.aspect, dimension=term_set.dimension,
                         vector=acc)


def gender_terms(store, gender, k=DEFAULT_K):
    if gender not in GENDERS:
        raise ValueError("gender must be one of %s" % "/".join(GENDERS))
    seeds = [(g, seed_vector(store, g)) for g in GENDERS]
    return ContextTermSet(aspect="gender", dimension=gender,
                          terms=_expand_terms(store, seeds, gender, k), k=k)


def gender_vector(store, gender, k=DEFAULT_K):
    term_set = gender_terms(store, gender, k)
    cv = context_vector(store, term_set)
    return GenderVector(gender=gender, vector=cv.vector)


def build_context_vectors(store, k=DEFAULT_K, schema=DEFAULT_SCHEMA):
    """All (aspect, dimension) context vectors for a schema, in order."""
    out = []
    for aspect in schema.aspect_names():
        for dim in schema.dimensions(aspect):
            out.append(context_vector(store, context_terms(
                store, aspect, dim, k, schema)))
    return out


# ---------------------------------------------------------------------------
# Vector caches, stored in the text embedding format with composite keys
# ---------------------------------------------------------------------------

def _check_cache_key(key):
    if any(ch.isspace() for ch in key):
        raise VenuerecError("cache key %r contains whitespace" % key)


def _write_cache(entries, path):
    entries = sorted(entries)
    dim = len(entries[0][1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % (len(entries), dim))
        for key, vec in entries:
            _check_cache_key(key)
            fh.write(key)
            for x in vec:
                fh.write(" %r" % float(x))
            fh.write("\n")


def _read_cache(path):
    store = load_embeddings(path, format="text")
    return [(t, np.array(store.vector_of(t))) for t in store.terms]


def save_venue_vectors(vectors, path):
    _write_cache([(vv.venue_id, vv.vector) for vv in vectors.values()], path)


def load_venue_vectors(path):
    return {key: VenueVector(venue_id=key, vector=vec)
            for key, vec in _read_cache(path)}


def save_user_vectors(profiles, path):
    entries = []
    for up in profiles.values():
        entries.append((up.user_id + "/pos", up.positive))
        entries.append((up.user_id + "/neg", up.negative))
    _write_cache(entries, path)


def load_user_vectors(path, pos_threshold=DEFAULT_POS_THRESHOLD,
                      neg_threshold=DEFAULT_NEG_THRESHOLD):
    halves = {}
    for key, vec in _read_cache(path):
        user_id, _, side = key.rpartition("/")
        if side not in ("pos", "neg") or not user_id:
            raise FormatError("bad user vector key %r" % key, path=path)
        halves.setdefault(user_id, {})[side] = vec
    out = {}
    for user_id, sides in sorted(halves.items()):
        if set(sides) != {"pos", "neg"}:
            raise FormatError("user %r is missing a profile side" % user_id,
                              path=path)
        out[user_id] = UserVenueProfile(
            user_id=user_id, positive=sides["pos"], negative=sides["neg"],
            pos_threshold=pos_threshold, neg_threshold=neg_threshold)
    return out


def save_context_vectors(context_vectors, gender_vectors, path):
    entries = []
    for cv in context_vectors:
        key = "%s/%s" % (cv.aspect, cv.dimension.replace(" ", "_"))
        entries.append((key, cv.vector))
    for gv in gender_vectors:
        entries.append(("gender/" + gv.gender, gv.vector))
    _write_cache(entries, path)


def load_context_vectors(path):
    by_dim = {}
    by_gender = {}
    for key, vec in _read_cache(path):
        aspect, _, rest = key.partition("/")
        if not rest:
            raise FormatError("bad context vector key %r" % key, path=path)
        if aspect == "gender":
            if rest not in GENDERS:
                raise FormatError("bad gender key %r" % key, path=path)
            by_gender[rest] = GenderVector(gender=rest, vector=vec)
        else:
            dim = rest.replace("_", " ")
            by_dim[(aspect, dim)] = ContextVector(aspect=aspect,
                                                  dimension=dim, vector=vec)
    return by_dim, by_gender
