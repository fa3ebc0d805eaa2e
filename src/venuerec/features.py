"""The 13 ranking features and the SVMlight-style interchange file.

Feature order is fixed: six venue statistics, the two user-taste
cosines, one context cosine per aspect, and the gender cosine.
Everything downstream (training, serialization, ablation reports)
refers to features by this order or by the names below.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import DEFAULT_SCHEMA, numbered_lines
from .embeddings import cosine
from .errors import FormatError

FEATURE_NAMES = (
    "checkins", "likes", "comment_count", "photos", "rating_avg",
    "unique_users", "uv_pos", "uv_neg", "cv_duration", "cv_season",
    "cv_group", "cv_type", "gv",
)

N_FEATURES = len(FEATURE_NAMES)

_STAT_FIELDS = ("checkins", "likes", "comment_count", "photos", "rating_avg",
                "unique_users")


@dataclass(frozen=True)
class FeatureVector:
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


@dataclass(frozen=True)
class ModelSet:
    """Everything extract_features needs, keyed for lookup."""

    venue_vectors: dict
    user_profiles: dict          # user_id -> UserVenueProfile
    context_vectors: dict        # (aspect, dimension) -> ContextVector
    gender_vectors: dict         # gender -> GenderVector
    schema: object = field(default=DEFAULT_SCHEMA)


def extract_features(pair, venue, models, qrels=None):
    """One feature row; degenerate inputs yield zeros, never errors."""
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

    for aspect in models.schema.aspect_names():
        dim = pair.dimension_of(aspect)
        cv = models.context_vectors.get((aspect, dim)) if dim else None
        if w2v is None or cv is None:
            row.append(0.0)
        else:
            row.append(cosine(w2v, cv.vector))

    gv = models.gender_vectors.get(pair.user.gender)
    if w2v is None or gv is None:
        row.append(0.0)
    else:
        row.append(cosine(w2v, gv.vector))

    label = qrels.grade(pair.topic_id, venue_id) if (
        qrels is not None and venue_id is not None) else 0
    return FeatureVector(topic_id=pair.topic_id,
                         venue_id=venue_id if venue_id is not None else "",
                         label=label, features=tuple(row))


def extract_topic(pair, venues_by_id, models, qrels=None):
    """Feature rows for every candidate of one topic, candidate order."""
    rows = []
    for venue_id in pair.candidates:
        venue = venues_by_id.get(venue_id)
        if venue is None:
            # dangling candidate: keep it rankable on zero features
            row = extract_features(pair, None, models, qrels)
            label = qrels.grade(pair.topic_id, venue_id) if qrels else 0
            row = FeatureVector(topic_id=pair.topic_id, venue_id=venue_id,
                                label=label, features=row.features)
        else:
            row = extract_features(pair, venue, models, qrels)
        rows.append(row)
    return rows


def extract_all(pairs, venues_by_id, models, qrels=None):
    rows = []
    for pair in pairs:
        rows.extend(extract_topic(pair, venues_by_id, models, qrels))
    return rows


def normalize_per_topic(rows, columns=range(6)):
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
            replacement[id(r)] = FeatureVector(
                topic_id=r.topic_id, venue_id=r.venue_id, label=r.label,
                features=tuple(float(x) for x in vals))
    return [replacement[id(r)] for r in rows]


# ---------------------------------------------------------------------------
# Feature file I/O
# ---------------------------------------------------------------------------

def write_features(rows, path):
    """Write rows sorted by (topic, venue); returns them in that order.

    Every value is printed with %r, so the returned rows equal what
    read_features loads back from `path`.
    """
    for row in rows:
        for ident in (row.topic_id, row.venue_id):
            if not ident or any(ch.isspace() for ch in ident):
                raise ValueError("identifier %r is empty or has whitespace"
                                 % ident)
    ordered = sorted(rows, key=lambda r: (r.topic_id, r.venue_id))
    with open(path, "w", encoding="utf-8") as fh:
        for row in ordered:
            parts = ["%d" % row.label, "qid:" + row.topic_id]
            for i, x in enumerate(row.features, start=1):
                parts.append("%d:%r" % (i, float(x)))
            parts.append("#")
            parts.append(row.venue_id)
            fh.write(" ".join(parts) + "\n")
    return ordered


def read_features(path):
    rows = []
    for lineno, line in numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        body, sep, venue_id = line.partition(" # ")
        if not sep or not venue_id:
            raise FormatError("missing '# <venue_id>' trailer",
                              path=path, line=lineno)
        parts = body.split(" ")
        if len(parts) != 2 + N_FEATURES:
            raise FormatError(
                "expected label, qid and %d features" % N_FEATURES,
                path=path, line=lineno)
        try:
            label = int(parts[0])
        except ValueError:
            raise FormatError("label %r is not an integer" % parts[0],
                              path=path, line=lineno) from None
        if not parts[1].startswith("qid:") or len(parts[1]) < 5:
            raise FormatError("second field must be qid:<topic>",
                              path=path, line=lineno)
        topic_id = parts[1][4:]
        feats = []
        for i, tok in enumerate(parts[2:], start=1):
            prefix = "%d:" % i
            if not tok.startswith(prefix):
                raise FormatError(
                    "expected feature %d, got %r" % (i, tok),
                    path=path, line=lineno)
            try:
                value = float(tok[len(prefix):])
            except ValueError:
                raise FormatError(
                    "feature %d is not a number" % i,
                    path=path, line=lineno) from None
            if not math.isfinite(value):
                raise FormatError("feature %d is not finite" % i,
                                  path=path, line=lineno)
            feats.append(value)
        rows.append(FeatureVector(topic_id=topic_id, venue_id=venue_id,
                                  label=label, features=tuple(feats)))
    return rows


def feature_matrix(rows):
    """(X, y) arrays in row order; X is float64, y the integer labels."""
    X = np.array([r.features for r in rows], dtype=np.float64)
    y = np.array([r.label for r in rows], dtype=np.float64)
    if X.size == 0:
        X = X.reshape(0, N_FEATURES)
    return X, y
