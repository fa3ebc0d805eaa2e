"""The 13 ranking features and the SVMlight-style interchange file.

Feature order is fixed: six venue statistics, the two user-taste
cosines, one context cosine per aspect, and the gender cosine.
Everything downstream (training, serialization, ablation reports)
refers to features by this order or by the names below.
"""

from dataclasses import dataclass, field

import numpy as np

from .corpus import DEFAULT_SCHEMA, numbered_lines
from .embeddings import cosine
from .errors import FormatError, VenuerecError

FEATURE_NAMES = (
    "checkins", "likes", "comment_count", "photos", "rating_avg",
    "unique_users", "uv_pos", "uv_neg", "cv_duration", "cv_season",
    "cv_group", "cv_type", "gv",
)

N_FEATURES = len(FEATURE_NAMES)

_STAT_FIELDS = ("checkins", "likes", "comment_count", "photos", "rating_avg",
                "unique_users")


class FeatureTableError(VenuerecError, ValueError):
    """A row the feature table cannot hold; `row` is its input index."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class FeatureTable:
    """Feature rows, sorted by topic id and then venue id.

    Row i is candidate ``venue_ids[i]`` of topic ``topic_ids[i]``, with
    label ``labels[i]`` and features ``X[i]``; `bounds` holds each
    topic's ``(start, stop)`` slice.  The arrays are read-only.

    The constructor takes rows in any order, and is the one place where
    rows are sorted and checked: 13 finite features, ids non-empty and
    free of whitespace, 64-bit labels, no (topic, venue) pair twice.  A
    failed check raises FeatureTableError with the bad row's index.
    """

    def __init__(self, topic_ids, venue_ids, labels, X):
        n = len(topic_ids)
        X = np.array(X, dtype=np.float64)
        if not n:
            X = X.reshape(0, N_FEATURES)
        if (X.shape != (n, N_FEATURES)
                or not len(venue_ids) == len(labels) == n):
            raise FeatureTableError("expected ids, labels and %d features for "
                                    "each of %d rows" % (N_FEATURES, n))
        for i, ids in enumerate(zip(topic_ids, venue_ids)):
            for ident in ids:
                # split() cuts at exactly the characters isspace() knows
                if ident.split() != [ident]:
                    raise FeatureTableError(
                        "identifier %r is empty or has whitespace" % ident, i)
        try:
            labels = np.array(labels, dtype=np.int64)
        except OverflowError:
            i = next(i for i, label in enumerate(labels)
                     if not -2 ** 63 <= label < 2 ** 63)
            raise FeatureTableError("label %d does not fit in 64 bits"
                                    % labels[i], i) from None
        bad = np.argwhere(~np.isfinite(X))
        if len(bad):
            i, j = bad[0]
            raise FeatureTableError("feature %d is not finite" % (j + 1),
                                    int(i))
        keys = list(zip(topic_ids, venue_ids))
        order = sorted(range(n), key=keys.__getitem__)
        repeats = [order[k] for k in range(1, n)
                   if keys[order[k]] == keys[order[k - 1]]]
        if repeats:
            i = min(repeats)
            raise FeatureTableError("duplicate row for topic %s venue %s"
                                    % keys[i], i)

        self.topic_ids = tuple(topic_ids[i] for i in order)
        self.venue_ids = tuple(venue_ids[i] for i in order)
        self.labels = labels[order]
        self.X = X[order]
        self.labels.flags.writeable = False
        self.X.flags.writeable = False
        starts = [k for k in range(n)
                  if not k or self.topic_ids[k] != self.topic_ids[k - 1]]
        self.bounds = tuple(zip(starts, starts[1:] + [n]))

    def __len__(self):
        return len(self.topic_ids)


@dataclass(frozen=True)
class ModelSet:
    """Everything extract_features needs, keyed for lookup."""

    venue_vectors: dict
    user_profiles: dict          # user_id -> UserVenueProfile
    context_vectors: dict        # (aspect, dimension) -> ContextVector
    gender_vectors: dict         # gender -> GenderVector
    schema: object = field(default=DEFAULT_SCHEMA)


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
    return tuple(row)


def extract_all(pairs, venues_by_id, models, qrels=None):
    """The FeatureTable of every candidate of every pair.

    A dangling candidate, one missing from `venues_by_id`, keeps its id
    and label and is ranked on zero features.
    """
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


def normalize_per_topic(table, columns=range(6)):
    """Min-max scale the given feature columns within each topic.

    Intended for the linear learner on raw count features; a constant
    column maps to 0.  Returns a new FeatureTable; a range that
    overflows a float raises FeatureTableError.
    """
    columns = tuple(columns)
    X = table.X.copy()
    for start, stop in table.bounds:
        for c in columns:
            col = X[start:stop, c]
            lo = col.min()
            with np.errstate(over="ignore"):
                span = col.max() - lo
            if span == np.inf:
                raise FeatureTableError(
                    "topic %s: feature %d is not finite once scaled: its "
                    "range overflows a float"
                    % (table.topic_ids[start], c + 1))
            if span > 0.0:
                col[:] = (col - lo) / span
            else:
                col[:] = 0.0
    return FeatureTable(table.topic_ids, table.venue_ids, table.labels, X)


# ---------------------------------------------------------------------------
# Feature file I/O
# ---------------------------------------------------------------------------

def write_features(table, path):
    """Write a FeatureTable, one line a row in table order.

    Every value is printed with %r, so read_features loads back a table
    equal to `table` bit for bit.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for topic_id, venue_id, label, row in zip(
                table.topic_ids, table.venue_ids, table.labels.tolist(),
                table.X.tolist()):
            features = " ".join("%d:%r" % (i, x)
                                for i, x in enumerate(row, start=1))
            fh.write("%d qid:%s %s # %s\n"
                     % (label, topic_id, features, venue_id))


def read_features(path):
    """The FeatureTable a features file holds.

    A bad row, a repeated (topic, venue) pair included, is a FormatError
    naming its line.
    """
    topic_ids, venue_ids, labels, rows, linenos = [], [], [], [], []
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
        feats = []
        for i, tok in enumerate(parts[2:], start=1):
            prefix = "%d:" % i
            if not tok.startswith(prefix):
                raise FormatError(
                    "expected feature %d, got %r" % (i, tok),
                    path=path, line=lineno)
            try:
                feats.append(float(tok[len(prefix):]))
            except ValueError:
                raise FormatError(
                    "feature %d is not a number" % i,
                    path=path, line=lineno) from None
        topic_ids.append(parts[1][4:])
        venue_ids.append(venue_id)
        labels.append(label)
        rows.append(feats)
        linenos.append(lineno)
    try:
        return FeatureTable(topic_ids, venue_ids, labels, rows)
    except FeatureTableError as exc:
        raise FormatError(str(exc), path=path, line=linenos[exc.row]) \
            from None
