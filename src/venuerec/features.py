"""The 13 ranking features and the SVMlight-style interchange file.

Feature order is fixed: six venue statistics, the two user-taste
cosines, one context cosine per aspect of ``corpus.ASPECTS``, and the
gender cosine.  Everything downstream (training, serialization,
ablation reports) refers to features by this order or by the names
below.  ``profiles.extract_all`` computes them; this module holds the
table, its file format and the per-topic scaling, and imports nothing
of the text, corpus or embedding modules.
"""

import re
import struct

import numpy as np

from .errors import FormatError, VenuerecError, numbered_lines

FEATURE_NAMES = (
    "checkins", "likes", "comment_count", "photos", "rating_avg",
    "unique_users", "uv_pos", "uv_neg", "cv_duration", "cv_season",
    "cv_group", "cv_type", "gv",
)

N_FEATURES = len(FEATURE_NAMES)

STAT_FIELDS = FEATURE_NAMES[:6]


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

        self._hold(tuple(topic_ids[i] for i in order),
                   tuple(venue_ids[i] for i in order),
                   labels[order], X[order])

    @classmethod
    def _presorted(cls, topic_ids, venue_ids, labels, X):
        """A table of rows that are checked and in canonical order already.

        For tables derived from another one, with the same rows or a
        subset of them in the same order; nothing is sorted or checked.
        """
        table = cls.__new__(cls)
        table._hold(tuple(topic_ids), tuple(venue_ids), labels, X)
        return table

    def _hold(self, topic_ids, venue_ids, labels, X):
        self.topic_ids = topic_ids
        self.venue_ids = venue_ids
        self.labels = labels
        self.X = X
        self.labels.flags.writeable = False
        self.X.flags.writeable = False
        n = len(topic_ids)
        starts = [k for k in range(n)
                  if not k or topic_ids[k] != topic_ids[k - 1]]
        self.bounds = tuple(zip(starts, starts[1:] + [n]))

    def __len__(self):
        return len(self.topic_ids)


def normalize_per_topic(table):
    """Min-max scale the six venue statistics within each topic.

    Intended for the linear learner on raw count features; a constant
    column maps to 0.  Returns a new FeatureTable; a range that
    overflows a float raises FeatureTableError.
    """
    X = table.X.copy()
    for start, stop in table.bounds:
        for c in range(len(STAT_FIELDS)):
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
    return FeatureTable._presorted(table.topic_ids, table.venue_ids,
                                   table.labels, X)


# ---------------------------------------------------------------------------
# Feature file I/O
# ---------------------------------------------------------------------------

# One row's line: label, topic, the features numbered from 1, venue.
_ROW_FORMAT = ("%d qid:%s "
               + "".join("%d:%%r " % i for i in range(1, N_FEATURES + 1))
               + "# %s\n")


def write_features(table, path):
    """Write a FeatureTable, one line a row in table order.

    Every value is printed with %r, so read_features loads back a table
    equal to `table` bit for bit.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for topic_id, venue_id, label, row in zip(
                table.topic_ids, table.venue_ids, table.labels.tolist(),
                table.X.tolist()):
            fh.write(_ROW_FORMAT % (label, topic_id, *row, venue_id))


# A row's 13 features as packed doubles, which read_features collects
# in one bytearray rather than as float objects.
_PACK_ROW = struct.Struct("%dd" % N_FEATURES).pack

# One row as write_features lays it out, newline included.
_ROW = re.compile("(-?[0-9]+) qid:(\\S+) "
                  + "".join("%d:(\\S+) " % i for i in range(1, N_FEATURES + 1))
                  + "# (\\S+)\n")


def read_features(path):
    """The FeatureTable a features file holds.

    A bad row, a repeated (topic, venue) pair included, is a FormatError
    naming its line.  A file laid out exactly as write_features writes
    it, in strict UTF-8, is read by one regular expression a line; at
    the first line that is not (or a value float() refuses), the whole
    file is read again by the line parser, which gives the same table
    or names the bad line.
    """
    try:
        rows = _match_features(path)
    except ValueError:
        rows = None
    if rows is None:
        rows = _parse_feature_lines(path)
    topic_ids, venue_ids, labels, values, linenos = rows
    try:
        return FeatureTable(topic_ids, venue_ids, labels,
                            np.frombuffer(values).reshape(-1, N_FEATURES))
    except FeatureTableError as exc:
        raise FormatError(str(exc), path=path, line=linenos[exc.row]) \
            from None


def _match_features(path):
    """The rows of a features file in the layout `_ROW` matches, each
    line one row; None at the first line that does not match.  A byte
    that is not UTF-8 raises UnicodeDecodeError, a value float() does
    not take ValueError."""
    topic_ids, venue_ids, labels, values = [], [], [], bytearray()
    match = _ROW.fullmatch
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            m = match(line)
            if m is None:
                return None
            label, topic_id, *features, venue_id = m.groups()
            labels.append(int(label))
            topic_ids.append(topic_id)
            venue_ids.append(venue_id)
            values += _PACK_ROW(*map(float, features))
    return topic_ids, venue_ids, labels, values, range(1, len(labels) + 1)


def _parse_feature_lines(path):
    """The rows of a features file, line by line, with their line
    numbers; a line that is not a row is a FormatError naming it."""
    topic_ids, venue_ids, labels, values, linenos = [], [], [], \
        bytearray(), []
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
        values += _PACK_ROW(*feats)
        linenos.append(lineno)
    return topic_ids, venue_ids, labels, values, linenos
