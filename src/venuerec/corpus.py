"""Corpus ingestion: venues, user profiles, context topics, relevance judgments.

All record files are JSON Lines except qrels, which use the classic
whitespace-separated four-column judgment format.  Loaders validate
hard (duplicate ids, illegal values, wrong types all raise with a line
number) but treat dangling venue references as warnings: a candidate
pointing at an unknown venue is kept, it just scores zero later.

A loaded venue keeps its id, its statistics and the stemmed tokens of
each comment.  Its name and the raw comment text are checked, then
dropped: nothing downstream reads them.
"""

import logging
import sys
from dataclasses import dataclass, field, fields

from .errors import FormatError, decode_json, numbered_lines
from .text import preprocess

log = logging.getLogger(__name__)

GENDERS = ("male", "female")

# the TREC contextual aspects, each with its legal dimensions, in
# canonical order
ASPECTS = {
    "duration": ("day time", "night time", "weekend"),
    "season": ("spring", "summer", "autumn", "winter"),
    "group": ("alone", "friends", "family"),
    "type": ("business", "holiday"),
}


@dataclass(frozen=True, slots=True)
class VenueStats:
    """Raw LBSN statistics; None marks a value missing at the source."""

    checkins: int = None
    likes: int = None
    comment_count: int = None
    photos: int = None
    rating_avg: float = None
    unique_users: int = None


@dataclass(frozen=True, slots=True)
class Comment:
    tokens: tuple  # stemmed; the raw text is not kept


@dataclass(frozen=True, slots=True)
class Venue:
    id: str
    stats: VenueStats = field(default_factory=VenueStats)
    comments: tuple = ()


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    gender: str
    ratings: tuple = ()  # (venue_id, integer rating) pairs


@dataclass(frozen=True)
class ContextPair:
    topic_id: str
    user: UserProfile
    context: tuple = ()  # (aspect, dimension) pairs in ASPECTS order
    candidates: tuple = ()

    def dimension_of(self, aspect):
        for name, dim in self.context:
            if name == aspect:
                return dim
        return None


class Qrels:
    """Graded judgments keyed by (topic_id, venue_id), indexed by topic;
    every grade is non-negative, as load_qrels checks."""

    def __init__(self, judgments):
        self._by_topic = {}
        for (topic, venue), grade in dict(judgments).items():
            self._by_topic.setdefault(topic, {})[venue] = grade

    def grade(self, topic_id, venue_id):
        """The grade of the pair; 0 when it is not judged."""
        return self._by_topic.get(topic_id, {}).get(venue_id, 0)

    def topics(self):
        return sorted(self._by_topic)

    def relevant_venues(self, topic_id, cutoff):
        return {v for v, g in self._by_topic.get(topic_id, {}).items()
                if g >= cutoff}

    def __len__(self):
        return sum(len(grades) for grades in self._by_topic.values())

    def __eq__(self, other):
        return isinstance(other, Qrels) and self._by_topic == other._by_topic


def _records(path):
    for lineno, line in numbered_lines(path):
        if not line.strip():
            continue
        obj = decode_json(line, path, lineno)
        if not isinstance(obj, dict):
            raise FormatError("record is not an object", path=path,
                              line=lineno)
        yield lineno, obj


def _field(obj, key, kind, path, lineno, required=False):
    """`obj[key]` checked as a `kind`: int, float, str or list."""
    if key not in obj or obj[key] is None:
        if required:
            raise FormatError("missing field %r" % key, path=path, line=lineno)
        return None
    value = obj[key]
    if kind is int or kind is float:
        # bool is an int subclass; JSON reads 1e400 as inf, and float()
        # overflows on an integer such as 10**400
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError("field %r must be a number" % key, path=path,
                              line=lineno)
        if not -sys.float_info.max <= value <= sys.float_info.max:
            raise FormatError("field %r does not fit a finite float" % key,
                              path=path, line=lineno)
        if kind is float:
            return float(value)
        # floats must be integral to pass
        if isinstance(value, float) and not value.is_integer():
            raise FormatError("field %r must be an integer" % key,
                              path=path, line=lineno)
        return int(value)
    if kind is str:
        if not isinstance(value, str):
            raise FormatError("field %r must be a string" % key, path=path,
                              line=lineno)
        return value
    if kind is list:
        if not isinstance(value, list):
            raise FormatError("field %r must be a list" % key, path=path,
                              line=lineno)
        return value


def _has_space(text):
    """Whether non-empty `text` holds a character that `str.isspace` names;
    `str.split` splits on exactly those."""
    return text.split() != [text]


def _encodes(text):
    """Whether `text` has a UTF-8 form; a JSON escape such as ``\\udc80``
    can name a lone surrogate, which has none."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _identifier(obj, key, path, lineno):
    """A required id field: a non-empty string without whitespace that
    encodes to UTF-8.

    Ids end up as whitespace-separated tokens in the vector caches and
    the features, run and qrels files.
    """
    value = _field(obj, key, str, path, lineno, required=True)
    if not value:
        raise FormatError("field %r must be non-empty" % key, path=path,
                          line=lineno)
    if _has_space(value):
        raise FormatError("field %r must not contain whitespace, got %r"
                          % (key, value), path=path, line=lineno)
    if not _encodes(value):
        raise FormatError("field %r is not valid UTF-8 text, got %r"
                          % (key, value), path=path, line=lineno)
    return value


def load_venues(path):
    venues = []
    seen = set()
    for lineno, obj in _records(path):
        vid = _identifier(obj, "id", path, lineno)
        if vid in seen:
            raise FormatError("duplicate venue id %r" % vid, path=path,
                              line=lineno)
        seen.add(vid)
        values = {}
        for stat in fields(VenueStats):
            value = _field(obj, stat.name, stat.type, path, lineno)
            # the counts, the int fields, are never negative
            if stat.type is int and value is not None and value < 0:
                raise FormatError("field %r must be non-negative" % stat.name,
                                  path=path, line=lineno)
            values[stat.name] = value
        stats = VenueStats(**values)
        if stats.rating_avg is not None and not 0 <= stats.rating_avg <= 10:
            raise FormatError("field 'rating_avg' outside [0, 10]", path=path,
                              line=lineno)
        comments = []
        for raw in _field(obj, "comments", list, path, lineno) or []:
            if not isinstance(raw, str):
                raise FormatError("field 'comments' must hold strings",
                                  path=path, line=lineno)
            comments.append(Comment(tokens=tuple(preprocess(raw))))
        _field(obj, "name", str, path, lineno)  # checked, not kept
        venues.append(Venue(id=vid, stats=stats, comments=tuple(comments)))
    if not venues:
        raise FormatError("no venue records", path=path)
    return venues


def load_profiles(path, rating_scale):
    lo, hi = rating_scale
    profiles = []
    seen = set()
    for lineno, obj in _records(path):
        uid = _identifier(obj, "user_id", path, lineno)
        if uid in seen:
            raise FormatError("duplicate user id %r" % uid, path=path,
                              line=lineno)
        seen.add(uid)
        gender = _field(obj, "gender", str, path, lineno, required=True)
        if gender not in GENDERS:
            raise FormatError("field 'gender' must be one of %s, got %r"
                              % ("/".join(GENDERS), gender),
                              path=path, line=lineno)
        ratings = []
        rated = set()
        for entry in _field(obj, "ratings", list, path, lineno) or []:
            if not isinstance(entry, dict):
                raise FormatError("field 'ratings' must hold objects",
                                  path=path, line=lineno)
            venue_id = _identifier(entry, "venue_id", path, lineno)
            rating = _field(entry, "rating", int, path, lineno, required=True)
            if venue_id in rated:
                raise FormatError("duplicate rating for venue %r" % venue_id,
                                  path=path, line=lineno)
            rated.add(venue_id)
            if not lo <= rating <= hi:
                raise FormatError(
                    "field 'rating' %d outside scale [%d, %d]"
                    % (rating, lo, hi), path=path, line=lineno)
            ratings.append((venue_id, rating))
        profiles.append(UserProfile(user_id=uid, gender=gender,
                                    ratings=tuple(ratings)))
    if not profiles:
        raise FormatError("no user profile records", path=path)
    return profiles


def load_contexts(path, users, venues):
    """Load context topics over the aspects in ASPECTS; `users` maps
    user_id -> UserProfile.

    Candidates missing from `venues` (known venue ids, or anything
    supporting `in`) are dangling: they are warned about and kept.
    """
    pairs = []
    seen = set()
    dangling = 0
    for lineno, obj in _records(path):
        topic_id = _identifier(obj, "topic_id", path, lineno)
        if topic_id in seen:
            raise FormatError("duplicate topic id %r" % topic_id, path=path,
                              line=lineno)
        seen.add(topic_id)
        user_id = _field(obj, "user_id", str, path, lineno, required=True)
        if user_id not in users:
            raise FormatError("unknown user id %r" % user_id, path=path,
                              line=lineno)
        raw_context = obj.get("context")
        if raw_context is None:
            raw_context = {}
        elif not isinstance(raw_context, dict):
            raise FormatError("field 'context' must be an object", path=path,
                              line=lineno)
        bound = []
        for aspect, dims in ASPECTS.items():
            if aspect not in raw_context:
                continue
            dim = " ".join(
                str(raw_context[aspect]).lower().replace("_", " ").split())
            if dim not in dims:
                raise FormatError(
                    "dimension %r is not legal for aspect %r"
                    % (dim, aspect), path=path, line=lineno)
            bound.append((aspect, dim))
        unknown = set(raw_context) - set(ASPECTS)
        if unknown:
            raise FormatError("unknown aspect %r" % sorted(unknown)[0],
                              path=path, line=lineno)
        candidates = []
        for cand in _field(obj, "candidates", list, path, lineno,
                           required=True):
            if not isinstance(cand, str) or not cand:
                raise FormatError(
                    "field 'candidates' must hold non-empty strings",
                    path=path, line=lineno)
            if _has_space(cand):
                raise FormatError("candidate %r contains whitespace" % cand,
                                  path=path, line=lineno)
            if not _encodes(cand):
                raise FormatError("candidate %r is not valid UTF-8 text"
                                  % cand, path=path, line=lineno)
            if cand in candidates:
                raise FormatError("duplicate candidate %r" % cand, path=path,
                                  line=lineno)
            if cand not in venues:
                dangling += 1
            candidates.append(cand)
        pairs.append(ContextPair(topic_id=topic_id, user=users[user_id],
                                 context=tuple(bound),
                                 candidates=tuple(candidates)))
    if dangling:
        log.warning("%d candidate venue ids not present in the venue corpus "
                    "(kept; they will score zero)", dangling)
    return pairs


def load_qrels(path):
    judgments = {}
    for lineno, line in numbered_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise FormatError("expected 4 columns, got %d" % len(parts),
                              path=path, line=lineno)
        topic_id, _unused, venue_id, grade_s = parts
        try:
            grade = int(grade_s)
        except ValueError:
            raise FormatError("grade %r is not an integer" % grade_s,
                              path=path, line=lineno) from None
        if grade < 0:
            raise FormatError("grade must be >= 0", path=path, line=lineno)
        if grade >= 2 ** 63:
            # feature tables hold labels as 64-bit integers
            raise FormatError("grade must fit in 64 bits", path=path,
                              line=lineno)
        key = (topic_id, venue_id)
        if key in judgments:
            raise FormatError("duplicate judgment for (%s, %s)" % key,
                              path=path, line=lineno)
        judgments[key] = grade
    return Qrels(judgments)
