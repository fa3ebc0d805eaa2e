"""Corpus ingestion: venues, user profiles, context topics, relevance judgments.

All record files are JSON Lines except qrels, which use the classic
whitespace-separated four-column judgment format.  Loaders validate
hard (duplicate ids, illegal values, wrong types all raise with a line
number) but treat dangling venue references as warnings: a candidate
pointing at an unknown venue is kept, it just scores zero later.
"""

import json
import logging
import re
from dataclasses import dataclass, field

from .errors import FormatError
from .text import DEFAULT_CONFIG, preprocess

log = logging.getLogger(__name__)

GENDERS = ("male", "female")

# aspect -> legal dimensions, in canonical order
_DEFAULT_ASPECTS = (
    ("duration", ("day time", "night time", "weekend")),
    ("season", ("spring", "summer", "autumn", "winter")),
    ("group", ("alone", "friends", "family")),
    ("type", ("business", "holiday")),
)


@dataclass(frozen=True)
class ContextSchema:
    """Which contextual dimensions are legal for which aspect."""

    aspects: tuple = _DEFAULT_ASPECTS

    def aspect_names(self):
        return tuple(name for name, _ in self.aspects)

    def dimensions(self, aspect):
        for name, dims in self.aspects:
            if name == aspect:
                return dims
        raise KeyError(aspect)

    def is_legal(self, aspect, dimension):
        for name, dims in self.aspects:
            if name == aspect:
                return dimension in dims
        return False

    @staticmethod
    def normalize_dimension(value):
        return " ".join(str(value).strip().lower().replace("_", " ").split())


DEFAULT_SCHEMA = ContextSchema()


@dataclass(frozen=True)
class VenueStats:
    """Raw LBSN statistics; None marks a value missing at the source."""

    checkins: int = None
    likes: int = None
    comment_count: int = None
    photos: int = None
    rating_avg: float = None
    unique_users: int = None


@dataclass(frozen=True)
class Comment:
    raw: str
    tokens: tuple


@dataclass(frozen=True)
class Venue:
    id: str
    name: str = ""
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
    context: tuple = ()  # (aspect, dimension) pairs, aspect order canonical
    candidates: tuple = ()

    def dimension_of(self, aspect):
        for name, dim in self.context:
            if name == aspect:
                return dim
        return None


class Qrels:
    """Graded judgments keyed by (topic_id, venue_id)."""

    def __init__(self, judgments):
        self._judgments = dict(judgments)
        for (topic, venue), grade in self._judgments.items():
            if grade < 0:
                raise ValueError("negative grade for (%s, %s)" % (topic, venue))

    def grade(self, topic_id, venue_id, default=0):
        return self._judgments.get((topic_id, venue_id), default)

    def is_judged(self, topic_id, venue_id):
        return (topic_id, venue_id) in self._judgments

    def topics(self):
        return sorted({t for t, _ in self._judgments})

    def relevant_venues(self, topic_id, cutoff=1):
        return {v for (t, v), g in self._judgments.items()
                if t == topic_id and g >= cutoff}

    def items(self):
        return sorted(self._judgments.items())

    def __len__(self):
        return len(self._judgments)

    def __eq__(self, other):
        return isinstance(other, Qrels) and self._judgments == other._judgments


# what the surrogateescape handler turns undecodable bytes into
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def numbered_lines(path):
    """``(lineno, line)`` pairs of a UTF-8 text file, 1-based.

    Bytes that are not UTF-8 raise a FormatError naming the line they
    are on, instead of a UnicodeDecodeError from somewhere in the file.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if _UNDECODABLE.search(line):
                raise FormatError("not valid UTF-8", path=path, line=lineno)
            yield lineno, line


def _records(path):
    for lineno, line in numbered_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError("bad JSON (%s)" % exc.msg, path=path,
                              line=lineno) from None
        if not isinstance(obj, dict):
            raise FormatError("record is not an object", path=path,
                              line=lineno)
        yield lineno, obj


def _field(obj, key, kind, path, lineno, required=False):
    if key not in obj or obj[key] is None:
        if required:
            raise FormatError("missing field %r" % key, path=path, line=lineno)
        return None
    value = obj[key]
    if kind is int:
        # bool is an int subclass; floats must be integral to pass
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError("field %r must be a number" % key, path=path,
                              line=lineno)
        if isinstance(value, float):
            if not value.is_integer():
                raise FormatError("field %r must be an integer" % key,
                                  path=path, line=lineno)
            value = int(value)
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError("field %r must be a number" % key, path=path,
                              line=lineno)
        return float(value)
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
    raise AssertionError(kind)


def _non_negative(value, key, path, lineno):
    if value is not None and value < 0:
        raise FormatError("field %r must be non-negative" % key, path=path,
                          line=lineno)
    return value


def load_venues(path, config=DEFAULT_CONFIG):
    venues = []
    seen = set()
    for lineno, obj in _records(path):
        vid = _field(obj, "id", str, path, lineno, required=True)
        if not vid:
            raise FormatError("field 'id' must be non-empty", path=path,
                              line=lineno)
        if vid in seen:
            raise FormatError("duplicate venue id %r" % vid, path=path,
                              line=lineno)
        seen.add(vid)
        stats = VenueStats(
            checkins=_non_negative(
                _field(obj, "checkins", int, path, lineno), "checkins",
                path, lineno),
            likes=_non_negative(
                _field(obj, "likes", int, path, lineno), "likes",
                path, lineno),
            comment_count=_non_negative(
                _field(obj, "comment_count", int, path, lineno),
                "comment_count", path, lineno),
            photos=_non_negative(
                _field(obj, "photos", int, path, lineno), "photos",
                path, lineno),
            rating_avg=_field(obj, "rating_avg", float, path, lineno),
            unique_users=_non_negative(
                _field(obj, "unique_users", int, path, lineno),
                "unique_users", path, lineno),
        )
        if stats.rating_avg is not None and not 0 <= stats.rating_avg <= 10:
            raise FormatError("field 'rating_avg' outside [0, 10]", path=path,
                              line=lineno)
        comments = []
        for raw in _field(obj, "comments", list, path, lineno) or []:
            if not isinstance(raw, str):
                raise FormatError("field 'comments' must hold strings",
                                  path=path, line=lineno)
            comments.append(Comment(raw=raw,
                                    tokens=tuple(preprocess(raw, config))))
        venues.append(Venue(id=vid,
                            name=_field(obj, "name", str, path, lineno) or "",
                            stats=stats, comments=tuple(comments)))
    if not venues:
        raise FormatError("no venue records", path=path)
    return venues


def load_profiles(path, rating_scale=(0, 4)):
    lo, hi = rating_scale
    profiles = []
    seen = set()
    for lineno, obj in _records(path):
        uid = _field(obj, "user_id", str, path, lineno, required=True)
        if not uid:
            raise FormatError("field 'user_id' must be non-empty", path=path,
                              line=lineno)
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
            venue_id = _field(entry, "venue_id", str, path, lineno,
                              required=True)
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


def load_contexts(path, users, schema=DEFAULT_SCHEMA, venues=None):
    """Load context topics; `users` maps user_id -> UserProfile.

    When `venues` (a set of known venue ids, or anything supporting
    `in`) is given, dangling candidates are warned about and kept.
    """
    if not isinstance(users, dict):
        users = {u.user_id: u for u in users}
    pairs = []
    seen = set()
    dangling = 0
    for lineno, obj in _records(path):
        topic_id = _field(obj, "topic_id", str, path, lineno, required=True)
        if not topic_id:
            raise FormatError("field 'topic_id' must be non-empty", path=path,
                              line=lineno)
        if topic_id in seen:
            raise FormatError("duplicate topic id %r" % topic_id, path=path,
                              line=lineno)
        seen.add(topic_id)
        user_id = _field(obj, "user_id", str, path, lineno, required=True)
        if user_id not in users:
            raise FormatError("unknown user id %r" % user_id, path=path,
                              line=lineno)
        raw_context = obj.get("context") or {}
        if not isinstance(raw_context, dict):
            raise FormatError("field 'context' must be an object", path=path,
                              line=lineno)
        bound = []
        for aspect in schema.aspect_names():
            if aspect not in raw_context:
                continue
            dim = schema.normalize_dimension(raw_context[aspect])
            if not schema.is_legal(aspect, dim):
                raise FormatError(
                    "dimension %r is not legal for aspect %r"
                    % (dim, aspect), path=path, line=lineno)
            bound.append((aspect, dim))
        unknown = set(raw_context) - set(schema.aspect_names())
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
            if cand in candidates:
                raise FormatError("duplicate candidate %r" % cand, path=path,
                                  line=lineno)
            if venues is not None and cand not in venues:
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
        key = (topic_id, venue_id)
        if key in judgments:
            raise FormatError("duplicate judgment for (%s, %s)" % key,
                              path=path, line=lineno)
        judgments[key] = grade
    return Qrels(judgments)


# ---------------------------------------------------------------------------
# Writers, used by fixtures and for corpus round-trip checks
# ---------------------------------------------------------------------------

def save_venues(venues, path):
    with open(path, "w", encoding="utf-8") as fh:
        for v in venues:
            obj = {"id": v.id, "name": v.name}
            for key in ("checkins", "likes", "comment_count", "photos",
                        "rating_avg", "unique_users"):
                value = getattr(v.stats, key)
                if value is not None:
                    obj[key] = value
            obj["comments"] = [c.raw for c in v.comments]
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def save_profiles(profiles, path):
    with open(path, "w", encoding="utf-8") as fh:
        for p in profiles:
            obj = {"user_id": p.user_id, "gender": p.gender,
                   "ratings": [{"venue_id": v, "rating": r}
                               for v, r in p.ratings]}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def save_contexts(pairs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            obj = {"topic_id": pair.topic_id, "user_id": pair.user.user_id,
                   "context": dict(pair.context),
                   "candidates": list(pair.candidates)}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def save_qrels(qrels, path):
    with open(path, "w", encoding="utf-8") as fh:
        for (topic_id, venue_id), grade in qrels.items():
            fh.write("%s 0 %s %d\n" % (topic_id, venue_id, grade))
