"""Run files, ranking metrics, and significance testing.

A run is the ranked output of one system over a set of topics.  On disk
it uses the classic six-column layout::

    <topic> Q0 <venue> <rank> <score> <tag>

Scores are serialized with six decimal places, so a written run loads
back to exactly the values a second write would produce.
"""

import dataclasses
import math

from .corpus import numbered_lines
from .errors import FormatError, VenuerecError


def rank_candidates(venue_ids, scores, depth):
    """Order candidates by score descending, venue id ascending on ties.

    `scores` is aligned with `venue_ids`.  Returns a tuple of
    ``(venue_id, rank, score)`` entries with ranks starting at 1, the
    first `depth` of them.
    """
    order = sorted(range(len(venue_ids)),
                   key=lambda i: (-float(scores[i]), venue_ids[i]))[:depth]
    return tuple((venue_ids[i], rank, float(scores[i]))
                 for rank, i in enumerate(order, start=1))


@dataclasses.dataclass(frozen=True)
class RankedRun:
    """Ranked entries per topic under a single system tag."""

    tag: str
    topics: dict

    def entries(self, topic_id):
        return self.topics.get(topic_id, ())

    def topic_ids(self):
        return sorted(self.topics)


def ranked_run(tag, scored, depth):
    """Build a RankedRun from ``{topic: [(venue_id, score), ...]}``; a
    topic's venue ids are unique, as FeatureTable rows are."""
    topics = {}
    for topic_id in sorted(scored):
        pairs = scored[topic_id]
        ids = [v for v, _ in pairs]
        vals = [s for _, s in pairs]
        topics[topic_id] = rank_candidates(ids, vals, depth=depth)
    return RankedRun(tag=tag, topics=topics)


def write_run(run, path):
    with open(path, "w", encoding="utf-8") as fh:
        for topic_id in run.topic_ids():
            for venue_id, rank, score in run.entries(topic_id):
                fh.write("%s Q0 %s %d %.6f %s\n"
                         % (topic_id, venue_id, rank, score, run.tag))


def load_run(path):
    """Parse a six-column run file, checking rank and score sanity.

    Within a topic the ranks must be contiguous from 1 in file order,
    scores must be non-increasing, and no venue may repeat.
    """
    tag = None
    topics = {}
    seen = {}
    for lineno, line in numbered_lines(path):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 6:
            raise FormatError("expected 6 columns, got %d" % len(parts),
                              path=path, line=lineno)
        topic_id, q0, venue_id, rank_s, score_s, line_tag = parts
        if q0 != "Q0":
            raise FormatError("second column must be Q0, got %r" % q0,
                              path=path, line=lineno)
        try:
            rank = int(rank_s)
            score = float(score_s)
        except ValueError:
            raise FormatError("bad rank or score", path=path, line=lineno)
        if not math.isfinite(score):
            raise FormatError("non-finite score", path=path, line=lineno)
        if tag is None:
            tag = line_tag
        elif line_tag != tag:
            raise FormatError("tag changed from %r to %r" % (tag, line_tag),
                              path=path, line=lineno)
        entries = topics.setdefault(topic_id, [])
        if rank != len(entries) + 1:
            raise FormatError(
                "topic %s: expected rank %d, got %d"
                % (topic_id, len(entries) + 1, rank),
                path=path, line=lineno)
        if entries and score > entries[-1][2]:
            raise FormatError(
                "topic %s: score increases at rank %d" % (topic_id, rank),
                path=path, line=lineno)
        if venue_id in seen.setdefault(topic_id, set()):
            raise FormatError(
                "topic %s: duplicate venue %s" % (topic_id, venue_id),
                path=path, line=lineno)
        seen[topic_id].add(venue_id)
        entries.append((venue_id, rank, score))
    if tag is None:
        raise FormatError("run file is empty", path=path)
    return RankedRun(tag=tag,
                     topics={t: tuple(e) for t, e in topics.items()})


def topic_precision_at_k(entries, relevant):
    """P@5: the fraction of the first 5 entries that are relevant; always
    over 5."""
    hits = sum(1 for venue_id, _, _ in entries[:5] if venue_id in relevant)
    return hits / 5


def topic_reciprocal_rank(entries, relevant):
    for venue_id, rank, _ in entries:
        if venue_id in relevant:
            return 1.0 / rank
    return 0.0


@dataclasses.dataclass(frozen=True)
class MetricReport:
    """Per-topic and averaged scores for one run against one qrels set."""

    per_topic: tuple       # ((topic_id, p_at_k, rr), ...) included topics
    mean_p_at_k: float
    mrr: float
    excluded: tuple        # topic ids dropped from the averages


def evaluate_run(run, qrels, cutoff, include_empty):
    """Score a run: P@5 and reciprocal rank per topic.

    Topics with no judgments at all are always excluded from the
    averages.  Judged topics with no venue at or above `cutoff`
    are excluded too unless `include_empty` is set, which scores
    them as zero.
    """
    judged = set(qrels.topics())
    if not judged.intersection(run.topics):
        raise VenuerecError("run and qrels share no topics")
    per_topic = []
    excluded = []
    for topic_id in run.topic_ids():
        if topic_id not in judged:
            excluded.append(topic_id)
            continue
        relevant = qrels.relevant_venues(topic_id, cutoff=cutoff)
        if not relevant and not include_empty:
            excluded.append(topic_id)
            continue
        entries = run.entries(topic_id)
        per_topic.append((topic_id,
                          topic_precision_at_k(entries, relevant),
                          topic_reciprocal_rank(entries, relevant)))
    if per_topic:
        mean_p = sum(p for _, p, _ in per_topic) / len(per_topic)
        mrr = sum(rr for _, _, rr in per_topic) / len(per_topic)
    else:
        mean_p = 0.0
        mrr = 0.0
    return MetricReport(per_topic=tuple(per_topic), mean_p_at_k=mean_p,
                        mrr=mrr, excluded=tuple(excluded))


def format_report(report):
    lines = []
    for topic_id, p, _ in report.per_topic:
        lines.append("P5\t%s\t%.6f" % (topic_id, p))
    lines.append("P5\tall\t%.6f" % report.mean_p_at_k)
    for topic_id, _, rr in report.per_topic:
        lines.append("RR\t%s\t%.6f" % (topic_id, rr))
    lines.append("MRR\tall\t%.6f" % report.mrr)
    lines.append("# excluded_topics\t%d" % len(report.excluded))
    for topic_id in report.excluded:
        lines.append("# excluded\t%s" % topic_id)
    return "\n".join(lines) + "\n"


def write_report(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report))


def student_t_two_sided_p(t, df):
    """P(|T| >= |t|) for a Student-t variable with an integer `df` >= 1
    degrees of freedom, by the finite series of Abramowitz & Stegun
    26.7.3 (odd df) and 26.7.4 (even df)."""
    theta = math.atan(abs(t) / math.sqrt(df))
    sin, cos = math.sin(theta), math.cos(theta)
    odd = df % 2
    # the series sums df // 2 terms in cos^(2k), k = 0, 1, ...; term k
    # is term k - 1 times cos^2 (2k - 1) / (2k) for even df and
    # cos^2 (2k) / (2k + 1) for odd df
    term = 1.0
    total = 0.0
    for k in range(df // 2):
        total += term
        term *= cos * cos * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    if odd:
        inside = 2.0 / math.pi * (theta + sin * cos * total)
    else:
        inside = sin * total
    # rounding can lift the sum past 1 in the far tail
    return max(0.0, 1.0 - inside)


@dataclasses.dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: int
    p_value: float
    n: int


def paired_t_test(a, b):
    """Two-sided paired t-test on matched score lists of at least 2
    pairs, which `cli.eval_step` pairs by topic.

    A zero-variance difference vector degenerates: the statistic is 0
    (p = 1) when the mean difference is zero, otherwise signed infinity
    (p = 0).
    """
    a = list(a)
    b = list(b)
    n = len(a)
    diffs = [float(x) - float(y) for x, y in zip(a, b)]
    mean = sum(diffs) / n
    ss = sum((d - mean) ** 2 for d in diffs)
    df = n - 1
    if ss == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, df, 1.0, n)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(t, df, 0.0, n)
    sd = math.sqrt(ss / df)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t, df, student_t_two_sided_p(t, df), n)
