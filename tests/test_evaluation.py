"""Run round trips, metric arithmetic, the paired t-test and its
Student-t tail."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from venuerec.cli import SETTINGS
from venuerec.errors import FormatError, VenuerecError
from venuerec.evaluation import (
    MetricReport,
    Qrels,
    evaluate_run,
    format_report,
    load_run,
    paired_t_test,
    rank_candidates,
    ranked_run,
    student_t_two_sided_p,
    topic_precision_at_k,
    topic_reciprocal_rank,
    write_report,
    write_run,
)

DEPTH = SETTINGS["depth"].default
CUTOFF = SETTINGS["cutoff"].default
INCLUDE_EMPTY = SETTINGS["include_empty"].default


def scores_of(report):
    """``{topic: (P@5, RR)}`` of the topics a report includes."""
    return {topic: (p, rr) for topic, p, rr in report.per_topic}


def brute_order(pairs):
    """Rank by repeated extraction of the current best pair."""
    pool = list(pairs)
    out = []
    while pool:
        best = pool[0]
        for cand in pool[1:]:
            if cand[1] > best[1] or (cand[1] == best[1] and cand[0] < best[0]):
                best = cand
        pool.remove(best)
        out.append(best[0])
    return out


def brute_p_at_k(ordered_ids, relevant, k):
    hits = 0
    for venue_id in ordered_ids[:k]:
        if venue_id in relevant:
            hits += 1
    return hits / k


def brute_rr(ordered_ids, relevant):
    for pos, venue_id in enumerate(ordered_ids):
        if venue_id in relevant:
            return 1.0 / (pos + 1)
    return 0.0


class TestRankCandidates:
    def test_orders_by_score_descending(self):
        entries = rank_candidates(["a", "b", "c"], [0.1, 0.9, 0.5], DEPTH)
        assert [e[0] for e in entries] == ["b", "c", "a"]
        assert [e[1] for e in entries] == [1, 2, 3]

    def test_ties_break_by_venue_id(self):
        entries = rank_candidates(["z9", "a1", "m5"], [0.5, 0.5, 0.5], DEPTH)
        assert [e[0] for e in entries] == ["a1", "m5", "z9"]

    def test_depth_truncates(self):
        entries = rank_candidates(list("abcdef"), [6, 5, 4, 3, 2, 1], depth=2)
        assert len(entries) == 2
        assert entries[-1] == ("b", 2, 5.0)


class TestTopicMetrics:
    def test_two_relevant_in_top_five(self):
        entries = rank_candidates(list("abcdefgh"),
                                  [8, 7, 6, 5, 4, 3, 2, 1], DEPTH)
        assert topic_precision_at_k(entries, {"b", "d"}) == 0.4
        assert topic_reciprocal_rank(entries, {"b", "d"}) == 0.5

    def test_first_relevant_at_rank_three(self):
        entries = rank_candidates(list("abcde"), [5, 4, 3, 2, 1], DEPTH)
        assert topic_reciprocal_rank(entries, {"c"}) == pytest.approx(1 / 3)

    def test_denominator_is_always_k(self):
        # Three candidates, two relevant: still divided by five.
        entries = rank_candidates(["a", "b", "c"], [3, 2, 1], DEPTH)
        assert topic_precision_at_k(entries, {"a", "c"}) == 0.4

    def test_no_relevant(self):
        entries = rank_candidates(["a", "b"], [2, 1], DEPTH)
        assert topic_precision_at_k(entries, {"z"}) == 0.0
        assert topic_reciprocal_rank(entries, {"z"}) == 0.0

    def test_tie_admits_lexicographically_smaller_venue(self):
        # b and c tie on score; only five slots and the relevant one is c.
        ids = ["a", "b", "c", "d", "e", "f"]
        scores = [9, 5, 5, 8, 7, 6]
        entries = rank_candidates(ids, scores, DEPTH)
        assert [e[0] for e in entries] == ["a", "d", "e", "f", "b", "c"]
        assert topic_precision_at_k(entries, {"c"}) == 0.0
        assert topic_precision_at_k(entries, {"b"}) == 0.2

    def test_randomized_against_brute_force(self):
        import random

        rng = random.Random(1812)
        for case in range(50):
            n = rng.randint(1, 25)
            ids = ["v%02d" % i for i in range(n)]
            rng.shuffle(ids)
            scores = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in ids]
            relevant = {v for v in ids if rng.random() < 0.3}
            entries = rank_candidates(ids, scores, DEPTH)
            ordered = brute_order(list(zip(ids, scores)))
            assert [e[0] for e in entries] == ordered
            assert topic_precision_at_k(entries, relevant) == brute_p_at_k(
                ordered, relevant, 5)
            assert topic_reciprocal_rank(entries, relevant) == brute_rr(
                ordered, relevant)


class TestRunFiles:
    def make_run(self):
        return ranked_run("sys1", {
            "q2": [("vA", 1.25), ("vB", 0.5)],
            "q1": [("vC", 0.333333), ("vA", 3.0), ("vZ", -0.25)],
        }, DEPTH)

    def test_write_format(self, tmp_path):
        path = tmp_path / "run.txt"
        write_run(self.make_run(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "q1 Q0 vA 1 3.000000 sys1"
        assert lines[1] == "q1 Q0 vC 2 0.333333 sys1"
        assert lines[2] == "q1 Q0 vZ 3 -0.250000 sys1"
        assert lines[3] == "q2 Q0 vA 1 1.250000 sys1"
        assert len(lines) == 5

    def test_round_trip_is_a_fixpoint(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_run(self.make_run(), first)
        write_run(load_run(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_load_preserves_rounded_scores(self, tmp_path):
        path = tmp_path / "run.txt"
        write_run(self.make_run(), path)
        run = load_run(path)
        assert run.tag == "sys1"
        assert run.entries("q1")[1] == ("vC", 2, 0.333333)

    def test_depth_cap_applies_at_build_time(self):
        pairs = [("v%03d" % i, float(100 - i)) for i in range(80)]
        run = ranked_run("t", {"q1": pairs}, DEPTH)
        assert len(run.entries("q1")) == 50
        deep = ranked_run("t", {"q1": pairs}, 100)
        assert len(deep.entries("q1")) == 80

    def write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.txt"
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_rejects_wrong_column_count(self, tmp_path):
        path = self.write_lines(tmp_path, ["q1 Q0 vA 1 0.5"])
        with pytest.raises(FormatError, match="6 columns"):
            load_run(path)

    def test_rejects_missing_q0(self, tmp_path):
        path = self.write_lines(tmp_path, ["q1 XX vA 1 0.5 tag"])
        with pytest.raises(FormatError, match="Q0"):
            load_run(path)

    def test_rejects_rank_gap(self, tmp_path):
        path = self.write_lines(tmp_path, [
            "q1 Q0 vA 1 0.9 tag",
            "q1 Q0 vB 3 0.8 tag",
        ])
        with pytest.raises(FormatError, match="expected rank 2, got 3"):
            load_run(path)

    def test_rejects_score_inversion(self, tmp_path):
        path = self.write_lines(tmp_path, [
            "q1 Q0 vA 1 0.5 tag",
            "q1 Q0 vB 2 0.9 tag",
        ])
        with pytest.raises(FormatError, match="score increases"):
            load_run(path)

    def test_rejects_duplicate_venue(self, tmp_path):
        path = self.write_lines(tmp_path, [
            "q1 Q0 vA 1 0.9 tag",
            "q1 Q0 vA 2 0.8 tag",
        ])
        with pytest.raises(FormatError, match="duplicate venue vA"):
            load_run(path)

    def test_rejects_tag_change(self, tmp_path):
        path = self.write_lines(tmp_path, [
            "q1 Q0 vA 1 0.9 tagA",
            "q1 Q0 vB 2 0.8 tagB",
        ])
        with pytest.raises(FormatError, match="tag changed"):
            load_run(path)

    def test_rejects_non_finite_score(self, tmp_path):
        path = self.write_lines(tmp_path, ["q1 Q0 vA 1 nan tag"])
        with pytest.raises(FormatError, match="non-finite"):
            load_run(path)

    def test_rejects_empty_file(self, tmp_path):
        path = self.write_lines(tmp_path, [])
        with pytest.raises(FormatError, match="empty"):
            load_run(path)

    def test_interleaved_topics_load(self, tmp_path):
        # Topic blocks need not be contiguous as long as ranks are.
        path = self.write_lines(tmp_path, [
            "q1 Q0 vA 1 0.9 tag",
            "q2 Q0 vB 1 0.9 tag",
            "q1 Q0 vC 2 0.8 tag",
        ])
        run = load_run(path)
        assert [e[0] for e in run.entries("q1")] == ["vA", "vC"]


def small_qrels():
    return Qrels({
        ("q1", "vA"): 1,
        ("q1", "vB"): 0,
        ("q2", "vC"): 2,
        ("q2", "vD"): 1,
        ("q3", "vE"): 0,
    })


class TestEvaluateRun:
    def test_basic_averages(self):
        run = ranked_run("t", {
            "q1": [("vA", 0.9), ("vB", 0.8), ("vX", 0.7)],
            "q2": [("vX", 0.9), ("vC", 0.8), ("vD", 0.7)],
        }, DEPTH)
        report = evaluate_run(run, small_qrels(), CUTOFF, INCLUDE_EMPTY)
        assert scores_of(report)["q1"] == (0.2, 1.0)
        assert scores_of(report)["q2"] == (0.4, 0.5)
        assert report.mean_p_at_k == pytest.approx(0.3)
        assert report.mrr == pytest.approx(0.75)
        assert report.excluded == ()

    def test_unjudged_topic_is_excluded(self):
        run = ranked_run("t", {
            "q1": [("vA", 0.9)],
            "q9": [("vA", 0.9)],
        }, DEPTH)
        report = evaluate_run(run, small_qrels(), CUTOFF, INCLUDE_EMPTY)
        assert report.excluded == ("q9",)
        assert report.mean_p_at_k == pytest.approx(0.2)

    def test_zero_relevant_topic_excluded_by_default(self):
        run = ranked_run("t", {
            "q1": [("vA", 0.9)],
            "q3": [("vE", 0.9)],
        }, DEPTH)
        report = evaluate_run(run, small_qrels(), CUTOFF, INCLUDE_EMPTY)
        assert report.excluded == ("q3",)
        assert len(report.per_topic) == 1

    def test_zero_relevant_topic_included_on_request(self):
        run = ranked_run("t", {
            "q1": [("vA", 0.9)],
            "q3": [("vE", 0.9)],
        }, DEPTH)
        report = evaluate_run(run, small_qrels(), CUTOFF, include_empty=True)
        assert report.excluded == ()
        assert scores_of(report)["q3"] == (0.0, 0.0)
        assert report.mean_p_at_k == pytest.approx(0.1)

    def test_cutoff_two_drops_grade_one(self):
        run = ranked_run("t", {"q2": [("vC", 0.9), ("vD", 0.8)]}, DEPTH)
        report = evaluate_run(run, small_qrels(), cutoff=2,
                              include_empty=INCLUDE_EMPTY)
        assert scores_of(report)["q2"] == (0.2, 1.0)

    def test_no_overlap_is_an_error(self):
        run = ranked_run("t", {"q9": [("vA", 0.9)]}, DEPTH)
        with pytest.raises(VenuerecError, match="share no topics"):
            evaluate_run(run, small_qrels(), CUTOFF, INCLUDE_EMPTY)

    def test_report_format(self):
        report = MetricReport(
            per_topic=(("q1", 0.2, 1.0), ("q2", 0.4, 0.5)),
            mean_p_at_k=0.3, mrr=0.75, excluded=("q9",))
        assert format_report(report) == (
            "P5\tq1\t0.200000\n"
            "P5\tq2\t0.400000\n"
            "P5\tall\t0.300000\n"
            "RR\tq1\t1.000000\n"
            "RR\tq2\t0.500000\n"
            "MRR\tall\t0.750000\n"
            "# excluded_topics\t1\n"
            "# excluded\tq9\n")

    def test_write_report(self, tmp_path):
        run = ranked_run("t", {"q1": [("vA", 0.9)]}, DEPTH)
        report = evaluate_run(run, small_qrels(), CUTOFF, INCLUDE_EMPTY)
        path = tmp_path / "metrics.txt"
        write_report(report, path)
        text = path.read_text()
        assert "P5\tall\t0.200000\n" in text
        assert text.endswith("# excluded_topics\t0\n")

    def test_randomized_against_brute_force(self):
        import random

        rng = random.Random(90210)
        for case in range(30):
            n_topics = rng.randint(1, 8)
            judgments = {}
            scored = {}
            for t in range(n_topics):
                topic = "t%02d" % t
                ids = ["v%02d" % i for i in range(rng.randint(1, 15))]
                scored[topic] = [(v, rng.random()) for v in ids]
                for v in ids:
                    if rng.random() < 0.7:
                        judgments[(topic, v)] = rng.choice([0, 0, 1, 2])
            if not any(g >= 1 for g in judgments.values()):
                judgments[("t00", scored["t00"][0][0])] = 1
            qrels = Qrels(judgments)
            run = ranked_run("t", scored, DEPTH)
            report = evaluate_run(run, qrels, CUTOFF, INCLUDE_EMPTY)
            expected_p = []
            expected_rr = []
            for topic in sorted(scored):
                rel = {v for (t, v), g in judgments.items()
                       if t == topic and g >= 1}
                if not rel:
                    assert topic in report.excluded
                    continue
                ordered = brute_order(scored[topic])
                expected_p.append(brute_p_at_k(ordered, rel, 5))
                expected_rr.append(brute_rr(ordered, rel))
                assert scores_of(report)[topic] == (
                    expected_p[-1], expected_rr[-1])
            assert report.mean_p_at_k == pytest.approx(
                sum(expected_p) / len(expected_p), abs=1e-12)
            assert report.mrr == pytest.approx(
                sum(expected_rr) / len(expected_rr), abs=1e-12)


class TestPairedTTest:
    def test_known_difference_vector(self):
        # Differences [1, 2, 3] against zero.
        res = paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert res.t_statistic == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        assert res.degrees_of_freedom == 2
        assert res.p_value == pytest.approx(1.0 - math.sqrt(6.0 / 7.0),
                                            abs=1e-12)
        assert res.n == 3

    def test_identical_samples(self):
        res = paired_t_test([0.4, 0.6, 0.1], [0.4, 0.6, 0.1])
        assert res.t_statistic == 0.0
        assert res.p_value == 1.0

    def test_constant_shift_degenerates(self):
        res = paired_t_test([1.5, 2.5, 3.5], [1.0, 2.0, 3.0])
        assert res.t_statistic == math.inf
        assert res.p_value == 0.0
        res = paired_t_test([1.0, 2.0], [1.5, 2.5])
        assert res.t_statistic == -math.inf
        assert res.p_value == 0.0

    def test_antisymmetry_is_exact(self):
        a = [0.2, 0.5, 0.9, 0.4, 0.7]
        b = [0.3, 0.4, 0.8, 0.6, 0.5]
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd.t_statistic == -rev.t_statistic
        assert fwd.p_value == rev.p_value

    def test_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        import random

        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 40)
            a = [rng.random() for _ in range(n)]
            b = [rng.random() for _ in range(n)]
            if all(x == y for x, y in zip(a, b)):
                continue
            res = paired_t_test(a, b)
            want = stats.ttest_rel(a, b)
            assert res.t_statistic == pytest.approx(float(want.statistic),
                                                    abs=1e-10)
            assert res.p_value == pytest.approx(float(want.pvalue), abs=1e-10)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_p_value_in_unit_interval(self, a):
        b = [0.0] * len(a)
        res = paired_t_test(a, b)
        assert 0.0 <= res.p_value <= 1.0


class TestStudentT:
    def test_zero_statistic(self):
        assert student_t_two_sided_p(0.0, 5) == 1.0

    def test_infinite_statistic(self):
        assert student_t_two_sided_p(math.inf, 5) == 0.0
        assert student_t_two_sided_p(-math.inf, 5) == 0.0

    def test_df_one_closed_form(self):
        # Two-sided tail of the Cauchy distribution.
        for t in (0.3, 1.0, 2.5, 12.706):
            expected = 1.0 - 2.0 * math.atan(t) / math.pi
            assert student_t_two_sided_p(t, 1) == pytest.approx(expected, abs=1e-12)

    def test_df_two_closed_form(self):
        # p = 1 - |t| / sqrt(2 + t^2) for two degrees of freedom.
        for t in (0.5, 1.0, 2.0, 3.4641016151377544):
            expected = 1.0 - t / math.sqrt(2.0 + t * t)
            assert student_t_two_sided_p(t, 2) == pytest.approx(expected, abs=1e-12)

    def test_mean_difference_one_two_three(self):
        # Differences [1, 2, 3]: t = 2 * sqrt(3), p = 1 - sqrt(6/7).
        t = 2.0 * math.sqrt(3.0)
        p = student_t_two_sided_p(t, 2)
        assert p == pytest.approx(1.0 - math.sqrt(6.0 / 7.0), abs=1e-12)
        assert p == pytest.approx(0.0741799002274486, abs=1e-12)

    def test_classic_quantiles(self):
        # 97.5th percentiles: two-sided p of 0.05 at these statistics.
        for df, t in ((1, 12.7062), (2, 4.30265), (5, 2.57058),
                      (10, 2.22814), (30, 2.04227)):
            assert student_t_two_sided_p(t, df) == pytest.approx(0.05, abs=1e-4)

    def test_sign_symmetry_exact(self):
        for t in (0.25, 1.75, 9.0):
            for df in (1, 2, 7, 40):
                assert (student_t_two_sided_p(t, df)
                        == student_t_two_sided_p(-t, df))

    @given(t=st.floats(-50.0, 50.0), df=st.integers(1, 200))
    @example(t=1.2112534811111896e-08, df=1)
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_sf(self, t, df):
        if df == 1:
            # The exact Cauchy tail: scipy's t.sf is off by up to 4.7e-9
            # for |t| < 1e-7 at one degree of freedom.
            want = 1.0 - 2.0 * math.atan(abs(t)) / math.pi
        else:
            stats = pytest.importorskip("scipy.stats")
            want = 2.0 * float(stats.t.sf(abs(t), df))
        assert abs(student_t_two_sided_p(t, df) - want) <= 1e-10

    # The series loops over df // 2 terms, so large df is its own case.
    @pytest.mark.parametrize("df", [500, 5000, 20000])
    @pytest.mark.parametrize("t", [0.01, 1.96, 40.0])
    def test_matches_scipy_sf_at_large_df(self, t, df):
        stats = pytest.importorskip("scipy.stats")
        want = 2.0 * float(stats.t.sf(t, df))
        assert abs(student_t_two_sided_p(t, df) - want) <= 1e-10

    def test_decreasing_in_magnitude(self):
        ps = [student_t_two_sided_p(t / 10.0, 6) for t in range(0, 80)]
        assert all(hi >= lo for hi, lo in zip(ps, ps[1:]))
