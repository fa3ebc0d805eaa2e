"""Incomplete beta and t-tail checks against closed forms and scipy."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from venuerec.errors import VenuerecError
from venuerec.stats import betainc_reg, student_t_two_sided_p

scipy_special = pytest.importorskip("scipy.special")


class TestBetaincEndpoints:
    def test_left_endpoint(self):
        assert betainc_reg(2.0, 3.0, 0.0) == 0.0

    def test_right_endpoint(self):
        assert betainc_reg(2.0, 3.0, 1.0) == 1.0

    def test_clamps_outside_unit_interval(self):
        assert betainc_reg(2.0, 3.0, -0.5) == 0.0
        assert betainc_reg(2.0, 3.0, 1.5) == 1.0

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(VenuerecError):
            betainc_reg(0.0, 1.0, 0.5)
        with pytest.raises(VenuerecError):
            betainc_reg(1.0, -2.0, 0.5)


class TestBetaincClosedForms:
    # I_x(1, b) = 1 - (1-x)^b and I_x(a, 1) = x^a.
    def test_a_equals_one(self):
        for b in (0.5, 1.0, 2.0, 7.5):
            for x in (0.1, 0.37, 0.5, 0.93):
                expected = 1.0 - (1.0 - x) ** b
                assert betainc_reg(1.0, b, x) == pytest.approx(expected, abs=1e-13)

    def test_b_equals_one(self):
        for a in (0.5, 1.0, 2.0, 7.5):
            for x in (0.1, 0.37, 0.5, 0.93):
                assert betainc_reg(a, 1.0, x) == pytest.approx(x ** a, abs=1e-13)

    def test_symmetric_half(self):
        # I_{1/2}(a, a) = 1/2 for any a.
        for a in (0.5, 1.0, 3.0, 12.0):
            assert betainc_reg(a, a, 0.5) == pytest.approx(0.5, abs=1e-13)


class TestBetaincAgainstScipy:
    def test_grid(self):
        params = (0.5, 1.0, 2.5, 7.0, 30.0)
        xs = [i / 40.0 for i in range(1, 40)]
        worst = 0.0
        for a in params:
            for b in params:
                for x in xs:
                    got = betainc_reg(a, b, x)
                    want = float(scipy_special.betainc(a, b, x))
                    worst = max(worst, abs(got - want))
        assert worst <= 1e-10

    @given(a=st.floats(0.5, 50.0), b=st.floats(0.5, 50.0),
           x=st.floats(0.001, 0.999))
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_everywhere(self, a, b, x):
        got = betainc_reg(a, b, x)
        want = float(scipy_special.betainc(a, b, x))
        assert abs(got - want) <= 1e-10

    @given(a=st.floats(0.5, 20.0), b=st.floats(0.5, 20.0),
           x=st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_reflection_identity(self, a, b, x):
        total = betainc_reg(a, b, x) + betainc_reg(b, a, 1.0 - x)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_x(self):
        xs = [i / 100.0 for i in range(1, 100)]
        vals = [betainc_reg(3.0, 1.5, x) for x in xs]
        assert all(lo < hi for lo, hi in zip(vals, vals[1:]))


class TestStudentT:
    def test_zero_statistic(self):
        assert student_t_two_sided_p(0.0, 5) == 1.0

    def test_infinite_statistic(self):
        assert student_t_two_sided_p(math.inf, 5) == 0.0
        assert student_t_two_sided_p(-math.inf, 5) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(VenuerecError):
            student_t_two_sided_p(1.0, 0)
        with pytest.raises(VenuerecError):
            student_t_two_sided_p(math.nan, 5)

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

    def test_decreasing_in_magnitude(self):
        ps = [student_t_two_sided_p(t / 10.0, 6) for t in range(0, 80)]
        assert all(hi >= lo for hi, lo in zip(ps, ps[1:]))
