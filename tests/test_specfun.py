"""Exponential integral and monotone solver against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdbcsim.specfun import (
    BracketingError,
    exp_integral_e1,
    require_positive,
    solve_monotone,
)

# Frozen from the quadrature oracle in conftest (epsrel 1e-13).
E1_AT_ONE = 0.2193839343955202


class TestExpIntegralE1:
    def test_reference_value_at_one(self):
        assert exp_integral_e1(1.0) == pytest.approx(E1_AT_ONE, rel=1e-12)

    def test_quadrature_oracle_agreement(self, e1_oracle):
        """Relative deviation from the defining integral stays below 1e-10
        across the working range."""
        for x in np.logspace(-6, math.log10(50.0), 300):
            x = float(x)
            assert exp_integral_e1(x) == pytest.approx(e1_oracle(x), rel=1e-10)

    def test_strictly_decreasing(self):
        assert exp_integral_e1(0.5) > exp_integral_e1(1.0)
        xs = np.logspace(-6, 2, 500)
        values = [exp_integral_e1(float(x)) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(st.floats(min_value=1e-6, max_value=100.0),
           st.floats(min_value=1.000001, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_property(self, a, factor):
        assert exp_integral_e1(a) > exp_integral_e1(a * factor)

    def test_positive_everywhere(self):
        for x in np.logspace(-6, math.log10(700.0), 400):
            assert exp_integral_e1(float(x)) > 0.0

    def test_classical_bracket(self):
        """exp(-x)/(x+1) < E1(x) < exp(-x)/x on a log-spaced grid."""
        for x in np.logspace(-6, math.log10(600.0), 400):
            x = float(x)
            e1 = exp_integral_e1(x)
            assert math.exp(-x) / (x + 1.0) < e1 < math.exp(-x) / x

    def test_bracket_at_ten(self):
        e1 = exp_integral_e1(10.0)
        assert math.exp(-10.0) / 11.0 < e1 < math.exp(-10.0) / 10.0

    def test_regime_boundary_is_smooth(self):
        below = exp_integral_e1(1.0 - 1e-12)
        above = exp_integral_e1(1.0 + 1e-12)
        assert below == pytest.approx(above, rel=1e-10)

    def test_underflow_returns_zero(self):
        assert exp_integral_e1(800.0) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            exp_integral_e1(bad)

    def test_rejects_non_numbers(self):
        with pytest.raises(ValueError):
            exp_integral_e1("1.0")


class TestRequirePositive:
    def test_passes_through(self):
        assert require_positive(2, "v") == 2.0

    @pytest.mark.parametrize("bad", [0, -3, math.nan, math.inf, None, "x", True])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            require_positive(bad, "v")


class TestSolveMonotone:
    def test_identity_function(self):
        assert solve_monotone(lambda v: v, 3.0, 0.0, 10.0, "increasing") \
            == pytest.approx(3.0, abs=1e-12)

    def test_e1_round_trip_from_spec_bracket(self):
        target = exp_integral_e1(0.5)
        got = solve_monotone(exp_integral_e1, target, 1e-6, 10.0, "decreasing")
        assert got == pytest.approx(0.5, rel=1e-9)

    def test_bracketing_failure_for_unreachable_target(self):
        with pytest.raises(BracketingError):
            solve_monotone(exp_integral_e1, -1.0, 1e-6, 10.0, "decreasing")

    def test_underflowing_lower_end_is_a_bracketing_failure(self):
        """E1 reaches 1000 only below the smallest double; the lower end
        underflows to 0, where E1 is undefined, and the solver says so
        instead of evaluating it."""
        with pytest.raises(BracketingError, match="underflowed"):
            solve_monotone(exp_integral_e1, 1000.0, 1e-300, 1.0, "decreasing")

    def test_expansion_reaches_root_outside_bracket(self):
        got = solve_monotone(lambda v: v, 250.0, 0.0, 1.0, "increasing")
        assert got == pytest.approx(250.0, rel=1e-12)
        got = solve_monotone(lambda v: v, -250.0, 0.0, 1.0, "increasing")
        assert got == pytest.approx(-250.0, rel=1e-12)

    def test_tiny_positive_roots_keep_relative_accuracy(self):
        """Positive brackets bisect in log space, so roots near the bottom of
        the double range still come back to ~1e-14 relative."""
        for x_true in (1e-140, 1e-60, 1e-9):
            target = exp_integral_e1(x_true)
            got = solve_monotone(exp_integral_e1, target, 1e-300, 50.0, "decreasing")
            assert got == pytest.approx(x_true, rel=1e-11)

    @given(st.floats(min_value=-4.0, max_value=math.log10(20.0)))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, exponent):
        x_true = 10.0 ** exponent
        got = solve_monotone(exp_integral_e1, exp_integral_e1(x_true),
                             1e-6, 10.0, "decreasing")
        assert got == pytest.approx(x_true, rel=1e-9)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            solve_monotone(lambda v: v, 1.0, 0.0, 1.0, "sideways")

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            solve_monotone(lambda v: v, 1.0, 2.0, 1.0, "increasing")
