"""Exponential integral and monotone solver against independent oracles."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from tdbcsim import specfun
from tdbcsim.specfun import (
    BracketingError,
    ConvergenceError,
    exp_integral_e1,
    require_positive,
    solve_monotone,
)

# Frozen from the quadrature oracle in conftest (epsrel 1e-13).
E1_AT_ONE = 0.2193839343955202

CHEBYSHEV_BOUNDS = (1.0, 2.0, 4.0, 8.0)

#: sha256 of E1's float.hex on the grid of test_e1_is_pinned_bit_for_bit.
E1_PIN = "a4ab7bf197034a7a79afcb42374bed4d4a7bf1771662ab226f13b9ef868849b6"


def f_entire(mp, x):
    """f(x) = E1(x) + gamma + ln(x), an entire function."""
    return mp.e1(x) + mp.euler + mp.log(x)


def g_scaled(mp, x):
    """g(x) = x exp(x) E1(x)."""
    return x * mp.exp(x) * mp.e1(x)


# Each table of specfun by its interval: its name, function and term count.
CHEBYSHEV_TABLES = {
    (0, 0.5): ("_F_ON_0_HALF", f_entire, 12),
    (0.5, 1): ("_G_ON_HALF_1", g_scaled, 19),
    (1, 2): ("_G_ON_1_2", g_scaled, 22),
    (2, 4): ("_G_ON_2_4", g_scaled, 22),
    (4, 8): ("_G_ON_4_8", g_scaled, 22),
    (8, math.inf): ("_G_ABOVE_8", g_scaled, 22),
}


def chebyshev_table(func, lo: float, hi: float, count: int, digits: int = 50) -> tuple:
    """The recipe of specfun's tables: the Chebyshev coefficients of
    func(mp, x) on [lo, hi], in t = (x - mid) / half, or for hi = inf in
    t = 2 lo / x - 1, from its values at the `count` Chebyshev points of the
    first kind in mpmath at `digits` digits, c_0 halved, each rounded to the
    nearest double.
    print(chebyshev_table(f_entire, 0, 0.5, 12)) reprints the literals of
    _F_ON_0_HALF, and print(chebyshev_table(g_scaled, 8, math.inf, 22))
    those of _G_ABOVE_8."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(digits):
        if hi == math.inf:
            def to_x(t):
                return 2 * mp.mpf(lo) / (1 + t)
        else:
            mid, half = mp.mpf(lo + hi) / 2, mp.mpf(hi - lo) / 2

            def to_x(t):
                return mid + half * t
        angles = [mp.pi * (j + mp.mpf(1) / 2) / count for j in range(count)]
        values = [func(mp, to_x(mp.cos(a))) for a in angles]
        coeffs = [2 * mp.fsum(v * mp.cos(k * a) for v, a in zip(values, angles)) / count
                  for k in range(count)]
        coeffs[0] /= 2
        return tuple(float(c) for c in coeffs)


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

    @pytest.mark.parametrize("bound", (0.5, *CHEBYSHEV_BOUNDS[1:]))
    def test_chebyshev_boundaries_are_smooth(self, bound):
        below = exp_integral_e1(bound * (1.0 - 1e-12))
        above = exp_integral_e1(bound * (1.0 + 1e-12))
        assert below == pytest.approx(above, rel=1e-10)

    @staticmethod
    def _chebyshev_regime_points() -> np.ndarray:
        """2,400 random points of (1, 8], each interval end and the doubles
        on both sides of it."""
        rng = np.random.default_rng(20240915)
        return np.concatenate([rng.uniform(1.0, 8.0, 2400), CHEBYSHEV_BOUNDS[1:],
                               np.nextafter(CHEBYSHEV_BOUNDS, 0.0),
                               np.nextafter(CHEBYSHEV_BOUNDS, 9.0)])

    def test_chebyshev_regime_matches_scipy(self):
        """On (1, 8] E1 is within 1e-15 relative of scipy's exp1.  With
        scipy 1.17.1, exp1 is itself within 4.4e-16 of 40-digit mpmath
        there; the mpmath test below pins E1 without scipy's error."""
        worst = max(abs(exp_integral_e1(float(x)) - special.exp1(x)) / special.exp1(x)
                    for x in self._chebyshev_regime_points())
        assert worst <= 1e-15

    def test_chebyshev_regime_matches_mpmath(self):
        """E1 is within 6e-16 relative of mpmath at 40 digits on (1, 8]
        (4.3e-16 is the worst of 60,000 random points; the rest allows an
        ulp of the platform's exp) and within 5e-16 on (8, 700] (3.8e-16 is
        the worst of 3,000 log-uniform points).  Beyond about 708 E1 is
        subnormal and loses bits, so the check stops at 700."""
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20240915)
        above_8 = np.concatenate([np.exp(rng.uniform(math.log(8.0), math.log(700.0), 2400)),
                                  [np.nextafter(8.0, 9.0), 700.0]])

        def worst(xs):
            return max(abs(exp_integral_e1(x) - mp.e1(x)) / mp.e1(x) for x in map(float, xs))

        with mp.workdps(40):
            assert worst(x for x in self._chebyshev_regime_points() if x <= 8.0) <= 6e-16
            assert worst(above_8) <= 5e-16

    def test_tables_below_one_match_mpmath(self):
        """E1 is within 5e-16 relative of mpmath at 40 digits on (0, 1]:
        1,000 log-uniform points of [1e-300, 1e-6], 2,000 uniform points of
        (0, 1], 0.5 and 1 and the doubles on both sides of each, and
        0.5430821786640345, where the alternating power series of
        Abramowitz & Stegun 5.1.11, summed in doubles, is off by 1.02e-15.
        The worst of 450,000 random points is 4.8e-16, on (0.5, 1]."""
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20240915)
        xs = np.concatenate([np.exp(rng.uniform(math.log(1e-300), math.log(1e-6), 1000)),
                             rng.uniform(0.0, 1.0, 2000), [0.5, 1.0, 0.5430821786640345],
                             np.nextafter([0.5, 1.0], 0.0), np.nextafter([0.5, 1.0], 2.0)])
        with mp.workdps(40):
            worst = max(abs(exp_integral_e1(x) - mp.e1(x)) / mp.e1(x)
                        for x in map(float, xs) if x > 0.0)
        assert worst <= 5e-16

    @pytest.mark.parametrize("lo, hi", CHEBYSHEV_TABLES)
    def test_chebyshev_tables_regenerate_bit_for_bit(self, lo, hi):
        name, func, count = CHEBYSHEV_TABLES[lo, hi]
        assert chebyshev_table(func, lo, hi, count) == getattr(specfun, name)

    def test_e1_is_pinned_bit_for_bit(self):
        """E1 on 20,001 points about log-spaced from 1.1e-300 to 742 (2**s
        for s from -996.5 to 9.45, its mantissa linear between powers of two,
        so every point is an exact float step and an ldexp) and at each
        interval edge and its two neighbours, hashed by float.hex: a change
        that moves any last bit of E1 fails here, which the CSVs' 12 printed
        digits cannot show."""
        lo, hi, count = -996.5, 9.45, 20_000
        xs = []
        for k in range(count + 1):
            s = lo + (hi - lo) * k / count
            exponent = math.floor(s)
            xs.append(math.ldexp(1.0 + (s - exponent), exponent))
        for edge in (0.5, *CHEBYSHEV_BOUNDS):
            xs += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
        text = "\n".join(exp_integral_e1(x).hex() for x in xs)
        assert hashlib.sha256(text.encode()).hexdigest() == E1_PIN

    def test_underflow_returns_zero(self):
        assert exp_integral_e1(800.0) == 0.0

    def test_underflow_returns_zero_before_iterating(self):
        """Once exp(-x) underflows, E1 returns exactly 0.0 before summing
        any series, up to the largest arguments sampled here (1e20)."""
        rng = np.random.default_rng(28)
        xs = [1.000000000000001e18, 745.1332191019412, *(10.0 ** rng.uniform(16.0, 20.0, 2000))]
        assert all(exp_integral_e1(float(x)) == 0.0 for x in xs)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            exp_integral_e1(bad)

    def test_rejects_non_numbers(self):
        with pytest.raises(ValueError):
            exp_integral_e1("1.0")


class FloatSubclass(float):
    pass


class TestRequirePositive:
    def test_passes_through(self):
        assert require_positive(2, "v") == 2.0

    @pytest.mark.parametrize("value", [5e-324, 0.3, 1.7976931348623157e308])
    def test_positive_float_is_returned_as_is(self, value):
        assert require_positive(value, "v") is value

    @pytest.mark.parametrize("value,expected", [
        (np.float64(2.0), 2.0), (FloatSubclass(2.0), 2.0), (2, 2.0), (np.int64(2), 2.0),
        (Fraction(1, 3), 1 / 3),
    ], ids=["numpy", "subclass", "int", "numpy-int", "fraction"])
    def test_other_reals_come_back_as_plain_float(self, value, expected):
        got = require_positive(value, "v")
        assert type(got) is float and got == expected

    @pytest.mark.parametrize("bad", [0, -3, math.nan, math.inf, None, "x", True,
                                     0.0, -0.0, -math.inf, False, -5e-324, np.bool_(True)])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            require_positive(bad, "v")

    @pytest.mark.parametrize("bad", [np.float64(math.nan), np.float64(-1.0),
                                     FloatSubclass(math.inf), FloatSubclass(-1.0)],
                             ids=["numpy-nan", "numpy-negative", "subclass-inf",
                                  "subclass-negative"])
    def test_rejects_other_reals(self, bad):
        with pytest.raises(ValueError):
            require_positive(bad, "v")


def neg_e1(x):
    """-E1, increasing: the solver takes a decreasing function negated."""
    return -exp_integral_e1(x)


class TestSolveMonotone:
    def test_identity_function(self):
        assert solve_monotone(lambda v: v, 3.0, 0.5, 10.0) \
            == pytest.approx(3.0, abs=1e-12)

    def test_e1_round_trip_from_spec_bracket(self):
        target = exp_integral_e1(0.5)
        got = solve_monotone(neg_e1, -target, 1e-6, 10.0)
        assert got == pytest.approx(0.5, rel=1e-9)

    def test_bracketing_failure_for_unreachable_target(self):
        with pytest.raises(BracketingError):
            solve_monotone(neg_e1, 1.0, 1e-6, 10.0)

    def test_underflowing_lower_end_is_a_bracketing_failure(self):
        """E1 reaches 1000 only below the smallest double; the lower end
        underflows to 0, where E1 is undefined, and the solver says so
        instead of evaluating it."""
        with pytest.raises(BracketingError, match="underflowed"):
            solve_monotone(neg_e1, -1000.0, 1e-300, 1.0)

    def test_expansion_reaches_root_outside_bracket(self):
        got = solve_monotone(lambda v: v, 250.0, 0.5, 1.0)
        assert got == pytest.approx(250.0, rel=1e-12)
        got = solve_monotone(lambda v: v, 1e-5, 0.5, 1.0)
        assert got == pytest.approx(1e-5, rel=1e-12)
        with pytest.raises(BracketingError):      # a root below 0 is out of reach
            solve_monotone(lambda v: v, -250.0, 0.5, 1.0)

    def test_tiny_positive_roots_keep_relative_accuracy(self):
        """Positive brackets bisect in log space, so roots near the bottom of
        the double range still come back to ~1e-14 relative."""
        for x_true in (1e-140, 1e-60, 1e-9):
            target = exp_integral_e1(x_true)
            got = solve_monotone(neg_e1, -target, 1e-300, 50.0)
            assert got == pytest.approx(x_true, rel=1e-11)

    def test_subnormal_root_stops_early(self):
        """E1 = 720 near 1.1e-313, where adjacent doubles differ by 4e-11
        relative and the 1e-14 width stop cannot be met: the solver says so
        once its bracket closes on two adjacent doubles, not after 200
        iterations with a message about monotonicity."""
        evaluations = []

        def logged_neg_e1(x):
            evaluations.append(x)
            return neg_e1(x)

        with pytest.raises(ConvergenceError, match="subnormal"):
            solve_monotone(logged_neg_e1, -720.0, 1e-300, 1.0)
        assert len(evaluations) <= 50
        assert len(set(evaluations)) == len(evaluations)    # none evaluated twice

    @pytest.mark.parametrize("root", [4.166282e-317, 2.72868e-319, 3.57782786e-316])
    def test_exact_subnormal_roots_still_converge(self, root):
        """A step may fail to move a subnormal best point, yet a later one
        can land on the root exactly; that solve still returns it."""
        assert solve_monotone(lambda v: v, root, 1e-300, 1.0) == root

    @given(st.floats(min_value=-4.0, max_value=math.log10(20.0)))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, exponent):
        x_true = 10.0 ** exponent
        got = solve_monotone(neg_e1, -exp_integral_e1(x_true), 1e-6, 10.0)
        assert got == pytest.approx(x_true, rel=1e-9)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_target_validation(self, target):
        with pytest.raises(ValueError, match=r"^target must be finite, got "):
            solve_monotone(lambda v: v, target, 0.5, 1.0)

    def test_bracket_validation(self):
        """Only brackets with 0 < lo < hi < inf are accepted."""
        for lo, hi in [(2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
                       (1.0, math.inf), (math.nan, 1.0), (0.5, math.nan)]:
            with pytest.raises(ValueError):
                solve_monotone(lambda v: v, 1.0, lo, hi)
