"""Exponential integral E1 and a bracketing solver for monotone equations.

Every cutoff threshold in this package is defined implicitly: a closed-form
average power, which is an expression in E1 and exponentials, is equated to a
power budget and inverted.  This module supplies the two numerical primitives
those inversions rest on: E1, and a solver for monotone equations on a
positive domain (every threshold is a positive gain or cap), worked in log
coordinates.  Both are pure functions and safe to call from any number of
threads.

E1 is one Chebyshev series summed by Clenshaw's recurrence, from one of
six tables: of E1(x) + gamma + ln(x) on (0, 0.5], and of x * exp(x) * E1(x)
on (0.5, 1], (1, 2], (2, 4] and (4, 8] and in 16 / x on (8, inf).  Nothing
iterates beyond its table.  Against 40-digit mpmath the worst relative
errors found on random points are 3.4e-16 on (0, 0.5], 4.8e-16 on (0.5, 1],
4.3e-16 on (1, 8] and 3.8e-16 on (8, 700].  A call costs about 0.8 us on
(0, 0.5], 1.0 us on (0.5, 1] and 1.1-1.2 us above (interleaved timeit minima
under CPython 3.11.7 on a 2-core Xeon host, whose speed drifts between runs).
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

__all__ = [
    "EULER_GAMMA",
    "SOLVER_WIDTH_TOL",
    "MAX_ITERATIONS",
    "BracketingError",
    "ConvergenceError",
    "exp_integral_e1",
    "require_positive",
    "solve_monotone",
]

#: Euler-Mascheroni constant, full double precision.
EULER_GAMMA = 0.5772156649015328606065120900824024

#: Bracket-width stop of solve_monotone, relative to the root.
SOLVER_WIDTH_TOL = 1e-14

#: Brent step cap; reaching it means the function was not increasing.
MAX_ITERATIONS = 200

# Chebyshev coefficients c_0..c_{n-1}, in t = (x - mid) / half on a finite
# interval and in t = 16 / x - 1 on (8, inf), of two functions:
# f(x) = E1(x) + gamma + ln(x), which is entire, on (0, 0.5] (12 terms), and
# g(x) = x * exp(x) * E1(x) on (0.5, 1] (19 terms), (1, 2], (2, 4], (4, 8]
# and (8, inf) (22 terms each).  Each table interpolates its function at the
# n Chebyshev points of the first kind, t_j = cos(pi (j + 1/2) / n), computed
# with mpmath at 50 digits, c_0 halved, each rounded to the nearest double.
# `chebyshev_table` in tests/test_specfun.py is that recipe and checks these
# literals bit for bit.  g is analytic except on x <= 0 and at x = inf: off
# t <= -3 on the finite intervals, off t <= -1 in 16 / x.  Each last
# coefficient is below 2e-18 of c_0, except on (0.5, 1], nearest g's
# singularity, where 19 terms end at 1.3e-16 of c_0 and the interpolant is
# within 8.6e-17 of g: the fewest terms that keep E1 within 5e-16 there.
_F_ON_0_HALF = (
    0.2285666652589697, 0.22174041832582478, -0.006641447904770752,
    0.00018053841266890865, -4.17636654597237e-06, 8.279861517962127e-08,
    -1.4284823341958152e-09, 2.1761664974895462e-11, -2.9643222053483917e-13,
    3.648912385028606e-15, -4.095156431480371e-17, 4.2216944984635466e-19,
)
_G_ON_HALF_1 = (
    0.5346999937595923, 0.0668751370863519, -0.0057365072125155365,
    0.0005635985855123549, -6.124381068186773e-05, 7.170488969798669e-06,
    -8.878210896082313e-07, 1.1473259000369946e-07, -1.533138972147247e-08,
    2.1041735103684324e-09, -2.9513860986493845e-10, 4.2148925464418905e-11,
    -6.1109850419078605e-12, 8.974708516003311e-13, -1.3327058542019426e-13,
    1.998128864314833e-14, -3.021116361392116e-15, 4.599481930001304e-16,
    -6.888159614201934e-17,
)
_G_ON_1_2 = (
    0.6660290478589338, 0.06242528843863769, -0.006439971522584476,
    0.0007188104965299417, -8.537148991010124e-05, 1.0648380975570468e-05,
    -1.380913541754629e-06, 1.8477934175040391e-07, -2.5364639654694244e-08,
    3.5560115645720356e-09, -5.0741153091793e-10, 7.349275201415891e-11,
    -1.0781522028549246e-11, 1.5992380278382599e-12, -2.3951290312257573e-13,
    3.6176019583489836e-14, -5.505119417152606e-15, 8.433583035720181e-16,
    -1.2997387875413167e-16, 2.013889177615044e-17, -3.133882226142602e-18,
    4.78298751222049e-19,
)
_G_ON_2_4 = (
    0.7802359009758556, 0.05057911157732128, -0.006113806466446871,
    0.000769865860518743, -0.00010029543689856821, 1.3441723236134673e-05,
    -1.8447925285347979e-06, 2.5831692135853973e-07, -3.679358621999199e-08,
    5.318025436335567e-09, -7.784409115294726e-10, 1.1520951705972108e-10,
    -1.7216711602569635e-11, 2.5948940882841882e-12, -3.940785972027522e-13,
    6.02544278012328e-14, -9.269118071362625e-15, 1.4337509837773884e-15,
    -2.2288052366001315e-16, 3.4804359352355104e-17, -5.454271923074936e-18,
    8.37566576663854e-19,
)
_G_ON_4_8 = (
    0.8668048373433986, 0.03572951235592642, -0.004895924553521569,
    0.0006834820096427278, -9.697663181268821e-05, 1.3956364689041613e-05,
    -2.0337277146399377e-06, 2.9963382373397474e-07, -4.4578239842876726e-08,
    6.689975217887511e-09, -1.0118056680552709e-09, 1.540981678654776e-10,
    -2.3617216914095795e-11, 3.640264299621674e-12, -5.640076947173546e-13,
    8.779865453073903e-14, -1.3726755245735968e-14, 2.1546255376247198e-15,
    -3.3944033327484333e-16, 5.3655604752841166e-17, -8.502709870361002e-18,
    1.318572357922825e-18,
)
_G_ABOVE_8 = (
    0.9466095316542427, -0.050709220934640316, 0.0024942827807734208,
    -0.00017073729027578313, 1.4572817499478609e-05, -1.4632458120799713e-06,
    1.6678980183112264e-07, -2.107358168126306e-08, 2.901714131059491e-09,
    -4.2997185626472835e-10, 6.790187134723789e-11, -1.1341018960999941e-11,
    1.99096979738965e-12, -3.655202321460254e-13, 6.987945421955574e-14,
    -1.3861838502092284e-14, 2.844416249388596e-15, -6.021654252682029e-16,
    1.312147190708227e-16, -2.936570031070085e-17, 6.7182205482808845e-18,
    -1.4908049196710958e-18,
)


class BracketingError(ValueError):
    """The target is outside the function's range on the given bracket."""


class ConvergenceError(RuntimeError):
    """Iteration cap hit; the supplied function violated its monotonicity
    (or smoothness) contract."""


def require_positive(value: float, name: str) -> float:
    """Validate that `value` is a strictly positive finite real and return it
    as a float.  Raises ValueError otherwise."""
    if type(value) is float and 0.0 < value < math.inf:     # the common case
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    return v


def exp_integral_e1(x: float) -> float:
    """E1(x): the integral of exp(-t)/t from t = x to infinity, for x > 0.

    One Chebyshev series, summed by Clenshaw's recurrence, on each of six
    intervals, with the worst relative error found against 40-digit mpmath:

    * x <= 0.5: -gamma - ln(x) + f(x), with f(x) = E1(x) + gamma + ln(x)
      entire, from 12 terms in t = 4x - 1, within 3.4e-16 (-gamma - ln(x)
      is positive there, so the sum does not cancel);
    * x > 0.5: exp(-x) / x * g(x), with g(x) = x exp(x) E1(x), from 19 terms
      on (0.5, 1], within 4.8e-16, from 22 on (1, 2], (2, 4] or (4, 8],
      within 4.3e-16, or from 22 in 16 / x on (8, inf), within 3.8e-16 up
      to 700 (beyond about 708 the result is subnormal and loses bits).

    Once exp(-x) underflows (x beyond ~745.13) the result is exactly 0.0.

    Raises ValueError unless x is a positive finite real.
    """
    if type(x) is not float or not 0.0 < x < math.inf:   # require_positive's first test
        x = require_positive(x, "x")
    # t = (x - mid) / half is exact on the four finite intervals above 0.5.
    if x <= 0.5:
        t, (c0, pairs) = 4.0 * x - 1.0, _F_WALK
    elif (scale := math.exp(-x)) == 0.0:
        return 0.0
    elif x <= 1.0:
        t, (c0, pairs) = 4.0 * x - 3.0, _G_WALKS[0]
    elif x <= 2.0:
        t, (c0, pairs) = 2.0 * x - 3.0, _G_WALKS[1]
    elif x <= 4.0:
        t, (c0, pairs) = x - 3.0, _G_WALKS[2]
    elif x <= 8.0:
        t, (c0, pairs) = 0.5 * x - 3.0, _G_WALKS[3]
    else:
        t, (c0, pairs) = 16.0 / x - 1.0, _G_WALKS[4]
    # Clenshaw's recurrence b = c + 2 t b1 - b2, two coefficients a turn.
    t2 = t + t
    b1 = b2 = 0.0
    for ca, cb in pairs:
        b2 = ca + t2 * b1 - b2
        b1 = cb + t2 * b2 - b1
    total = c0 + t * b1 - b2
    return -EULER_GAMMA - math.log(x) + total if x <= 0.5 else scale / x * total


def _walk(coeffs: tuple[float, ...]) -> tuple[float, tuple[tuple[float, float], ...]]:
    """c_0, and c_{n-1}, ..., c_1 in pairs in the order Clenshaw's recurrence
    takes them, led by 0.0 if odd in number: from b1 = b2 = 0.0, a step on
    0.0 leaves both 0.0, so the sum keeps every bit."""
    tail = (0.0,) * (len(coeffs) % 2 == 0) + coeffs[:0:-1]
    return coeffs[0], tuple(zip(tail[::2], tail[1::2]))


_F_WALK, *_G_WALKS = map(_walk, (_F_ON_0_HALF, _G_ON_HALF_1, _G_ON_1_2, _G_ON_2_4,
                                 _G_ON_4_8, _G_ABOVE_8))


def _log_offset(x: float, y: float) -> float:
    """ln(x / y) for positive x and y, also where x / y leaves the doubles."""
    ratio = x / y
    return math.log(ratio) if 0.0 < ratio < math.inf else math.log(x) - math.log(y)


def _log_step(y: float, d: float) -> float:
    """y * exp(d), the step bounded so that exp(d) stays a finite double."""
    return y * math.exp(max(-700.0, min(d, 700.0)))


def solve_monotone(
    f: Callable[[float], float],
    target: float,
    bracket_lo: float,
    bracket_hi: float,
) -> float:
    """Solve f(x) = target for a continuous, strictly increasing f on x > 0.
    Solve a decreasing g as -g = -target: negation is exact, so every bit holds.

    The bracket must satisfy 0 < bracket_lo < bracket_hi < inf and must
    straddle the target: f(bracket_lo) <= target <= f(bracket_hi).  Brent's
    method then closes it to a relative width below SOLVER_WIDTH_TOL.  It
    works in log coordinates measured from a bracket point b,
    v = ln(x / b), so roots of any magnitude keep that relative accuracy (an
    ulp of ln x alone exceeds it once x passes ~1e32).

    Raises ValueError on a bad bracket, BracketingError when the bracket
    does not straddle the target, and ConvergenceError when the bracket
    closes on two adjacent subnormal doubles or MAX_ITERATIONS is hit, which
    indicates an f that is not increasing.
    """
    a, b = float(bracket_lo), float(bracket_hi)
    if not 0.0 < a < b < math.inf:
        raise ValueError(f"bracket must satisfy 0 < lo < hi < inf, "
                         f"got [{bracket_lo!r}, {bracket_hi!r}]")
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target!r}")
    r_a, r_b = f(a) - target, f(b) - target
    if r_a > 0.0 or r_b < 0.0:
        raise BracketingError(f"[{a!r}, {b!r}] does not straddle the target {target!r}")

    # Brent's method (zeroin): b is the best point, c holds the residual's
    # other sign, a is the previous b.  Positions enter only as offsets from
    # b, so log coordinates keep full precision as the bracket closes.
    c, r_c = a, r_a
    d = e = _log_offset(b, a)
    tol = 0.5 * SOLVER_WIDTH_TOL
    for _ in range(MAX_ITERATIONS):
        if abs(r_c) < abs(r_b):
            a, r_a, b, r_b, c, r_c = b, r_b, c, r_c, b, r_b
        m = 0.5 * _log_offset(c, b)
        if abs(m) <= tol or r_b == 0.0:
            return b
        if math.nextafter(b, c) == c:   # wider than tol: b and c are subnormal
            raise ConvergenceError(f"the root near {b!r} is subnormal; the bracket "
                                   f"cannot narrow to a relative width of {SOLVER_WIDTH_TOL}")
        interpolate = abs(e) >= tol and abs(r_a) > abs(r_b)
        if interpolate:
            s = r_b / r_a
            if a == c:                    # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:                         # inverse quadratic interpolation
                qa, r = r_a / r_c, r_b / r_c
                p = s * (2.0 * m * qa * (qa - r) - _log_offset(b, a) * (r - 1.0))
                q = (qa - 1.0) * (r - 1.0) * (s - 1.0)
            q = -q if p > 0.0 else q
            interpolate = 2.0 * abs(p) < min(3.0 * m * q - abs(tol * q), abs(e * q))
        if interpolate:
            e, d = d, abs(p) / q
        else:
            d = e = m                     # bisection
        a, r_a = b, r_b
        b = _log_step(b, d if abs(d) > tol else math.copysign(tol, m))
        r_b = f(b) - target if b != a else r_a    # a step too small to move b
        if (r_b > 0.0) == (r_c > 0.0):
            c, r_c = a, r_a
            d = e = _log_offset(b, a)
    raise ConvergenceError("Brent iteration failed to converge; "
                           "is the function strictly increasing on the bracket?")
