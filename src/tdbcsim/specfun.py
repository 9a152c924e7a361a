"""Exponential integral E1 and a bracketing solver for monotone equations.

Every cutoff threshold in this package is defined implicitly: a closed-form
average power, which is an expression in E1 and exponentials, is equated to a
power budget and inverted.  This module supplies the two numerical primitives
those inversions rest on.  Both are pure functions and safe to call from any
number of threads.
"""

from __future__ import annotations

import math
from typing import Callable, Literal

__all__ = [
    "EULER_GAMMA",
    "E1_REL_TOL",
    "SOLVER_WIDTH_TOL",
    "BRACKET_GROWTH",
    "MAX_BRACKET_EXPANSIONS",
    "MAX_BISECTIONS",
    "BracketingError",
    "ConvergenceError",
    "exp_integral_e1",
    "require_positive",
    "solve_monotone",
]

#: Euler-Mascheroni constant, full double precision.
EULER_GAMMA = 0.5772156649015328606065120900824024

#: Guaranteed relative accuracy of exp_integral_e1 on [1e-6, 700].
E1_REL_TOL = 1e-12

#: Bracket-width stop of solve_monotone, relative to max(1, |x*|) (and plain
#: relative to x* on positive brackets, which are bisected geometrically).
SOLVER_WIDTH_TOL = 1e-14

#: Geometric factor applied when an end of the bracket misses the target.
BRACKET_GROWTH = 4.0

#: Expansion attempts per bracket end before declaring the target unreachable.
MAX_BRACKET_EXPANSIONS = 200

#: Bisection cap; reaching it means the function was not monotone as declared.
MAX_BISECTIONS = 200

_SERIES_MAX_TERMS = 120
_CF_MAX_ITERS = 400
_CF_EPS = 1e-16
_CF_TINY = 1e-300


class BracketingError(ValueError):
    """The target is outside the function's range on any expandable bracket."""


class ConvergenceError(RuntimeError):
    """Iteration cap hit; the supplied function violated its monotonicity
    (or smoothness) contract."""


def require_positive(value: float, name: str) -> float:
    """Validate that `value` is a strictly positive finite real and return it
    as a float.  Raises ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    return v


def exp_integral_e1(x: float) -> float:
    """E1(x): the integral of exp(-t)/t from t = x to infinity, for x > 0.

    Two regimes: the alternating power series around the log singularity for
    x <= 1, and a modified Lentz continued fraction for x > 1.  Both converge
    to ~1e-15 relative, comfortably inside E1_REL_TOL.  For x large enough
    that exp(-x) underflows (x beyond ~745) the result is exactly 0.0.

    Raises ValueError unless x is a positive finite real.
    """
    x = require_positive(x, "x")

    if x <= 1.0:
        # E1(x) = -gamma - ln(x) + sum_{k>=1} (-1)^(k+1) x^k / (k * k!)
        total = -EULER_GAMMA - math.log(x)
        term = x
        total += term
        for k in range(2, _SERIES_MAX_TERMS):
            term *= -x * (k - 1) / (k * k)
            total += term
            if abs(term) <= 1e-17 * abs(total):
                break
        return total

    # E1(x) = exp(-x) / (x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(...)))), evaluated
    # bottom-up-free via the modified Lentz scheme.
    b = x + 1.0
    c = 1.0 / _CF_TINY
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_ITERS + 1):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _CF_EPS:
            return h * math.exp(-x)
    raise ConvergenceError(f"continued fraction for E1 stalled at x={x!r}")


Direction = Literal["increasing", "decreasing"]


def solve_monotone(
    f: Callable[[float], float],
    target: float,
    bracket_lo: float,
    bracket_hi: float,
    direction: Direction,
) -> float:
    """Solve f(x) = target for a continuous, strictly monotone f.

    If the initial bracket does not straddle the target, the deficient end is
    moved geometrically (factor BRACKET_GROWTH, at most MAX_BRACKET_EXPANSIONS
    times per end); a positive end is scaled rather than shifted, so a solver
    started on a positive domain never steps out of it.  Bisection then runs
    until the bracket width is below SOLVER_WIDTH_TOL * max(1, |x|); brackets
    that stay positive are bisected in log space, which keeps the relative
    error near SOLVER_WIDTH_TOL even for roots far below 1.

    Raises BracketingError when expansion cannot straddle the target (the
    target is outside the function's range, or a positive lower end would
    have to underflow to 0) and ConvergenceError when the
    bisection cap is hit, which indicates a non-monotone f.
    """
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"direction must be 'increasing' or 'decreasing', got {direction!r}")
    lo = float(bracket_lo)
    hi = float(bracket_hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise ValueError(f"invalid bracket [{bracket_lo!r}, {bracket_hi!r}]")
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target!r}")

    sign = 1.0 if direction == "increasing" else -1.0
    t = sign * target
    g_lo = sign * f(lo)
    g_hi = sign * f(hi)

    for _ in range(MAX_BRACKET_EXPANSIONS):
        if g_lo <= t:
            break
        lo = lo / BRACKET_GROWTH if lo > 0.0 else lo - BRACKET_GROWTH * (hi - lo)
        if lo == 0.0:   # only a positive end shrinking past the smallest double
            raise BracketingError(f"lower bracket end underflowed to 0 (target {target!r})")
        g_lo = sign * f(lo)
    else:
        raise BracketingError(
            f"no bracket end with f <= target after {MAX_BRACKET_EXPANSIONS} expansions "
            f"(target {target!r} outside range?)"
        )
    for _ in range(MAX_BRACKET_EXPANSIONS):
        if g_hi >= t:
            break
        hi = hi * BRACKET_GROWTH if hi > 0.0 else hi + BRACKET_GROWTH * (hi - lo)
        g_hi = sign * f(hi)
    else:
        raise BracketingError(
            f"no bracket end with f >= target after {MAX_BRACKET_EXPANSIONS} expansions "
            f"(target {target!r} outside range?)"
        )

    geometric = lo > 0.0
    for _ in range(MAX_BISECTIONS):
        if geometric:
            # Log-space bisection: stop on relative width, which is stricter
            # than the absolute criterion for roots below 1 and equivalent
            # above it.  An absolute stop here would declare victory on any
            # sub-1e-14 bracket whose ends still differ by orders of
            # magnitude.
            mid = math.sqrt(lo) * math.sqrt(hi)
            if hi - lo <= SOLVER_WIDTH_TOL * lo:
                return mid
        else:
            mid = 0.5 * (lo + hi)
            if hi - lo <= SOLVER_WIDTH_TOL * max(1.0, abs(mid)):
                return mid
        g_mid = sign * f(mid)
        if g_mid < t:
            lo = mid
        elif g_mid > t:
            hi = mid
        else:
            return mid
    raise ConvergenceError(
        "bisection failed to converge; is the function strictly monotone on the bracket?"
    )
