"""Truncated channel inversion at the end nodes.

Above a cutoff gain the node inverts its own channel, spending exactly the
power that makes the link capacity meet the session rate; below it the node
stays silent and the cycle is written off.  The cutoff is pinned by equating
the resulting average spend, (delta / omega) * E1(cutoff / omega) under
exponential fading, to the node's long-term budget, so a node's policy is
fixed by its budget alone.  The per-cycle powers are evaluated by
`relay_policy.cycle_powers`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .specfun import (EULER_GAMMA, BracketingError, exp_integral_e1, require_positive,
                      solve_monotone)

__all__ = [
    "EndNodePolicy",
    "solve_cutoff",
]


def solve_cutoff(delta: float, omega: float, pbar: float) -> float:
    """The unique c > 0 with (delta / omega) * E1(c / omega) = pbar.

    The left side falls continuously from +inf to 0 as c grows, so a root
    exists and is unique for any positive budget.  Raises BracketingError if
    delta / omega overflows, or if the cutoff falls below the smallest normal
    double, about exp(-708), where it keeps too few bits to be solved.
    """
    delta = require_positive(delta, "delta")
    omega = require_positive(omega, "omega")
    pbar = require_positive(pbar, "pbar")
    scale = delta / omega

    def avg_power(cutoff: float) -> float:
        return scale * exp_integral_e1(cutoff / omega)

    # z = c / omega solves E1(z) = L.  As E1(z) + gamma + ln z lies in (0, z),
    # z > exp(-gamma - L), and z < e times that once L >= 1/2; below that,
    # exp(-z) / (z + 1) < E1(z) < exp(-z) (z >= 1) brackets z by z_hi and
    # -ln L - ln(1 + z_hi).
    load = pbar * omega / delta
    neg_log_load = math.log(delta) - math.log(omega) - math.log(pbar)
    z_hi = math.exp(1.0 - EULER_GAMMA - load) if load >= 0.5 else max(1.0, neg_log_load)
    z_lo = max(math.exp(-EULER_GAMMA - load), neg_log_load - math.log1p(z_hi))
    try:
        if scale == math.inf:
            raise BracketingError("delta / omega overflows a double")
        if omega * z_lo < sys.float_info.min:
            raise BracketingError("the cutoff falls below the smallest normal double")
        return solve_monotone(avg_power, pbar, omega * z_lo, omega * z_hi, "decreasing")
    except BracketingError as exc:
        raise BracketingError(f"cutoff solve for budget {pbar!r}: {exc}") from None


@dataclass(frozen=True)
class EndNodePolicy:
    """Inversion rule of one end node: SNR threshold, own-link mean gain,
    budget, and the cutoff gain `solve_cutoff` derives from them."""

    delta: float
    omega: float
    pbar: float
    cutoff: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cutoff", solve_cutoff(self.delta, self.omega, self.pbar))
