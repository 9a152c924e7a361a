"""Truncated channel inversion at the end nodes.

Above a cutoff gain the node inverts its own channel, spending exactly the
power that makes the link capacity meet the session rate; below it the node
stays silent and the cycle is written off.  The cutoff is pinned by equating
the resulting average spend, (delta / omega) * E1(cutoff / omega) under
exponential fading, to the node's long-term budget.  The per-cycle powers
are evaluated by `relay_policy.cycle_powers`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import BracketingError, exp_integral_e1, require_positive, solve_monotone
from .system_model import TDBC_PHASES

__all__ = [
    "CUTOFF_BRACKET_LO_SCALE",
    "CUTOFF_BRACKET_HI_SCALE",
    "POLICY_CONSISTENCY_RTOL",
    "EndNodePolicy",
    "solve_cutoff",
]

#: Initial cutoff bracket, in units of omega; the solver widens it on demand.
#: The lower end sits near the smallest normal double: budgets of several
#: hundred (30 dB and beyond) push the cutoff down to e^-budget, and a
#: shallower start would exhaust the solver's expansion allowance first.
CUTOFF_BRACKET_LO_SCALE = 1e-300
CUTOFF_BRACKET_HI_SCALE = 50.0

#: Allowed relative mismatch between a policy's stored budget and the budget
#: implied by its cutoff.
POLICY_CONSISTENCY_RTOL = 1e-6


def solve_cutoff(delta: float, omega: float, pbar: float) -> float:
    """The unique c > 0 with (delta / omega) * E1(c / omega) = pbar.

    The left side falls continuously from +inf to 0 as c grows, so a root
    exists and is unique for any positive budget.
    """
    delta = require_positive(delta, "delta")
    omega = require_positive(omega, "omega")
    pbar = require_positive(pbar, "pbar")
    scale = delta / omega

    def avg_power(cutoff: float) -> float:
        return scale * exp_integral_e1(cutoff / omega)

    try:
        return solve_monotone(
            avg_power,
            pbar,
            omega * CUTOFF_BRACKET_LO_SCALE,
            omega * CUTOFF_BRACKET_HI_SCALE,
            "decreasing",
        )
    except BracketingError as exc:
        raise BracketingError(f"cutoff solve for budget {pbar!r}: {exc}") from None


@dataclass(frozen=True)
class EndNodePolicy:
    """Inversion rule of one end node: SNR threshold, cutoff gain, own-link
    mean gain, and the budget the cutoff was solved against."""

    delta: float
    cutoff: float
    omega: float
    pbar: float

    def __post_init__(self) -> None:
        for name in ("delta", "cutoff", "omega", "pbar"):
            object.__setattr__(self, name, require_positive(getattr(self, name), name))
        implied = (self.delta / self.omega) * exp_integral_e1(self.cutoff / self.omega)
        if abs(implied - self.pbar) > POLICY_CONSISTENCY_RTOL * max(1.0, self.pbar):
            raise ValueError(
                f"inconsistent policy: cutoff {self.cutoff!r} implies average power "
                f"{implied!r}, stored budget is {self.pbar!r}"
            )

    @classmethod
    def from_budget(cls, delta: float, omega: float, pbar: float) -> "EndNodePolicy":
        """Solve the cutoff for a given budget."""
        return cls(delta, solve_cutoff(delta, omega, pbar), omega, pbar)

    @classmethod
    def from_cutoff(cls, delta: float, omega: float, cutoff: float) -> "EndNodePolicy":
        """Adopt a cutoff and record the budget it consumes."""
        delta = require_positive(delta, "delta")
        omega = require_positive(omega, "omega")
        cutoff = require_positive(cutoff, "cutoff")
        pbar = (delta / omega) * exp_integral_e1(cutoff / omega)
        return cls(delta, cutoff, omega, pbar)

    @property
    def rate(self) -> float:
        """Session rate implied by the SNR threshold."""
        return math.log2(1.0 + self.delta) / TDBC_PHASES

