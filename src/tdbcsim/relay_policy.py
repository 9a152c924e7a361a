"""Relay-side power allocation, and the per-cycle protocol of the system.

The relay decodes both uplink codewords only when both channel gains clear
the end-node cutoffs (the decode region).  Inside that region the cheapest
broadcast power serving both directions is max(delta1 / y, delta2 / x); the
relay's own long-term budget then imposes a cap rho, above which the relay
stays silent rather than overspend.  A RelayPolicy holds both thresholds,
both end-node cutoffs and the cap, so `cycle_powers` evaluates what all three
nodes send in a cycle from it alone.  The cap is pinned by inverting the
closed-form average broadcast power, which this module evaluates in terms of
the effective truncation corners

    lambda1 = max(x0, delta2 / rho),    lambda2 = max(y0, delta1 / rho).

With the cap in force the served region is exactly the quadrant x >= lambda1,
y >= lambda2 split along the ray y = (delta1 / delta2) x, and the average
power over each wedge reduces to E1 terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .endnode_policy import EndNodePolicy
from .specfun import BracketingError, exp_integral_e1, require_positive, solve_monotone
from .system_model import SystemConfig

__all__ = [
    "UNBOUNDED",
    "RelayPolicy",
    "RhoValue",
    "cycle_powers",
    "avg_relay_power",
    "avg_relay_power_max",
    "solve_rho",
    "policies_from_config",
]


class _UnboundedRho:
    """Cap value for a relay budget that covers peak demand: the relay
    serves every decodable state and the cap never binds."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNBOUNDED"


#: The distinguished no-truncation cap.  Compare with `is`.
UNBOUNDED = _UnboundedRho()

RhoValue = Union[float, _UnboundedRho]


def _lambdas(delta1: float, delta2: float, x0: float, y0: float,
             rho: RhoValue) -> tuple[float, float]:
    if isinstance(rho, _UnboundedRho):
        return x0, y0
    return max(x0, delta2 / rho), max(y0, delta1 / rho)


@dataclass(frozen=True)
class RelayPolicy:
    """Complete relay transmission rule for one system configuration.

    x0 / y0 are the end-node cutoffs bounding the decode region; rho caps the
    broadcast power (UNBOUNDED when the budget covers every decodable state);
    lambda1 / lambda2 are the effective per-axis truncation corners derived
    from rho, stored because every closed form is written in them.
    """

    delta1: float
    delta2: float
    x0: float
    y0: float
    rho: RhoValue
    lambda1: float
    lambda2: float
    omega_x: float
    omega_y: float

    def __post_init__(self) -> None:
        for name in ("delta1", "delta2", "x0", "y0",
                     "lambda1", "lambda2", "omega_x", "omega_y"):
            object.__setattr__(self, name, require_positive(getattr(self, name), name))
        if not isinstance(self.rho, _UnboundedRho):
            object.__setattr__(self, "rho", require_positive(self.rho, "rho"))
        l1, l2 = _lambdas(self.delta1, self.delta2, self.x0, self.y0, self.rho)
        if self.lambda1 != l1 or self.lambda2 != l2:
            raise ValueError(
                f"inconsistent truncation corners: stored ({self.lambda1!r}, "
                f"{self.lambda2!r}), cap {self.rho!r} implies ({l1!r}, {l2!r})"
            )

    @property
    def uses_case_a(self) -> bool:
        """Which wedge geometry applies: True when delta2 * y0 <= delta1 * x0,
        False when the average power is evaluated with the end nodes swapped
        (ties resolve to True; both orientations agree there)."""
        return self.delta2 * self.y0 <= self.delta1 * self.x0

    @classmethod
    def from_rho(cls, delta1: float, delta2: float, x0: float, y0: float,
                 omega_x: float, omega_y: float, rho: RhoValue) -> "RelayPolicy":
        """Adopt a candidate cap and derive the truncation corners from it."""
        l1, l2 = _lambdas(delta1, delta2, x0, y0, rho)
        return cls(delta1, delta2, x0, y0, rho, l1, l2, omega_x, omega_y)

    @classmethod
    def from_budget(cls, delta1: float, delta2: float, x0: float, y0: float,
                    omega_x: float, omega_y: float, p_avg: float) -> "RelayPolicy":
        """Solve the cap that spends exactly the budget `p_avg` (UNBOUNDED
        when the budget reaches the saturation value)."""
        rho = solve_rho(delta1, delta2, x0, y0, omega_x, omega_y, p_avg)
        return cls.from_rho(delta1, delta2, x0, y0, omega_x, omega_y, rho)


def _gains(values, name: str) -> np.ndarray:
    g = np.asarray(values, dtype=float)
    # min and max propagate NaN, which fails both comparisons.
    if g.size and not (g.min() >= 0.0 and g.max() < math.inf):
        raise ValueError(f"{name} gains must be finite and >= 0")
    return g


def cycle_powers(policy: RelayPolicy, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Powers (p1, p2, pr) of the two end nodes and the relay at channel
    gains x, y: arrays or scalars, broadcast together (0-d for scalars).

    End node 1 sends delta1 / x from x >= x0 on, end node 2 delta2 / y from
    y >= y0 on; below its cutoff a node is silent.  When both send, the relay
    decodes and broadcasts max(delta1 / y, delta2 / x) if that fits under the
    cap, and is silent otherwise: pr == 0 marks an outage.  Raises ValueError
    on a negative or non-finite gain.
    """
    x, y = np.broadcast_arrays(_gains(x, "x"), _gains(y, "y"))
    sends1 = x >= policy.x0
    sends2 = y >= policy.y0
    p1 = np.divide(policy.delta1, x, out=np.zeros(x.shape), where=sends1)
    p2 = np.divide(policy.delta2, y, out=np.zeros(y.shape), where=sends2)
    decoded = sends1 & sends2
    pr = np.zeros(decoded.shape)
    pr[decoded] = np.maximum(policy.delta1 / y[decoded], policy.delta2 / x[decoded])
    if not isinstance(policy.rho, _UnboundedRho):
        pr[pr > policy.rho] = 0.0
    return p1, p2, pr


def _wedge_power(delta1: float, delta2: float, x0: float,
                 omega_x: float, omega_y: float, l1: float, l2: float) -> float:
    """Average broadcast power for the geometry delta2 * y0 <= delta1 * x0.

    Wedge toward the second node: (delta1 / y) over {x >= a1,
    l2 <= y <= (delta1 / delta2) x}; wedge toward the first:
    (delta2 / x) over {y >= (delta1 / delta2) l1, l1 <= x <= (delta2 / delta1) y}.
    a1 = max(x0, (delta2 / delta1) l2) keeps the first wedge's x range from
    starting where the y interval would be empty, which happens once the cap
    pushes the corner past x0.
    """
    a1 = max(x0, delta2 * l2 / delta1)
    k = 1.0 / omega_x + delta1 / (delta2 * omega_y)
    c1 = delta1 / omega_y
    c2 = delta2 / omega_x
    return (
        c1 * math.exp(-a1 / omega_x)
        * (exp_integral_e1(l2 / omega_y) - exp_integral_e1(delta1 * a1 / (delta2 * omega_y)))
        + c1 * exp_integral_e1(k * a1)
        + c2 * exp_integral_e1(k * l1)
    )


def _avg_power(delta1: float, delta2: float, x0: float, y0: float,
               omega_x: float, omega_y: float, rho: RhoValue) -> float:
    l1, l2 = _lambdas(delta1, delta2, x0, y0, rho)
    if delta2 * y0 <= delta1 * x0:
        return _wedge_power(delta1, delta2, x0, omega_x, omega_y, l1, l2)
    # The other geometry is this one with the two end nodes swapped.
    return _wedge_power(delta2, delta1, y0, omega_y, omega_x, l2, l1)


def avg_relay_power(policy: RelayPolicy) -> float:
    """Closed-form expectation of the relay power of cycle_powers over the
    fading law.

    The truncation corners are recomputed from the stored cap, so the value
    reflects the cap even on hand-built policies.
    """
    return _avg_power(policy.delta1, policy.delta2, policy.x0, policy.y0,
                      policy.omega_x, policy.omega_y, policy.rho)


def avg_relay_power_max(delta1: float, delta2: float, x0: float, y0: float,
                        omega_x: float, omega_y: float) -> float:
    """Saturation value of the average broadcast power: the spend with no cap
    at all, reached once rho clears max(delta1 / y0, delta2 / x0)."""
    delta1 = require_positive(delta1, "delta1")
    delta2 = require_positive(delta2, "delta2")
    x0 = require_positive(x0, "x0")
    y0 = require_positive(y0, "y0")
    omega_x = require_positive(omega_x, "omega_x")
    omega_y = require_positive(omega_y, "omega_y")
    return _avg_power(delta1, delta2, x0, y0, omega_x, omega_y, UNBOUNDED)


#: Initial lower bracket end for the cap solver, as a fraction of the
#: saturation cap; the solver shrinks it geometrically as needed.
RHO_BRACKET_LO_FRACTION = 0.25


def solve_rho(delta1: float, delta2: float, x0: float, y0: float,
              omega_x: float, omega_y: float, p_avg: float) -> RhoValue:
    """Cap that makes the average broadcast power spend exactly `p_avg`.

    The average is continuous and nondecreasing in the cap, vanishing as the
    cap shrinks (the served region empties) and saturating at
    avg_relay_power_max once the cap clears max(delta1 / y0, delta2 / x0).
    Budgets at or above the saturation value return UNBOUNDED.
    """
    p_avg = require_positive(p_avg, "p_avg")
    # avg_relay_power_max validates the other six parameters.
    p_max = avg_relay_power_max(delta1, delta2, x0, y0, omega_x, omega_y)
    if p_avg >= p_max:
        return UNBOUNDED

    saturation_rho = max(delta1 / y0, delta2 / x0)

    def spend(rho: float) -> float:
        return _avg_power(delta1, delta2, x0, y0, omega_x, omega_y, rho)

    try:
        return solve_monotone(
            spend,
            p_avg,
            saturation_rho * RHO_BRACKET_LO_FRACTION,
            saturation_rho * (1.0 + 1e-12),
            "increasing",
        )
    except BracketingError as exc:
        raise BracketingError(f"cap solve for relay budget {p_avg!r}: {exc}") from None


def policies_from_config(config: SystemConfig) -> tuple[EndNodePolicy, EndNodePolicy, RelayPolicy]:
    """Solve all three node policies for one problem instance."""
    node1 = EndNodePolicy.from_budget(config.delta1, config.omega_x, config.pbar_s1)
    node2 = EndNodePolicy.from_budget(config.delta2, config.omega_y, config.pbar_s2)
    relay = RelayPolicy.from_budget(
        config.delta1, config.delta2, node1.cutoff, node2.cutoff,
        config.omega_x, config.omega_y, config.p_avg_relay,
    )
    return node1, node2, relay
