"""Closed-form system outage probabilities.

A cycle succeeds only if both uplinks clear their cutoffs and the relay's
capped broadcast can serve both directions; the outage probability is the
fading measure of everything else.  Under the adaptive policies the served
set is the quadrant above the relay policy's corners (lambda1, lambda2); the
fixed-power baseline is the same rule at constant powers, a relay policy
itself (`fpa_policy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .relay_policy import RelayPolicy
from .specfun import require_positive
from .system_model import SystemConfig

__all__ = [
    "OutageReport",
    "FpaConfig",
    "min_outage",
    "outage_opa",
    "fpa_policy",
    "outage_fpa",
]


@dataclass(frozen=True)
class OutageReport:
    """A relay policy and its outage probability, the fading measure outside
    its served quadrant (see `outage_opa`)."""

    policy: RelayPolicy
    p_out: float = field(init=False)

    def __post_init__(self) -> None:
        policy = self.policy
        object.__setattr__(self, "p_out", min_outage(policy.lambda1, policy.lambda2,
                                                     policy.omega_x, policy.omega_y))


@dataclass(frozen=True)
class FpaConfig:
    """Fixed transmit powers (linear, unit-noise normalized) of the baseline
    that spends the same power in every cycle."""

    p_s1_fix: float
    p_s2_fix: float
    p_r_fix: float

    def __post_init__(self) -> None:
        for name in ("p_s1_fix", "p_s2_fix", "p_r_fix"):
            object.__setattr__(self, name, require_positive(getattr(self, name), name))


def min_outage(x0: float, y0: float, omega_x: float, omega_y: float) -> float:
    """Fading measure of the complement of the quadrant {x >= x0, y >= y0}:
    1 - exp(-x0/omega_x) * exp(-y0/omega_y).  At the end-node cutoffs this
    is the outage floor that no relay budget can lower."""
    x0 = require_positive(x0, "x0")
    y0 = require_positive(y0, "y0")
    omega_x = require_positive(omega_x, "omega_x")
    omega_y = require_positive(omega_y, "omega_y")
    return -math.expm1(-(x0 / omega_x + y0 / omega_y))


def outage_opa(policy: RelayPolicy) -> OutageReport:
    """System outage probability under the adaptive policies.

    The relay serves a cycle exactly when it decodes (x >= x0, y >= y0) and
    its broadcast power max(delta1 / y, delta2 / x) fits under the cap,
    i.e. when x >= lambda1 and y >= lambda2, the policy's corners
    (max(x0, delta2 / rho) and max(y0, delta1 / rho), made exact in floating
    point).  The outage is the measure outside exactly the quadrant that
    `cycle_powers` serves and the Monte Carlo engine counts.
    """
    return OutageReport(policy)


def fpa_policy(config: SystemConfig, fpa: FpaConfig) -> RelayPolicy:
    """The fixed-power baseline as a relay policy: the relay's rule with
    cutoffs delta1 / p1, delta2 / p2 and the cap p_r, at constant powers.
    Raises ValueError if a cutoff rounds to 0."""
    d1, d2 = config.delta1, config.delta2
    return RelayPolicy(d1, d2, d1 / fpa.p_s1_fix, d2 / fpa.p_s2_fix,
                       config.omega_x, config.omega_y, fpa.p_r_fix)


def outage_fpa(config: SystemConfig, fpa: FpaConfig) -> float:
    """Outage probability of the fixed-power baseline, read as `outage_opa`
    reads it from `fpa_policy`."""
    return outage_opa(fpa_policy(config, fpa)).p_out
