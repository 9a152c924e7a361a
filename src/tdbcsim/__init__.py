"""Outage-minimal power allocation for three-phase bidirectional DF relaying.

Two end nodes exchange fixed-rate traffic through a half-duplex relay over
reciprocal Rayleigh block-fading links, each node under a long-term average
power budget.  This package solves the outage-minimizing transmit policies
(truncated channel inversion at the end nodes, capped minimum-power broadcast
at the relay), evaluates the resulting outage probability in closed form, and
validates every closed form against a seeded Monte Carlo simulation of the
transmission cycle.
"""

from .endnode_policy import solve_cutoff
from .mc_engine import SimReport, run_opa, simulate
from .outage_analytics import (
    FpaConfig,
    min_outage,
    outage_fpa,
    outage_opa,
)
from .relay_policy import (
    RelayPolicy,
    avg_relay_power,
    cycle_powers,
    policies_from_config,
    solve_rho,
)
from .specfun import (
    BracketingError,
    ConvergenceError,
    exp_integral_e1,
)
from .system_model import FadingSampler, SystemConfig, delta_of_rate

__version__ = "0.1.0"

__all__ = [
    "BracketingError",
    "ConvergenceError",
    "FadingSampler",
    "FpaConfig",
    "RelayPolicy",
    "SimReport",
    "SystemConfig",
    "avg_relay_power",
    "cycle_powers",
    "delta_of_rate",
    "exp_integral_e1",
    "min_outage",
    "outage_fpa",
    "outage_opa",
    "policies_from_config",
    "run_opa",
    "simulate",
    "solve_cutoff",
    "solve_rho",
]
