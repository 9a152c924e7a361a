"""Outage-minimal power allocation for three-phase bidirectional DF relaying.

Two end nodes exchange fixed-rate traffic through a half-duplex relay over
reciprocal Rayleigh block-fading links, each node under a long-term average
power budget.  This package solves the outage-minimizing transmit policies
(truncated channel inversion at the end nodes, capped minimum-power broadcast
at the relay), evaluates the resulting outage probability in closed form, and
validates every closed form against a seeded Monte Carlo simulation of the
transmission cycle.
"""

from .endnode_policy import (
    EndNodePolicy,
    endnode_power,
    link_supports_rate,
    solve_cutoff,
)
from .mc_engine import SimReport, run_fpa, run_opa
from .outage_analytics import (
    FpaConfig,
    OutageReport,
    min_outage,
    outage_fpa,
    outage_opa,
)
from .relay_policy import (
    UNBOUNDED,
    RelayPolicy,
    avg_relay_power,
    avg_relay_power_max,
    policies_from_config,
    relay_decodes,
    relay_power_optimal,
    relay_power_static,
    solve_rho,
)
from .specfun import (
    BracketingError,
    ConvergenceError,
    exp_integral_e1,
    solve_monotone,
)
from .system_model import (
    ChannelState,
    FadingSampler,
    SystemConfig,
    delta_of_rate,
)

__version__ = "0.1.0"

__all__ = [
    "BracketingError",
    "ChannelState",
    "ConvergenceError",
    "EndNodePolicy",
    "FadingSampler",
    "FpaConfig",
    "OutageReport",
    "RelayPolicy",
    "SimReport",
    "SystemConfig",
    "UNBOUNDED",
    "avg_relay_power",
    "avg_relay_power_max",
    "delta_of_rate",
    "endnode_power",
    "exp_integral_e1",
    "link_supports_rate",
    "min_outage",
    "outage_fpa",
    "outage_opa",
    "policies_from_config",
    "relay_decodes",
    "relay_power_optimal",
    "relay_power_static",
    "run_fpa",
    "run_opa",
    "solve_cutoff",
    "solve_monotone",
    "solve_rho",
]
