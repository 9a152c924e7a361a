"""Relay-side power allocation, and the per-cycle protocol of the system.

The relay decodes both uplink codewords only when both channel gains clear
the end-node cutoffs (the decode region).  Inside that region the cheapest
broadcast power serving both directions is max(delta1 / y, delta2 / x); the
relay's own long-term budget then imposes a cap rho, above which the relay
stays silent rather than overspend.  A RelayPolicy holds both end-node
cutoffs, the cap and the corners (lambda1, lambda2) of the quadrant it
serves, so `cycle_powers` evaluates what all three nodes send in a cycle
from it alone.  `cycle_totals` counts the outages and sums the powers of
many policies on the same gains; both read one relay pass, which tests the
served quadrant once per axis.  The corners are

    lambda1 = max(x0, delta2 / rho),    lambda2 = max(y0, delta1 / rho)

made exact in floating point.  The quadrant is split along the ray
y = (delta1 / delta2) x, and the average power over it reduces to three E1
terms; the cap is pinned by inverting that closed form.  numpy is imported
inside the functions that build arrays, so policy solves and closed forms
run without it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .endnode_policy import EndNodePolicy
from .specfun import BracketingError, exp_integral_e1, require_positive, solve_monotone
from .system_model import SystemConfig

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RelayPolicy",
    "cycle_powers",
    "cycle_totals",
    "avg_relay_power",
    "solve_rho",
    "policies_from_config",
]


def _least_gain(delta: float, rho: float) -> float:
    """Least double t > 0 with delta / t <= rho as rounded (inf if no finite
    one), a step or two from its estimate: quotients round to rho up to the
    midpoint of rho and the next double, far above rho if rho is subnormal."""
    t = (delta / rho if rho >= sys.float_info.min
         else 2.0 * (delta / (rho + math.nextafter(rho, 1.0))))
    while t > math.ulp(0.0) and delta / math.nextafter(t, 0.0) <= rho:
        t = math.nextafter(t, 0.0)
    while t == 0.0 or delta / t > rho:      # delta / 0 is inf, which fails
        t = math.nextafter(t, math.inf)
    return t


def _check_quotients(delta1: float, delta2: float, omega_x: float, omega_y: float) -> None:
    if max(delta1 / omega_y, delta2 / omega_x) == math.inf:    # the spend scales with both
        raise ValueError("delta / omega overflows a double")


@dataclass(frozen=True)
class RelayPolicy:
    """Complete relay transmission rule for one system configuration.

    x0 / y0 are the end-node cutoffs bounding the decode region; rho caps the
    broadcast power (None when the budget covers every decodable state, so
    that the relay is uncapped).
    lambda1 / lambda2 are the corners of the served quadrant, derived from
    rho: at finite gains x, y >= 0, x >= lambda1 and y >= lambda2 exactly
    when x >= x0, y >= y0 and max(delta1 / y, delta2 / x) <= rho as rounded.
    Rounded division is monotone, so delta / x <= rho holds from a least
    double on, which replaces the quotient delta / rho.  Every closed form
    and the Monte Carlo count read these corners, the fixed-power baseline's
    too (`outage_analytics.fpa_policy`).  Raises ValueError if
    delta1 / omega_y or delta2 / omega_x overflows a double.
    """

    delta1: float
    delta2: float
    x0: float
    y0: float
    omega_x: float
    omega_y: float
    rho: float | None
    lambda1: float = field(init=False)
    lambda2: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("delta1", "delta2", "x0", "y0", "omega_x", "omega_y"):
            object.__setattr__(self, name, require_positive(getattr(self, name), name))
        _check_quotients(self.delta1, self.delta2, self.omega_x, self.omega_y)
        corners = (self.x0, self.y0)
        if self.rho is not None:
            object.__setattr__(self, "rho", require_positive(self.rho, "rho"))
            corners = (max(self.x0, _least_gain(self.delta2, self.rho)),
                       max(self.y0, _least_gain(self.delta1, self.rho)))
        for name, value in zip(("lambda1", "lambda2"), corners):
            object.__setattr__(self, name, require_positive(value, name))


def _gains(values, name: str) -> np.ndarray:
    import numpy as np
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
    import numpy as np
    x, y = np.broadcast_arrays(_gains(x, "x"), _gains(y, "y"))
    served, demand = next(_relay_pass([policy], x, y))
    pr = np.where(served, demand, 0.0)
    del served, demand      # freed before p1 and p2: a fourth live array re-faults pages each call
    return (_inverse(policy.delta1, x, x >= policy.x0),
            _inverse(policy.delta2, y, y >= policy.y0), pr)


def cycle_totals(policies: Sequence[RelayPolicy], x, y) -> list[tuple[int, float, float, float]]:
    """Per policy, its outage count at gains x, y (the states where the relay
    does not serve) and the sums of its cycle_powers arrays p1, p2 and pr,
    bit for bit.  Policies with equal delta1 and delta2 share one relay
    demand, and each end node's sum is taken once per (delta, cutoff).
    Raises ValueError on a negative or non-finite gain.
    """
    import numpy as np
    x, y = np.broadcast_arrays(_gains(x, "x"), _gains(y, "y"))

    @functools.cache
    def node_sum(axis: int, delta: float, cutoff: float) -> float:
        gain = (x, y)[axis]
        return float(_inverse(delta, gain, gain >= cutoff).sum())

    totals = []
    for policy, (served, demand) in zip(policies, _relay_pass(policies, x, y)):
        with np.errstate(invalid="ignore"):     # nan: inf * False at an unserved zero gain
            pr = float(np.multiply(demand, served).sum())
        totals.append((served.size - int(np.count_nonzero(served)),
                       node_sum(0, policy.delta1, policy.x0), node_sum(1, policy.delta2, policy.y0),
                       pr if math.isfinite(pr) else float(np.where(served, demand, 0.0).sum())))
    return totals


def _relay_pass(policies: Sequence[RelayPolicy], x: np.ndarray,
                y: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(served, demand) of each policy at gains x, y: the relay serves on the
    quadrant above its corners, where it decoded both uplinks and its
    demand max(delta1 / y, delta2 / x) is within the cap.  Policies with
    equal delta1 and delta2 share one demand array, so a caller must not
    change it in place.
    """
    demands: dict[tuple[float, float], np.ndarray] = {}
    for policy in policies:
        key = (policy.delta1, policy.delta2)
        demand = demands.get(key)
        if demand is None:
            demand = demands[key] = _demand(*key, x, y)
        yield (x >= policy.lambda1) & (y >= policy.lambda2), demand


def _demand(delta1: float, delta2: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """max(delta1 / y, delta2 / x), inf where a gain is 0 or a quotient
    overflows; never nan, as gains are finite and >= 0."""
    import numpy as np
    demand = np.empty(x.shape)      # a 0-d `out`, as divide would return a scalar
    quotient = np.empty(x.shape)
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(delta1, y, out=demand)
        np.divide(delta2, x, out=quotient)
    return np.maximum(demand, quotient, out=demand)


def _inverse(delta: float, gain: np.ndarray, sends: np.ndarray) -> np.ndarray:
    """delta / gain where `sends`, +0.0 elsewhere.  Where `sends` the
    denominator is gain + 0 == gain exactly."""
    import numpy as np
    out = np.empty(gain.shape)
    np.add(gain, ~sends, out=out)
    np.divide(delta, out, out=out)
    out *= sends
    return out


def _wedge_power(delta1: float, delta2: float, omega_x: float, omega_y: float,
                 l1: float, l2: float, e1: Callable[[float], float]) -> float:
    """Average broadcast power over the quadrant x >= l1, y >= l2 whose
    corner lies on or below the ray y = (delta1 / delta2) x.

    Below the ray the relay sends delta1 / y, over {x >= l1,
    l2 <= y <= (delta1 / delta2) x}: the inner y integral is
    (delta1 / omega_y) [E1(l2 / omega_y) - E1(c x)] with
    c = delta1 / (delta2 omega_y), and the x integral of E1(c x), by parts,
    is e^(-l1 / omega_x) E1(c l1) - E1(k l1) with k = 1 / omega_x + c.  Above
    it the relay sends delta2 / x, over {x >= l1, y >= (delta1 / delta2) x}:
    (delta2 / omega_x) E1(k l1).  The two E1(k l1) terms sum to
    delta2 k E1(k l1).  `e1` evaluates E1; a term whose E1 argument
    overflows is 0, as E1 is 0.0 from about 745 on (never inf * 0).
    """
    c = delta1 / (delta2 * omega_y) if delta2 * omega_y else delta1 / delta2 / omega_y
    k = 1.0 / omega_x + c
    e1_c, e1_k = (e1(z) if z < math.inf else 0.0 for z in (c * l1, k * l1))
    return (delta1 / omega_y * math.exp(-l1 / omega_x) * (e1(l2 / omega_y) - e1_c)
            + (delta2 * k * e1_k if e1_k else 0.0))


def _avg_power(delta1: float, delta2: float, omega_x: float, omega_y: float,
               l1: float, l2: float, e1: Callable[[float], float]) -> float:
    if delta2 * l2 <= delta1 * l1:
        return _wedge_power(delta1, delta2, omega_x, omega_y, l1, l2, e1)
    # The corner above the ray is the one below it with the end nodes swapped.
    return _wedge_power(delta2, delta1, omega_y, omega_x, l2, l1, e1)


def avg_relay_power(policy: RelayPolicy) -> float:
    """Closed-form expectation of the relay power of cycle_powers over the
    fading law: the average of max(delta1 / y, delta2 / x) over the quadrant
    above the policy's corners."""
    return _avg_power(policy.delta1, policy.delta2, policy.omega_x, policy.omega_y,
                      policy.lambda1, policy.lambda2, exp_integral_e1)


def solve_rho(delta1: float, delta2: float, x0: float, y0: float,
              omega_x: float, omega_y: float, p_avg: float) -> float | None:
    """Cap that makes the average broadcast power spend exactly `p_avg`.

    The average is continuous and nondecreasing in the cap, vanishing as the
    cap shrinks (the served region empties) and saturating at the uncapped
    spend once the cap clears max(delta1 / y0, delta2 / x0).  Budgets at or
    above the saturation value return None: no cap.  Below it the
    cap is solved on a bracket whose ends provably spend at most and at least
    `p_avg`, so the solver's expansion only mends an end rounding misplaced.
    Raises ValueError if delta1 / omega_y or delta2 / omega_x overflows.
    """
    p_avg = require_positive(p_avg, "p_avg")
    delta1, delta2, x0, y0, omega_x, omega_y = map(
        require_positive, (delta1, delta2, x0, y0, omega_x, omega_y),
        ("delta1", "delta2", "x0", "y0", "omega_x", "omega_y"))
    _check_quotients(delta1, delta2, omega_x, omega_y)
    e1 = functools.cache(exp_integral_e1)     # a corner on its cutoff keeps its E1 terms
    p_max = _avg_power(delta1, delta2, omega_x, omega_y, x0, y0, e1)
    if p_avg >= p_max:
        return None

    # d spend / d ln rho is P, the probability of the served quadrant, times
    # delta2 / omega_x while delta2 / rho > x0 plus delta1 / omega_y while
    # delta1 / rho > y0.  Walking p_max - p_avg down from saturation at these
    # slopes with P = 1 ends on rho_hi, which spends at least p_avg; with k the
    # sum of both slopes, spend <= rho * P <= rho * exp(-k / rho), so rho_lo
    # spends at most p_avg.
    (k_a, s_a), (k_b, s_b) = sorted(((delta2 / x0, delta2 / omega_x),
                                     (delta1 / y0, delta1 / omega_y)), reverse=True)
    k = s_a + s_b
    gap = p_max - p_avg
    first = s_a * math.log(k_a / k_b)
    log_rho = (math.log(k_a) - gap / s_a if gap <= first
               else math.log(k_b) - (gap - first) / k)
    rho_hi = math.exp(min(max(log_rho, -708.0), 709.0))
    rho_lo = k / math.log1p(min(k / p_avg, sys.float_info.max))

    def log_spend(rho: float) -> float:   # nearer linear in ln rho than the spend
        # The quotient corners: a policy's exact ones cost a walk per step.
        spend = _avg_power(delta1, delta2, omega_x, omega_y,
                           max(x0, delta2 / rho), max(y0, delta1 / rho), e1)
        return math.log(max(spend, sys.float_info.min))

    try:
        return solve_monotone(log_spend, math.log(p_avg), min(rho_lo, 0.5 * rho_hi), rho_hi,
                              "increasing")
    except BracketingError as exc:
        raise BracketingError(f"cap solve for relay budget {p_avg!r}: {exc}") from None


def policies_from_config(config: SystemConfig) -> tuple[EndNodePolicy, EndNodePolicy, RelayPolicy]:
    """Solve all three node policies for one problem instance."""
    node1 = EndNodePolicy(config.delta1, config.omega_x, config.pbar_s1)
    end2 = (config.delta2, config.omega_y, config.pbar_s2)     # equal end nodes solve once
    node2 = node1 if end2 == (node1.delta, node1.omega, node1.pbar) else EndNodePolicy(*end2)
    args = (node1.delta, node2.delta, node1.cutoff, node2.cutoff, node1.omega, node2.omega)
    return node1, node2, RelayPolicy(*args, solve_rho(*args, config.p_avg_relay))
