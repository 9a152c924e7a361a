"""Independent oracles for the benchmark's output checks.

Nothing here calls tdbcsim: cutoffs, relay caps, relay spend and outage are
recomputed from their definitions with scipy (``special.exp1``,
``integrate.quad``, ``optimize.brentq``), so a check compares the program
with a computation made apart from it.
"""

from __future__ import annotations

import math

from scipy import integrate, optimize, special

EULER_GAMMA = 0.5772156649015329

#: Relative tolerance of every closed-form comparison.  Loose enough for the
#: 12 significant digits the CLI prints, tight enough that a closed form
#: which has lost its last seven digits to cancellation is caught.
CLOSED_FORM_RTOL = 1e-9

#: Width of the Monte Carlo acceptance band, in standard deviations of the
#: binomial count (taken from the closed-form probability), plus K_SIGMA**2
#: counts of slack for nearly empty bins.  At k = 6 a correct program fails a
#: given column with probability below 1e-8, so any seed passes.
K_SIGMA = 6.0


def rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Independent closed forms
# ---------------------------------------------------------------------------

def e1_of_log(t: float) -> float:
    """E1(exp(t)); below t = -40 the two-term series is exact to rounding."""
    if t < -40.0:
        return -EULER_GAMMA - t + math.exp(t)
    return float(special.exp1(math.exp(t)))


def log_cutoff(delta: float, omega: float, pbar: float) -> float:
    """ln(c / omega) for the end-node cutoff c: (delta/omega) E1(c/omega) = pbar."""
    load = pbar * omega / delta
    if load > 45.0:
        return -EULER_GAMMA - load
    return optimize.brentq(lambda t: e1_of_log(t) - load,
                           -EULER_GAMMA - load - 1.0, 7.0, xtol=1e-15, rtol=1e-15)


def quadrant_outage(l1: float, l2: float, omega_x: float, omega_y: float) -> float:
    """Outage when exactly the quadrant x >= l1, y >= l2 is served."""
    return -math.expm1(-(l1 / omega_x + l2 / omega_y))


def fpa_outage(d1: float, d2: float, omega_x: float, omega_y: float,
               p1: float, p2: float, pr: float) -> float:
    """Outage of fixed powers: x and y must each clear the larger of their
    uplink and broadcast thresholds."""
    return quadrant_outage(max(d1 / p1, d2 / pr), max(d2 / p2, d1 / pr), omega_x, omega_y)


def relay_spend(d1: float, d2: float, omega_x: float, omega_y: float,
                l1: float, l2: float, epsrel: float = 1e-13) -> float:
    """Average of max(d1/y, d2/x) over the quadrant x >= l1, y >= l2 of
    independent exponential gains, by quadrature over ln x with the inner y
    integral in E1."""
    e1_l2 = float(special.exp1(l2 / omega_y))
    tail_l2 = math.exp(-l2 / omega_y)

    def integrand(s: float) -> float:
        x = math.exp(s)
        t = d1 * x / d2                      # inner split: d1/y >= d2/x below y = t
        if t <= l2:
            inner = (d2 / x) * tail_l2
        else:
            inner = ((d1 / omega_y) * (e1_l2 - float(special.exp1(t / omega_y)))
                     + (d2 / x) * math.exp(-t / omega_y))
        return inner * x * math.exp(-x / omega_x) / omega_x

    lo = math.log(l1)
    hi = math.log(l1 + 60.0 * omega_x)
    split = math.log(d2 * l2 / d1)
    pieces = [lo] + ([split] if lo < split < hi else []) + [hi]
    total = 0.0
    for a, b in zip(pieces, pieces[1:]):
        total += integrate.quad(integrand, a, b, epsabs=0.0, epsrel=epsrel, limit=200)[0]
    return total


def design_outage(d1: float, d2: float, omega_x: float, omega_y: float,
                  pbar_1: float, pbar_2: float, p_relay: float) -> float:
    """Outage of the outage-minimal design, solved from the definitions:
    cutoffs from the E1 budget equation, relay cap from the quadrature spend."""
    x0 = omega_x * math.exp(log_cutoff(d1, omega_x, pbar_1))
    y0 = omega_y * math.exp(log_cutoff(d2, omega_y, pbar_2))
    if relay_spend(d1, d2, omega_x, omega_y, x0, y0) <= p_relay:
        return quadrant_outage(x0, y0, omega_x, omega_y)

    def corners(u: float) -> tuple[float, float]:
        rho = math.exp(u)
        return max(x0, d2 / rho), max(y0, d1 / rho)

    def excess(u: float) -> float:
        return relay_spend(d1, d2, omega_x, omega_y, *corners(u)) - p_relay

    hi = math.log(max(d1 / y0, d2 / x0))
    lo = hi - 4.0
    while excess(lo) > 0.0:
        lo -= 4.0
    u = optimize.brentq(excess, lo, hi, xtol=1e-14, rtol=1e-15)
    return quadrant_outage(*corners(u), omega_x, omega_y)
