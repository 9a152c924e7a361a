"""End-node inversion policies: cutoff equation, and the end-node side of
the per-cycle rule (power, rate support)."""

import math

import numpy as np
import pytest

from tdbcsim.endnode_policy import EndNodePolicy, solve_cutoff
from tdbcsim.relay_policy import UNBOUNDED, RelayPolicy, cycle_powers
from tdbcsim.specfun import exp_integral_e1
from tdbcsim.system_model import FadingSampler


class TestSolveCutoff:
    def test_round_trip_unit_parameters(self):
        """Budget equal to E1(0.5) pins the cutoff at exactly 0.5."""
        assert solve_cutoff(1.0, 1.0, exp_integral_e1(0.5)) == pytest.approx(0.5, rel=1e-9)

    def test_round_trip_scaled_omega(self):
        """With mean gain 2 and budget E1(1)/2 the cutoff lands at 2.0."""
        pbar = 0.5 * exp_integral_e1(1.0)
        assert solve_cutoff(1.0, 2.0, pbar) == pytest.approx(2.0, rel=1e-9)

    def test_more_power_lowers_cutoff(self):
        low = solve_cutoff(1.0, 1.0, 0.4)
        high = solve_cutoff(1.0, 1.0, 0.8)
        assert high < low

    def test_higher_threshold_raises_cutoff(self):
        small = solve_cutoff(0.5, 1.0, 0.4)
        large = solve_cutoff(2.0, 1.0, 0.4)
        assert large > small

    def test_random_round_trips(self):
        rng = np.random.default_rng(5150)
        for _ in range(50):
            delta = float(10.0 ** rng.uniform(-1, 0.8))
            omega = float(10.0 ** rng.uniform(-0.6, 0.6))
            cutoff = float(10.0 ** rng.uniform(-3, 0.7))
            pbar = (delta / omega) * exp_integral_e1(cutoff / omega)
            assert solve_cutoff(delta, omega, pbar) == pytest.approx(cutoff, rel=1e-9)

    @pytest.mark.parametrize("delta,omega,pbar", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0),
                                                  (1.0, 1.0, 0.0)])
    def test_rejects_bad_inputs(self, delta, omega, pbar):
        with pytest.raises(ValueError):
            solve_cutoff(delta, omega, pbar)


class TestEndNodePolicy:
    def test_from_budget_is_consistent(self):
        policy = EndNodePolicy.from_budget(1.0, 1.0, 0.7)
        implied = exp_integral_e1(policy.cutoff)
        assert implied == pytest.approx(0.7, rel=1e-9)

    def test_from_cutoff_records_budget(self):
        policy = EndNodePolicy.from_cutoff(2.0, 0.5, 0.25)
        assert policy.pbar == pytest.approx(4.0 * exp_integral_e1(0.5), rel=1e-12)

    def test_rejects_inconsistent_budget(self):
        with pytest.raises(ValueError):
            EndNodePolicy(delta=1.0, cutoff=0.5, omega=1.0, pbar=3.0)

    def test_rate_property(self):
        policy = EndNodePolicy.from_cutoff(1.0, 1.0, 0.5)
        assert policy.rate == pytest.approx(1.0 / 3.0, rel=1e-15)


def _policy(delta=1.0, cutoff=0.5, omega=1.0):
    """A system whose first end node has the given threshold and cutoff."""
    return RelayPolicy.from_rho(delta, 1.0, cutoff, 1.0, omega, 1.0, UNBOUNDED)


def _power(policy, gain):
    """Power of the first end node at own-link gain `gain`."""
    p1, _, _ = cycle_powers(policy, gain, 1.0)
    return p1


class TestEndnodePower:
    def test_inverts_above_cutoff(self):
        assert _power(_policy(), 2.0) == 0.5

    def test_silent_below_cutoff(self):
        assert _power(_policy(), 0.4) == 0.0

    def test_boundary_transmits(self):
        assert _power(_policy(), 0.5) == 2.0

    def test_rejects_negative_gain(self):
        for gain in (-0.1, math.nan, math.inf, [1.0, -0.1]):
            with pytest.raises(ValueError):
                cycle_powers(_policy(), gain, 1.0)
            with pytest.raises(ValueError):
                cycle_powers(_policy(), 1.0, gain)

    def test_exact_inversion_meets_rate(self):
        """Capacity equals the session rate to machine precision whenever the
        node transmits."""
        policy = _policy(delta=3.0, cutoff=0.2)
        rate = math.log2(1.0 + 3.0) / 3.0
        gains = np.logspace(math.log10(0.2), 3, 200)
        for gain, power in zip(gains, _power(policy, gains)):
            capacity = math.log2(1.0 + float(power) * float(gain)) / 3.0
            assert capacity == pytest.approx(rate, rel=1e-14)


class TestLinkSupportsRate:
    """The link carries the session rate exactly when the node transmits."""

    def test_boundary_counts_as_support(self):
        assert _power(_policy(), 0.5) > 0.0

    def test_zero_gain_fails(self):
        assert _power(_policy(), 0.0) == 0.0

    def test_just_below_cutoff_fails(self):
        assert _power(_policy(), 0.5 * 0.999) == 0.0

    def test_matches_capacity_predicate(self):
        policy = _policy(delta=1.0, cutoff=0.3)
        rate = math.log2(1.0 + 1.0) / 3.0
        gains = np.linspace(0.0, 2.0, 400)
        for gain, power in zip(gains, _power(policy, gains)):
            capacity = math.log2(1.0 + float(power) * float(gain)) / 3.0
            # tiny slack: the capacity side is float-rounded at equality
            by_capacity = capacity >= rate - 1e-12
            assert (power > 0.0) == by_capacity


class TestBudgetStatistics:
    def test_average_spend_matches_budget(self):
        """Monte Carlo mean of the power rule over 1e6 exponential draws
        reproduces the budget within 1%, confirming the cutoff equation."""
        policy = EndNodePolicy.from_budget(1.0, 2.0, 0.6)
        gains, _ = FadingSampler(999, 2.0, 1.0).sample_block(1_000_000)
        spend = np.zeros_like(gains)
        mask = gains >= policy.cutoff
        spend[mask] = policy.delta / gains[mask]
        assert float(spend.mean()) == pytest.approx(0.6, rel=0.01)

    def test_single_link_outage_rate(self):
        """Empirical share of silent cycles equals 1 - exp(-cutoff/omega)
        within 4 binomial sigmas at 1e6 draws."""
        n = 1_000_000
        policy = EndNodePolicy.from_budget(1.0, 1.0, 0.8)
        gains, _ = FadingSampler(31337, 1.0, 1.0).sample_block(n)
        rate = float(np.mean(gains < policy.cutoff))
        expected = -math.expm1(-policy.cutoff)
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(rate - expected) <= 4.0 * sigma
