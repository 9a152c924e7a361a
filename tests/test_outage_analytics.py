"""Closed-form outage probabilities: identities, limits, and MC agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scaled_gains
from tdbcsim.outage_analytics import (
    FpaConfig,
    fpa_policy,
    min_outage,
    outage_fpa,
    outage_opa,
)
from tdbcsim.relay_policy import RelayPolicy, policies_from_config
from tdbcsim.system_model import SystemConfig

# Frozen: 1 - exp(-0.4) and 1 - exp(-0.2).
FLOOR_02_02 = 0.3296799539643607
FPA_UNIT_EXAMPLE = 0.18126924692201815


def _policy(delta1=1.0, delta2=1.0, x0=0.2, y0=0.2, omega_x=1.0, omega_y=1.0,
            rho=None):
    return RelayPolicy(delta1, delta2, x0, y0, omega_x, omega_y, rho)


class TestMinOutage:
    def test_frozen_value(self):
        assert min_outage(0.2, 0.2, 1.0, 1.0) == pytest.approx(FLOOR_02_02, rel=1e-12)

    def test_vanishes_with_cutoffs(self):
        assert min_outage(1e-12, 1e-12, 1.0, 1.0) < 1e-11

    def test_monotone_in_normalized_cutoff(self):
        assert min_outage(0.2, 0.2, 2.0, 1.0) < min_outage(0.2, 0.2, 1.0, 1.0)

    def test_tiny_cutoffs_keep_precision(self):
        assert min_outage(1e-140, 1e-140, 1.0, 1.0) == pytest.approx(2e-140, rel=1e-12)


class TestOutageOpa:
    def test_unbounded_cap_hits_floor(self):
        report = outage_opa(_policy())
        assert report.p_out == pytest.approx(FLOOR_02_02, rel=1e-12)

    def test_saturation_identity_grid(self):
        """With the cap unbounded the closed form collapses to the floor on a
        broad parameter grid, to 1e-12."""
        rng = np.random.default_rng(99)
        for _ in range(20):
            d1, d2 = 10.0 ** rng.uniform(-0.5, 0.8, size=2)
            x0, y0 = 10.0 ** rng.uniform(-1.5, 0.5, size=2)
            ox, oy = 10.0 ** rng.uniform(-0.5, 0.5, size=2)
            policy = _policy(float(d1), float(d2), float(x0), float(y0),
                             float(ox), float(oy))
            assert outage_opa(policy).p_out == pytest.approx(
                min_outage(float(x0), float(y0), float(ox), float(oy)), abs=1e-12)

    def test_tail_terms_cancel_when_x_corner_fixed(self):
        """Finite cap inside the window where only the y-corner has moved:
        the tail terms cancel and the probability is the head quadrant."""
        policy = _policy(x0=0.5, y0=0.2, rho=3.0)   # window is (2, 5)
        assert policy.lambda1 == policy.x0
        assert policy.lambda2 > policy.y0
        expected = -math.expm1(-(policy.x0 + policy.lambda2))
        assert outage_opa(policy).p_out == pytest.approx(expected, abs=1e-14)

    def test_truncation_only_adds_outages(self):
        floor = outage_opa(_policy(x0=0.4, y0=0.2)).p_out
        for rho in (0.5, 1.0, 2.0, 4.0):
            capped = outage_opa(_policy(x0=0.4, y0=0.2, rho=rho)).p_out
            assert capped >= floor

    def test_converges_to_floor_as_cap_grows(self):
        """Outage decreases with the cap and lands on the floor within 1e-9."""
        floor = min_outage(0.4, 0.2, 1.0, 1.0)
        values = [outage_opa(_policy(x0=0.4, y0=0.2, rho=float(r))).p_out
                  for r in np.linspace(0.5, 6.0, 40)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(floor, abs=1e-9)

    def test_deep_tail_keeps_precision(self):
        """An outage far below double-precision epsilon keeps its digits:
        with s = lambda1/omega_x + lambda2/omega_y, 1 - exp(-s) lies in
        [s(1 - s), s]."""
        config = SystemConfig(0.1, 0.1, 3.0, 7.0, 37.0, 18.0, 34.0)
        _, _, relay = policies_from_config(config)
        s = relay.lambda1 / relay.omega_x + relay.lambda2 / relay.omega_y
        p = outage_opa(relay).p_out
        assert s * (1.0 - s) <= p <= s

    def test_probability_range_on_extremes(self):
        """Thresholds up to 1e3 and gains down to 1e-3 stay inside [0, 1]."""
        for d in (1e-3, 1.0, 1e3):
            for omega in (1e-3, 1.0, 1e3):
                for rho in (None, 1e-3, 1.0, 1e3):
                    policy = _policy(delta1=d, delta2=d, x0=0.5, y0=0.5,
                                     omega_x=omega, omega_y=omega, rho=rho)
                    p = outage_opa(policy).p_out
                    assert 0.0 <= p <= 1.0

    @pytest.mark.parametrize("rho", [pytest.param(None, id="unbounded"), 0.3, 3.0, 1e-3])
    def test_p_out_is_the_measure_outside_the_corners(self, rho):
        """The report's p_out is `min_outage` at the truncation corners, bit
        for bit, and the report holds the policy it was evaluated for."""
        policy = _policy(1.0, 3.0, 0.4, 0.2, 2.0, 0.5, rho)
        report = outage_opa(policy)
        assert report.policy is policy
        assert report.p_out == min_outage(policy.lambda1, policy.lambda2,
                                          policy.omega_x, policy.omega_y)

    def test_floor_invariant(self):
        for rho in (None, 0.3, 3.0):
            policy = _policy(x0=0.4, y0=0.2, rho=rho)
            floor = min_outage(0.4, 0.2, 1.0, 1.0)
            assert outage_opa(policy).p_out >= floor - 1e-15

    def test_matches_monte_carlo_in_every_regime(self):
        n = 400_000
        for d1, d2, x0, y0, ox, oy, rho in [
            (1.0, 1.0, 0.4, 0.2, 1.0, 1.0, 4.0),
            (1.0, 1.0, 0.4, 0.2, 1.0, 1.0, 1.0),
            (1.0, 3.0, 0.2, 0.4, 2.0, 0.5, 3.0),
            (1.0, 1.0, 0.2, 0.2, 1.0, 1.0, None),
        ]:
            policy = _policy(d1, d2, x0, y0, ox, oy,
                             rho)
            analytic = outage_opa(policy).p_out
            x, y = scaled_gains(4242, ox, oy, n)
            decoded = (x >= x0) & (y >= y0)
            power = np.zeros(n)
            power[decoded] = np.maximum(d1 / y[decoded], d2 / x[decoded])
            if rho is not None:
                power[power > rho] = 0.0
            empirical = float(np.mean(power == 0.0))
            sigma = math.sqrt(analytic * (1.0 - analytic) / n)
            assert abs(empirical - analytic) <= 4.0 * sigma


def _sweep_outage(p_t_db: float) -> float:
    """OPA outage of the default sweep's design: rates 1/3, unit mean gains,
    P_T split equally over the three nodes."""
    share = 10.0 ** (p_t_db / 10.0) / 3.0
    _, _, relay = policies_from_config(SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, share, share, share))
    return outage_opa(relay).p_out


class TestSweepRange:
    @given(st.floats(min_value=-30.0, max_value=32.99), st.floats(min_value=0.01, max_value=63.0))
    @settings(max_examples=60, deadline=None)
    def test_outage_is_a_probability_falling_in_power(self, low, gap):
        """Across -30..33 dB the design solves, its outage lies in [0, 1],
        and more total power (by at least 0.01 dB) never raises it."""
        high = min(low + gap, 33.0)
        p_low, p_high = _sweep_outage(low), _sweep_outage(high)
        assert 0.0 <= p_high <= p_low <= 1.0


class TestOutageFpa:
    def _config(self, rate_1=1 / 3, rate_2=1 / 3, omega_x=1.0, omega_y=1.0):
        return SystemConfig(rate_1, rate_2, omega_x, omega_y, 1.0, 1.0, 1.0)

    def test_frozen_unit_example(self):
        p = outage_fpa(self._config(), FpaConfig(10.0, 10.0, 10.0))
        assert p == pytest.approx(FPA_UNIT_EXAMPLE, rel=1e-12)

    def test_generous_relay_reduces_to_uplink_floor(self):
        """Relay power above max(d1*P2/d2, d2*P1/d1) leaves only the uplink
        thresholds d1/P1 and d2/P2 in the formula."""
        config = self._config()
        p = outage_fpa(config, FpaConfig(5.0, 8.0, 100.0))
        expected = -math.expm1(-(1.0 / 5.0 + 1.0 / 8.0))
        assert p == pytest.approx(expected, rel=1e-12)

    def test_vanishing_relay_power_forces_outage(self):
        p = outage_fpa(self._config(), FpaConfig(10.0, 10.0, 1e-9))
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_matches_monte_carlo(self):
        n = 400_000
        config = self._config(1 / 3, 2 / 3, 2.0, 0.5)
        fpa = FpaConfig(5.0, 8.0, 3.0)
        analytic = outage_fpa(config, fpa)
        x, y = scaled_gains(1717, 2.0, 0.5, n)
        d1, d2 = config.delta1, config.delta2
        outage = ((x < d1 / fpa.p_s1_fix) | (y < d2 / fpa.p_s2_fix)
                  | (y < d1 / fpa.p_r_fix) | (x < d2 / fpa.p_r_fix))
        empirical = float(outage.mean())
        sigma = math.sqrt(analytic * (1.0 - analytic) / n)
        assert abs(empirical - analytic) <= 4.0 * sigma

    @given(st.floats(0.01, 3.0), st.floats(0.01, 3.0),
           *[st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e)] * 3)
    @settings(max_examples=300, deadline=None)
    def test_corner_clears_uplink_and_broadcast_thresholds(self, rate_1, rate_2, p1, p2, pr):
        """The baseline is the relay policy with cutoffs d1 / p1, d2 / p2 and
        cap pr, and its corner is each axis's least double that clears both
        thresholds as rounded: uplink inversion at p1 (p2), broadcast to the
        other end node at pr.  It is the quotient corner up to one ulp."""
        config = self._config(rate_1, rate_2)
        d1, d2 = config.delta1, config.delta2
        policy = fpa_policy(config, FpaConfig(p1, p2, pr))
        assert policy == RelayPolicy(d1, d2, d1 / p1, d2 / p2, 1.0, 1.0, pr)
        for corner, cutoff, delta in ((policy.lambda1, d1 / p1, d2),
                                      (policy.lambda2, d2 / p2, d1)):
            assert corner >= cutoff and delta / corner <= pr
            below = math.nextafter(corner, 0.0)
            assert below < cutoff or delta / below > pr
            assert corner == pytest.approx(max(cutoff, delta / pr), rel=2.0 ** -52, abs=0.0)

    def test_cutoff_that_rounds_to_zero_is_rejected(self):
        """At a tiny threshold, 3e-16 ln 2 (rate 1e-16), a fixed power of
        1e308 puts the cutoff d1 / p1 at 0.0, which a relay policy rejects
        with a one-line ValueError, not an outage from the other threshold
        alone."""
        config = self._config(1e-16)
        assert config.delta1 == pytest.approx(3e-16 * math.log(2.0), rel=1e-15)
        assert config.delta1 / 1e308 == 0.0
        with pytest.raises(ValueError, match=r"^x0 must be finite and > 0, got 0\.0$"):
            outage_fpa(config, FpaConfig(1e308, 1.0, 1.0))

    def test_rejects_non_positive_powers(self):
        with pytest.raises(ValueError):
            FpaConfig(1.0, 0.0, 1.0)
