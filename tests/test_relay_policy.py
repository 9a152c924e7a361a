"""Relay policy: the per-cycle rule (decode region, minimal power, cap
truncation), construction, averages."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdbcsim.relay_policy import (
    UNBOUNDED,
    RelayPolicy,
    avg_relay_power,
    avg_relay_power_max,
    cycle_powers,
    policies_from_config,
    solve_rho,
)
from tdbcsim.specfun import exp_integral_e1
from tdbcsim.system_model import FadingSampler, SystemConfig

# Frozen from the quadrature oracle (rel 1e-13): 2 * E1(0.4).
TWICE_E1_04 = 1.4047602377313249


def _policy(delta1=1.0, delta2=1.0, x0=0.1, y0=0.1, omega_x=1.0, omega_y=1.0,
            rho=UNBOUNDED):
    return RelayPolicy.from_rho(delta1, delta2, x0, y0, omega_x, omega_y, rho)


def _relay_power(policy, x, y):
    _, _, pr = cycle_powers(policy, x, y)
    return pr


class TestDecodeRegion:
    """Without a cap the relay transmits exactly where it decodes both
    codewords."""

    def test_interior_point(self):
        assert _relay_power(_policy(), 0.2, 0.2) > 0.0

    def test_one_link_below(self):
        assert _relay_power(_policy(), 0.05, 0.2) == 0.0

    def test_boundary_inclusive(self):
        assert _relay_power(_policy(), 0.1, 0.1) > 0.0


class TestStaticPower:
    """The uncapped broadcast power."""

    def test_binding_direction(self):
        assert _relay_power(_policy(), 2.0, 4.0) == 0.5

    def test_silent_outside_region(self):
        assert _relay_power(_policy(), 0.05, 4.0) == 0.0

    def test_branches_agree_on_the_ray(self):
        """Along y = (delta1/delta2) x both directions demand the same power."""
        policy = _policy(delta1=2.0, delta2=0.5)
        for x in np.linspace(0.2, 20.0, 50):
            y = (policy.delta1 / policy.delta2) * x
            assert policy.delta1 / y == pytest.approx(policy.delta2 / x, rel=1e-14)

    def test_feasibility_and_minimality(self):
        """Whenever the relay transmits, both broadcast rate constraints hold
        and at least one holds with equality (no power is wasted)."""
        policy = _policy(delta1=1.0, delta2=7.0, x0=0.3, y0=0.2)
        rate_1 = math.log2(1.0 + policy.delta1) / 3.0
        rate_2 = math.log2(1.0 + policy.delta2) / 3.0
        x, y = FadingSampler(60, 1.0, 1.0).sample_block(2000)
        for xi, yi, power in zip(x, y, _relay_power(policy, x, y)):
            if power == 0.0:
                continue
            cap_toward_1 = math.log2(1.0 + power * yi) / 3.0
            cap_toward_2 = math.log2(1.0 + power * xi) / 3.0
            assert cap_toward_1 >= rate_1 - 1e-12
            assert cap_toward_2 >= rate_2 - 1e-12
            assert (cap_toward_1 == pytest.approx(rate_1, rel=1e-12)
                    or cap_toward_2 == pytest.approx(rate_2, rel=1e-12))


class TestRegionPartition:
    def test_wedges_tile_the_decode_region(self):
        """The two served wedges are disjoint off the ray and their union is
        the decode region, checked pointwise on a dense grid."""
        d1, d2, x0, y0 = 1.0, 3.0, 0.4, 0.2
        for x in np.linspace(0.01, 5.0, 71):
            for y in np.linspace(0.01, 5.0, 71):
                in_region = x >= x0 and y >= y0
                in_wedge_2 = x >= x0 and y0 <= y <= (d1 / d2) * x
                in_wedge_1 = y >= y0 and x0 <= x <= (d2 / d1) * y
                assert (in_wedge_1 or in_wedge_2) == in_region
                if in_wedge_1 and in_wedge_2:
                    assert y == pytest.approx((d1 / d2) * x, rel=1e-12)


class TestOptimalPower:
    def test_cap_truncates(self):
        assert _relay_power(_policy(), 2.0, 4.0) == 0.5
        assert _relay_power(_policy(rho=0.4), 2.0, 4.0) == 0.0

    def test_unbounded_cap_passes_through(self):
        assert _relay_power(_policy(), 2.0, 4.0) == 0.5

    def test_wedge_form_example(self):
        """(2, 4) with unit thresholds lies in the wedge toward the first
        node (x <= (delta2/delta1) y, corner cleared), so the relay spends
        delta2 / x = 0.5, under the cap of 2."""
        policy = _policy(rho=2.0)
        x, y = 2.0, 4.0
        assert max(policy.delta2 / policy.rho, policy.x0) <= x
        assert x <= (policy.delta2 / policy.delta1) * y
        assert _relay_power(policy, x, y) == 0.5

    def test_equivalent_to_wedge_membership_rule(self):
        """Cap-truncation and the wedge-form rule (transmit delta1/y on one
        wedge, delta2/x on the other, corners pushed to the cap) agree
        pointwise."""
        policy = _policy(delta1=1.0, delta2=3.0, x0=0.3, y0=0.15, rho=2.5)
        d1, d2 = policy.delta1, policy.delta2
        l1, l2 = policy.lambda1, policy.lambda2
        x, y = FadingSampler(61, 1.0, 1.5).sample_block(4000)
        for xi, yi, power in zip(x, y, _relay_power(policy, x, y)):
            if xi >= policy.x0 and l2 <= yi <= (d1 / d2) * xi:
                expected = d1 / yi
            elif yi >= policy.y0 and l1 <= xi <= (d2 / d1) * yi:
                expected = d2 / xi
            else:
                expected = 0.0
            assert power == pytest.approx(expected, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=200, deadline=None)
    def test_dominance(self, x, y, rho):
        """The relay either sends the uncapped power or nothing, and never
        more than the cap."""
        policy = _policy(delta1=1.5, delta2=0.7, x0=0.2, y0=0.3, rho=rho)
        power = _relay_power(policy, x, y)
        assert power <= rho
        assert power == 0.0 or power == max(policy.delta1 / y, policy.delta2 / x)


class TestCyclePowers:
    @pytest.mark.parametrize("rho", [2.5, UNBOUNDED])
    def test_served_set_is_the_outage_quadrant(self, rho):
        """The relay transmits exactly on the quadrant x >= lambda1,
        y >= lambda2 whose complement outage_opa integrates, and each end
        node exactly at or above its cutoff."""
        policy = _policy(delta1=1.0, delta2=3.0, x0=0.3, y0=0.15, rho=rho)
        x, y = FadingSampler(62, 1.0, 1.5).sample_block(65_536)
        p1, p2, pr = cycle_powers(policy, x, y)
        assert np.array_equal(pr > 0.0, (x >= policy.lambda1) & (y >= policy.lambda2))
        assert np.array_equal(p1 > 0.0, x >= policy.x0)
        assert np.array_equal(p2 > 0.0, y >= policy.y0)

    def test_scalars_and_arrays_agree(self):
        policy = _policy(delta1=1.0, delta2=3.0, x0=0.3, y0=0.15, rho=2.5)
        x, y = FadingSampler(63, 1.0, 1.5).sample_block(200)
        arrays = cycle_powers(policy, x, y)
        for i in range(len(x)):
            scalars = cycle_powers(policy, float(x[i]), float(y[i]))
            assert all(s.shape == () for s in scalars)
            assert tuple(float(s) for s in scalars) == tuple(a[i] for a in arrays)


class TestPolicyConstruction:
    def test_corners_follow_cap(self):
        policy = _policy(x0=0.4, y0=0.2, rho=2.0)
        assert policy.lambda1 == max(0.4, 1.0 / 2.0)
        assert policy.lambda2 == max(0.2, 1.0 / 2.0)

    def test_unbounded_corners_sit_on_cutoffs(self):
        policy = _policy(x0=0.4, y0=0.2)
        assert (policy.lambda1, policy.lambda2) == (0.4, 0.2)

    def test_rejects_inconsistent_corners(self):
        with pytest.raises(ValueError):
            RelayPolicy(1.0, 1.0, 0.4, 0.2, 2.0, 0.4, 0.2, 1.0, 1.0)

    def test_case_flag(self):
        assert _policy(delta2=1.0, x0=0.4, y0=0.2).uses_case_a is True
        assert _policy(delta2=3.0, x0=0.4, y0=0.2).uses_case_a is False
        assert _policy(delta2=2.0, x0=0.4, y0=0.2).uses_case_a is True  # tie


class TestAveragePower:
    def test_symmetric_unbounded_closed_form(self):
        """Symmetric thresholds and unit gains collapse the saturation value
        to 2 * E1(0.4): the bracketed difference vanishes."""
        value = avg_relay_power_max(1.0, 1.0, 0.2, 0.2, 1.0, 1.0)
        assert value == pytest.approx(2.0 * exp_integral_e1(0.4), rel=1e-14)
        assert value == pytest.approx(TWICE_E1_04, rel=1e-12)

    def test_saturated_cap_equals_unbounded_value(self):
        """Any cap at or above max(delta1/y0, delta2/x0) leaves the corners at
        the cutoffs and spends the saturation power."""
        saturation = max(1.0 / 0.2, 1.0 / 0.4)
        capped = avg_relay_power(_policy(x0=0.4, y0=0.2, rho=saturation * 1.001))
        unbounded = avg_relay_power(_policy(x0=0.4, y0=0.2))
        assert capped == pytest.approx(unbounded, rel=1e-14)

    def test_monotone_in_cap(self):
        values = [avg_relay_power(_policy(x0=0.4, y0=0.2, rho=float(r)))
                  for r in np.linspace(0.2, 6.0, 60)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_below_maximum(self):
        p_max = avg_relay_power_max(1.0, 1.0, 0.4, 0.2, 1.0, 1.0)
        for rho in (0.5, 1.0, 3.0, 4.9):
            assert avg_relay_power(_policy(x0=0.4, y0=0.2, rho=rho)) <= p_max + 1e-12

    def test_case_boundary_continuity(self):
        """At delta2*y0 = delta1*x0 a policy and its mirror (end nodes
        swapped) evaluate the two orientations of the wedge formula and give
        the same number, for saturated and truncating caps alike."""
        combos = [(1.0, 1.0, 0.3, 1.0, 1.0), (1.0, 3.0, 0.3, 1.0, 1.0),
                  (3.0, 1.0, 0.5, 2.0, 0.5), (0.5, 2.0, 0.8, 0.5, 2.0),
                  (7.0, 1.0, 0.2, 1.0, 4.0)]
        for d1, d2, x0, ox, oy in combos:
            y0 = d1 * x0 / d2
            assert d2 * y0 == d1 * x0   # else both sides take one orientation
            saturation = max(d1 / y0, d2 / x0)
            for cap in (UNBOUNDED, 0.6 * saturation, 0.15 * saturation):
                a = avg_relay_power(_policy(d1, d2, x0, y0, ox, oy, cap))
                b = avg_relay_power(_policy(d2, d1, y0, x0, oy, ox, cap))
                assert a == pytest.approx(b, rel=1e-10)

    def test_swapping_end_nodes_keeps_the_spend(self):
        """Relabelling the two end nodes changes nothing the relay spends,
        in either wedge geometry and under any cap."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            d1, d2, x0, y0, ox, oy = (float(v) for v in 10.0 ** rng.uniform(-1, 1, size=6))
            saturation = max(d1 / y0, d2 / x0)
            for cap in (UNBOUNDED, float(rng.uniform(0.05, 1.0)) * saturation):
                a = avg_relay_power(_policy(d1, d2, x0, y0, ox, oy, cap))
                b = avg_relay_power(_policy(d2, d1, y0, x0, oy, ox, cap))
                assert a == pytest.approx(b, rel=1e-14)

    @pytest.mark.parametrize("d1,d2,x0,y0,ox,oy,rho", [
        # both wedge geometries, saturated / windowed / deeply truncated caps
        (1.0, 1.0, 0.4, 0.2, 1.0, 1.0, None),
        (1.0, 1.0, 0.4, 0.2, 1.0, 1.0, 4.0),   # only the y-corner moved
        (1.0, 1.0, 0.4, 0.2, 1.0, 1.0, 1.0),   # both corners past the cutoffs
        (1.0, 1.0, 0.2, 0.2, 1.0, 1.0, 2.0),
        (1.0, 3.0, 0.2, 0.4, 2.0, 0.5, None),
        (1.0, 3.0, 0.2, 0.4, 2.0, 0.5, 8.0),
        (1.0, 3.0, 0.2, 0.4, 2.0, 0.5, 3.0),
        (2.0, 0.5, 0.3, 0.6, 0.5, 2.0, 1.2),
    ])
    def test_matches_monte_carlo(self, d1, d2, x0, y0, ox, oy, rho):
        """The closed form equals the Monte Carlo expectation of the capped
        power rule within 1%, in every cap regime."""
        policy = _policy(d1, d2, x0, y0, ox, oy, UNBOUNDED if rho is None else rho)
        analytic = avg_relay_power(policy)
        n = 400_000
        x, y = FadingSampler(808, ox, oy).sample_block(n)
        decoded = (x >= x0) & (y >= y0)
        power = np.zeros(n)
        power[decoded] = np.maximum(d1 / y[decoded], d2 / x[decoded])
        if rho is not None:
            power[power > rho] = 0.0
        assert float(power.mean()) == pytest.approx(analytic, rel=0.01)


class TestSolveRho:
    def test_round_trip(self):
        policy = _policy(x0=0.4, y0=0.2, rho=3.0)
        p_avg = avg_relay_power(policy)
        solved = solve_rho(1.0, 1.0, 0.4, 0.2, 1.0, 1.0, p_avg)
        assert solved == pytest.approx(3.0, rel=1e-6)

    def test_budget_at_maximum_is_unbounded(self):
        p_max = avg_relay_power_max(1.0, 1.0, 0.4, 0.2, 1.0, 1.0)
        assert solve_rho(1.0, 1.0, 0.4, 0.2, 1.0, 1.0, p_max) is UNBOUNDED

    def test_budget_above_maximum_is_unbounded(self):
        p_max = avg_relay_power_max(1.0, 1.0, 0.4, 0.2, 1.0, 1.0)
        assert solve_rho(1.0, 1.0, 0.4, 0.2, 1.0, 1.0, 2.0 * p_max) is UNBOUNDED

    def test_small_budgets_yield_deep_truncation(self):
        solved = solve_rho(1.0, 1.0, 0.4, 0.2, 1.0, 1.0, 0.05)
        assert isinstance(solved, float)
        policy = _policy(x0=0.4, y0=0.2, rho=solved)
        assert avg_relay_power(policy) == pytest.approx(0.05, rel=1e-9)
        assert policy.lambda1 > policy.x0  # the cap moved both corners

    def test_random_round_trips(self):
        rng = np.random.default_rng(2718)
        for _ in range(20):
            d1 = float(10.0 ** rng.uniform(-0.5, 0.8))
            d2 = float(10.0 ** rng.uniform(-0.5, 0.8))
            x0 = float(10.0 ** rng.uniform(-1.2, 0.3))
            y0 = float(10.0 ** rng.uniform(-1.2, 0.3))
            rho_true = float(rng.uniform(0.1, 1.2)) * max(d1 / y0, d2 / x0)
            policy = _policy(d1, d2, x0, y0, 1.3, 0.8, rho_true)
            p_avg = avg_relay_power(policy)
            solved = solve_rho(d1, d2, x0, y0, 1.3, 0.8, p_avg)
            if solved is UNBOUNDED:
                p_max = avg_relay_power_max(d1, d2, x0, y0, 1.3, 0.8)
                assert p_avg >= p_max * (1.0 - 1e-12)
            else:
                assert solved == pytest.approx(rho_true, rel=1e-6)


class TestPoliciesFromConfig:
    def test_budgets_propagate(self):
        config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.8, 1.2, 0.6)
        node1, node2, relay = policies_from_config(config)
        assert node1.pbar == 0.8
        assert node2.pbar == 1.2
        assert relay.x0 == node1.cutoff
        assert relay.y0 == node2.cutoff
        assert avg_relay_power(relay) == pytest.approx(0.6, rel=1e-9)

    def test_rich_relay_budget_goes_unbounded(self):
        config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.8, 1.2, 50.0)
        _, _, relay = policies_from_config(config)
        assert relay.rho is UNBOUNDED
