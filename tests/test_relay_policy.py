"""Relay policy: the per-cycle rule (decode region, minimal power, cap
truncation), construction, averages."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import load_bench, scaled_gains
from tdbcsim import endnode_policy, relay_policy
from tdbcsim.endnode_policy import solve_cutoff
from tdbcsim.outage_analytics import outage_opa
from tdbcsim.relay_policy import (
    RelayPolicy,
    avg_relay_power,
    cycle_powers,
    cycle_totals,
    policies_from_config,
    solve_rho,
)
from tdbcsim.scenario_cli import _TIE_GRID, validation_policies
from tdbcsim.specfun import BracketingError, exp_integral_e1
from tdbcsim.system_model import SystemConfig, delta_of_rate

# Frozen from the quadrature oracle (rel 1e-13): 2 * E1(0.4).
TWICE_E1_04 = 1.4047602377313249

#: A finite cap and none; the uncapped case keeps the id pytest gives an
#: object as the second value of `rho`.
CAPPED_AND_UNCAPPED = [2.5, pytest.param(None, id="rho1")]


def _policy(delta1=1.0, delta2=1.0, x0=0.1, y0=0.1, omega_x=1.0, omega_y=1.0,
            rho=None):
    return RelayPolicy(delta1, delta2, x0, y0, omega_x, omega_y, rho)


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
        x, y = scaled_gains(60, 1.0, 1.0, 2000)
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
        x, y = scaled_gains(61, 1.0, 1.5, 4000)
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
    @pytest.mark.parametrize("rho", CAPPED_AND_UNCAPPED)
    def test_served_set_is_the_outage_quadrant(self, rho):
        """The relay transmits exactly on the quadrant x >= lambda1,
        y >= lambda2 whose complement outage_opa integrates, and each end
        node exactly at or above its cutoff."""
        policy = _policy(delta1=1.0, delta2=3.0, x0=0.3, y0=0.15, rho=rho)
        x, y = scaled_gains(62, 1.0, 1.5, 65_536)
        p1, p2, pr = cycle_powers(policy, x, y)
        assert np.array_equal(pr > 0.0, (x >= policy.lambda1) & (y >= policy.lambda2))
        assert np.array_equal(p1 > 0.0, x >= policy.x0)
        assert np.array_equal(p2 > 0.0, y >= policy.y0)

    def test_scalars_and_arrays_agree(self):
        policy = _policy(delta1=1.0, delta2=3.0, x0=0.3, y0=0.15, rho=2.5)
        x, y = scaled_gains(63, 1.0, 1.5, 200)
        arrays = cycle_powers(policy, x, y)
        for i in range(len(x)):
            scalars = cycle_powers(policy, float(x[i]), float(y[i]))
            assert all(s.shape == () for s in scalars)
            assert tuple(float(s) for s in scalars) == tuple(a[i] for a in arrays)

    @pytest.mark.parametrize("cutoff", [0.3, 5e-324])
    @pytest.mark.parametrize("rho", CAPPED_AND_UNCAPPED)
    def test_silent_entries_are_positive_zero(self, cutoff, rho):
        """At a gain of 0 on either link every silent entry is exactly +0.0
        and nothing warns, down to the smallest cutoff; a clamp such as
        max(x, x0) would give delta / 5e-324 * 0 = inf * 0 = nan there."""
        policy = _policy(x0=cutoff, y0=cutoff, rho=rho)
        x = np.array([0.0, 0.0, 2.0])
        y = np.array([0.0, 2.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p1, p2, pr = cycle_powers(policy, x, y)
        for silent in (p1[:2], p2[[0, 2]], pr):
            assert np.all(silent == 0.0) and not np.any(np.signbit(silent))
        assert (p1[2], p2[1]) == (0.5, 0.5)

    def test_overflowed_demand_is_over_the_cap(self):
        """With a subnormal cutoff a served gain can overflow delta / gain to
        inf: the relay is silent (+0.0) under a finite cap and reports inf
        without one, never nan."""
        x = np.array([5e-324, 1.0])
        y = np.array([5e-324, 1.0])
        with np.errstate(over="ignore"):
            capped = cycle_powers(_policy(x0=5e-324, y0=5e-324, rho=2.5), x, y)[2]
            free = cycle_powers(_policy(x0=5e-324, y0=5e-324), x, y)[2]
        assert capped[0] == 0.0 and not np.signbit(capped[0])
        assert free[0] == math.inf
        assert capped[1] == free[1] == 1.0


# One sampled chunk, and random relay policies on three pairs of rates:
# (log10 x0, log10 y0, cap as a fraction of the saturation cap or None).
_CHUNK = scaled_gains(64, 1.0, 1.5, 8192)
_RANDOM_POLICIES = st.lists(
    st.tuples(st.sampled_from([(1.0, 3.0), (0.26, 0.26), (2.0, 0.5)]),
              st.floats(-3.0, 0.5), st.floats(-3.0, 0.5),
              st.one_of(st.none(), st.floats(0.05, 1.5))),
    min_size=1, max_size=6)


def _sums(policy, x, y):
    """(outages, sum p1, sum p2, sum pr) read off the cycle_powers arrays."""
    p1, p2, pr = cycle_powers(policy, x, y)
    return (pr.size - int(np.count_nonzero(pr > 0.0)),
            float(p1.sum()), float(p2.sum()), float(pr.sum()))


class TestServedMasks:
    """The served set of each policy, counted in batches by cycle_totals, is
    the relay's transmit set of cycle_powers, and the batch power sums are
    those of cycle_powers."""

    @given(_RANDOM_POLICIES)
    @settings(max_examples=100, deadline=None)
    def test_masks_are_where_the_relay_transmits(self, draws):
        """Counts and relay powers against the rule written out here: the
        relay serves where x >= x0, y >= y0 and, under a cap, its demand
        max(delta1 / y, delta2 / x) is at most rho, and sends that demand."""
        policies = []
        for (d1, d2), log_x0, log_y0, fraction in draws:
            x0, y0 = 10.0 ** log_x0, 10.0 ** log_y0
            rho = None if fraction is None else fraction * max(d1 / y0, d2 / x0)
            policies.append(_policy(d1, d2, x0, y0, 1.0, 1.5, rho))
        x, y = _CHUNK
        totals = cycle_totals(policies, x, y)
        for policy, total in zip(policies, totals, strict=True):
            decoded = (x >= policy.x0) & (y >= policy.y0)
            demand = np.zeros_like(x)
            demand[decoded] = np.maximum(policy.delta1 / y[decoded], policy.delta2 / x[decoded])
            served = decoded if policy.rho is None else decoded & (demand <= policy.rho)
            pr = cycle_powers(policy, x, y)[2]
            assert total[0] == x.size - int(np.count_nonzero(served))
            assert np.array_equal(pr > 0.0, served)
            assert np.array_equal(pr[served], demand[served])

    @pytest.mark.parametrize("rho", CAPPED_AND_UNCAPPED)
    def test_subnormal_and_normal_cutoffs_share_a_demand(self, rho):
        """Policies with subnormal and normal cutoffs share one demand, which
        divides by subnormal gains; the totals still match cycle_powers and
        nothing warns beyond the overflow of delta / 5e-324 in the end-node
        powers."""
        gains = np.array([0.0, 5e-324, 1e-310, 0.3, 1e300])
        x, y = (g.ravel() for g in np.meshgrid(gains, gains))
        policies = [_policy(x0=5e-324, y0=5e-324, rho=rho), _policy(x0=0.3, y0=0.3, rho=rho),
                    _policy(x0=5e-324, y0=0.3, rho=rho)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                totals = cycle_totals(policies, x, y)
                expected = [_sums(policy, x, y) for policy in policies]
        assert totals == expected
        assert all(outages < x.size for outages, *_ in totals)

    def test_power_sums_are_those_of_cycle_powers(self):
        """Bit for bit, over two delta groups, capped and unbounded caps and
        a subnormal cutoff, on gains that include 0; the last policy has the
        same (delta, cutoff) on both end nodes, whose sums still differ."""
        x, y = (np.concatenate([[0.0, 0.0, 2.0], g]) for g in _CHUNK)
        policies = [_policy(1.0, 3.0, 0.3, 0.15, rho=2.5), _policy(0.26, 0.26, 0.1, 0.2),
                    _policy(1.0, 3.0, 5e-324, 0.4), _policy(0.26, 0.26, 0.05, 5e-324, rho=0.9),
                    _policy(1.0, 3.0, 0.2, 0.2), _policy(0.26, 0.26, 0.2, 0.2)]
        assert cycle_totals(policies, x, y) == [_sums(p, x, y) for p in policies]

    @pytest.mark.parametrize("rho", CAPPED_AND_UNCAPPED)
    def test_zero_and_subnormal_gains_do_not_warn(self, rho):
        """With normal cutoffs, gains of 0 and subnormal gains divide the
        relay demand to inf or overflow it, silently: no RuntimeWarning."""
        gains = np.array([0.0, 5e-324, 1e-310, 0.3, 2.0])
        x, y = (g.ravel() for g in np.meshgrid(gains, gains))
        policies = [_policy(x0=0.3, y0=0.3, rho=rho), _policy(3.0, 1.0, 0.1, 0.2, rho=rho)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            totals = cycle_totals(policies, x, y)
            expected = [_sums(policy, x, y) for policy in policies]
        assert totals == expected

    def test_scalars_and_bad_gains(self):
        policy = _policy(x0=0.3, y0=0.3, rho=2.5)
        assert [t[0] for t in cycle_totals([policy, _policy()], 0.5, 2.0)] == [0, 0]
        assert cycle_totals([policy], 0.1, 2.0) == [(1, 0.0, 0.5, 0.0)]
        assert cycle_totals([], [1.0], [1.0]) == []
        with pytest.raises(ValueError):
            cycle_totals([policy], [1.0, -1.0], 1.0)


_DELTAS = st.one_of(st.floats(2.2e-16, 1e-8), st.floats(0.01, 1e3))
_CUTOFFS = st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-6, 10.0))
_CAPS = st.one_of(st.none(), st.floats(1e-3, 1e3), st.floats(1e-140, 1e-120),
                  st.floats(1e300, 1.7e308), st.floats(5e-324, 1e-305))


def _neighbours(values, steps=3):
    """Each value and its `steps` nearest doubles on either side, clipped to
    finite gains >= 0."""
    out = []
    for v in values:
        up = down = np.float64(v)
        out.append(up)
        for _ in range(steps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            out += [up, down]
    g = np.array(out)
    return np.unique(g[np.isfinite(g)])


class TestPolicyCorners:
    """The quadrant above a policy's corners (lambda1, lambda2) is, bit for
    bit, the relay's rule written out with numpy division."""

    @given(_DELTAS, _DELTAS, _CUTOFFS, _CUTOFFS, _CAPS)
    @settings(max_examples=300, deadline=None)
    @example(1.0, 3.0, 0.3, 0.15, 2.5)
    @example(1e-12, 0.5, 1e-310, 0.1, 1e300)            # delta1 / rho subnormal
    @example(3.0, 1.0, 1e-6, 1e-6, 1e-130)              # delta / rho about 1e130
    @example(1e-9, 1e-9, 5e-324, 5e-324, 1.7e308)       # t at the smallest double
    @example(1e-15, 2e-15, 0.1, 0.1, 1e-310)            # a subnormal cap
    @example(0.26, 0.26, 5e-324, 0.2, None)
    def test_quadrant_is_the_demand_rule(self, delta1, delta2, x0, y0, rho):
        # A policy's corners are finite: delta / rho must not overflow.
        assume(rho is None or max(delta1, delta2) / rho < math.inf)
        policy = _policy(delta1, delta2, x0, y0, 1.0, 1.0, rho)
        a, b = policy.lambda1, policy.lambda2
        quotients = [] if rho is None else [delta1 / rho, delta2 / rho]
        gains = _neighbours([0.0, 5e-324, 1e-310, 0.5, 1e300, x0, y0, *quotients])
        x, y = (g.ravel() for g in np.meshgrid(gains, gains))
        with np.errstate(divide="ignore", over="ignore"):
            demand = np.maximum(delta1 / y, delta2 / x)
        rule = (x >= x0) & (y >= y0)
        if rho is not None:
            rule &= demand <= rho
        assert np.array_equal((x >= a) & (y >= b), rule)


class TestPolicyConstruction:
    def test_corners_follow_cap(self):
        policy = _policy(x0=0.4, y0=0.2, rho=2.0)
        assert policy.lambda1 == max(0.4, 1.0 / 2.0)
        assert policy.lambda2 == max(0.2, 1.0 / 2.0)

    def test_unbounded_corners_sit_on_cutoffs(self):
        policy = _policy(x0=0.4, y0=0.2)
        assert (policy.lambda1, policy.lambda2) == (0.4, 0.2)


class TestAveragePower:
    def test_symmetric_unbounded_closed_form(self):
        """Symmetric thresholds and unit gains collapse the saturation value
        to 2 * E1(0.4): the bracketed difference vanishes."""
        value = avg_relay_power(_policy(1.0, 1.0, 0.2, 0.2, 1.0, 1.0))
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
        p_max = avg_relay_power(_policy(1.0, 1.0, 0.4, 0.2, 1.0, 1.0))
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
            for cap in (None, 0.6 * saturation, 0.15 * saturation):
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
            for cap in (None, float(rng.uniform(0.05, 1.0)) * saturation):
                a = avg_relay_power(_policy(d1, d2, x0, y0, ox, oy, cap))
                b = avg_relay_power(_policy(d2, d1, y0, x0, oy, ox, cap))
                assert a == pytest.approx(b, rel=1e-14)

    @pytest.mark.parametrize("d1,d2,x0,y0,rho", [
        (1.0, 1.0, 0.4, 0.2, None),
        (1.0, 1.0, 0.4, 0.2, 4.0),      # only the y-corner moved
        (1.0, 3.0, 0.2, 0.4, 3.0),      # the corner above the ray
    ], ids=["unbounded", "capped", "mirrored"])
    def test_three_e1_calls_per_spend(self, count_e1, d1, d2, x0, y0, rho):
        calls = count_e1(relay_policy)
        avg_relay_power(_policy(d1, d2, x0, y0, 2.0, 0.5, rho))
        assert len(calls) == 3

    def test_doubly_capped_spend_is_one_e1_term(self, count_e1):
        """Where the cap sets both corners they lie on the ray, and the spend
        is K E1(z) with K = delta1 / omega_y + delta2 / omega_x and z the
        corner's lambda1 / omega_x + lambda2 / omega_y: one E1 call, within
        1e-15 of the three-term wedge at the same corners."""
        policy = _policy(1.0, 3.0, 0.2, 0.4, 2.0, 0.5, rho=1.5)
        assert policy.lambda1 > policy.x0 and policy.lambda2 > policy.y0
        calls = count_e1(relay_policy)
        spend = avg_relay_power(policy)
        assert calls == [policy.lambda1 / 2.0 + policy.lambda2 / 0.5]
        assert spend == (1.0 / 0.5 + 3.0 / 2.0) * exp_integral_e1(calls[0])
        wedge = _policy(1.0, 3.0, policy.lambda1, policy.lambda2, 2.0, 0.5)
        assert avg_relay_power(wedge) == pytest.approx(spend, rel=1e-15)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), st.floats(0.01, 0.99))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_doubly_capped_mirror_is_bit_exact(self, logs, fraction):
        """A doubly capped policy and its mirror (end nodes swapped) spend
        the same double: K and z are each a sum of the same two quotients.
        The three-term wedge differed by up to 1.4e-14 on such pairs."""
        d1, d2, x0, y0, ox, oy = (10.0 ** v for v in logs)
        cap = fraction * min(d2 / x0, d1 / y0)
        policy, mirror = _policy(d1, d2, x0, y0, ox, oy, cap), _policy(d2, d1, y0, x0, oy, ox, cap)
        assert policy.lambda1 > x0 and policy.lambda2 > y0
        assert avg_relay_power(policy) == avg_relay_power(mirror)

    @pytest.mark.parametrize("x0,y0,oy", [(5e-324, 5e-324, 10.0), (5e-324, 0.5, 1.0)],
                             ids=["both", "x"])
    def test_corner_rounding_to_zero_is_one_line(self, x0, y0, oy):
        """x0 / omega_x = 5e-324 / 10 rounds to 0, where E1 and so the spend
        are unbounded: avg_relay_power says so in one line instead of
        raising E1's `x must be finite and > 0, got 0.0`.  The policy's
        outage and its Monte Carlo count do not need E1 and stay valid."""
        policy = RelayPolicy(1.0, 1.0, x0, y0, 10.0, oy, None)
        with pytest.raises(ValueError, match="^the relay spend is unbounded: a corner over "
                                             "its mean gain rounds to 0$"):
            avg_relay_power(policy)
        p_out = outage_opa(policy).p_out
        assert p_out == pytest.approx(-math.expm1(-y0 / oy), rel=1e-15)
        assert cycle_totals([policy], [0.0, 1.0], [1.0, 1.0])[0][0] == 1

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
        policy = _policy(d1, d2, x0, y0, ox, oy, rho)
        analytic = avg_relay_power(policy)
        n = 400_000
        x, y = scaled_gains(808, ox, oy, n)
        decoded = (x >= x0) & (y >= y0)
        power = np.zeros(n)
        power[decoded] = np.maximum(d1 / y[decoded], d2 / x[decoded])
        if rho is not None:
            power[power > rho] = 0.0
        assert float(power.mean()) == pytest.approx(analytic, rel=0.01)


def _oracle_designs():
    """(label, relay policy) of the default link from -10 to 33 dB, the
    validation table, and the (1/3, 2/3; 2, 0.5) link from -10 to 30 dB."""
    designs = []
    for (r1, r2, ox, oy), top in (((1 / 3, 1 / 3, 1.0, 1.0), 33), ((1 / 3, 2 / 3, 2.0, 0.5), 30)):
        for p_t_db in range(-10, top + 1):
            share = 10.0 ** (p_t_db / 10.0) / 3.0
            config = SystemConfig(r1, r2, ox, oy, share, share, share)
            label = f"rates ({r1:.3g}, {r2:.3g}), omega ({ox}, {oy}) at {p_t_db} dB"
            designs.append((label, policies_from_config(config)[2]))
    return designs + [(label, relay) for label, _, relay in validation_policies()]


class TestAgainstQuadrature:
    def test_spend_and_outage_match_the_benchmark_oracles(self):
        """avg_relay_power and outage_opa equal, to 1e-12 relative, the
        scipy quadrature in ln x of the spend and the measure outside the
        quadrant above (max(x0, delta2 / rho), max(y0, delta1 / rho))."""
        oracles = load_bench("oracles")
        failures = []
        for label, relay in _oracle_designs():
            d1, d2, ox, oy = relay.delta1, relay.delta2, relay.omega_x, relay.omega_y
            l1, l2 = ((relay.x0, relay.y0) if relay.rho is None else
                      (max(relay.x0, d2 / relay.rho), max(relay.y0, d1 / relay.rho)))
            for name, value, oracle in (
                    ("spend", avg_relay_power(relay), oracles.relay_spend(d1, d2, ox, oy, l1, l2)),
                    ("outage", outage_opa(relay).p_out, oracles.quadrant_outage(l1, l2, ox, oy))):
                if oracles.rel_dev(value, oracle) > 1e-12:
                    failures.append(f"{label}: {name} {value!r}, oracle {oracle!r}")
        assert not failures, failures

    def test_spend_whose_e1_arguments_overflow(self):
        """At a tiny delta2, c = delta1 / (delta2 omega_y) and k overflow in
        the wedge, and their E1 terms are 0: the spend is exactly the
        oracle's 0.0 where the corner lies far out on y, and within 1e-12 of
        it at power-gains' design for rate_2 = 1e-300, omega_y = 1e-10 and
        the target 0.5.  Both once raised inside E1 on inf."""
        oracles = load_bench("oracles")
        relay = RelayPolicy(1.0, 1e-300, 0.5, 0.5, 1.0, 1e-10, None)
        assert avg_relay_power(relay) == 0.0 == oracles.relay_spend(1.0, 1e-300, 1.0, 1e-10,
                                                                     0.5, 0.5)
        d1, d2, e = delta_of_rate(1.0 / 3.0), delta_of_rate(1e-300), -0.5 * math.log1p(-0.5)
        spend = avg_relay_power(RelayPolicy(d1, d2, e, 1e-10 * e, 1.0, 1e-10, None))
        oracle = oracles.relay_spend(d1, d2, 1.0, 1e-10, e, 1e-10 * e)
        assert oracles.rel_dev(spend, oracle) <= 1e-12


class TestSolveRho:
    def test_round_trip(self):
        policy = _policy(x0=0.4, y0=0.2, rho=3.0)
        p_avg = avg_relay_power(policy)
        solved = solve_rho(1.0, 1.0, 0.4, 0.2, 1.0, 1.0, p_avg)
        assert solved == pytest.approx(3.0, rel=1e-6)

    def test_budget_at_maximum_is_unbounded(self):
        p_max = avg_relay_power(_policy(1.0, 1.0, 0.4, 0.2, 1.0, 1.0))
        assert solve_rho(1.0, 1.0, 0.4, 0.2, 1.0, 1.0, p_max) is None

    def test_budget_above_maximum_is_unbounded(self):
        p_max = avg_relay_power(_policy(1.0, 1.0, 0.4, 0.2, 1.0, 1.0))
        assert solve_rho(1.0, 1.0, 0.4, 0.2, 1.0, 1.0, 2.0 * p_max) is None

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
            if solved is None:
                p_max = avg_relay_power(_policy(d1, d2, x0, y0, 1.3, 0.8))
                assert p_avg >= p_max * (1.0 - 1e-12)
            else:
                assert solved == pytest.approx(rho_true, rel=1e-6)

    @pytest.mark.parametrize("p_t_db", [30.0, 31.0, 32.0, 33.0])
    def test_round_trips_at_high_power(self, p_t_db):
        """The sweep's end-node cutoffs at 30-33 dB (about exp(-334) to
        exp(-666)) with caps from just under saturation down to 1e-100 of
        it: each cap comes back from the budget it spends."""
        share = 10.0 ** (p_t_db / 10.0) / 3.0
        x0 = y0 = solve_cutoff(1.0, 1.0, share)
        saturation = 1.0 / x0
        for fraction in (0.5, 1e-10, 1e-50, 1e-100):
            rho_true = fraction * saturation
            p_avg = avg_relay_power(_policy(x0=x0, y0=y0, rho=rho_true))
            solved = solve_rho(1.0, 1.0, x0, y0, 1.0, 1.0, p_avg)
            assert solved == pytest.approx(rho_true, rel=1e-11), fraction

    @pytest.mark.parametrize("p_avg", [3e-308, 1e-308, 1e-310, 5e-324])
    def test_subnormal_loads_are_a_bracketing_failure(self, p_avg):
        """Budgets below 2 * 2.2e-308 are doubly capped, so the cap is the
        cutoff solve K E1(z) = p_avg with K = 2: its load p_avg / K is
        subnormal, where E1 at the cutoff keeps too few bits, and the
        cutoff solve says so under the cap solve's prefix.  These solved to
        an outage of 1.0 while the solver expanded its brackets."""
        with pytest.raises(BracketingError) as info:
            solve_rho(1.0, 1.0, 0.4, 0.2, 1.0, 1.0, p_avg)
        assert str(info.value) == (f"cap solve for relay budget {p_avg!r}: cutoff solve for "
                                   f"budget {p_avg!r}: the load falls below the smallest "
                                   f"normal double")

    def test_smallest_normal_budget_still_solves(self):
        """A load of exactly the smallest normal double is in the domain: a
        doubly capped cap whose outage rounds to 1 and which spends its
        budget within the 1e-9 that solve_rho allows."""
        p_avg = 2.0 * sys.float_info.min
        cap = solve_rho(1.0, 1.0, 0.4, 0.2, 1.0, 1.0, p_avg)
        assert cap.hex() == "0x1.75824a424585cp-9"      # 0.0028496471069372874
        policy = _policy(x0=0.4, y0=0.2, rho=cap)
        assert policy.lambda1 > policy.x0 and policy.lambda2 > policy.y0
        assert outage_opa(policy).p_out == 1.0
        assert avg_relay_power(policy) == pytest.approx(p_avg, rel=1e-9)

    def test_regime_split_never_takes_e1_of_inf(self, count_e1):
        """K / rho_b overflows here (K about 1e200, rho_b = 1e-150): the
        regime test's term counts as 0, as _wedge_power's do, so the budget
        goes to the solve on [rho_b, rho_sat] with no E1 of inf."""
        args = (1.0, 1e-150, 1.0, 1e-200, 1.0, 1e-200)
        p_avg = 0.5 * avg_relay_power(RelayPolicy(*args, None))
        calls = count_e1(relay_policy)
        cap = solve_rho(*args, p_avg)
        assert calls and max(calls) < math.inf
        assert avg_relay_power(RelayPolicy(*args, cap)) == pytest.approx(p_avg, rel=1e-12)

    @pytest.mark.parametrize("y0,p_avg", [(1e-309, 1418.9), (1e-308, 1415.8)],
                             ids=["tie", "ray"])
    def test_cutoff_solve_failure_names_the_cap_solve(self, y0, p_avg):
        """A doubly capped budget whose cutoff solve fails (z would fall
        below the smallest normal double) raises that solve's error under
        the cap solve's prefix: at a tie rho_b == rho_sat == inf, and with
        rho_b = 1e308 below rho_sat = inf, where the budget is under
        K E1(K / rho_b) = 1415.85."""
        with pytest.raises(BracketingError) as info:
            solve_rho(1.0, 1.0, 1e-309, y0, 1.0, 1.0, p_avg)
        assert str(info.value) == (f"cap solve for relay budget {p_avg!r}: cutoff solve for "
                                   f"budget {p_avg!r}: the cutoff falls below the smallest "
                                   f"normal double")

    def test_ties_return_a_cap_with_no_empty_bracket(self, monkeypatch):
        """With the cutoffs on the ray (_TIE_GRID), rho_b == rho_sat on 7
        of the 10 points and every capped budget is doubly capped: budgets
        from 1 - 1e-13 to 1 - 1e-15 of saturation each return a cap that
        spends them, and no bracket reaches solve_monotone empty."""
        solve = relay_policy.solve_monotone
        brackets = []

        def checked(f, target, lo, hi):
            brackets.append((lo, hi))
            return solve(f, target, lo, hi)

        monkeypatch.setattr(relay_policy, "solve_monotone", checked)
        ties = 0
        for d1, d2, x0, ox, oy in _TIE_GRID:
            y0 = d1 * x0 / d2
            ties += d2 / x0 == d1 / y0
            p_max = avg_relay_power(_policy(d1, d2, x0, y0, ox, oy))
            for shortfall in (1e-13, 1e-14, 1e-15):
                p_avg = (1.0 - shortfall) * p_max
                cap = solve_rho(d1, d2, x0, y0, ox, oy, p_avg)
                spend = avg_relay_power(_policy(d1, d2, x0, y0, ox, oy, cap))
                assert spend == pytest.approx(p_avg, rel=1e-9)
        assert ties == 7 and all(lo < hi for lo, hi in brackets)

    @pytest.mark.parametrize("args,message", [
        ((1e10, 1e10, 1e-300, 1e-300, 1.0, 1.0), "the cap inf spends "),
        ((1.0, 1.0, 1e-309, 1e-308, 1.0, 1.0),
         "[1e+308, 1.7976931348623157e+308] does not straddle the target "),
    ], ids=["tie", "ray"])
    def test_cap_past_the_doubles_is_a_bracketing_failure(self, args, message):
        """Where delta / x0 overflows, the cap of a budget just below
        saturation lies past the doubles: at a tie rho_b == rho_sat == inf
        K / z overflows, and off it the bracket [rho_b, the largest double]
        does not straddle it.  Each says so, rather than return inf, which no
        RelayPolicy takes, or reject its own bracket."""
        p_avg = 0.999 * avg_relay_power(RelayPolicy(*args, None))
        with pytest.raises(BracketingError, match=re.escape(
                f"cap solve for relay budget {p_avg!r}: {message}")):
            solve_rho(*args, p_avg)

    def test_underflowing_rho_b_solves(self):
        """delta2 / x0 = 1e-400 rounds to 0, so no cap sets both corners:
        the budget is solved on [5e-324, rho_sat], not divided by 0."""
        args = (1.0, 1e-200, 1e200, 1.0, 1e200, 1.0)
        p_avg = 0.5 * avg_relay_power(RelayPolicy(*args, None))
        cap = solve_rho(*args, p_avg)
        assert avg_relay_power(RelayPolicy(*args, cap)) == pytest.approx(p_avg, rel=1e-12)

    def test_overspending_cap_is_a_bracketing_failure(self):
        """Here the served quadrant's probability, about e^-738, underflows:
        the spend jumps from 0.0 to 6.8e-92 and the solve closed on the
        jump's upper side, a cap of 8.77e289 spending 88 orders of magnitude
        over the 3.9e-180 budget, with no error.  The cap solve now checks
        the spend of the cap it returns."""
        config = SystemConfig(2.8674114463833064e-08, 1.3639812646956466e-07,
                              4.3787380687329926e-300, 9.461586574222575e-72,
                              6.111902792195348e-16, 45.54113245304412, 3.872866444380722e-180)
        with pytest.raises(BracketingError, match=re.escape(
                "cap solve for relay budget 3.872866444380722e-180: the cap ")):
            policies_from_config(config)

    def test_e1_calls_per_capped_solve(self, count_e1):
        """A capped solve costs at most 15 E1 calls, its inner cutoff solve's
        included, and at most 13 where the cap sets both corners (18 to 25
        there while the three-term spend was solved for every cap), on the
        rate and mean-gain pairs of the validation table, from -10 to 20 dB
        and on the sweep's 30-33 dB cutoffs, at relay budgets from 1% to 90%
        of the saturation spend."""
        designs = [(r1, r2, ox, oy, p_t_db)
                   for r1, r2 in ((1 / 3, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1 / 3), (0.5, 0.2))
                   for ox, oy in ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0))
                   for p_t_db in (-10.0, 0.0, 10.0, 20.0)]
        designs += [(1 / 3, 1 / 3, 1.0, 1.0, p_t_db) for p_t_db in (30.0, 31.0, 32.0, 33.0)]
        calls = count_e1(relay_policy), count_e1(endnode_policy)
        doubly = 0
        for r1, r2, ox, oy, p_t_db in designs:
            share = 10.0 ** (p_t_db / 10.0) / 3.0
            config = SystemConfig(r1, r2, ox, oy, share, share, share)
            x0 = solve_cutoff(config.delta1, ox, share)
            y0 = solve_cutoff(config.delta2, oy, share)
            p_max = avg_relay_power(_policy(config.delta1, config.delta2, x0, y0, ox, oy))
            for fraction in (0.01, 0.1, 0.5, 0.9):
                for made in calls:
                    made.clear()
                solved = solve_rho(config.delta1, config.delta2, x0, y0, ox, oy,
                                   fraction * p_max)
                assert isinstance(solved, float)
                policy = _policy(config.delta1, config.delta2, x0, y0, ox, oy, solved)
                on_ray = policy.lambda1 > x0 and policy.lambda2 > y0
                doubly += on_ray
                assert sum(map(len, calls)) <= (13 if on_ray else 15), \
                    (r1, r2, ox, oy, p_t_db, fraction)
        assert doubly == 102


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
        assert relay.rho is None

    @staticmethod
    def _count_cutoff_solves(monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return solve_cutoff(*args)

        monkeypatch.setattr(endnode_policy, "solve_cutoff", counted)
        return calls

    def test_equal_end_nodes_share_one_cutoff_solve(self, monkeypatch):
        calls = self._count_cutoff_solves(monkeypatch)
        config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.7, 0.7, 0.6)
        node1, node2, relay = policies_from_config(config)
        assert len(calls) == 1
        assert node1 == node2 and relay.x0 == relay.y0 == node1.cutoff

    @pytest.mark.parametrize("config", [
        SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.8, 1.2, 0.6),     # budgets differ
        SystemConfig(1 / 3, 2 / 3, 1.0, 1.0, 0.7, 0.7, 0.6),     # rates differ
        SystemConfig(1 / 3, 1 / 3, 2.0, 0.5, 0.7, 0.7, 0.6),     # mean gains differ
    ], ids=["budgets", "rates", "gains"])
    def test_unequal_end_nodes_solve_twice(self, monkeypatch, config):
        calls = self._count_cutoff_solves(monkeypatch)
        policies_from_config(config)
        assert len(calls) == 2

    CAPPED = SystemConfig(1 / 3, 2 / 3, 2.0, 0.5, 0.8, 1.2, 0.6)     # unequal end nodes

    @pytest.mark.parametrize("config,count", [
        (SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.7, 0.7, 0.6), 20),     # equal end nodes
        (CAPPED, 27),
        (SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.8, 1.2, 50.0), 19),    # unequal, unbounded
    ], ids=["equal", "capped", "unbounded"])
    def test_e1_calls_are_the_solves_alone(self, count_e1, config, count):
        """policies_from_config evaluates E1 only in one cutoff solve per
        distinct end node and in the cap solve: nothing re-checks a cutoff.
        The counts were 32, 43 and 19 while the cap solve re-evaluated the
        E1 terms of a corner sitting on its cutoff at every step, and 23, 28
        and 19 while it solved the three-term spend from a slope-walk
        bracket.  The equal end nodes' cap sets both corners, so their cap
        is a cutoff solve of its own, called by name in relay_policy."""
        node_calls, relay_calls = count_e1(endnode_policy), count_e1(relay_policy)
        node1, node2, relay = policies_from_config(config)
        made = len(node_calls) + len(relay_calls)
        node_calls.clear()
        relay_calls.clear()
        for node in {node1, node2}:
            solve_cutoff(node.delta, node.omega, node.pbar)
        solve_rho(relay.delta1, relay.delta2, relay.x0, relay.y0, relay.omega_x,
                  relay.omega_y, config.p_avg_relay)
        assert made == len(node_calls) + len(relay_calls) == count

    def test_cap_solve_evaluates_each_e1_argument_once(self, count_e1):
        """A capped solve evaluates E1 once per distinct argument: the
        saturation spend and every step share their terms."""
        node1, node2, _ = policies_from_config(self.CAPPED)
        calls = count_e1(relay_policy)
        rho = solve_rho(node1.delta, node2.delta, node1.cutoff, node2.cutoff, node1.omega,
                        node2.omega, self.CAPPED.p_avg_relay)
        assert isinstance(rho, float)
        assert calls and len(set(calls)) == len(calls)

    @pytest.mark.parametrize("build", [
        lambda: policies_from_config(SystemConfig(10.0, 1 / 3, 1.0, 1e-300, 1e9, 1.0, 1.0)),
        lambda: solve_rho(2.0 ** 30 - 1.0, 1.0, 1.0, 1.0, 1.0, 1e-300, 1.0),
        lambda: RelayPolicy(1.0, 1.0, 1.0, 1.0, 1e-310, 1.0, None),
        lambda: RelayPolicy(1.0, 1.0, 1.0, 1.0, 1.0, 1e-310, 2.0),
        lambda: solve_rho(1e308, 1e308, 1.0, 1.0, 1.0, 1.0, 1.0),
    ], ids=["config", "solve_rho", "delta2-omega_x", "delta1-omega_y", "sum"])
    def test_delta_over_omega_overflow_is_named(self, build):
        """Where delta1 / omega_y or delta2 / omega_x overflows, or their sum
        K, building or solving the relay says so.  Each spend once raised
        E1's `x must be finite and > 0, got inf` instead, and a cap solve on
        the ray would have passed K = inf to the cutoff solve."""
        with pytest.raises(ValueError, match="^delta / omega overflows a double$"):
            build()

    def test_subnormal_relay_load_is_a_bracketing_failure(self):
        """A relay budget of 1e-310 sets both corners, and its cap is the
        cutoff solve K E1(z) = 1e-310, whose load 1e-310 / K is subnormal:
        the cap solve says so."""
        config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 1.0, 1.0, 1e-310)
        with pytest.raises(BracketingError, match=re.escape(
                "cap solve for relay budget 1e-310: cutoff solve for budget 1e-310: "
                "the load falls below the smallest normal double")):
            policies_from_config(config)

    def test_equal_failing_end_nodes_raise_as_before(self):
        config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 730.0, 730.0, 730.0)
        with pytest.raises(BracketingError) as info:
            policies_from_config(config)
        assert str(info.value) == ("cutoff solve for budget 730.0: "
                                   "the cutoff falls below the smallest normal double")
