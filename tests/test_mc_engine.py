"""Monte Carlo engine: determinism, budget accounting, estimator consistency."""

import math

import pytest

from tdbcsim.mc_engine import run_fpa, run_opa
from tdbcsim.outage_analytics import FpaConfig, min_outage, outage_fpa, outage_opa
from tdbcsim.relay_policy import UNBOUNDED, avg_relay_power, policies_from_config
from tdbcsim.scenario_cli import validation_configs
from tdbcsim.specfun import exp_integral_e1
from tdbcsim.system_model import SystemConfig

N = 400_000


def _unbounded_config():
    """Budgets chosen so both cutoffs sit at exactly 0.2 and the relay budget
    clears the saturation spend: the outage floor regime."""
    pbar = exp_integral_e1(0.2)
    return SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, pbar, pbar, 1.5)


def _capped_config():
    return SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.8, 1.2, 0.6)


def _relay(config):
    return policies_from_config(config)[2]


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = run_opa(_relay(_capped_config()), trials=50_000, seed=123)
        b = run_opa(_relay(_capped_config()), trials=50_000, seed=123)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_opa(_relay(_capped_config()), trials=50_000, seed=123)
        b = run_opa(_relay(_capped_config()), trials=50_000, seed=124)
        assert a.outage_rate != b.outage_rate

    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_count_invariance(self, workers):
        serial = run_opa(_relay(_capped_config()), trials=200_000, seed=5)
        parallel = run_opa(_relay(_capped_config()), trials=200_000, seed=5, workers=workers)
        assert serial == parallel

    def test_fpa_worker_count_invariance(self):
        config = _capped_config()
        fpa = FpaConfig(3.0, 3.0, 3.0)
        serial = run_fpa(config, fpa, trials=200_000, seed=5)
        parallel = run_fpa(config, fpa, trials=200_000, seed=5, workers=8)
        assert serial == parallel


class TestPinnedReports:
    """Reports recorded from the engine before the per-cycle rule moved into
    `cycle_powers`, on one capped and one unbounded validate configuration."""

    @pytest.mark.parametrize("label,capped,outages,powers", [
        ("set01", True, 178595, (0.7987362517341459, 1.2030514451411267, 0.5178252365563577)),
        ("set08", False, 191332, (0.7987362517341459, 1.1999006472316447, 1.2368733373873073)),
    ])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_is_pinned(self, label, capped, outages, powers, workers):
        relay = _relay(dict(validation_configs())[label])
        assert (relay.rho is not UNBOUNDED) == capped
        report = run_opa(relay, trials=300_001, seed=7, workers=workers)
        assert report.outage_rate == outages / 300_001
        assert (report.avg_power_s1, report.avg_power_s2,
                report.avg_power_relay) == pytest.approx(powers, rel=1e-12, abs=0.0)


class TestOpaEstimates:
    def test_outage_floor_regime(self):
        """With the relay budget unbinding, the empirical outage sits within
        4 sigma of 1 - exp(-0.4)."""
        config = _unbounded_config()
        _, _, relay = policies_from_config(config)
        assert relay.rho is UNBOUNDED
        report = run_opa(relay, trials=1_000_000, seed=31)
        expected = min_outage(relay.x0, relay.y0, 1.0, 1.0)
        sigma = math.sqrt(expected * (1.0 - expected) / report.trials)
        assert abs(report.outage_rate - expected) <= 4.0 * sigma

    def test_capped_outage_matches_closed_form(self):
        config = _capped_config()
        _, _, relay = policies_from_config(config)
        analytic = outage_opa(relay).p_out
        report = run_opa(relay, trials=N, seed=32)
        sigma = math.sqrt(analytic * (1.0 - analytic) / N)
        assert abs(report.outage_rate - analytic) <= 4.0 * sigma

    def test_end_node_budgets_respected(self):
        report = run_opa(_relay(_capped_config()), trials=1_000_000, seed=33)
        assert report.avg_power_s1 == pytest.approx(0.8, rel=0.01)
        assert report.avg_power_s2 == pytest.approx(1.2, rel=0.01)

    def test_relay_budget_binds_when_capped(self):
        config = _capped_config()
        relay = _relay(config)
        report = run_opa(relay, trials=1_000_000, seed=34)
        assert report.avg_power_relay <= config.p_avg_relay * 1.01
        assert report.avg_power_relay == pytest.approx(config.p_avg_relay, rel=0.01)

    def test_relay_budget_not_exceeded_when_unbounded(self):
        config = _unbounded_config()
        _, _, relay = policies_from_config(config)
        report = run_opa(relay, trials=1_000_000, seed=35)
        assert report.avg_power_relay <= config.p_avg_relay * 1.01
        assert report.avg_power_relay == pytest.approx(avg_relay_power(relay), rel=0.01)

    def test_sigma_field(self):
        report = run_opa(_relay(_capped_config()), trials=N, seed=36)
        r = report.outage_rate
        assert report.binomial_sigma == pytest.approx(math.sqrt(r * (1 - r) / N), rel=1e-12)
        assert report.policy_kind == "OPA"

    def test_outage_nonincreasing_in_budgets(self):
        """Raising any one budget cannot raise the outage rate (within one
        sigma of MC noise), probed on a coarse grid."""
        base = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.5, 0.5, 0.5)
        report = run_opa(_relay(base), trials=N, seed=37)
        slack = report.binomial_sigma
        for bumped in (
            SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 1.0, 0.5, 0.5),
            SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.5, 1.0, 0.5),
            SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.5, 0.5, 1.0),
        ):
            better = run_opa(_relay(bumped), trials=N, seed=37)
            assert better.outage_rate <= report.outage_rate + slack

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            run_opa(_relay(_capped_config()), trials=0, seed=1)


class TestFpaEstimates:
    def test_unit_example(self):
        config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 1.0, 1.0, 1.0)
        fpa = FpaConfig(10.0, 10.0, 10.0)
        report = run_fpa(config, fpa, trials=1_000_000, seed=40)
        expected = outage_fpa(config, fpa)
        sigma = math.sqrt(expected * (1.0 - expected) / report.trials)
        assert abs(report.outage_rate - expected) <= 4.0 * sigma

    def test_average_powers_are_exactly_fixed(self):
        config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 1.0, 1.0, 1.0)
        fpa = FpaConfig(3.0, 5.0, 7.0)
        report = run_fpa(config, fpa, trials=10_000, seed=41)
        assert report.avg_power_s1 == 3.0
        assert report.avg_power_s2 == 5.0
        assert report.avg_power_relay == 7.0
        assert report.policy_kind == "FPA"

    def test_huge_relay_power_leaves_uplink_limit(self):
        config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 1.0, 1.0, 1.0)
        fpa = FpaConfig(10.0, 10.0, 1e6)
        report = run_fpa(config, fpa, trials=N, seed=42)
        expected = -math.expm1(-(0.1 + 0.1))
        sigma = math.sqrt(expected * (1.0 - expected) / N)
        assert abs(report.outage_rate - expected) <= 4.0 * sigma

    def test_rejects_bad_trials(self):
        config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            run_fpa(config, FpaConfig(1.0, 1.0, 1.0), trials=-5, seed=1)
