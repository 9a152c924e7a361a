"""CLI front end: grid/config parsing, sweeps, validation, determinism."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, special

import tdbcsim
from conftest import load_bench, log_cutoff_oracle
from tdbcsim.outage_analytics import FpaConfig, min_outage, outage_fpa, outage_opa
from tdbcsim.relay_policy import RelayPolicy, avg_relay_power, policies_from_config
from tdbcsim.scenario_cli import (
    MIN_TRIALS,
    ConfigError,
    ScenarioSpec,
    load_spec,
    main,
    parse_grid,
    scenario_power_gains,
    scenario_total_power,
    scenario_validate,
    validation_policies,
    _FPA_VALIDATION_SETS,
    _tie_cases,
    write_csv,
)

SMALL = dict(trials=20_000, seed=777)

#: A point of the e1_bracket row's grid, 200 log-spaced points of [1e-6, 50].
E1_BRACKET_FAULT_AT = float(np.logspace(-6, math.log10(50.0), 200)[100])

#: sha256 of the designs of test_validation_designs_are_pinned_bit_for_bit.
DESIGN_PIN = "97bd0898275fe27b86c50424f7541c9cb06e03db6c094fcc21ef8f81bac89de2"


class TestParseGrid:
    def test_basic(self):
        assert parse_grid("0:10:5") == (0.0, 5.0, 10.0)

    def test_single_point(self):
        assert parse_grid("3:3:1") == (3.0,)

    def test_inclusive_stop_with_float_step(self):
        grid = parse_grid("-10:30:2")
        assert grid[0] == -10.0 and grid[-1] == 30.0 and len(grid) == 21

    @pytest.mark.parametrize("bad", ["", "1:2", "1:2:3:4", "a:b:c", "0:10:0",
                                     "0:10:-1", "5:1:1", "nan:1:1", "0:1e308:1e-300",
                                     "0:1e9:1"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_grid(bad)

    def test_oversized_grid_names_its_count(self):
        """A grid is counted before it is built, so 1e9 points cost nothing."""
        assert len(parse_grid("0:999999:1")) == 1_000_000
        with pytest.raises(ConfigError, match="1000000001 points"):
            parse_grid("0:1e9:1")


class TestScenarioSpec:
    def test_defaults(self):
        spec = ScenarioSpec(scenario="validate", grid=(0.0,))
        assert spec.rate_1 == pytest.approx(1 / 3)
        assert spec.output_path == "validate.csv"

    def test_rejects_small_trials(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(scenario="validate", grid=(0.0,), trials=999)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(scenario="plot", grid=(0.0,))

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(scenario="sweep_total_power", grid=(1.0, 1.0))

    def test_rejects_outage_targets_outside_unit_interval(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(scenario="power_gains", grid=(0.5, 1.0))
        with pytest.raises(ConfigError):
            ScenarioSpec(scenario="power_gains", grid=(0.0, 0.5))


class TestLoadSpec:
    def test_config_file_section(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[sweep_total_power]\n"
            "rate_1 = 0.5\n"
            "omega_y = 2.0\n"
            "grid = 0:6:3\n"
            "trials = 5000\n"
            "seed = 9\n"
            "out = run.csv\n"
        )
        spec = load_spec("sweep_total_power", str(path))
        assert spec.rate_1 == 0.5
        assert spec.omega_y == 2.0
        assert spec.grid == (0.0, 3.0, 6.0)
        assert spec.trials == 5000
        assert spec.seed == 9
        assert spec.output_path == "run.csv"

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[validate]\ntrials = 5000\nseed = 9\n")
        spec = load_spec("validate", str(path), trials=40_000, seed=1)
        assert spec.trials == 40_000
        assert spec.seed == 1

    def test_unknown_key_is_diagnosed(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[validate]\ntirals = 5000\n")
        with pytest.raises(ConfigError, match="tirals"):
            load_spec("validate", str(path))

    def test_bad_number_is_diagnosed(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[validate]\ntrials = soon\n")
        with pytest.raises(ConfigError, match="trials"):
            load_spec("validate", str(path))

    def test_first_bad_field_in_reading_order_is_diagnosed(self, tmp_path):
        """With several bad fields, the error names the first in the fixed
        reading order (grid, rate_1, rate_2, omega_x, omega_y, trials, seed),
        whatever their order in the file."""
        path = tmp_path / "exp.ini"
        path.write_text("[validate]\nseed = later\nomega_y = wide\nrate_2 = half\n")
        with pytest.raises(ConfigError, match="^field 'rate_2': expected a number"):
            load_spec("validate", str(path))
        with pytest.raises(ConfigError, match="^grid"):
            load_spec("validate", str(path), grid="0:1")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_spec("validate", "/nonexistent/path.ini")

    def test_defaults_without_file(self):
        spec = load_spec("power_gains")
        assert spec.scenario == "power_gains"
        assert 0.0 < spec.grid[0] < spec.grid[-1] < 1.0


class TestTotalPowerSweep:
    def test_columns_and_dominance(self):
        spec = ScenarioSpec(scenario="sweep_total_power", grid=(-30.0, 0.0, 10.0),
                            **SMALL)
        fieldnames, rows = scenario_total_power(spec)
        assert fieldnames == ["P_T_dB", "op_opa_analytic", "op_opa_mc",
                              "op_fpa_analytic", "op_fpa_mc"]
        assert len(rows) == 3
        for row in rows:
            assert row["op_opa_analytic"] <= row["op_fpa_analytic"]
            sigma = math.sqrt(max(row["op_opa_analytic"]
                                  * (1 - row["op_opa_analytic"]), 1e-9) / spec.trials)
            assert abs(row["op_opa_analytic"] - row["op_opa_mc"]) <= 4 * sigma

    def test_default_sweep_is_pinned(self, tmp_path):
        """The default grid at 100,000 trials and seed 1, byte for byte as
        written when every Monte Carlo run drew its own fading."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep-total-power", "--trials", "100000", "--seed", "1",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "95e061356b66090c3d9a4f7743fb402f27fd8b50f67d5b359f82b9336c933143")

    def test_default_sweep_at_default_trials_is_pinned(self, tmp_path):
        """The default grid at the default 1M trials and seed, byte for byte
        as written before square corners were counted from one sort of
        min(x, y): all 16 chunks take that path."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep-total-power", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "9b7bd2d9f15acdb6496de1ae4abaf234536944786e14bec4698ac0b879df1424")

    def test_symmetric_non_unit_gain_sweep_is_pinned(self, tmp_path):
        """Mean gains (0.37, 0.37) on the default grid, trials and seed 1,
        byte for byte as written before equal-gain square corners were
        counted from the uniforms."""
        ini = tmp_path / "sym.ini"
        ini.write_text("[sweep_total_power]\nomega_x = 0.37\nomega_y = 0.37\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep-total-power", "--config", str(ini), "--seed", "1",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b3fbf2d662045297f7b477e0703df729413cdae07b75237293d4e1c12208cc24")

    def test_capped_asymmetric_sweep_is_pinned(self, tmp_path):
        """Rates (1/3, 2/3), mean gains (0.5, 2) and 30 to 33 dB at the
        default trials and seed 1, byte for byte as written before the Monte
        Carlo counts moved to each policy's served corner.  The relay cap
        binds at every point, where delta / rho falls from about 1e-23 to 3e-46."""
        ini = tmp_path / "asym.ini"
        ini.write_text("[sweep_total_power]\nrate_1 = 0.3333333333333333\n"
                       "rate_2 = 0.6666666666666666\nomega_x = 0.5\nomega_y = 2.0\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep-total-power", "--config", str(ini), "--grid", "30:33:1",
                     "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "48911cb60c596db09a103c6f449c665c5cd97a32c809bf0c98662391dcc00dd6")

    def test_equal_rate_asymmetric_gain_sweep_is_pinned(self, tmp_path):
        """Mean gains (2, 0.5) on the default grid and trials at seed 1, byte
        for byte as written when the square corners of an unequal-gain group
        (33 per chunk here) were counted as z < a on z = min(x, y)."""
        ini = tmp_path / "asym.ini"
        ini.write_text("[sweep_total_power]\nomega_x = 2.0\nomega_y = 0.5\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep-total-power", "--config", str(ini), "--seed", "1",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "25d8cfa5983ac95a1eaf6362143bb23f5e4639552e9f971e6ef0663ddfa9953e")

    def test_default_sweep_builds_two_policies_per_point(self, monkeypatch):
        """A default sweep builds the adaptive relay and the fixed-power
        baseline once per grid point, and reads both analytic columns from
        them: 42 `RelayPolicy` constructions in all (63 while the baseline
        column built its policy a second time)."""
        built = []
        post_init = RelayPolicy.__post_init__
        monkeypatch.setattr(RelayPolicy, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        spec = load_spec("sweep_total_power", trials=MIN_TRIALS)
        scenario_total_power(spec)
        assert len(spec.grid) == 21 and len(built) == 42

    def test_vanishing_power_forces_outage(self):
        spec = ScenarioSpec(scenario="sweep_total_power", grid=(-30.0,), **SMALL)
        _, rows = scenario_total_power(spec)
        assert rows[0]["op_opa_analytic"] > 0.99
        assert rows[0]["op_fpa_analytic"] > 0.99


class TestPowerGains:
    def test_round_trip_targets(self):
        """Feeding the computed cutoffs back through the floor formula
        reproduces each target to 1e-12."""
        spec = ScenarioSpec(scenario="power_gains", grid=(0.001, 0.1, 0.5, 0.9),
                            omega_x=2.0, omega_y=0.5, **SMALL)
        for target in spec.grid:
            exponent = -0.5 * math.log1p(-target)
            x0 = spec.omega_x * exponent
            y0 = spec.omega_y * exponent
            assert min_outage(x0, y0, spec.omega_x, spec.omega_y) \
                == pytest.approx(target, abs=1e-12)

    def test_gains_positive_and_diverging(self):
        spec = ScenarioSpec(scenario="power_gains",
                            grid=(0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9), **SMALL)
        fieldnames, rows = scenario_power_gains(spec)
        assert fieldnames == ["op_target", "gain_s_dB", "gain_r_dB"]
        for row in rows:
            assert row["gain_s_dB"] > 0.0
            assert row["gain_r_dB"] > 0.0
        by_target = {row["op_target"]: row for row in rows}
        assert by_target[0.001]["gain_s_dB"] > by_target[0.1]["gain_s_dB"]
        assert by_target[0.001]["gain_r_dB"] > by_target[0.1]["gain_r_dB"]

    def test_asymmetric_gains_match_both_nodes(self):
        """Under the equal-exponent split the two end-node gains coincide
        even for unequal mean gains and rates."""
        spec = ScenarioSpec(scenario="power_gains", grid=(0.2,), rate_1=0.5,
                            rate_2=0.25, omega_x=4.0, omega_y=0.25, **SMALL)
        _, rows = scenario_power_gains(spec)
        from tdbcsim.specfun import exp_integral_e1
        from tdbcsim.system_model import delta_of_rate
        exponent = -0.5 * math.log1p(-0.2)
        d2 = delta_of_rate(0.25)
        gain_2 = (d2 / (spec.omega_y * exponent)) \
            / ((d2 / spec.omega_y) * exp_integral_e1(exponent))
        assert rows[0]["gain_s_dB"] == pytest.approx(10 * math.log10(gain_2), rel=1e-12)

    @pytest.mark.parametrize("target,rate", [(1e-310, 1 / 3), (1e-250, 100.0), (1e-311, 1 / 3),
                                             (1e-312, 1 / 3), (1e-323, 1 / 3)])
    def test_tiny_targets_give_finite_gains(self, target, rate):
        """Where the fixed powers d / x0 overflow, the node gain is still
        1 / (e E1(e)) at the exponent e = -log1p(-target) / 2, and the
        relay's is 1 / (e 2 E1(2 e)) at equal rates and unit mean gains.
        From 1e-311 down the products e E1(e) and e 2 E1(2 e) are
        subnormal, where their reciprocals once overflowed to inf."""
        spec = ScenarioSpec(scenario="power_gains", grid=(target,), rate_1=rate,
                            rate_2=rate, **SMALL)
        _, [row] = scenario_power_gains(spec)
        e = -0.5 * math.log1p(-target)
        e_db = 10.0 * math.log10(e)
        assert row["gain_s_dB"] == pytest.approx(-e_db - 10.0 * math.log10(special.exp1(e)),
                                                 rel=1e-12)
        assert row["gain_r_dB"] == pytest.approx(
            -e_db - 10.0 * math.log10(2.0 * special.exp1(2.0 * e)), rel=1e-12)

    def test_target_with_a_zero_cutoff_is_a_config_error(self, tmp_path, capsys):
        assert main(["power-gains", "--grid", "5e-324:5e-324:1",
                     "--out", str(tmp_path / "g.csv")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert "target 5e-324" in line

    @pytest.mark.parametrize("omega_y", [1e-10, 1e-30])
    def test_tiny_second_rate_prices_the_relay(self, omega_y):
        """At rate_2 = 1e-300 the relay spends only below the ray, delta1 /
        omega_y e^(-e) E1(e) at the exponent e of the target 0.5, and its
        fixed power is delta1 / (omega_y e): gain_r_dB is -10 log10(e e^(-e)
        E1(e)), with scipy's exp1.  These once exited 1: E1 of an inf
        argument (omega_y = 1e-10), and a division by 0 (omega_y = 1e-30,
        where delta2 * omega_y underflows)."""
        spec = ScenarioSpec(scenario="power_gains", grid=(0.5,), rate_2=1e-300,
                            omega_y=omega_y, **SMALL)
        _, [row] = scenario_power_gains(spec)
        e = -0.5 * math.log1p(-0.5)
        assert row["gain_r_dB"] == pytest.approx(
            -10.0 * math.log10(e * math.exp(-e) * float(special.exp1(e))), rel=1e-12)

    def test_default_gains_are_pinned(self, tmp_path):
        """The default grid at seed 1, byte for byte as written before the
        relay rule and the fixed-power corner were each written once."""
        out = tmp_path / "gains.csv"
        assert main(["power-gains", "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d47df53769ce415ce76e5ac27081f5d0d3dcf48d9f7a790ff94ca82ad1ce6e3e")


class TestValidateScenario:
    def test_parameter_table_spans_regimes(self):
        seen = set()
        for _, _, relay in validation_policies():
            seen.add(("a" if relay.delta2 * relay.y0 <= relay.delta1 * relay.x0 else "b",
                      "unbounded" if relay.rho is None else "finite"))
        assert len(validation_policies()) >= 20
        assert seen == {("a", "finite"), ("a", "unbounded"),
                        ("b", "finite"), ("b", "unbounded")}

    def test_cutoffs_are_solved_once_per_rate_and_gain_pair(self, monkeypatch):
        """Each relay policy is built on the cutoffs solved to size its
        budget: two solves for each of the 12 rate and gain pairs, and the
        same policies as solving each set's config from scratch."""
        from tdbcsim import endnode_policy, scenario_cli
        from tdbcsim.relay_policy import policies_from_config
        solve = endnode_policy.solve_cutoff
        calls = []

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(endnode_policy, "solve_cutoff", counted)
        monkeypatch.setattr(scenario_cli, "solve_cutoff", counted)
        sets = validation_policies()
        assert len(calls) == 24
        monkeypatch.undo()
        assert all(relay == policies_from_config(config)[2] for _, config, relay in sets)

    def test_rows_and_identities_pass(self):
        spec = ScenarioSpec(scenario="validate", grid=(0.0,), trials=50_000, seed=777)
        fieldnames, rows = scenario_validate(spec)
        assert fieldnames[0] == "check" and fieldnames[-1] == "status"
        identity_checks = {"saturation_identity", "tie_avg_power", "e1_bracket", "e1_solver_roundtrip", "cutoff_roundtrip",
                           "rho_roundtrip", "avg_power_monotone_in_cap"}
        by_check = {row["check"] for row in rows}
        assert identity_checks <= by_check
        for row in rows:
            if row["check"] in identity_checks:
                assert row["status"] == "PASS", row

    def test_outage_rows_catch_swapped_mean_gains(self, monkeypatch):
        """With `min_outage`, as outage_analytics reads it, swapping omega_x
        and omega_y, fpa_outage_mc reads FAIL on fpa02 and fpa03 and
        outage_mc on the unequal-gain sets set06 and set24; on equal gains
        the swap changes nothing and the rows pass.  The closed forms and the
        count read the same policy corners, so these rows catch a fault in
        the closed form or in the count, not one in the corners."""
        from tdbcsim import outage_analytics
        min_outage = outage_analytics.min_outage
        monkeypatch.setattr(outage_analytics, "min_outage",
                            lambda x0, y0, omega_x, omega_y: min_outage(x0, y0, omega_y, omega_x))
        spec = ScenarioSpec(scenario="validate", grid=(0.0,), **SMALL)
        status = {(row["check"], row["params"]): row["status"]
                  for row in scenario_validate(spec)[1]}
        assert [status["fpa_outage_mc", f"fpa0{k}"] for k in range(1, 5)] \
            == ["PASS", "FAIL", "FAIL", "PASS"]
        assert status["outage_mc", "set06"] == status["outage_mc", "set24"] == "FAIL"
        assert all(status["outage_mc", label] == "PASS"
                   for label, config, _ in validation_policies()
                   if config.omega_x == config.omega_y)

    @pytest.mark.parametrize("name, faulty, row", [
        ("exp_integral_e1",
         lambda e1: lambda x: math.exp(-x) / x * 1.001 if x == E1_BRACKET_FAULT_AT else e1(x),
         "e1_bracket"),
        ("solve_monotone", lambda solve: lambda *args: solve(*args) * (1.0 + 1e-8),
         "e1_solver_roundtrip"),
        ("solve_cutoff", lambda solve: lambda *args: solve(*args) * (1.0 + 1e-8),
         "cutoff_roundtrip"),
        ("solve_rho", lambda solve: lambda *args: solve(*args) * (1.0 + 1e-5),
         "rho_roundtrip"),
        ("outage_opa",
         lambda opa: lambda p: types.SimpleNamespace(p_out=opa(p).p_out + 1e-11)
         if p.rho is None else opa(p),
         "saturation_identity"),
        ("avg_relay_power",
         lambda avg: lambda p: avg(p) - 1e-9 if p.rho is not None and p.rho > 15.0
         else avg(p),
         "avg_power_monotone_in_cap"),
    ])
    def test_identity_rows_fail_on_the_fault_they_name(self, monkeypatch, name, faulty, row):
        """With one fault in what scenario_cli calls, exactly the row that
        guards it reads FAIL: E1 above exp(-x) / x at one point of the
        bracket grid, or the E1 solver, the cutoff solve or the cap solve
        off by ten times its row's tolerance, or the outage of every uncapped
        policy off by 1e-11, or the relay spend 1e-9 lower at caps above 15.
        Only the third geometry of the monotonicity row reaches such caps, in
        its saturated range (from 12.5), where the true spend is flat; the
        caps of the tie and cap round-trip rows stay below 8."""
        from tdbcsim import scenario_cli
        monkeypatch.setattr(scenario_cli, name, faulty(getattr(scenario_cli, name)))
        rows = scenario_cli._identity_rows(ScenarioSpec(scenario="validate", grid=(0.0,), **SMALL))
        assert [r["check"] for r in rows if r["status"] == "FAIL"] == [row]

    @pytest.mark.parametrize("name, faulty, checks", [
        ("solve_cutoff", lambda solve: lambda *args: solve(*args) * 1.05,
         {"power_s1_mc", "power_s2_mc"}),
        ("avg_relay_power", lambda avg: lambda p: avg(p) * 1.05, {"power_relay_mc"}),
        ("solve_rho", lambda solve: lambda *args: solve(*args[:-1], args[-1] * 1.05),
         {"relay_budget"}),
    ], ids=["cutoff", "spend", "cap"])
    def test_power_rows_fail_on_the_fault_they_name(self, monkeypatch, name, faulty, checks):
        """At validate's default trials and seed, where every Monte Carlo row
        passes, one fault in what scenario_cli calls fails exactly the rows
        that guard it: end-node cutoffs 5% high underspend the end-node
        budgets, a relay spend closed form 5% high misses the relay's Monte
        Carlo spend, and caps solved for budgets 5% high overspend the relay
        budget on the capped sets.  The closed forms and the count read the
        same corners, so no outage row moves."""
        from tdbcsim import scenario_cli
        spec = ScenarioSpec(scenario="validate", grid=(0.0,))
        assert all(r["status"] == "PASS" for r in scenario_cli._mc_consistency_rows(spec))
        monkeypatch.setattr(scenario_cli, name, faulty(getattr(scenario_cli, name)))
        rows = scenario_cli._mc_consistency_rows(spec)
        assert {r["check"] for r in rows if r["status"] == "FAIL"} == checks

    def test_tie_row_compares_both_orientations_in_all_30_cases(self):
        """Each case of the tie_avg_power row is a policy and its mirror
        whose corners tie, delta2 * lambda2 == delta1 * lambda1, so the two
        take the two wedge orientations; each finite cap moves both corners
        off the cutoffs."""
        cases = list(_tie_cases())
        ties = sum(p.delta2 * p.lambda2 == p.delta1 * p.lambda1 for p, _ in cases)
        assert len(cases) == 30 and ties == 30
        for p, m in cases:
            assert (m.delta1, m.delta2, m.x0, m.y0, m.omega_x, m.omega_y, m.rho) \
                == (p.delta2, p.delta1, p.y0, p.x0, p.omega_y, p.omega_x, p.rho)
            assert (p.lambda1 > p.x0 and p.lambda2 > p.y0) == (p.rho is not None)

    def test_validation_designs_are_pinned_bit_for_bit(self):
        """On the 24 validation sets, the cutoffs, rho, the served corners,
        outage_opa, avg_relay_power and outage_fpa at fixed powers equal to
        the budgets, hashed by float.hex: a change that moves any last bit
        of a design fails here, which the CSVs' 12 printed digits cannot
        show."""
        lines = []
        for label, config, relay in validation_policies():
            fpa = FpaConfig(config.pbar_s1, config.pbar_s2, config.p_avg_relay)
            rho = "unbounded" if relay.rho is None else relay.rho.hex()
            values = (relay.x0, relay.y0, relay.lambda1, relay.lambda2,
                      outage_opa(relay).p_out, avg_relay_power(relay), outage_fpa(config, fpa))
            lines.append(" ".join([label, rho, *(v.hex() for v in values)]))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DESIGN_PIN

    def test_validate_csv_is_pinned(self, tmp_path):
        """100,000 trials at seed 1, byte for byte as written once E1 became
        Chebyshev tables on (0, 1] too; that moved only the last digits of
        e1_solver_roundtrip's empirical value and of five deviations
        (e1_solver_roundtrip, outage_mc set01, set04 and set21,
        power_relay_mc set14).  At this trial count five Monte Carlo power
        rows miss their 1% tolerance, so the run exits 2."""
        out = tmp_path / "validate.csv"
        assert main(["validate", "--trials", "100000", "--seed", "1",
                     "--out", str(out)]) == 2
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "6237483ad428b23647ebdfe298794d2857ee0e0b0fc715500f114586a954490e")


class TestPrintedClosedForms:
    def test_closed_form_columns_match_the_benchmark_oracles(self):
        """On their default grids at MIN_TRIALS, the sweep's op_opa_analytic
        and op_fpa_analytic equal bench/oracles.design_outage and fpa_outage,
        and, with e = -log1p(-target) / 2, power-gains' gain_s_dB is
        -10 log10(e E1(e)) with scipy's exp1 and its gain_r_dB is 10 log10 of
        the fixed relay power max(d1 / (omega_y e), d2 / (omega_x e)) over
        the quadrature spend bench/oracles.relay_spend above the corner
        (omega_x e, omega_y e), each to 1e-12 relative.  power-gains also
        runs on rates (1/3, 2/3) and omega (2, 0.5), where a swap of the end
        nodes would show."""
        oracles = load_bench("oracles")
        spec = load_spec("sweep_total_power", trials=MIN_TRIALS)
        d1, d2 = (2.0 ** (3.0 * rate) - 1.0 for rate in (spec.rate_1, spec.rate_2))
        failures = []
        for row in scenario_total_power(spec)[1]:
            share = 10.0 ** (row["P_T_dB"] / 10.0) / 3.0
            design = (d1, d2, spec.omega_x, spec.omega_y, share, share, share)
            for column, oracle in (("op_opa_analytic", oracles.design_outage(*design)),
                                   ("op_fpa_analytic", oracles.fpa_outage(*design))):
                if oracles.rel_dev(row[column], oracle) > 1e-12:
                    failures.append(f"P_T_dB {row['P_T_dB']}: {column} {row[column]!r}, "
                                    f"oracle {oracle!r}")
        spec = load_spec("power_gains", trials=MIN_TRIALS)
        for spec in (spec, dataclasses.replace(spec, rate_2=2 * spec.rate_1,
                                               omega_x=2.0, omega_y=0.5)):
            d1, d2 = (2.0 ** (3.0 * rate) - 1.0 for rate in (spec.rate_1, spec.rate_2))
            ox, oy = spec.omega_x, spec.omega_y
            for row in scenario_power_gains(spec)[1]:
                e = -0.5 * math.log1p(-row["op_target"])
                fixed_relay = max(d1 / (oy * e), d2 / (ox * e))
                for column, oracle in (
                        ("gain_s_dB", -10.0 * math.log10(e * float(special.exp1(e)))),
                        ("gain_r_dB", 10.0 * math.log10(
                            fixed_relay / oracles.relay_spend(d1, d2, ox, oy, ox * e, oy * e)))):
                    if oracles.rel_dev(row[column], oracle) > 1e-12:
                        failures.append(f"{spec.rate_2, ox, oy} op_target {row['op_target']}: "
                                        f"{column} {row[column]!r}, oracle {oracle!r}")
        assert not failures, failures

    def test_validate_analytic_column_matches_the_benchmark_oracles(self):
        """At MIN_TRIALS, validate's analytic outage of each relay set equals
        bench/oracles.design_outage on the set's config, its analytic relay
        power equals relay_spend at the oracle's cutoffs, or the budget
        where the cap binds, and its fixed-power outage equals fpa_outage,
        each to 1e-12 relative.  The policies of the default link at 31, 32
        and 33 dB, past the sweep's default grid, give design_outage too."""
        oracles = load_bench("oracles")
        analytic = {(row["check"], row["params"]): row["analytic"]
                    for row in scenario_validate(load_spec("validate", trials=MIN_TRIALS))[1]}
        failures = []

        def check(label, got, oracle):
            if oracles.rel_dev(got, oracle) > 1e-12:
                failures.append(f"{label}: {got!r}, oracle {oracle!r}")

        for label, c, _ in validation_policies():
            design = (c.delta1, c.delta2, c.omega_x, c.omega_y, c.pbar_s1, c.pbar_s2, c.p_avg_relay)
            check(f"outage_mc {label} analytic", analytic["outage_mc", label],
                  oracles.design_outage(*design))
            x0 = c.omega_x * math.exp(oracles.log_cutoff(c.delta1, c.omega_x, c.pbar_s1))
            y0 = c.omega_y * math.exp(oracles.log_cutoff(c.delta2, c.omega_y, c.pbar_s2))
            spend = oracles.relay_spend(c.delta1, c.delta2, c.omega_x, c.omega_y, x0, y0)
            check(f"power_relay_mc {label} analytic", analytic["power_relay_mc", label],
                  min(spend, c.p_avg_relay))
        for label, (rate_1, rate_2, ox, oy), powers in _FPA_VALIDATION_SETS:
            d1, d2 = (2.0 ** (3.0 * rate) - 1.0 for rate in (rate_1, rate_2))
            check(f"fpa_outage_mc {label} analytic", analytic["fpa_outage_mc", label],
                  oracles.fpa_outage(d1, d2, ox, oy, *powers))
        spec = load_spec("sweep_total_power")
        d1, d2 = (2.0 ** (3.0 * rate) - 1.0 for rate in (spec.rate_1, spec.rate_2))
        for p_t_db in (31, 32, 33):
            share = 10.0 ** (p_t_db / 10.0) / 3.0
            config = tdbcsim.SystemConfig(spec.rate_1, spec.rate_2, spec.omega_x, spec.omega_y,
                                          share, share, share)
            check(f"policies_from_config at {p_t_db} dB outage",
                  outage_opa(policies_from_config(config)[2]).p_out,
                  oracles.design_outage(d1, d2, spec.omega_x, spec.omega_y, share, share, share))
        assert not failures, failures


class TestCsvAndCli:
    def test_write_csv_format(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ["a", "b"], [{"a": 1.0 / 3.0, "b": "x"}])
        data = path.read_bytes()
        assert data == b"a,b\n0.333333333333,x\n"

    def test_cli_validate_deterministic_bytes(self, tmp_path):
        """Identical spec and seed give a byte-identical CSV."""
        out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
        code1 = main(["validate", "--trials", "50000", "--seed", "777",
                      "--out", str(out1)])
        code2 = main(["validate", "--trials", "50000", "--seed", "777",
                      "--out", str(out2)])
        assert code1 == code2
        assert out1.read_bytes() == out2.read_bytes()

    def test_cli_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep-total-power", "--grid", "0:6:3", "--trials", "20000",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "P_T_dB,op_opa_analytic,op_opa_mc,op_fpa_analytic,op_fpa_mc"
        assert len(lines) == 4

    def test_cli_power_gains_writes_csv(self, tmp_path):
        out = tmp_path / "gains.csv"
        code = main(["power-gains", "--grid", "0.1:0.9:0.2", "--trials", "20000",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "op_target,gain_s_dB,gain_r_dB"

    def test_usage_error_exit_code(self, capsys):
        assert main(["sweep-total-power", "--grid", "bogus"]) == 1
        assert main(["no-such-command"]) == 1
        assert main([]) == 1
        err = capsys.readouterr().err
        assert "error" in err

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text("[validate]\ntrials = 10\n")
        assert main(["validate", "--config", str(path)]) == 1

    def test_validate_csv_parses(self, tmp_path):
        """Every row of the validate CSV reads back as exactly the header's
        fields, including params that hold a comma."""
        out = tmp_path / "v.csv"
        main(["validate", "--trials", "1000", "--seed", "777", "--out", str(out)])
        with open(out, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert len(reader.fieldnames) == 7
        assert rows and all(None not in row and None not in row.values() for row in rows)
        assert "200 pts in [1e-6, 50]" in {row["params"] for row in rows}

    @pytest.mark.parametrize("argv,ini,names", [
        # the cutoff underflows at 34 dB
        (["sweep-total-power", "--grid", "30:40:2", "--trials", "1000"], None,
         "cutoff solve"),
        # 2**(3 * 400) overflows a double
        (["sweep-total-power", "--grid", "0:0:1", "--trials", "1000"],
         "[sweep_total_power]\nrate_1 = 400\n",
         "tdbcsim: error: at P_T 0.0 dB: rate 400.0 too large: 2**(3 * rate) overflows a double\n"),
        # the chunk plan of 10**23 trials is refused before anything is allocated
        (["sweep-total-power", "--grid", "0:0:1", "--trials", str(10 ** 23)], None,
         f"out of memory planning the chunks of {10 ** 23} trials"),
        (["validate", "--trials", str(10 ** 23)], None,
         f"out of memory planning the chunks of {10 ** 23} trials"),
        # 10**310 overflows a double
        (["sweep-total-power", "--grid", "3100:3100:1", "--trials", "1000"], None,
         "power 3100.0 dB"),
        # 10**-400 underflows to 0.0, which is no budget
        (["sweep-total-power", "--grid=-4000:-4000:1", "--trials", "1000"], None,
         "at P_T -4000.0 dB: pbar_s1 must be finite and > 0"),
        # the fixed-power cutoff delta / (10**-320 / 3) overflows to inf
        (["sweep-total-power", "--grid=-3200:-3200:1", "--trials", "1000"], None,
         "at P_T -3200.0 dB: x0 must be finite and > 0"),
        # 1 / 1e-310 overflows, and both relay powers of power-gains scale with it
        (["power-gains", "--trials", "1000"], "[power_gains]\nomega_y = 1e-310\n",
         "tdbcsim: error: delta / omega overflows a double\n"),
        # 1 / 1e-310 overflows in end node 1's cutoff solve, which once returned
        # a wrong cutoff that the relay's spend then failed on inside E1
        (["sweep-total-power", "--grid=-10:-10:1", "--trials", "1000"],
         "[sweep_total_power]\nomega_x = 1e-310\n",
         "tdbcsim: error: at P_T -10.0 dB: cutoff solve for budget 0.03333333333333333: "
         "delta / omega overflows a double\n"),
        # delta1 / omega_y = (2**30 - 1) / 1e-300 overflows in the relay alone
        (["sweep-total-power", "--grid=-10:-10:1", "--trials", "1000"],
         "[sweep_total_power]\nrate_1 = 10\nomega_y = 1e-300\n",
         "tdbcsim: error: at P_T -10.0 dB: delta / omega overflows a double\n"),
        # a subnormal mean gain, not the target, rounds the cutoff to 0
        (["power-gains", "--grid", "0.5:0.5:1", "--trials", "1000"],
         "[power_gains]\nomega_x = 5e-324\nrate_2 = 1e-300\n",
         "tdbcsim: error: power_gains mean gain omega_x 5e-324 is too small: "
         "a cutoff rounds to 0\n"),
        (["power-gains", "--grid", "0.5:0.5:1", "--trials", "1000"],
         "[power_gains]\nomega_y = 5e-324\nrate_1 = 1e-300\n",
         "tdbcsim: error: power_gains mean gain omega_y 5e-324 is too small: "
         "a cutoff rounds to 0\n"),
        # the target's own exponent rounds to 0
        (["power-gains", "--grid", "5e-324:5e-324:1", "--trials", "1000"], None,
         "tdbcsim: error: power_gains target 5e-324 is too small: a cutoff rounds to 0\n"),
    ], ids=["cutoff-underflow", "rate-overflow", "trials-memory", "validate-trials-memory",
            "db-overflow", "db-underflow", "fpa-cutoff-overflow", "gains-peak-overflow",
            "cutoff-quotient-overflow", "relay-quotient-overflow", "gains-x-mean-gain",
            "gains-y-mean-gain", "gains-target-underflow"])
    def test_numerical_error_is_one_line(self, tmp_path, capsys, argv, ini, names):
        argv = argv + ["--out", str(tmp_path / "s.csv")]
        if ini is not None:
            path = tmp_path / "exp.ini"
            path.write_text(ini)
            argv += ["--config", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("tdbcsim: error: ")
        assert names in err

    def test_cutoff_limit_is_named(self, tmp_path, capsys):
        """At 34 dB each end node's cutoff is about exp(-838), below every
        double: the one-line error says so."""
        argv = ["sweep-total-power", "--grid", "34:34:1", "--trials", "1000",
                "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "cutoff solve" in err and "below the smallest normal double" in err

    def test_sweep_reaches_33_db(self, tmp_path):
        """The sweep works up to 33 dB, where the outage is about 2e-145.

        Oracle: with rates 1/3 (delta = 1) and unit mean gains, the cap puts
        both corners at lambda = 1 / rho above the cutoffs, the relay spends
        2 E1(2 lambda) (it serves 1 / min(x, y) on x, y >= lambda), and the
        outage is 1 - exp(-2 lambda); lambda is solved with scipy in ln lambda.
        """
        out = tmp_path / "s.csv"
        assert main(["sweep-total-power", "--grid", "30:33:1", "--trials", "1000",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open(newline="", encoding="utf-8")))
        assert [float(r["P_T_dB"]) for r in rows] == [30.0, 31.0, 32.0, 33.0]
        share = 10.0 ** 3.3 / 3.0
        log_lam = optimize.brentq(lambda t: 2.0 * special.exp1(2.0 * math.exp(t)) - share,
                                  -share, 0.0, xtol=1e-14, rtol=1e-15)
        assert log_lam > log_cutoff_oracle(share)      # the cap binds
        expected = -math.expm1(-2.0 * math.exp(log_lam))
        assert float(rows[-1]["op_opa_analytic"]) == pytest.approx(expected, rel=1e-9)

    def test_unwritable_output_exit_code(self, capsys):
        code = main(["power-gains", "--grid", "0.1:0.9:0.2", "--trials", "20000",
                     "--out", "/nonexistent-dir/x.csv"])
        assert code == 1

    def test_empty_grid_override_is_usage_error(self):
        assert main(["validate", "--grid", ""]) == 1

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        """Starved of trials, the Monte Carlo rows cannot meet their
        tolerances: failures surface as FAIL rows and exit status 2."""
        out = tmp_path / "v.csv"
        code = main(["validate", "--trials", "1000", "--seed", "777",
                     "--out", str(out)])
        assert code == 2
        assert ",FAIL" in out.read_text()

    def test_negative_db_grid_flag(self, tmp_path):
        """A dB grid starting with a minus must parse as the flag's value,
        not as another option."""
        out = tmp_path / "neg.csv"
        code = main(["sweep-total-power", "--grid", "-10:0:5", "--trials", "20000",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("-10,")

    def test_cli_sweep_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["sweep-total-power", "--grid", "0:6:3", "--trials", "20000",
                "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_reused_parser_carries_no_state(self, tmp_path, capsys):
        """main calls in one process (a sweep on a grid, a sweep on the
        default grid, an unknown flag, power-gains) share one parser; each
        exits, errs and writes as the same command run alone in a fresh
        interpreter."""
        commands = [["sweep-total-power", "--grid", "0:4:2", "--trials", "20000", "--seed", "3"],
                    ["sweep-total-power", "--trials", "20000", "--seed", "3"],
                    ["sweep-total-power", "--no-such-flag"],
                    ["power-gains"]]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(pathlib.Path(tdbcsim.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
        codes, errs = [], []
        for k, argv in enumerate(commands):
            here, alone = tmp_path / f"here{k}.csv", tmp_path / f"alone{k}.csv"
            codes.append(main(argv + ["--out", str(here)]))
            errs.append(capsys.readouterr().err)
            child = subprocess.run([sys.executable, "-m", "tdbcsim", *argv, "--out", str(alone)],
                                   capture_output=True, text=True, env=env, timeout=300)
            assert (codes[-1], errs[-1]) == (child.returncode, child.stderr)
            assert here.exists() == alone.exists()
            if here.exists():
                assert here.read_bytes() == alone.read_bytes()
        assert codes == [0, 0, 1, 0]
        assert errs[2] == "tdbcsim: error: unrecognized arguments: --no-such-flag\n"
        rows = [len((tmp_path / f"here{k}.csv").read_text().splitlines()) - 1 for k in (0, 1)]
        assert rows == [3, len(parse_grid("-10:30:2"))]


def _numbers(decades, *edges):
    """Config text of a number log-uniform over `decades` or of one of
    `edges`."""
    return st.one_of(st.floats(*decades).map(lambda e: repr(10.0 ** e)), st.sampled_from(edges))


_CONTRACT_KEYS = {
    "rate_1": _numbers((-2.0, 2.5), "5e-324", "1e-300", "1e-17", "0.3333333333333333", "341.33"),
    "rate_2": _numbers((-2.0, 2.5), "1e-17", "0.5", "341.34"),
    "omega_x": _numbers((-3.0, 3.0), "5e-324", "1e-310", "1e-300", "1.7976931348623157e308"),
    "omega_y": _numbers((-3.0, 3.0), "1e-310", "1", "1e300"),
    "seed": st.sampled_from(["0", "1", str(2 ** 64 - 1), str(2 ** 64)]),
}
_MALFORMED = ("0", "-1", "nan", "inf", "1e999", "1.5", "x", "", "1:0:1", "0:1")
_DB_POINTS = st.one_of(st.floats(-40.0, 30.0),
                       st.sampled_from([-4000.0, -3200.0, -300.0, 33.0, 34.0, 3080.0, 3100.0]))
_TARGETS = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     st.floats(-323.0, -1.0).map(lambda e: 10.0 ** e),
                     st.sampled_from([5e-324, 1e-323, 1e-312, 1e-311, 1.0 - 2.0 ** -53]))


@st.composite
def _grids(draw, values):
    """start:stop:step text of one to three points of `values`."""
    points = sorted(set(draw(st.lists(values, min_size=1, max_size=3))))
    step = (points[-1] - points[0]) / (len(points) - 1) if len(points) > 1 else 1.0
    return f"{points[0]!r}:{points[-1]!r}:{step!r}"


@st.composite
def _cli_specs(draw):
    """(command, INI text, flags): each config key set or not, to a value of
    its accepted domain or at its edge, and now and then one malformed."""
    # validate reads only the seed and costs the most: one draw in five
    command = draw(st.sampled_from(["sweep-total-power", "power-gains"] * 2 + ["validate"]))
    grid = _grids(_DB_POINTS if command == "sweep-total-power" else _TARGETS)
    values = {key: draw(value) for key, value in {**_CONTRACT_KEYS, "grid": grid}.items()
              if draw(st.booleans())}
    if values and draw(st.integers(0, 7)) == 0:
        values[draw(st.sampled_from(sorted(values)))] = draw(st.sampled_from(_MALFORMED))
    ini = "".join(f"{key} = {value}\n" for key, value in values.items())
    flags = ["--grid", draw(grid)] if draw(st.booleans()) else []
    if draw(st.booleans()):
        flags += ["--seed", str(draw(st.integers(0, 2 ** 64 - 1)))]
    return command, f"[{command.replace('-', '_')}]\n{ini}", flags


def _probabilities(row: dict) -> list[str]:
    if "check" not in row:      # sweep-total-power and power-gains
        return [value for name, value in row.items() if name.startswith("op_")]
    return [row["analytic"], row["empirical"]] if row["check"].endswith("outage_mc") else []


class TestCliContract:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_cli_specs())
    @example(("power-gains", "", ["--grid", "1e-311:1e-311:1"]))
    @example(("power-gains", "", ["--grid", "1e-312:1e-312:1"]))
    @example(("power-gains", "[power_gains]\nomega_y = 1e-310\n", []))
    @example(("power-gains", "[power_gains]\nrate_1 = 15.0\ngrid = 1e-323:1e-323:1\n", []))
    @example(("sweep-total-power", "[sweep_total_power]\nomega_x = 1e-310\n",
              ["--grid=-10:-10:1"]))
    @example(("power-gains", "[power_gains]\nomega_x = 5e-324\nrate_2 = 1e-300\n",
              ["--grid", "0.5:0.5:1"]))
    @example(("power-gains", "[power_gains]\nrate_2 = 1e-300\nomega_y = 1e-10\n",
              ["--grid", "0.5:0.5:1"]))
    def test_every_input_gives_a_csv_or_one_error_line(self, spec):
        """Any spec, run in-process at MIN_TRIALS, exits 1 with exactly one
        error line, or exits 0 or 2 with a CSV whose numbers are finite and
        whose probabilities lie in [0, 1]; no exception escapes `main`.  The
        examples once wrote inf or nan gains."""
        command, ini, flags = spec
        with tempfile.TemporaryDirectory() as tmp:
            config, out = os.path.join(tmp, "spec.ini"), os.path.join(tmp, "out.csv")
            pathlib.Path(config).write_text(ini, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", config, "--out", out,
                             "--trials", str(MIN_TRIALS), *flags])
            if code == 1:
                [line] = err.getvalue().splitlines()
                assert line.startswith("tdbcsim: error: ")
                return
            assert code in (0, 2) and err.getvalue() == ""
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            for value in row.values():
                try:
                    number = float(value)
                except ValueError:      # a label: params or status
                    continue
                assert math.isfinite(number), row
            assert all(0.0 <= float(p) <= 1.0 for p in _probabilities(row)), row
