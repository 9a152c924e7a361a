"""CLI front end: grid/config parsing, sweeps, validation, determinism."""

import csv
import math

import pytest

from tdbcsim.outage_analytics import min_outage
from tdbcsim.scenario_cli import (
    ConfigError,
    ScenarioSpec,
    load_spec,
    main,
    parse_grid,
    scenario_power_gains,
    scenario_total_power,
    scenario_validate,
    validation_configs,
    write_csv,
)

SMALL = dict(trials=20_000, seed=777)


class TestParseGrid:
    def test_basic(self):
        assert parse_grid("0:10:5") == (0.0, 5.0, 10.0)

    def test_single_point(self):
        assert parse_grid("3:3:1") == (3.0,)

    def test_inclusive_stop_with_float_step(self):
        grid = parse_grid("-10:30:2")
        assert grid[0] == -10.0 and grid[-1] == 30.0 and len(grid) == 21

    @pytest.mark.parametrize("bad", ["", "1:2", "1:2:3:4", "a:b:c", "0:10:0",
                                     "0:10:-1", "5:1:1", "nan:1:1"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_grid(bad)


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


class TestValidateScenario:
    def test_parameter_table_spans_regimes(self):
        from tdbcsim.relay_policy import UNBOUNDED, policies_from_config
        seen = set()
        for _, config in validation_configs():
            _, _, relay = policies_from_config(config)
            seen.add(("a" if relay.uses_case_a else "b",
                      "unbounded" if relay.rho is UNBOUNDED else "finite"))
        assert len(validation_configs()) >= 20
        assert seen == {("a", "finite"), ("a", "unbounded"),
                        ("b", "finite"), ("b", "unbounded")}

    def test_rows_and_identities_pass(self):
        spec = ScenarioSpec(scenario="validate", grid=(0.0,), trials=50_000, seed=777)
        fieldnames, rows, ok = scenario_validate(spec)
        assert fieldnames[0] == "check" and fieldnames[-1] == "status"
        identity_checks = {"saturation_identity", "tie_avg_power", "e1_bracket", "e1_solver_roundtrip", "cutoff_roundtrip",
                           "rho_roundtrip", "avg_power_monotone_in_cap"}
        by_check = {row["check"] for row in rows}
        assert identity_checks <= by_check
        for row in rows:
            if row["check"] in identity_checks:
                assert row["status"] == "PASS", row


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
        # the cap solver's lower bracket end cannot reach the 33 dB budget
        (["sweep-total-power", "--grid", "33:33:1", "--trials", "1000"], None,
         "cap solve"),
        # 2**(3 * 400) overflows a double
        (["sweep-total-power", "--grid", "0:0:1", "--trials", "1000"],
         "[sweep_total_power]\nrate_1 = 400\n", "rate"),
    ], ids=["cutoff-underflow", "cap-bracket", "rate-overflow"])
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
