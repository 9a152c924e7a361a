"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or in the
captured output of a failure) and then asserts, so the suite doubles as a
human-readable checklist.
"""

import math
import time

import numpy as np

from tdbcsim.endnode_policy import solve_cutoff
from tdbcsim.outage_analytics import FpaConfig, min_outage, outage_fpa, outage_opa
from tdbcsim.mc_engine import run_opa
from tdbcsim.relay_policy import (
    UNBOUNDED,
    RelayPolicy,
    avg_relay_power,
    policies_from_config,
    solve_rho,
)
from tdbcsim.scenario_cli import (
    ScenarioSpec,
    main,
    scenario_power_gains,
    validation_configs,
)
from tdbcsim.specfun import exp_integral_e1
from tdbcsim.system_model import SystemConfig

from conftest import e1_quadrature

MINIMUM_TRIALS = 1_000


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status} | {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_e1_oracle_agreement():
    """E1 within 1e-10 relative of adaptive quadrature on 1000 log-spaced
    points in [1e-6, 50], in under a second."""
    start = time.perf_counter()
    worst = 0.0
    for x in np.logspace(-6, math.log10(50.0), 1000):
        x = float(x)
        oracle = e1_quadrature(x)
        worst = max(worst, abs(exp_integral_e1(x) - oracle) / oracle)
    elapsed = time.perf_counter() - start
    _report(1, "E1 quadrature oracle agreement", worst <= 1e-10 and elapsed < 1.0,
            f"worst rel dev {worst:.3e} (tol 1e-10), {elapsed:.2f}s (limit 1s)")


def test_criterion_2_cutoff_round_trips():
    """Forward-evaluated budgets invert back to their cutoffs within 1e-9
    relative; relay-cap round trips hold within 1e-6; under a second."""
    start = time.perf_counter()
    rng = np.random.default_rng(1905)
    worst_cutoff = 0.0
    for _ in range(50):
        delta = float(10.0 ** rng.uniform(-1, 0.8))
        omega = float(10.0 ** rng.uniform(-0.6, 0.6))
        cutoff = float(10.0 ** rng.uniform(-3, 0.7))
        pbar = (delta / omega) * exp_integral_e1(cutoff / omega)
        solved = solve_cutoff(delta, omega, pbar)
        worst_cutoff = max(worst_cutoff, abs(solved - cutoff) / cutoff)
    worst_rho = 0.0
    for _ in range(50):
        d1 = float(10.0 ** rng.uniform(-0.5, 0.8))
        d2 = float(10.0 ** rng.uniform(-0.5, 0.8))
        x0 = float(10.0 ** rng.uniform(-1.2, 0.3))
        y0 = float(10.0 ** rng.uniform(-1.2, 0.3))
        ox = float(10.0 ** rng.uniform(-0.5, 0.5))
        oy = float(10.0 ** rng.uniform(-0.5, 0.5))
        rho_true = float(rng.uniform(0.05, 0.95)) * max(d1 / y0, d2 / x0)
        policy = RelayPolicy.from_rho(d1, d2, x0, y0, ox, oy, rho_true)
        solved = solve_rho(d1, d2, x0, y0, ox, oy, avg_relay_power(policy))
        worst_rho = max(worst_rho, abs(solved - rho_true) / rho_true)
    elapsed = time.perf_counter() - start
    _report(2, "cutoff and cap round trips",
            worst_cutoff <= 1e-9 and worst_rho <= 1e-6 and elapsed < 1.0,
            f"cutoff {worst_cutoff:.3e} (tol 1e-9), cap {worst_rho:.3e} (tol 1e-6), "
            f"{elapsed:.2f}s (limit 1s)")


def _saturation_grid():
    rng = np.random.default_rng(230)
    for _ in range(20):
        d1, d2 = (float(v) for v in 10.0 ** rng.uniform(-0.5, 0.8, size=2))
        x0, y0 = (float(v) for v in 10.0 ** rng.uniform(-1.5, 0.4, size=2))
        ox, oy = (float(v) for v in 10.0 ** rng.uniform(-0.5, 0.5, size=2))
        yield d1, d2, x0, y0, ox, oy


def test_criterion_3_saturation_identity():
    """Unbounded cap reproduces the outage floor to 1e-12 on a 20-point
    grid."""
    worst_floor = 0.0
    for d1, d2, x0, y0, ox, oy in _saturation_grid():
        policy = RelayPolicy.from_rho(d1, d2, x0, y0, ox, oy, UNBOUNDED)
        worst_floor = max(worst_floor,
                          abs(outage_opa(policy).p_out - min_outage(x0, y0, ox, oy)))
    _report(3, "saturation identity", worst_floor <= 1e-12,
            f"floor dev {worst_floor:.3e} (tol 1e-12)")


def test_criterion_4_case_boundary_continuity():
    """At the tie delta2*y0 = delta1*x0 the relay spend of a policy and of
    its mirror (end nodes swapped), which evaluate the two orientations of the
    wedge formula, agree within 1e-10 relative, for 10 combos at saturation
    and under two truncating caps."""
    combos = [(1.0, 1.0, 0.3, 1.0, 1.0), (1.0, 3.0, 0.3, 1.0, 1.0),
              (3.0, 1.0, 0.5, 2.0, 0.5), (0.5, 2.0, 0.8, 0.5, 2.0),
              (7.0, 1.0, 0.2, 1.0, 4.0), (1.0, 7.0, 0.6, 4.0, 1.0),
              (2.0, 2.0, 0.15, 0.7, 1.3), (0.3, 0.9, 1.1, 1.0, 1.0),
              (5.0, 2.5, 0.25, 0.9, 1.1), (1.5, 4.5, 0.45, 2.0, 2.0)]
    worst_power = 0.0
    exact_ties = 0
    for d1, d2, x0, ox, oy in combos:
        y0 = d1 * x0 / d2
        exact_ties += d2 * y0 == d1 * x0
        saturation = max(d1 / y0, d2 / x0)
        for rho in (UNBOUNDED, 0.7 * saturation, 0.2 * saturation):
            pa = avg_relay_power(RelayPolicy.from_rho(d1, d2, x0, y0, ox, oy, rho))
            pb = avg_relay_power(RelayPolicy.from_rho(d2, d1, y0, x0, oy, ox, rho))
            worst_power = max(worst_power, abs(pa - pb) / max(pa, pb))
    ok = worst_power <= 1e-10 and exact_ties == len(combos)
    _report(4, "relay-spend continuity at the geometry tie", ok,
            f"avg-power dev {worst_power:.3e} (tol 1e-10), "
            f"exact ties {exact_ties}/{len(combos)}")


def test_criterion_5_monte_carlo_validation():
    """On 24 parameter sets spanning both wedge geometries and both cap
    regimes: |MC outage - closed form| within 4 binomial sigmas at N=1e6 and
    every average power within 1% relative, in under 60 s."""
    start = time.perf_counter()
    trials = 1_000_000
    failures = []
    worst_sigma_ratio = 0.0
    worst_power_dev = 0.0
    for label, config in validation_configs():
        _, _, relay = policies_from_config(config)
        analytic_op = outage_opa(relay).p_out
        analytic_pr = avg_relay_power(relay)
        report = run_opa(relay, trials=trials, seed=20240915)
        sigma = math.sqrt(analytic_op * (1.0 - analytic_op) / trials)
        ratio = abs(report.outage_rate - analytic_op) / sigma
        worst_sigma_ratio = max(worst_sigma_ratio, ratio)
        if ratio > 4.0:
            failures.append(f"{label}: outage {ratio:.1f} sigma")
        for name, analytic, empirical in (
            ("s1", config.pbar_s1, report.avg_power_s1),
            ("s2", config.pbar_s2, report.avg_power_s2),
            ("relay", analytic_pr, report.avg_power_relay),
        ):
            dev = abs(empirical - analytic) / analytic
            worst_power_dev = max(worst_power_dev, dev)
            if dev > 0.01:
                failures.append(f"{label}: power_{name} {dev:.3%}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(5, "Monte Carlo validation, 24 parameter sets", ok,
            f"worst outage {worst_sigma_ratio:.2f} sigma (limit 4), worst power dev "
            f"{worst_power_dev:.3%} (limit 1%), {elapsed:.1f}s (limit 60s)"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_6_total_power_dominance():
    """Adaptive allocation never loses to fixed allocation on a 30-point
    total-power grid from -10 to +30 dB, and beats it by at least 10x/0.9
    ratio on at least 20 points."""
    grid = np.linspace(-10.0, 30.0, 30)
    dominated = 0
    strict = 0
    for p_t_db in grid:
        share = 10.0 ** (float(p_t_db) / 10.0) / 3.0
        config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, share, share, share)
        _, _, relay = policies_from_config(config)
        adaptive = outage_opa(relay).p_out
        fixed = outage_fpa(config, FpaConfig(share, share, share))
        if adaptive <= fixed:
            dominated += 1
        if adaptive <= 0.9 * fixed:
            strict += 1
    ok = dominated == 30 and strict >= 20
    _report(6, "total-power sweep dominance", ok,
            f"dominated at {dominated}/30 points, ratio<=0.9 at {strict} (need >=20)")


def test_criterion_7_power_gains():
    """Both power gains strictly positive over targets in [1e-3, 0.9],
    diverging as the target drops, and the mid-range floor for the symmetric
    unit-mean setup stays above 5 dB within a 1 dB allowance."""
    spec = ScenarioSpec(scenario="power_gains",
                        grid=(0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9),
                        trials=MINIMUM_TRIALS, seed=1)
    _, rows = scenario_power_gains(spec)
    by_target = {row["op_target"]: row for row in rows}
    positive = all(row["gain_s_dB"] > 0.0 and row["gain_r_dB"] > 0.0 for row in rows)
    diverging = (by_target[0.001]["gain_s_dB"] > by_target[0.1]["gain_s_dB"]
                 and by_target[0.001]["gain_r_dB"] > by_target[0.1]["gain_r_dB"])
    mid = [row for row in rows if 0.3 <= row["op_target"] <= 0.7]
    floor = min(min(row["gain_s_dB"], row["gain_r_dB"]) for row in mid)
    ok = positive and diverging and floor >= 5.0 - 1.0
    _report(7, "power gains", ok,
            f"all positive: {positive}, diverging: {diverging}, "
            f"mid-range floor {floor:.2f} dB (need >= 4 dB)")


def test_criterion_8_determinism(tmp_path):
    """The validate command is byte-reproducible for a fixed seed and the
    engine is invariant to the worker count."""
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    code1 = main(["validate", "--trials", "300000", "--seed", "20240915",
                  "--out", str(out1)])
    code2 = main(["validate", "--trials", "300000", "--seed", "20240915",
                  "--out", str(out2)])
    bytes_equal = out1.read_bytes() == out2.read_bytes()
    config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.8, 1.2, 0.6)
    _, _, relay = policies_from_config(config)
    reports = [run_opa(relay, trials=200_000, seed=99, workers=w) for w in (1, 2, 8)]
    workers_equal = reports[0] == reports[1] == reports[2]
    ok = bytes_equal and workers_equal and code1 == code2 == 0
    _report(8, "determinism", ok,
            f"validate CSV byte-identical: {bytes_equal} (exit {code1}/{code2}), "
            f"workers 1/2/8 identical: {workers_equal}")
