"""Command-line front end: config ingestion, experiment sweeps, validation.

Three subcommands, each emitting a deterministic, plot-ready CSV:

* ``sweep-total-power`` -- outage of the adaptive and fixed-power systems
  over a grid of total power budgets split equally across the three nodes.
* ``power-gains`` -- the power savings of the adaptive system over the
  fixed-power one, per target outage probability.
* ``validate`` -- every closed-form-vs-Monte-Carlo and identity check on a
  built-in parameter grid, one pass/fail row per check.

Configuration comes from an INI file (one section per scenario) with
command-line flags taking precedence.  File and flag powers are dB relative
to unit noise; everything internal is linear; the conversion happens exactly
once at this boundary.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import math
import sys
from dataclasses import dataclass

from .endnode_policy import solve_cutoff
from .mc_engine import SimReport, simulate
from .outage_analytics import FpaConfig, fpa_policy, min_outage, outage_opa
from .relay_policy import RelayPolicy, avg_relay_power, policies_from_config, solve_rho
from .specfun import ConvergenceError, exp_integral_e1, require_positive, solve_monotone
from .system_model import SystemConfig, delta_of_rate

__all__ = [
    "DEFAULT_TRIALS",
    "MIN_TRIALS",
    "DEFAULT_SEED",
    "ConfigError",
    "ScenarioSpec",
    "parse_grid",
    "load_spec",
    "scenario_total_power",
    "scenario_power_gains",
    "scenario_validate",
    "write_csv",
    "main",
    "entry_point",
]

DEFAULT_TRIALS = 1_000_000
MIN_TRIALS = 1_000
DEFAULT_SEED = 20240915
MAX_GRID_POINTS = 10 ** 6
ONE_THIRD = 1.0 / 3.0


class ConfigError(ValueError):
    """Bad configuration file, flag value, or scenario specification."""


def db_to_linear(power_db: float) -> float:
    try:
        return 10.0 ** (power_db / 10.0)
    except OverflowError:
        raise ConfigError(f"power {power_db!r} dB overflows a double") from None


def linear_to_db(power: float) -> float:
    return 10.0 * math.log10(power)


def _gain_db(numerator: float, exponent: float, spend: float) -> float:
    """numerator / (exponent * spend) in dB.  Where that product is not a
    normal double or the quotient overflows, the dB is a sum of logs."""
    product = exponent * spend
    if product >= sys.float_info.min and numerator / product < math.inf:
        return linear_to_db(numerator / product)
    return linear_to_db(numerator) - linear_to_db(exponent) - linear_to_db(spend)


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse 'start:stop:step' into an inclusive, strictly increasing grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be 'start:stop:step', got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"grid {text!r}: {exc}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"grid {text!r} contains non-finite values")
    if step <= 0.0:
        raise ConfigError(f"grid step must be > 0, got {step!r}")
    if stop < start:
        raise ConfigError(f"grid stop {stop!r} is below start {start!r}")
    steps = (stop - start) / step
    if not math.isfinite(steps):
        raise ConfigError(f"grid {text!r} has too many points to count")
    count = int(math.floor(steps + 1e-9)) + 1
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"grid {text!r} has {count} points, more than {MAX_GRID_POINTS}")
    return tuple(start + i * step for i in range(count))


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully resolved experiment: scenario, channel, grid, and run
    parameters.  Grid entries are dB for power sweeps and probabilities for
    outage targets."""

    scenario: str
    grid: tuple[float, ...]
    rate_1: float = ONE_THIRD
    rate_2: float = ONE_THIRD
    omega_x: float = 1.0
    omega_y: float = 1.0
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    output_path: str = ""

    def __post_init__(self) -> None:
        if self.scenario not in _SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"expected one of {tuple(_SCENARIOS)}")
        try:
            for name in ("rate_1", "rate_2", "omega_x", "omega_y"):
                object.__setattr__(self, name, require_positive(getattr(self, name), name))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        grid = tuple(float(g) for g in self.grid)
        if not grid:
            raise ConfigError("grid must not be empty")
        if any(not math.isfinite(g) for g in grid):
            raise ConfigError("grid contains non-finite values")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("grid must be strictly increasing")
        if self.scenario == "power_gains" and not all(0.0 < g < 1.0 for g in grid):
            raise ConfigError("power_gains targets must lie strictly inside (0, 1)")
        object.__setattr__(self, "grid", grid)
        if isinstance(self.trials, bool) or not isinstance(self.trials, int) \
                or self.trials < MIN_TRIALS:
            raise ConfigError(f"trials must be an integer >= {MIN_TRIALS}, got {self.trials!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) \
                or not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        path = self.output_path or f"{self.scenario}.csv"
        object.__setattr__(self, "output_path", path)


#: Each config key but grid, in reading order, with the ScenarioSpec field it
#: sets and the type of its text; unset fields keep the dataclass defaults.
_CONFIG_FIELDS = (("rate_1", "rate_1", float), ("rate_2", "rate_2", float),
                  ("omega_x", "omega_x", float), ("omega_y", "omega_y", float),
                  ("trials", "trials", int), ("seed", "seed", int), ("out", "output_path", str))
_CONFIG_KEYS = ("grid", *(key for key, _, _ in _CONFIG_FIELDS))


def load_spec(scenario: str, config_path: str | None = None, *,
              grid: str | None = None, trials: int | None = None,
              seed: int | None = None, out: str | None = None) -> ScenarioSpec:
    """Resolve a ScenarioSpec from an optional INI file plus flag overrides
    (flags win).  The file section matching the scenario name is read; keys
    are rate_1, rate_2, omega_x, omega_y, grid, trials, seed, out."""
    if scenario not in _SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; expected one of {tuple(_SCENARIOS)}")
    raw: dict[str, str] = {}
    if config_path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(config_path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path!r}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {config_path!r}: {exc}") from None
        if parser.has_section(scenario):
            for key, value in parser.items(scenario):
                if key not in _CONFIG_KEYS:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{scenario}] of {config_path!r}"
                    )
                raw[key] = value
    for key, value in (("grid", grid), ("trials", trials), ("seed", seed), ("out", out)):
        if value is not None:
            raw[key] = str(value)

    fields = {"grid": parse_grid(raw.get("grid", _SCENARIOS[scenario][0]))}
    for key, field, kind in _CONFIG_FIELDS:
        if key in raw:
            try:
                fields[field] = kind(raw[key])
            except ValueError:
                noun = "a number" if kind is float else "an integer"
                raise ConfigError(f"field {key!r}: expected {noun}, got {raw[key]!r}") from None
    return ScenarioSpec(scenario, **fields)


def _fmt(value) -> str:
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    """Comma-separated, '.' decimal, header row, LF endings, 12 significant
    digits: stable enough to diff and to pin as goldens.  Fields holding a
    comma or a quote are quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([_fmt(row[name]) for name in fieldnames] for row in rows)


# ---------------------------------------------------------------------------
# Scenario: outage vs total power, equal three-way split
# ---------------------------------------------------------------------------

def scenario_total_power(spec: ScenarioSpec) -> tuple[list[str], list[dict]]:
    """For each total power P_T (dB) the adaptive system gets average budgets
    P_T/3 per node and the baseline fixed powers P_T/3 per node; analytic and
    Monte Carlo outage are reported for both."""
    fieldnames = ["P_T_dB", "op_opa_analytic", "op_opa_mc", "op_fpa_analytic", "op_fpa_mc"]
    relays, baselines = [], []
    for p_t_db in spec.grid:
        share = db_to_linear(p_t_db) / 3.0
        try:
            config = SystemConfig(spec.rate_1, spec.rate_2, spec.omega_x, spec.omega_y,
                                  share, share, share)
            relays.append(policies_from_config(config)[2])
            baselines.append(fpa_policy(config, FpaConfig(share, share, share)))
        except (ValueError, ArithmeticError, ConvergenceError) as exc:
            exc.args = (f"at P_T {p_t_db!r} dB: {exc}",)     # same type, one line
            raise
    reports = simulate([], relays + baselines, spec.trials, spec.seed)
    points = zip(spec.grid, relays, reports, baselines, reports[len(relays):])
    return fieldnames, [dict(zip(fieldnames, (p_t_db, outage_opa(relay).p_out, opa.outage_rate,
                                              outage_opa(baseline).p_out, fpa.outage_rate)))
                        for p_t_db, relay, opa, baseline, fpa in points]


# ---------------------------------------------------------------------------
# Scenario: power gains at matched outage
# ---------------------------------------------------------------------------

def scenario_power_gains(spec: ScenarioSpec) -> tuple[list[str], list[dict]]:
    """For each target outage: find the cutoffs reaching it (splitting the
    outage exponent equally between the links, which also makes the two
    end-node gains coincide), price the adaptive system at its budgets, price
    the baseline at the minimal fixed powers reaching the same outage, and
    report the ratios in dB."""
    fieldnames = ["op_target", "gain_s_dB", "gain_r_dB"]
    d1 = delta_of_rate(spec.rate_1)
    d2 = delta_of_rate(spec.rate_2)
    peak = max(d1 / spec.omega_y, d2 / spec.omega_x)   # both relay powers scale with it
    rows = []
    for target in spec.grid:
        exponent = -0.5 * math.log1p(-target)   # x0/omega_x = y0/omega_y
        x0 = spec.omega_x * exponent
        y0 = spec.omega_y * exponent
        if x0 == 0.0 or y0 == 0.0:      # the smaller mean gain's is: blame it if subnormal
            omega, name = min((spec.omega_x, "omega_x"), (spec.omega_y, "omega_y"))
            culprit = (f"mean gain {name} {omega!r}" if omega < sys.float_info.min
                       else f"target {target!r}")
            raise ConfigError(f"power_gains {culprit} is too small: a cutoff rounds to 0")
        # Fixed over adaptive powers, divided through by the exponent so that
        # no quotient overflows; node 1's gain equals node 2's under this split.
        p_r_avg_max = avg_relay_power(RelayPolicy(d1, d2, x0, y0, spec.omega_x, spec.omega_y, None))
        rows.append({"op_target": float(target),
                     "gain_s_dB": _gain_db(1.0, exponent, exp_integral_e1(exponent)),
                     "gain_r_dB": _gain_db(peak, exponent, p_r_avg_max)})
    return fieldnames, rows


# ---------------------------------------------------------------------------
# Scenario: self-validation suite
# ---------------------------------------------------------------------------

def validation_policies() -> list[tuple[str, SystemConfig, RelayPolicy]]:
    """Deterministic parameter table spanning both wedge geometries and both
    cap regimes (finite and unbounded), with the relay policy of each set.
    The relay budget is set as a fraction of the saturation spend so the
    regime is guaranteed, not incidental; the end-node cutoffs solved to size
    it are the ones the relay policy uses."""
    rate_pairs = ((ONE_THIRD, ONE_THIRD), (ONE_THIRD, 2 * ONE_THIRD),
                  (2 * ONE_THIRD, ONE_THIRD), (0.5, 0.2))
    omega_pairs = ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0))
    budget_fractions = (0.5, 2.0)
    pbar_s1, pbar_s2 = 0.8, 1.2
    sets = []
    for rate_1, rate_2 in rate_pairs:
        d1, d2 = delta_of_rate(rate_1), delta_of_rate(rate_2)
        for omega_x, omega_y in omega_pairs:
            x0 = solve_cutoff(d1, omega_x, pbar_s1)
            y0 = solve_cutoff(d2, omega_y, pbar_s2)
            args = (d1, d2, x0, y0, omega_x, omega_y)
            p_max = avg_relay_power(RelayPolicy(*args, None))
            for fraction in budget_fractions:
                config = SystemConfig(rate_1, rate_2, omega_x, omega_y,
                                      pbar_s1, pbar_s2, fraction * p_max)
                sets.append((f"set{len(sets) + 1:02d}", config,
                             RelayPolicy(*args, solve_rho(*args, config.p_avg_relay))))
    return sets


_FPA_VALIDATION_SETS = (
    ("fpa01", (ONE_THIRD, ONE_THIRD, 1.0, 1.0), (10.0, 10.0, 10.0)),
    ("fpa02", (ONE_THIRD, 2 * ONE_THIRD, 2.0, 0.5), (5.0, 8.0, 3.0)),
    ("fpa03", (0.5, 0.2, 0.5, 2.0), (2.0, 4.0, 0.5)),
    ("fpa04", (ONE_THIRD, ONE_THIRD, 1.0, 1.0), (3.0, 1.0, 50.0)),
)

_SATURATION_GRID = tuple(
    (d1, d2, x0, x0 * ratio, ox, oy)
    for d1, d2 in ((1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (0.5, 2.0), (2.0, 0.5))
    for x0, ratio, ox, oy in ((0.2, 1.0, 1.0, 1.0), (0.5, 0.4, 2.0, 0.5),
                              (0.1, 2.5, 0.5, 2.0), (1.0, 0.7, 1.0, 4.0))
)

_TIE_GRID = tuple(
    (d1, d2, x0, ox, oy)
    for d1, d2 in ((1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (0.5, 2.0), (7.0, 1.0))
    for x0, ox, oy in ((0.3, 1.0, 1.0), (0.8, 2.0, 0.5))
)


def _tie_cases():
    """A policy and its mirror (end nodes swapped) per point of _TIE_GRID,
    whose cutoffs tie, and per cap: unbounded, and the largest powers of two
    at or below 0.7 and 0.2 of saturation, on which each corner delta / cap
    and so the tie are exact."""
    for d1, d2, x0, ox, oy in _TIE_GRID:
        y0 = d1 * x0 / d2
        saturation = max(d1 / y0, d2 / x0)
        for cap in (None, *(2.0 ** math.floor(math.log2(f * saturation)) for f in (0.7, 0.2))):
            yield RelayPolicy(d1, d2, x0, y0, ox, oy, cap), RelayPolicy(d2, d1, y0, x0, oy, ox, cap)


def _row(check: str, params: str, analytic: float, empirical: float,
         deviation: float, tolerance: float) -> dict:
    status = "PASS" if deviation <= tolerance else "FAIL"
    return dict(check=check, params=params, analytic=analytic, empirical=empirical,
                deviation=deviation, tolerance=tolerance, status=status)


def _rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _outage_row(check: str, label: str, policy: RelayPolicy, report: SimReport) -> dict:
    """The closed-form outage of `policy` against its Monte Carlo rate, to 4 sigma."""
    analytic, rate = outage_opa(policy).p_out, report.outage_rate
    sigma = math.sqrt(max(analytic * (1.0 - analytic), 1e-12) / report.trials)
    return _row(check, label, analytic, rate, abs(rate - analytic), 4.0 * sigma)


def _mc_consistency_rows(spec: ScenarioSpec) -> list[dict]:
    opa_sets = validation_policies()
    baselines = [fpa_policy(SystemConfig(*link, 1.0, 1.0, 1.0), FpaConfig(*powers))
                 for _, link, powers in _FPA_VALIDATION_SETS]
    reports = simulate([relay for _, _, relay in opa_sets], baselines, spec.trials, spec.seed)
    rows = []
    for (label, config, relay), report in zip(opa_sets, reports):
        analytic_pr = avg_relay_power(relay)
        rows.append(_outage_row("outage_mc", label, relay, report))
        rows.append(_row("power_s1_mc", label, config.pbar_s1, report.avg_power_s1,
                         _rel_dev(config.pbar_s1, report.avg_power_s1), 0.01))
        rows.append(_row("power_s2_mc", label, config.pbar_s2, report.avg_power_s2,
                         _rel_dev(config.pbar_s2, report.avg_power_s2), 0.01))
        rows.append(_row("power_relay_mc", label, analytic_pr, report.avg_power_relay,
                         _rel_dev(analytic_pr, report.avg_power_relay), 0.01))
        overspend = max(0.0, report.avg_power_relay / config.p_avg_relay - 1.0)
        rows.append(_row("relay_budget", label, config.p_avg_relay,
                         report.avg_power_relay, overspend, 0.01))
    for (label, *_), baseline, report in zip(_FPA_VALIDATION_SETS, baselines,
                                             reports[len(opa_sets):]):
        rows.append(_outage_row("fpa_outage_mc", label, baseline, report))
    return rows


def _identity_rows(spec: ScenarioSpec) -> list[dict]:
    import numpy as np
    rows = []

    dev = 0.0
    for d1, d2, x0, y0, ox, oy in _SATURATION_GRID:
        policy = RelayPolicy(d1, d2, x0, y0, ox, oy, None)
        dev = max(dev, abs(outage_opa(policy).p_out - min_outage(x0, y0, ox, oy)))
    rows.append(_row("saturation_identity", f"{len(_SATURATION_GRID)} pts", 0.0, dev, dev, 1e-12))

    # A policy and its mirror evaluate the two wedge orientations only where
    # the corners tie, delta2 * lambda2 == delta1 * lambda1: a case that
    # misses the tie fails the row.
    dev = max(_rel_dev(avg_relay_power(policy), avg_relay_power(mirror))
              if policy.delta2 * policy.lambda2 == policy.delta1 * policy.lambda1 else math.inf
              for policy, mirror in _tie_cases())
    rows.append(_row("tie_avg_power", f"{len(_TIE_GRID)} pts x 3 caps", 0.0, dev, dev, 1e-10))

    margin = -math.inf
    for x in np.logspace(-6, math.log10(50.0), 200):
        e1 = exp_integral_e1(float(x))
        lower = math.exp(-x) / (x + 1.0)
        upper = math.exp(-x) / x
        margin = max(margin, lower - e1, e1 - upper)
    rows.append(_row("e1_bracket", "200 pts in [1e-6, 50]", 0.0, margin, margin, 0.0))

    rng = np.random.default_rng(spec.seed)
    dev = 0.0
    for _ in range(50):
        x_true = float(10.0 ** rng.uniform(-4, math.log10(20.0)))
        solved = solve_monotone(exp_integral_e1, exp_integral_e1(x_true),
                                1e-6, 10.0, "decreasing")
        dev = max(dev, abs(solved - x_true) / x_true)
    rows.append(_row("e1_solver_roundtrip", "50 random points", 0.0, dev, dev, 1e-9))

    dev = 0.0
    for _ in range(50):
        delta = float(10.0 ** rng.uniform(-1, 0.85))
        omega = float(10.0 ** rng.uniform(-0.6, 0.6))
        cutoff = float(10.0 ** rng.uniform(-3, 0.7))
        pbar = (delta / omega) * exp_integral_e1(cutoff / omega)
        dev = max(dev, abs(solve_cutoff(delta, omega, pbar) - cutoff) / cutoff)
    rows.append(_row("cutoff_roundtrip", "50 random triples", 0.0, dev, dev, 1e-9))

    dev = 0.0
    count = 0
    for d1, d2, x0, ox, oy in _TIE_GRID[:5]:
        y0 = 1.3 * d1 * x0 / d2
        for fraction in (0.35, 0.75):
            count += 1
            rho_true = fraction * max(d1 / y0, d2 / x0)
            policy = RelayPolicy(d1, d2, x0, y0, ox, oy, rho_true)
            p_avg = avg_relay_power(policy)
            solved = solve_rho(d1, d2, x0, y0, ox, oy, p_avg)
            dev = max(dev, abs(solved - rho_true) / rho_true)
    rows.append(_row("rho_roundtrip", f"{count} policies", 0.0, dev, dev, 1e-6))

    worst_drop = 0.0
    for d1, d2, x0, ox, oy in _TIE_GRID[:4]:
        y0 = 0.8 * d1 * x0 / d2
        caps = np.linspace(0.05, 1.5, 40) * max(d1 / y0, d2 / x0)
        values = [avg_relay_power(RelayPolicy(d1, d2, x0, y0, ox, oy, float(c)))
                  for c in caps]
        drops = [max(0.0, a - b) for a, b in zip(values, values[1:])]
        worst_drop = max(worst_drop, max(drops))
    rows.append(_row("avg_power_monotone_in_cap", "4 geometries x 40 caps", 0.0,
                     worst_drop, worst_drop, 1e-12))

    return rows


def scenario_validate(spec: ScenarioSpec) -> tuple[list[str], list[dict]]:
    """Run the full self-check battery; FAIL rows are data, not exceptions."""
    fieldnames = ["check", "params", "analytic", "empirical", "deviation",
                  "tolerance", "status"]
    return fieldnames, _identity_rows(spec) + _mc_consistency_rows(spec)


#: Scenario name -> (default grid, help line, row function).  Each scenario
#: is the subcommand of its name with '-' for '_'.
_SCENARIOS = {
    "sweep_total_power": ("-10:30:2",   # dB
                          "outage vs total power for adaptive and fixed allocation",
                          scenario_total_power),
    "power_gains": ("0.05:0.9:0.05",    # target outage probability
                    "power savings of adaptive allocation per target outage",
                    scenario_power_gains),
    "validate": ("0:0:1",               # unused; validate runs a built-in grid
                 "closed-form vs Monte Carlo and identity checks",
                 scenario_validate),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _CliParser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A002 - argparse API
        raise ConfigError(message)


@functools.cache     # built on the first `main` call, then reused
def _build_parser() -> _CliParser:
    parser = _CliParser(
        prog="tdbcsim",
        description="Outage-minimal power allocation for three-phase "
                    "bidirectional relaying: sweeps and validation.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    for scenario, (_, help_line, _) in _SCENARIOS.items():
        p = sub.add_parser(scenario.replace("_", "-"), help=help_line)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="INI config file; section per scenario")
        p.add_argument("--out", metavar="PATH", default=None, help="output CSV path")
        p.add_argument("--trials", metavar="N", type=int, default=None,
                       help=f"Monte Carlo trials per point (default {DEFAULT_TRIALS})")
        p.add_argument("--seed", metavar="N", type=int, default=None,
                       help=f"base random seed (default {DEFAULT_SEED})")
        p.add_argument("--grid", metavar="START:STOP:STEP", default=None,
                       help="sweep grid (dB for powers, probability for outage targets)")
    return parser


def _absorb_negative_grid(argv: list[str]) -> list[str]:
    """Rewrite `--grid -10:30:2` as `--grid=-10:30:2`.

    dB grids legitimately start with a minus, which argparse would otherwise
    read as the next option string (its negative-number exemption covers
    plain numbers only, not start:stop:step).
    """
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] == "--grid" and token.startswith("-"):
            joined[-1] = f"--grid={token}"
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    """Run the CLI.  Exit status: 0 success; 1 usage, configuration, numerical,
    memory or I/O error, reported as one `tdbcsim: error:` line on stderr;
    2 validation failure."""
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_absorb_negative_grid(list(argv)))
        scenario = args.command.replace("-", "_")
        spec = load_spec(scenario, args.config, grid=args.grid,
                         trials=args.trials, seed=args.seed, out=args.out)
        fieldnames, rows = _SCENARIOS[scenario][2](spec)
        write_csv(spec.output_path, fieldnames, rows)
        if "status" in fieldnames:
            passed = sum(row["status"] == "PASS" for row in rows)
            print(f"{args.command}: {passed}/{len(rows)} checks passed -> {spec.output_path}")
            return 0 if passed == len(rows) else 2
        print(f"{args.command}: wrote {len(rows)} rows -> {spec.output_path}")
        return 0
    except (ValueError, ArithmeticError, ConvergenceError, OSError, MemoryError) as exc:
        print(f"tdbcsim: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
