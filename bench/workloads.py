"""The workloads: how each builds its inputs, runs one operation and checks
what the program returned.

An operation calls the program only through public names looked up at call
time (``tdbcsim.<name>`` and ``scenario_cli.main``), so the tracer can
rebind them.  Checks run after the timed region and use ``oracles``, which
shares no code with the program.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import random

FIGURES, DESIGN = "figures", "design"
WORKLOADS = (FIGURES, DESIGN)

ONE_THIRD = 1.0 / 3.0

#: Rate pairs and mean-gain pairs of the program's validation table.
TABLE_RATES = ((ONE_THIRD, ONE_THIRD), (ONE_THIRD, 2 * ONE_THIRD),
               (2 * ONE_THIRD, ONE_THIRD), (0.5, 0.2))
TABLE_OMEGAS = ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0))

#: Total power range of the default CLI sweep, dB.
SWEEP_DB = (-10.0, 30.0)
SWEEP_GRID_DB = tuple(float(v) for v in range(-10, 31, 2))
GAINS_GRID = tuple(0.05 * k for k in range(1, 19))
SWEEP_TRIALS = 1_000_000

#: Designs that fail at every seed because of a known fault, each with the
#: fault it shows.  A round of `design` is the seeded designs followed by
#: these, so every run fails the same share.
FAULT_DESIGNS = (
    # solve_rho: BracketingError for per-node budgets of about 556 to 709.
    ("fault1-bracketing", (ONE_THIRD, ONE_THIRD, 1.0, 1.0, 600.0, 600.0, 600.0)),
    # solve_cutoff: ConvergenceError for budgets of about 715 to 743.
    ("fault1-convergence", (ONE_THIRD, ONE_THIRD, 1.0, 1.0, 730.0, 730.0, 730.0)),
    # solve_cutoff: the cutoff underflows to 0.0 from about 744 up.
    ("fault1-underflow", (ONE_THIRD, ONE_THIRD, 1.0, 1.0, 800.0, 800.0, 800.0)),
    # outage_opa: tail terms cancel to rounding, result is the clamped floor.
    ("fault2-cancellation", (0.1, 0.1, 3.0, 7.0, 37.0, 18.0, 34.0)),
)

#: Seeded designs per (rate pair, mean-gain pair): one per 1 dB stratum of
#: the sweep range, so every seed gives nearly the same mix of designs.
DESIGN_STRATA = 40
#: Relay budget as a fraction of the saturation spend, in two strata out of
#: three below it (the cap binds) and in the third above it (no cap), as the
#: validation table does.  A binding cap costs the cap solve, about twice the
#: time of the rest, so a share near one half would put the median operation
#: now in one regime, now in the other.
CAPPED_FRACTION = (0.25, 0.75)
UNCAPPED_FRACTION = (1.25, 2.0)

#: A seeded design is redrawn when an end node's load pbar*omega/delta
#: exceeds MAX_LOAD or its true outage (from the oracle) is below MIN_OUTAGE:
#: there the program shows the two faults above on some draws and not on
#: others, which would make the failing share depend on the seed.  A load L
#: puts the cutoff near exp(-L) and the saturation cap near exp(L); the cap
#: solver shrinks its bracket by at most 4**200 ~ exp(277), so loads from
#: about 280 up raise BracketingError even when the relay budget is small.
MAX_LOAD = 250.0
MIN_OUTAGE = 1e-6


def delta_of_rate(rate: float) -> float:
    return 2.0 ** (3.0 * rate) - 1.0


def op_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Program seeds of the first `count` operations of a run."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.getrandbits(63) for _ in range(count)]


# ---------------------------------------------------------------------------
# design: inputs
# ---------------------------------------------------------------------------

def draw_design(rng: random.Random, rates, omegas, p_t_db: float, capped: bool):
    """One candidate design (r1, r2, ox, oy, p1, p2, pr), or None when it
    falls where the program fails on some draws (see MAX_LOAD)."""
    import oracles
    (r1, r2), (ox, oy) = rates, omegas
    d1, d2 = delta_of_rate(r1), delta_of_rate(r2)
    share = 10.0 ** (p_t_db / 10.0) / 3.0
    p1, p2 = share * rng.uniform(0.5, 1.5), share * rng.uniform(0.5, 1.5)
    fraction = rng.uniform(*(CAPPED_FRACTION if capped else UNCAPPED_FRACTION))
    if max(p1 * ox / d1, p2 * oy / d2) > MAX_LOAD:
        return None
    x0 = ox * math.exp(oracles.log_cutoff(d1, ox, p1))
    y0 = oy * math.exp(oracles.log_cutoff(d2, oy, p2))
    pr = fraction * oracles.relay_spend(d1, d2, ox, oy, x0, y0)
    params = (r1, r2, ox, oy, p1, p2, pr)
    if oracles.quadrant_outage(x0, y0, ox, oy) >= MIN_OUTAGE:
        return params
    if oracles.design_outage(d1, d2, ox, oy, p1, p2, pr) >= MIN_OUTAGE:
        return params
    return None


def design_params(seed: int) -> list[tuple]:
    """One round of `design`: seeded designs (r1, r2, ox, oy, p1, p2, pr),
    then the fault designs.

    For each rate pair and mean-gain pair of the validation table, total
    power P_T takes one uniform draw in each 1 dB stratum of the sweep range.
    The end nodes get P_T/3 times weights uniform on [0.5, 1.5]; the relay
    gets a fraction of the saturation spend (CAPPED_FRACTION in strata
    0, 1, 3, 4, ..., UNCAPPED_FRACTION in strata 2, 5, ...).  A draw that is
    not kept is redrawn, same regime, in the lowest strata taken in turn.
    """
    rng = random.Random(f"design:{seed}")
    lo, hi = SWEEP_DB
    width = (hi - lo) / DESIGN_STRATA
    kept = []
    for rates, omegas in ((r, o) for r in TABLE_RATES for o in TABLE_OMEGAS):
        redraws = itertools.count()
        for stratum in range(DESIGN_STRATA):
            capped = stratum % 3 != 2
            while True:
                p_t_db = lo + width * (stratum + rng.random())
                params = draw_design(rng, rates, omegas, p_t_db, capped)
                if params is not None:
                    break
                stratum = next(redraws) % DESIGN_STRATA
            kept.append(params)
    return kept + [params for _, params in FAULT_DESIGNS]


# ---------------------------------------------------------------------------
# Inputs and operations
# ---------------------------------------------------------------------------

class Workload:
    """Inputs of one workload and the operation that consumes them.

    `round_size` operations make a round; a run attempts whole rounds.
    `run(i)` runs operation i and returns what the checks need.
    """

    def __init__(self, name: str, seed: int, out_dir: str, params=None):
        import tdbcsim
        from tdbcsim import scenario_cli
        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        self.tdbcsim = tdbcsim
        self.cli = scenario_cli
        if name == DESIGN:
            self.params = params
            self.inputs = [
                (tdbcsim.SystemConfig(*p), tdbcsim.FpaConfig(*p[4:])) for p in params
            ]
            self.round_size = len(self.inputs)
            self.fault_slots = {
                self.round_size - len(FAULT_DESIGNS) + k: label
                for k, (label, _) in enumerate(FAULT_DESIGNS)
            }
        else:
            self.round_size = 1
            self.fault_slots = {}
        self._seeds: list[int] = []
        self._distinct: dict = {}

    def seed_of(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds = op_seeds(self.name, self.seed, 2 * len(self._seeds) + 16)
        return self._seeds[i]

    def path(self, stem: str) -> str:
        return os.path.join(self.out_dir, f"{self.name}-{stem}.csv")

    def argv(self, i: int) -> list[list[str]]:
        seed = str(self.seed_of(i))
        return [["sweep-total-power", "--seed", seed, "--out", self.path("sweep")],
                ["power-gains", "--seed", seed, "--out", self.path("gains")]]

    def run(self, i: int):
        if self.name == DESIGN:
            config, fpa = self.inputs[i % self.round_size]
            tdbcsim = self.tdbcsim
            try:
                node1, node2, relay = tdbcsim.policies_from_config(config)
                p_out = tdbcsim.outage_opa(relay).p_out
                spend = tdbcsim.avg_relay_power(relay)
                p_fpa = tdbcsim.outage_fpa(config, fpa)
            except (tdbcsim.BracketingError, tdbcsim.ConvergenceError, ValueError) as exc:
                return ("raised", f"{type(exc).__name__}: {exc}")
            rho = relay.rho if isinstance(relay.rho, float) else None
            return ("done", node1.cutoff, node2.cutoff, rho, p_out, spend, p_fpa)
        with contextlib.redirect_stdout(io.StringIO()):
            return tuple(self.cli.main(args) for args in self.argv(i))

    def collect(self, i: int, result):
        """Turn an operation's result into what the checks keep: the design
        outputs as returned, or the exit codes and the CSV bytes written."""
        if self.name == DESIGN:
            # Equal outputs share one object, so memory does not grow with
            # the number of operations a run manages.
            return self._distinct.setdefault(result, result)
        blobs = []
        for args in self.argv(i):
            with open(args[-1], "rb") as fh:
                blobs.append(fh.read())
        return (result, blobs)


# ---------------------------------------------------------------------------
# Checks (outside the timed region)
# ---------------------------------------------------------------------------

def _rows(blob: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(blob.decode("utf-8"))))


def check_design(params, result) -> list[str]:
    """Problems with one design operation's outputs."""
    import oracles
    from scipy import special
    tol = oracles.CLOSED_FORM_RTOL
    if result[0] == "raised":
        return [result[1]]
    _, x0, y0, rho, p_out, spend, p_fpa = result
    r1, r2, ox, oy, p1, p2, pr = params
    d1, d2 = delta_of_rate(r1), delta_of_rate(r2)
    problems = []
    for name, delta, omega, cutoff, pbar in (("x0", d1, ox, x0, p1), ("y0", d2, oy, y0, p2)):
        implied = (delta / omega) * float(special.exp1(cutoff / omega))
        if oracles.rel_dev(implied, pbar) > tol:
            problems.append(f"cutoff {name}={cutoff!r} spends {implied!r}, budget {pbar!r}")
    l1, l2 = (x0, y0) if rho is None else (max(x0, d2 / rho), max(y0, d1 / rho))
    quadrant = oracles.quadrant_outage(l1, l2, ox, oy)
    if oracles.rel_dev(p_out, quadrant) > tol:
        problems.append(f"outage_opa {p_out!r} != quadrant measure {quadrant!r}")
    integral = oracles.relay_spend(d1, d2, ox, oy, l1, l2)
    if oracles.rel_dev(spend, integral) > tol:
        problems.append(f"avg_relay_power {spend!r} != quadrature {integral!r}")
    if rho is not None and oracles.rel_dev(spend, pr) > tol:
        problems.append(f"capped relay spends {spend!r}, budget {pr!r}")
    if rho is None and spend > pr * (1.0 + tol):
        problems.append(f"uncapped relay spends {spend!r} above budget {pr!r}")
    fpa = oracles.fpa_outage(d1, d2, ox, oy, p1, p2, pr)
    if oracles.rel_dev(p_fpa, fpa) > tol:
        problems.append(f"outage_fpa {p_fpa!r} != {fpa!r}")
    return problems


def _mc_problems(column: str, p_t: str, estimate: float, p: float) -> list[str]:
    import oracles
    n = SWEEP_TRIALS
    count = estimate * n
    band = oracles.K_SIGMA * math.sqrt(n * p * (1.0 - p)) + oracles.K_SIGMA ** 2
    if abs(count - n * p) > band:
        return [f"{column} at {p_t} dB: {count:.0f} outages, closed form expects {n * p:.1f}"]
    return []


def sweep_reference() -> list[tuple[float, float, float]]:
    """(P_T dB, adaptive outage, fixed outage) of the default sweep from the
    oracles: rates 1/3, unit mean gains, P_T split equally."""
    import oracles
    d = delta_of_rate(ONE_THIRD)
    rows = []
    for p_t_db in SWEEP_GRID_DB:
        share = 10.0 ** (p_t_db / 10.0) / 3.0
        rows.append((p_t_db, oracles.design_outage(d, d, 1.0, 1.0, share, share, share),
                     oracles.fpa_outage(d, d, 1.0, 1.0, share, share, share)))
    return rows


def check_figures(exit_codes, blobs, reference) -> list[str]:
    import oracles
    from scipy import special
    tol = oracles.CLOSED_FORM_RTOL
    problems = [f"exit status {rc}" for rc in exit_codes if rc != 0]
    sweep, gains = _rows(blobs[0]), _rows(blobs[1])
    if len(sweep) != len(reference) or len(gains) != len(GAINS_GRID):
        return problems + [f"row counts {len(sweep)}, {len(gains)}"]
    previous = math.inf
    for row, (p_t_db, opa, fpa) in zip(sweep, reference):
        p_t = row["P_T_dB"]
        if abs(float(p_t) - p_t_db) > 1e-9:
            problems.append(f"grid point {p_t} != {p_t_db}")
        opa_cf, fpa_cf = float(row["op_opa_analytic"]), float(row["op_fpa_analytic"])
        if oracles.rel_dev(opa_cf, opa) > tol:
            problems.append(f"op_opa_analytic at {p_t} dB: {opa_cf!r} != {opa!r}")
        if oracles.rel_dev(fpa_cf, fpa) > tol:
            problems.append(f"op_fpa_analytic at {p_t} dB: {fpa_cf!r} != {fpa!r}")
        problems += _mc_problems("op_opa_mc", p_t, float(row["op_opa_mc"]), opa)
        problems += _mc_problems("op_fpa_mc", p_t, float(row["op_fpa_mc"]), fpa)
        if opa_cf > fpa_cf:
            problems.append(f"adaptive outage {opa_cf!r} above fixed {fpa_cf!r} at {p_t} dB")
        if opa_cf > previous:
            problems.append(f"op_opa_analytic rises at {p_t} dB")
        previous = opa_cf
    for row, target in zip(gains, GAINS_GRID):
        e = -0.5 * math.log1p(-target)
        expected = -10.0 * math.log10(e * float(special.exp1(e)))
        gain_s, gain_r = float(row["gain_s_dB"]), float(row["gain_r_dB"])
        if abs(gain_s - expected) > tol * max(1.0, abs(expected)):
            problems.append(f"gain_s_dB at {target:.2f}: {gain_s!r} != {expected!r}")
        if not (gain_s > 0.0 and gain_r > 0.0):
            problems.append(f"gain at {target:.2f} not above 0 dB: {gain_s!r}, {gain_r!r}")
    return problems


def check_repeat(first: list[bytes], again: list[bytes]) -> list[str]:
    """Two runs with the same seed must write byte-identical CSVs."""
    return [f"CSV {k} differs on a repeat with the same seed"
            for k, (a, b) in enumerate(zip(first, again)) if a != b]
