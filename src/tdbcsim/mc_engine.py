"""Chunked, reproducible Monte Carlo simulation of transmission cycles.

The engine is the empirical oracle for every closed form in the package.  It
writes no rule of the protocol itself: it draws the fading, takes the outage
counts and power sums of the adaptive policies from
`relay_policy.cycle_totals` and where the fixed-power baseline serves from
`outage_analytics.fpa_corner`, and counts.  Trials are cut into
fixed-size chunks, chunk i always consumes fading substream (seed, i), and
partial sums are reduced in chunk order, so a report is bit-identical for
any worker count and any scheduling.

One draw per chunk is shared by every policy of a run: `simulate` draws the
unit-mean gains of chunk i once, scales them to each distinct pair of mean
gains, and evaluates every policy on those states (common random numbers).
Inverse-CDF draws scale exactly with the mean, so each report equals the
one a separate run of that policy alone would give, bit for bit.
`cycle_totals` computes the relay demand once per group of policies that
share mean gains and rates; a run that needs only outage rates
(`powers=False`) skips the power arrays, so each policy then costs a few
comparisons and a count, and its outage rates are those of a full run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .outage_analytics import FpaConfig, fpa_corner
from .relay_policy import RelayPolicy, cycle_totals
from .system_model import FadingSampler, SystemConfig

__all__ = [
    "CHUNK_TRIALS",
    "SimReport",
    "simulate",
    "run_opa",
    "run_fpa",
]

#: Trials per chunk.  Fixed: determinism relies on the chunk grid never
#: depending on the worker count.
CHUNK_TRIALS = 1 << 16


@dataclass(frozen=True)
class SimReport:
    """What one simulation run measured for one policy.

    Average powers are taken over ALL trials, silent cycles contributing
    zero: that is the quantity the long-term budgets constrain.  Averaging
    over transmitting cycles only would read systematically high.  An OPA
    report of an outage-only run (`simulate(..., powers=False)`) holds None
    for its three average powers; an FPA report always holds its fixed
    powers.
    """

    trials: int
    outage_rate: float
    avg_power_s1: float | None
    avg_power_s2: float | None
    avg_power_relay: float | None

    def __post_init__(self) -> None:
        if not 0.0 <= self.outage_rate <= 1.0:
            raise ValueError(f"outage_rate must lie in [0, 1], got {self.outage_rate!r}")
        for name in ("avg_power_s1", "avg_power_s2", "avg_power_relay"):
            value = getattr(self, name)
            if value is not None and value < 0.0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def binomial_sigma(self) -> float:
        """Standard error of outage_rate as a binomial proportion."""
        rate = self.outage_rate
        return math.sqrt(rate * (1.0 - rate) / self.trials)


def _validate_trials(trials: int) -> None:
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")


def _chunk_sizes(trials: int) -> list[int]:
    n_full, rest = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * n_full + ([rest] if rest else [])


def _map_chunks(fn: Callable[[int], list], n_chunks: int, workers: int) -> list[list]:
    workers = min(workers, n_chunks)    # no thread without a chunk to run
    if workers <= 1:
        return [fn(i) for i in range(n_chunks)]
    # Imported here: concurrent.futures loads logging, which serial runs never need.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_chunks)))


def simulate(opa_policies: Sequence[RelayPolicy],
             fpa_pairs: Sequence[tuple[SystemConfig, FpaConfig]],
             trials: int, seed: int, workers: int = 1, *,
             powers: bool = True) -> list[SimReport]:
    """Simulate every policy on one shared fading stream.

    OPA policies (relay policies, e.g. from `policies_from_config`, which
    also fix both end-node cutoffs) apply `cycle_powers` per trial; a cycle
    is an outage exactly when the relay does not serve it.  FPA pairs
    (configuration, fixed powers) spend their constant powers every cycle,
    so only their outage rate is estimated and their average powers are the
    fixed powers exactly.  Each policy sees gains with its own mean gains,
    scaled from the same unit-mean draws.  Returns one report per OPA
    policy, then one per FPA pair, in the order given.

    With `powers=False` only outages are counted: each OPA report carries
    the same outage rate as with `powers=True` and None for its three
    average powers.
    """
    _validate_trials(trials)
    try:
        sizes = _chunk_sizes(trials)
    except MemoryError:
        raise MemoryError(f"out of memory planning the chunks of {trials} trials") from None
    n_opa = len(opa_policies)
    # Indices of the OPA policies and of the FPA pairs of each mean-gain pair.
    groups: dict[tuple[float, float], tuple[list[int], list[int]]] = {}
    for j, policy in enumerate(opa_policies):
        groups.setdefault((policy.omega_x, policy.omega_y), ([], []))[0].append(j)
    for j, (config, _) in enumerate(fpa_pairs):
        groups.setdefault((config.omega_x, config.omega_y), ([], []))[1].append(j)
    corners = [fpa_corner(config, fpa) for config, fpa in fpa_pairs]

    def one_chunk(i: int) -> list[tuple]:
        unit_x, unit_y = FadingSampler(seed, stream_index=i).sample_block(sizes[i])
        parts: list = [None] * (n_opa + len(fpa_pairs))
        for (omega_x, omega_y), (opa, fpa) in groups.items():
            x = omega_x * unit_x
            y = omega_y * unit_y
            if opa:
                totals = cycle_totals([opa_policies[j] for j in opa], x, y, powers)
                for j, total in zip(opa, totals):
                    parts[j] = total
            for j in fpa:
                x_floor, y_floor = corners[j]
                parts[n_opa + j] = (int(np.count_nonzero((x < x_floor) | (y < y_floor))),)
        return parts

    chunks = _map_chunks(one_chunk, len(sizes), workers) if groups else []
    reports = []
    for j in range(n_opa):
        parts = [chunk[j] for chunk in chunks]
        averages = ([math.fsum(p[k] for p in parts) / trials for k in (1, 2, 3)]
                    if powers else [None] * 3)
        reports.append(SimReport(trials, sum(p[0] for p in parts) / trials, *averages))
    for j, (_, fpa) in enumerate(fpa_pairs, start=n_opa):
        outages = sum(chunk[j][0] for chunk in chunks)
        reports.append(SimReport(trials, outages / trials,
                                 fpa.p_s1_fix, fpa.p_s2_fix, fpa.p_r_fix))
    return reports


def run_opa(policy: RelayPolicy, trials: int = 1_000_000, seed: int = 0,
            workers: int = 1) -> SimReport:
    """`simulate` of one adaptive policy."""
    return simulate([policy], [], trials, seed, workers)[0]


def run_fpa(config: SystemConfig, fpa: FpaConfig, trials: int = 1_000_000,
            seed: int = 0, workers: int = 1) -> SimReport:
    """`simulate` of one fixed-power baseline."""
    return simulate([], [(config, fpa)], trials, seed, workers)[0]
