"""Chunked, reproducible Monte Carlo simulation of transmission cycles.

The engine is the empirical oracle for every closed form in the package: it
replays the protocol, `relay_policy.cycle_powers`, and simply counts.  Trials
are cut into fixed-size chunks, chunk i always consumes fading substream
(seed, i), and partial sums are reduced in chunk order, so a report is
bit-identical for any worker count and any scheduling.

One draw per chunk is shared by every policy of a run: `simulate` draws the
unit-mean gains of chunk i once, scales them to each distinct pair of mean
gains, and evaluates every policy on those states (common random numbers).
Inverse-CDF draws scale exactly with the mean, so each report equals the
one a separate run of that policy alone would give, bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .outage_analytics import FpaConfig
from .relay_policy import RelayPolicy, cycle_powers
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
    """Aggregates of one simulation run.

    Average powers are taken over ALL trials, silent cycles contributing
    zero: that is the quantity the long-term budgets constrain.  Averaging
    over transmitting cycles only would read systematically high.
    """

    trials: int
    outage_rate: float
    avg_power_s1: float
    avg_power_s2: float
    avg_power_relay: float
    binomial_sigma: float
    seed: int
    policy_kind: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.outage_rate <= 1.0:
            raise ValueError(f"outage_rate must lie in [0, 1], got {self.outage_rate!r}")
        for name in ("avg_power_s1", "avg_power_s2", "avg_power_relay"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.policy_kind not in ("OPA", "FPA"):
            raise ValueError(f"policy_kind must be 'OPA' or 'FPA', got {self.policy_kind!r}")


def _validate_trials(trials: int) -> None:
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")


def _chunk_sizes(trials: int) -> list[int]:
    n_full, rest = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * n_full + ([rest] if rest else [])


def _map_chunks(fn: Callable[[int], list], n_chunks: int, workers: int) -> list[list]:
    if workers <= 1:
        return [fn(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_chunks)))


def _report(kind: str, trials: int, seed: int, outages: int,
            p1: float, p2: float, pr: float) -> SimReport:
    rate = outages / trials
    return SimReport(
        trials=trials,
        outage_rate=rate,
        avg_power_s1=p1,
        avg_power_s2=p2,
        avg_power_relay=pr,
        binomial_sigma=math.sqrt(rate * (1.0 - rate) / trials),
        seed=seed,
        policy_kind=kind,
    )


def _opa_sums(policy: RelayPolicy, x: np.ndarray, y: np.ndarray) -> tuple:
    p1, p2, pr = cycle_powers(policy, x, y)
    return (x.size - int(np.count_nonzero(pr > 0.0)),
            float(p1.sum()), float(p2.sum()), float(pr.sum()))


def _fpa_sums(config: SystemConfig, fpa: FpaConfig, x: np.ndarray, y: np.ndarray) -> tuple:
    d1, d2 = config.delta1, config.delta2
    outage = (
        (x < d1 / fpa.p_s1_fix)
        | (y < d2 / fpa.p_s2_fix)
        | (y < d1 / fpa.p_r_fix)
        | (x < d2 / fpa.p_r_fix)
    )
    return (int(np.count_nonzero(outage)),)


def simulate(opa_policies: Sequence[RelayPolicy],
             fpa_pairs: Sequence[tuple[SystemConfig, FpaConfig]],
             trials: int, seed: int, workers: int = 1) -> list[SimReport]:
    """Simulate every policy on one shared fading stream.

    OPA policies (relay policies, e.g. from `policies_from_config`, which
    also fix both end-node cutoffs) apply `cycle_powers` per trial; a cycle
    is an outage exactly when the relay ends up silent.  FPA pairs
    (configuration, fixed powers) spend their constant powers every cycle,
    so only their outage rate is estimated and their average powers are the
    fixed powers exactly.  Each policy sees gains with its own mean gains,
    scaled from the same unit-mean draws.  Returns one report per OPA
    policy, then one per FPA pair, in the order given.
    """
    _validate_trials(trials)
    sizes = _chunk_sizes(trials)
    kernels = [partial(_opa_sums, policy) for policy in opa_policies]
    kernels += [partial(_fpa_sums, config, fpa) for config, fpa in fpa_pairs]
    means = [(policy.omega_x, policy.omega_y) for policy in opa_policies]
    means += [(config.omega_x, config.omega_y) for config, _ in fpa_pairs]
    groups: dict[tuple[float, float], list[int]] = {}
    for j, mean in enumerate(means):
        groups.setdefault(mean, []).append(j)

    def one_chunk(i: int) -> list[tuple]:
        unit_x, unit_y = FadingSampler(seed, 1.0, 1.0, stream_index=i).sample_block(sizes[i])
        parts: list = [None] * len(kernels)
        for (omega_x, omega_y), members in groups.items():
            x = omega_x * unit_x
            y = omega_y * unit_y
            for j in members:
                parts[j] = kernels[j](x, y)
        return parts

    chunks = _map_chunks(one_chunk, len(sizes), workers) if kernels else []
    reports = []
    for j in range(len(opa_policies)):
        parts = [chunk[j] for chunk in chunks]
        reports.append(_report(
            "OPA", trials, seed, sum(p[0] for p in parts),
            math.fsum(p[1] for p in parts) / trials,
            math.fsum(p[2] for p in parts) / trials,
            math.fsum(p[3] for p in parts) / trials,
        ))
    for j, (_, fpa) in enumerate(fpa_pairs, start=len(opa_policies)):
        outages = sum(chunk[j][0] for chunk in chunks)
        reports.append(_report("FPA", trials, seed, outages,
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
