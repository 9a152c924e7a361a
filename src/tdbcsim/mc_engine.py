"""Chunked, reproducible Monte Carlo simulation of transmission cycles.

The engine is the empirical oracle for every closed form in the package: it
replays the protocol, `relay_policy.cycle_powers`, and simply counts.  Trials
are cut into fixed-size chunks, chunk i always consumes fading substream
(seed, i), and partial sums are reduced in chunk order, so a report is
bit-identical for any worker count and any scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .outage_analytics import FpaConfig
from .relay_policy import RelayPolicy, cycle_powers
from .system_model import FadingSampler, SystemConfig

__all__ = [
    "CHUNK_TRIALS",
    "SimReport",
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


def _map_chunks(fn: Callable[[int], tuple], n_chunks: int, workers: int) -> list[tuple]:
    if workers <= 1:
        return [fn(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_chunks)))


def run_opa(policy: RelayPolicy, trials: int = 1_000_000, seed: int = 0,
            workers: int = 1) -> SimReport:
    """Simulate cycles under an adaptive policy, e.g. the relay policy of
    `policies_from_config`, which also fixes both end-node cutoffs.

    Per trial: draw (x, y) with the policy's mean gains and apply the
    per-cycle rule `cycle_powers`.  A cycle is an outage exactly when the
    relay ends up silent.
    """
    _validate_trials(trials)
    sizes = _chunk_sizes(trials)

    def one_chunk(i: int) -> tuple:
        sampler = FadingSampler(seed, policy.omega_x, policy.omega_y, stream_index=i)
        p1, p2, pr = cycle_powers(policy, *sampler.sample_block(sizes[i]))
        served = int(np.count_nonzero(pr))
        return sizes[i] - served, float(p1.sum()), float(p2.sum()), float(pr.sum())

    parts = _map_chunks(one_chunk, len(sizes), workers)
    outages = sum(p[0] for p in parts)
    sum_p1 = math.fsum(p[1] for p in parts)
    sum_p2 = math.fsum(p[2] for p in parts)
    sum_pr = math.fsum(p[3] for p in parts)
    rate = outages / trials
    return SimReport(
        trials=trials,
        outage_rate=rate,
        avg_power_s1=sum_p1 / trials,
        avg_power_s2=sum_p2 / trials,
        avg_power_relay=sum_pr / trials,
        binomial_sigma=math.sqrt(rate * (1.0 - rate) / trials),
        seed=seed,
        policy_kind="OPA",
    )


def run_fpa(config: SystemConfig, fpa: FpaConfig, trials: int = 1_000_000,
            seed: int = 0, workers: int = 1) -> SimReport:
    """Simulate cycles under the fixed-power baseline.

    The nodes spend their constant powers every cycle whatever the channel
    does, so the average powers equal the fixed powers exactly and only the
    outage rate is estimated.
    """
    _validate_trials(trials)
    d1, d2 = config.delta1, config.delta2
    sizes = _chunk_sizes(trials)

    def one_chunk(i: int) -> tuple:
        sampler = FadingSampler(seed, config.omega_x, config.omega_y, stream_index=i)
        x, y = sampler.sample_block(sizes[i])
        outage = (
            (x < d1 / fpa.p_s1_fix)
            | (y < d2 / fpa.p_s2_fix)
            | (y < d1 / fpa.p_r_fix)
            | (x < d2 / fpa.p_r_fix)
        )
        return (int(np.count_nonzero(outage)),)

    parts = _map_chunks(one_chunk, len(sizes), workers)
    outages = sum(p[0] for p in parts)
    rate = outages / trials
    return SimReport(
        trials=trials,
        outage_rate=rate,
        avg_power_s1=fpa.p_s1_fix,
        avg_power_s2=fpa.p_s2_fix,
        avg_power_relay=fpa.p_r_fix,
        binomial_sigma=math.sqrt(rate * (1.0 - rate) / trials),
        seed=seed,
        policy_kind="FPA",
    )
