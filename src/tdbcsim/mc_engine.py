"""Chunked, reproducible Monte Carlo simulation of transmission cycles.

The engine is the empirical oracle for every closed form in the package.  It
writes no rule of the protocol itself: it draws the fading and counts each
policy's outages as the states outside its served quadrant, whose corner is
its `RelayPolicy`'s (lambda1, lambda2), the fixed-power baseline's
(`outage_analytics.fpa_policy`) included; average powers are the sums of
`relay_policy.cycle_totals`.  Chunks run one after another,
each in blocks of at most 8,192 trials on the run's one 0.28 MB set of
buffers, and chunk i of a run always consumes fading substream (seed, i), so
a report depends only on the policies, trials and seed.  The unit-mean draws
of a chunk are shared by every policy, scaled to each pair of mean gains
(common random numbers; inverse-CDF draws scale exactly, so each report
equals a run of its policy alone).  Groups of equal mean gains and square
corners (a == b) alone are counted from sorted float32 keys of the uniforms
instead (see `simulate`).  numpy is imported by `simulate`, not when this
module loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .outage_analytics import FpaConfig, fpa_policy
from .relay_policy import RelayPolicy, cycle_totals
from .system_model import FadingSampler, SystemConfig

__all__ = [
    "CHUNK_TRIALS",
    "SimReport",
    "simulate",
    "run_opa",
    "run_fpa",
]

#: Trials per chunk.  Fixed: chunk i draws substream (seed, i), so every
#: report depends on the chunk grid.
CHUNK_TRIALS = 1 << 16

#: Most trials per block: each float64 temporary of `cycle_totals` is then
#: 64 KiB, below glibc's mmap threshold, so it is reused, not faulted in anew.
_BLOCK_TRIALS = 1 << 13


@dataclass(frozen=True)
class SimReport:
    """What one simulation run measured for one policy.

    Average powers are taken over ALL trials, silent cycles contributing
    zero: that is the quantity the long-term budgets constrain.  Averaging
    over transmitting cycles only would read systematically high.  The
    report of a policy `simulate` runs outage-only holds None for its three
    average powers.  Rates are counts over the trials and averages fsums of
    non-negative sums, so nothing is re-checked.
    """

    trials: int
    outage_rate: float
    avg_power_s1: float | None
    avg_power_s2: float | None
    avg_power_relay: float | None


def simulate(policies: Sequence[RelayPolicy], outage_only: Sequence[RelayPolicy],
             trials: int, seed: int) -> list[SimReport]:
    """Simulate every policy on one shared fading stream: one report per
    policy, those of `policies` first, in the order given.

    A policy sends the powers of `cycle_powers`; a cycle is an outage exactly
    when the relay does not serve it.  Each policy sees the shared unit-mean
    draws scaled by its mean gains.  Of `outage_only` only the outages are
    counted, so its reports hold None for their three average powers, and
    the engine reads only the corners lambda1, lambda2 and the mean gains
    omega_x, omega_y of its policies.  Groups of equal mean gains omega with
    no policy of `policies` and only square corners (a == b) share one sort
    of the float32 keys of min(u_x, u_y) instead, as x >= a is
    u >= c = 1 - exp(-a / omega): a key outside [c (1 - 2**-40),
    c (1 + 2**-40)] is on c's side if np.log1p is accurate to 2**-40
    relative, so the count is a `searchsorted` position (rounding is
    monotone); else the gains are built and that corner takes the quadrant
    test for the block.  Chunks run in numpy's pairwise-summation blocks
    (`_pairwise`) on one 278,528-byte buffer set of the run's own.
    """
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    import numpy as np
    try:
        n_full, rest = divmod(trials, CHUNK_TRIALS)
        sizes = [CHUNK_TRIALS] * n_full + ([rest] if rest else [])
    except MemoryError:
        raise MemoryError(f"out of memory planning the chunks of {trials} trials") from None
    n_powered = len(policies)
    every = [*policies, *outage_only]
    if not every:
        FadingSampler(seed)     # checks the seed
        return []
    corners = [(p.lambda1, p.lambda2) for p in every]
    groups: dict[tuple[float, float], list[int]] = {}
    for j, p in enumerate(every):
        groups.setdefault((p.omega_x, p.omega_y), []).append(j)
    # Per group: policies for cycle_totals and quadrant tests; those of an
    # outage-only equal-gain group of square corners alone are counted on min(u).
    plans, u_square = [], []
    for omega, members in groups.items():
        powered = [j for j in members if j < n_powered]
        rest = members[len(powered):]
        if not powered and omega[0] == omega[1] and all(
                corners[j][0] == corners[j][1] for j in rest):
            u_square += rest
        else:
            plans.append((omega, powered, rest))
    u_c = -np.expm1(-np.array([corners[j][0] / every[j].omega_x for j in u_square]))
    u_lo, u_hi = ((u_c * (1.0 + s * 2.0 ** -40)).astype(np.float32) for s in (-1, 1))
    n = _BLOCK_TRIALS
    draw, gains, masks = np.empty((n, 2)), np.empty((2, n)), np.empty((2, n), dtype=bool)
    outages = np.zeros(len(every), dtype=np.int64)
    square = np.array(u_square, dtype=np.intp)
    sums = []   # each chunk's (n_powered, 3) power sums

    def block(m: int):
        """Draw, count and sum the next m trials of the chunk's sampler."""
        u = sampler._uniform_block(m, out=draw[:m])
        x, y = gains[0, :m], gains[1, :m]
        below, hits = _sorted_counts(u, y, u_lo, u_hi) if u_square else (0, [])
        if plans or hits:
            logs = FadingSampler._log_step(u).T
        for k in hits:   # a key in the window: the quadrant test on the gains
            np.multiply(logs, -every[u_square[k]].omega_x, out=gains[:, :m])
            below[k] = _count_outside(x, y, *corners[u_square[k]], masks[:, :m])
        outages[square] += below
        block_sums = np.zeros((n_powered, 3))
        for (omega_x, omega_y), powered, quadrant in plans:
            np.multiply(logs, [[-omega_x], [-omega_y]], out=gains[:, :m])
            if powered:
                totals = cycle_totals([policies[j] for j in powered], x, y)
                for j, (count, *power_sums) in zip(powered, totals):
                    outages[j] += count
                    block_sums[j] = power_sums
            for j in quadrant:
                outages[j] += _count_outside(x, y, *corners[j], masks[:, :m])
        return block_sums

    for i, m in enumerate(sizes):
        sampler = FadingSampler(seed, stream_index=i)
        sums.append(_pairwise(m, block))
    rates = [count / trials for count in outages.tolist()]
    return ([SimReport(trials, rates[j],
                       *(math.fsum(chunk[j, k] for chunk in sums) / trials for k in range(3)))
             for j in range(n_powered)]
            + [SimReport(trials, rate, None, None, None) for rate in rates[n_powered:]])


def _pairwise(n: int, block):
    """block(m) of each block of n trials in order, added up in numpy's
    pairwise-summation tree cut at _BLOCK_TRIALS, as ndarray.sum() adds."""
    if n <= _BLOCK_TRIALS:
        return block(n)
    half = n // 2 - n // 2 % 8
    return _pairwise(half, block) + _pairwise(n - half, block)


def _sorted_counts(u, free, lo, hi) -> tuple:
    """Per float32 window [lo, hi], the number of float32 keys of
    min(u_x, u_y) below it, and the list of the windows that hold a key; the
    keys of the uniforms u are built and sorted in the buffer `free`."""
    import numpy as np
    keys = free.view(np.float32)[:len(u)]
    np.minimum(u[:, 0], u[:, 1], out=keys)
    keys.sort()
    below = keys.searchsorted(lo)
    return below, (keys.searchsorted(hi, "right") != below).nonzero()[0].tolist()


def _count_outside(x, y, a: float, b: float, masks) -> int:
    """Exact count of the states (x, y) outside the quadrant above the
    corner (a, b), through the two boolean buffers `masks`."""
    import numpy as np
    served, served_y = masks
    np.greater_equal(x, a, out=served)
    np.greater_equal(y, b, out=served_y)
    served &= served_y
    return len(x) - int(np.count_nonzero(served))


def run_opa(policy: RelayPolicy, trials: int, seed: int) -> SimReport:
    """`simulate` of one adaptive policy."""
    return simulate([policy], [], trials, seed)[0]


def run_fpa(config: SystemConfig, fpa: FpaConfig, trials: int, seed: int) -> SimReport:
    """`simulate` of one fixed-power baseline, outage only."""
    return simulate([], [fpa_policy(config, fpa)], trials, seed)[0]
