"""Problem instance, Rayleigh block-fading model, and the channel sampler.

Powers throughout the package are linear and normalized to a unit-variance
receiver noise, so they read as SNRs; dB conversion happens only at the CLI
boundary.  Rate expressions are base-2.  The sampler draws unit-mean gains;
the Monte Carlo engine scales them by each link's mean gain.  numpy is
imported inside the sampler's methods, not when this module loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .specfun import require_positive

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TDBC_PHASES",
    "SystemConfig",
    "FadingSampler",
    "delta_of_rate",
]

#: Phases per transmission cycle: two uplink slots plus one broadcast slot.
TDBC_PHASES = 3


def delta_of_rate(rate: float) -> float:
    """SNR threshold 2**(TDBC_PHASES * rate) - 1 needed to sustain `rate`.

    The 1/TDBC_PHASES pre-log of the cycle is what puts the phase count in
    the exponent.  Below an exponent of 1 the difference is taken by expm1,
    as 2**x - 1 cancels there.  Raises ValueError for rate <= 0, or for
    TDBC_PHASES * rate >= 1024, where the threshold overflows a double.
    """
    rate = require_positive(rate, "rate")
    exponent = TDBC_PHASES * rate
    if exponent >= 1024.0:
        raise ValueError(
            f"rate {rate!r} too large: 2**({TDBC_PHASES} * rate) overflows a double"
        )
    return math.expm1(exponent * math.log(2.0)) if exponent < 1.0 else 2.0 ** exponent - 1.0


@dataclass(frozen=True)
class SystemConfig:
    """One complete problem instance.

    rate_1 / rate_2 are the fixed information rates of the two sessions
    (bits per channel use); omega_x / omega_y are the mean squared channel
    amplitudes of the two source-relay links; the three budgets are long-term
    average transmit powers of the end nodes and the relay.  delta1 / delta2
    are the sessions' thresholds `delta_of_rate`, which may raise ValueError.
    """

    rate_1: float
    rate_2: float
    omega_x: float
    omega_y: float
    pbar_s1: float
    pbar_s2: float
    p_avg_relay: float
    delta1: float = field(init=False)
    delta2: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("rate_1", "rate_2", "omega_x", "omega_y",
                     "pbar_s1", "pbar_s2", "p_avg_relay"):
            object.__setattr__(self, name, require_positive(getattr(self, name), name))
        object.__setattr__(self, "delta1", delta_of_rate(self.rate_1))
        object.__setattr__(self, "delta2", delta_of_rate(self.rate_2))


class FadingSampler:
    """Deterministic sampler of unit-mean exponential squared-amplitude pairs.

    The squared amplitudes of Rayleigh-faded links are exponential.  Sampling
    is by inverse CDF, x = -ln(u) with u uniform on (0, 1], at unit mean;
    the draws of a link with mean gain omega are omega times these, which is
    bit for bit -omega * ln(u) since negation is exact and rounding is
    symmetric in sign.  `sample_block` draws these gains, `_uniform_block`
    the uniforms u, which `_log_step` maps to log1p(-u).

    The stream is fully determined by (seed, stream_index): substreams are
    derived by key-splitting a 64-bit seed, never by wall-clock state, so a
    chunked simulation that draws chunk i from substream (seed, i) is
    reproducible.  A sampler instance owns its stream; create one per
    substream.
    """

    def __init__(self, seed: int, stream_index: int = 0) -> None:
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
        if isinstance(stream_index, bool) or not isinstance(stream_index, int) or stream_index < 0:
            raise ValueError(f"stream_index must be a non-negative integer, got {stream_index!r}")
        self.seed = seed
        self.stream_index = stream_index
        import numpy as np
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_index,))
        self._rng = np.random.Generator(np.random.PCG64(ss))

    def sample_block(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw the next `n` unit-mean channel states as the columns (x, y)
        of a fresh (n, 2) array.

        Row i uses the next two uniforms u of the stream (x first), mapped
        in place to -log1p(-u): equal seeds, stream indices and block sizes
        give bit-identical output.
        """
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        out = self._log_step(self._uniform_block(n, None))
        out *= -1.0
        return out[:, 0], out[:, 1]

    def _uniform_block(self, n: int, out: np.ndarray | None) -> np.ndarray:
        """The next (n, 2) uniforms u of the stream, before `_log_step`: in
        `out`, a C-contiguous (n, 2) float64 array, if given."""
        return self._rng.random((n, 2), out=out)

    @staticmethod
    def _log_step(u: np.ndarray) -> np.ndarray:
        """Map uniforms u to log1p(-u) in place: the inverse CDF, unnegated."""
        import numpy as np
        np.negative(u, out=u)
        return np.log1p(u, out=u)
