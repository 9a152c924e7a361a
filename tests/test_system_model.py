"""Problem-instance validation and the fading sampler's statistics."""

import math

import numpy as np
import pytest
from scipy import stats

from conftest import scaled_gains
from tdbcsim.mc_engine import CHUNK_TRIALS
from tdbcsim.system_model import (
    FadingSampler,
    SystemConfig,
    delta_of_rate,
)


def _direct_stream(seed, stream_index):
    """numpy's own generator for substream (seed, stream_index)."""
    ss = np.random.SeedSequence(seed, spawn_key=(stream_index,))
    return np.random.Generator(np.random.PCG64(ss))


class TestDeltaOfRate:
    def test_one_third_rate_gives_unity(self):
        assert delta_of_rate(1.0 / 3.0) == pytest.approx(1.0, rel=1e-15)

    def test_unit_rate(self):
        assert delta_of_rate(1.0) == 7.0

    def test_vanishes_with_rate(self):
        assert 0.0 < delta_of_rate(1e-12) < 1e-10

    def test_small_rates_match_mpmath(self):
        """2**(3r) - 1 cancels as r shrinks (relative error 2.3e-7 at 1e-10,
        0.0 at 1e-17 with the plain formula); expm1 keeps it within 4e-16
        relative of 40-digit mpmath on 2,000 log-spaced rates from 1e-300 to
        1/3 (2.2e-16 is the worst)."""
        mp = pytest.importorskip("mpmath")
        rates = [*map(float, np.logspace(-300.0, math.log10(1.0 / 3.0), 2000)), 1e-17, 1.0 / 3.0]
        with mp.workdps(40):
            exact = [mp.expm1(3 * mp.mpf(r) * mp.ln2) for r in rates]
            worst = max(abs(delta_of_rate(r) - e) / e for r, e in zip(rates, exact))
        assert worst <= 4e-16

    @pytest.mark.parametrize("rate, bits", [
        (0.1, "0x1.d9623dffc1948p-3"), (0.2, "0x1.080c007655cbap-1"),
        (1.0 / 3.0, "0x1.0000000000000p+0"), (0.5, "0x1.d413cccfe779ap+0"),
        (2.0 / 3.0, "0x1.8000000000000p+1")])
    def test_shipped_rates_keep_their_bits(self, rate, bits):
        """The rates of the CLI defaults and the validate table give the bits
        of 2.0 ** (3 * rate) - 1.0, so no CSV moves."""
        assert delta_of_rate(rate).hex() == bits

    def test_strictly_increasing_in_rate(self):
        rates = np.linspace(0.01, 3.0, 200)
        values = [delta_of_rate(float(r)) for r in rates]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, 400.0])
    def test_rejects_bad_rate(self, bad):
        with pytest.raises(ValueError):
            delta_of_rate(bad)


class TestSystemConfig:
    def test_derived_thresholds(self):
        config = SystemConfig(1.0 / 3.0, 1.0, 1.0, 2.0, 0.5, 0.5, 0.5)
        assert config.delta1 == pytest.approx(1.0)
        assert config.delta2 == 7.0

    @pytest.mark.parametrize("rate_1, rate_2", [
        (1.0 / 3.0, 1.0 / 3.0), (0.5, 0.2), (1e-300, 2.0 / 3.0), (341.33, 0.1)])
    def test_thresholds_are_delta_of_rate(self, rate_1, rate_2):
        """delta1 and delta2 hold the bits of delta_of_rate(rate_1) and
        delta_of_rate(rate_2), derived when the config is built."""
        config = SystemConfig(rate_1, rate_2, 1.0, 2.0, 0.5, 0.5, 0.5)
        assert (config.delta1.hex(), config.delta2.hex()) \
            == (delta_of_rate(rate_1).hex(), delta_of_rate(rate_2).hex())

    def test_overflowing_threshold_fails_when_built(self):
        with pytest.raises(ValueError, match=r"^rate 400.0 too large: 2\*\*\(3 \* rate\) "
                                             r"overflows a double$"):
            SystemConfig(400, 1.0 / 3.0, 1, 1, 1, 1, 1)

    @pytest.mark.parametrize("field", range(7))
    def test_rejects_non_positive_fields(self, field):
        values = [1.0] * 7
        values[field] = 0.0
        with pytest.raises(ValueError):
            SystemConfig(*values)


class TestFadingSampler:
    def test_same_seed_same_sequence(self):
        """Successive blocks continue one uniform stream, the one numpy's
        PCG64 gives for (seed, stream_index), at unit mean; scaled by a mean
        gain they equal, bit for bit, the inverse CDF at that mean."""
        stream = _direct_stream(1234, 3)
        a = FadingSampler(1234, stream_index=3)
        b = FadingSampler(1234, stream_index=3)
        for n in (40, 60):
            u = stream.random((n, 2))
            xa, ya = a.sample_block(n)
            xb, yb = b.sample_block(n)
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)
            np.testing.assert_array_equal(xa, -np.log1p(-u[:, 0]))
            np.testing.assert_array_equal(2.0 * ya, -2.0 * np.log1p(-u[:, 1]))

    def test_streams_differ(self):
        a = FadingSampler(1234, stream_index=0)
        b = FadingSampler(1234, stream_index=1)
        xa, _ = a.sample_block(64)
        xb, _ = b.sample_block(64)
        assert not np.array_equal(xa, xb)

    def test_block_matches_scalar_stream(self):
        """Each block draw is the inverse CDF of the generator's uniform, to
        one ulp of the scalar math library (the vector one rounds
        independently)."""
        u = _direct_stream(77, 0).random((50, 2))
        x, y = FadingSampler(77).sample_block(50)
        for i in range(50):
            assert -math.log1p(-u[i, 0]) == pytest.approx(float(x[i]), rel=3e-16, abs=0.0)
            assert -math.log1p(-u[i, 1]) == pytest.approx(float(y[i]), rel=3e-16, abs=0.0)

    def test_block_is_reproducible_per_size(self):
        x1, y1 = FadingSampler(77).sample_block(64)
        x2, y2 = FadingSampler(77).sample_block(64)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_sample_mean(self):
        """Law of large numbers: the 1e6-draw mean sits within 0.01 of the
        unit mean gain (3-sigma radius is ~0.003)."""
        sampler = FadingSampler(2024)
        x, _ = sampler.sample_block(1_000_000)
        assert abs(float(x.mean()) - 1.0) < 0.01

    def test_empirical_cdf_is_exponential(self):
        """Kolmogorov-Smirnov statistic of the draws scaled to mean 2 below
        the 1% critical value at 1e6 draws (1.628 / sqrt(N))."""
        n = 1_000_000
        x, _ = scaled_gains(7, 2.0, 1.0, n)
        statistic = stats.kstest(x, "expon", args=(0.0, 2.0)).statistic
        assert statistic < 1.628 / math.sqrt(n)

    def test_link_independence(self):
        n = 1_000_000
        x, y = scaled_gains(15, 1.0, 4.0, n)
        corr = float(np.corrcoef(x, y)[0, 1])
        assert abs(corr) < 0.005

    def test_draws_are_nonnegative_and_finite(self):
        x, y = scaled_gains(3, 0.1, 10.0, 10_000)
        assert np.all(x >= 0.0) and np.all(np.isfinite(x))
        assert np.all(y >= 0.0) and np.all(np.isfinite(y))

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (2 ** 64, 0), (1.5, 0),
                                             (1, -1), (1, 0.5)])
    def test_rejects_bad_identifiers(self, seed, stream):
        with pytest.raises(ValueError):
            FadingSampler(seed, stream_index=stream)

    def test_rejects_bad_block_size(self):
        sampler = FadingSampler(1)
        with pytest.raises(ValueError):
            sampler.sample_block(0)

    def test_uniform_block_into_a_reused_buffer_is_bit_identical(self):
        """The engine's uniforms drawn into a row slice of a reused buffer
        hold the bits of a freshly allocated block, in that buffer."""
        buf = np.full((100, 2), np.nan)
        a, b = FadingSampler(9, stream_index=4), FadingSampler(9, stream_index=4)
        for n in (100, 37):
            u = a._uniform_block(n, buf[:n])
            assert np.shares_memory(u, buf)
            assert u.tobytes() == b._uniform_block(n, None).tobytes()

    def test_log_block_negated_is_the_block(self):
        """The engine's private step log1p(-u), negated, is `sample_block`
        byte for byte over a full chunk, in a fresh array and in a caller's
        buffer."""
        buf = np.empty((CHUNK_TRIALS, 2))
        for out in (None, buf):
            sampler = FadingSampler(5, stream_index=2)
            logs = sampler._log_step(sampler._uniform_block(CHUNK_TRIALS, out))
            assert np.all(logs <= 0.0) and (out is None or logs is buf)
            x, y = FadingSampler(5, stream_index=2).sample_block(CHUNK_TRIALS)
            assert (-logs).tobytes() == np.column_stack([x, y]).tobytes()

    def test_log_step_is_within_2_pow_minus_45_of_mpmath(self):
        """The one assumption of `simulate`'s uniform windows, with margin:
        the log step's log1p(-u) is within 2**-45 relative of 30-digit
        mpmath (0 at u = 0), on 4,096 of the sampler's uniforms and on
        u = 0, 2**-53, 0.5 and 1 - 2**-53."""
        mpmath = pytest.importorskip("mpmath")
        u = FadingSampler(8)._uniform_block(2050, None)
        assert u[:2048].tobytes() == _direct_stream(8, 0).random((2048, 2)).tobytes()
        u[2048:] = [[0.0, 2.0 ** -53], [0.5, 1.0 - 2.0 ** -53]]
        logs = FadingSampler._log_step(u.copy())
        with mpmath.workdps(30):
            for v, log in zip(u.ravel().tolist(), logs.ravel().tolist()):
                exact = mpmath.log1p(-mpmath.mpf(v))
                assert abs(log - exact) <= 2.0 ** -45 * abs(exact)
