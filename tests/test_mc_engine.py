"""Monte Carlo engine: determinism, budget accounting, estimator consistency."""

import dataclasses
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import load_bench
from tdbcsim import mc_engine
from tdbcsim.mc_engine import CHUNK_TRIALS, SimReport, run_fpa, run_opa, simulate
from tdbcsim.outage_analytics import FpaConfig, fpa_policy, outage_fpa, outage_opa
from tdbcsim.relay_policy import avg_relay_power, cycle_powers, policies_from_config
from tdbcsim.scenario_cli import (_FPA_VALIDATION_SETS, db_to_linear, load_spec,
                                  validation_policies)
from tdbcsim.specfun import exp_integral_e1
from tdbcsim.system_model import FadingSampler, SystemConfig

N = 400_000


def _unbounded_config():
    """Budgets chosen so both cutoffs sit at exactly 0.2 and the relay budget
    clears the saturation spend: the outage floor regime."""
    pbar = exp_integral_e1(0.2)
    return SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, pbar, pbar, 1.5)


def _capped_config():
    return SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.8, 1.2, 0.6)


def _relay(config):
    return policies_from_config(config)[2]


def _validation_sets():
    """Label -> (configuration, relay policy) of the validate parameter table."""
    return {label: (config, relay) for label, config, relay in validation_policies()}


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = run_opa(_relay(_capped_config()), trials=50_000, seed=123)
        b = run_opa(_relay(_capped_config()), trials=50_000, seed=123)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_opa(_relay(_capped_config()), trials=50_000, seed=123)
        b = run_opa(_relay(_capped_config()), trials=50_000, seed=124)
        assert a.outage_rate != b.outage_rate


class TestPinnedReports:
    """Reports recorded from the engine before the per-cycle rule moved into
    `cycle_powers`, on one capped and one unbounded validate configuration."""

    @pytest.mark.parametrize("label,capped,outages,powers", [
        ("set01", True, 178595, (0.7987362517341459, 1.2030514451411267, 0.5178252365563577)),
        ("set08", False, 191332, (0.7987362517341459, 1.1999006472316447, 1.2368733373873073)),
    ])
    @pytest.mark.parametrize("copies", [1, 2])
    def test_report_is_pinned(self, label, capped, outages, powers, copies):
        """Each copy of the policy in one run gets the pinned report."""
        relay = _validation_sets()[label][1]
        assert (relay.rho is not None) == capped
        reports = simulate([relay] * copies, [], 300_001, 7)
        assert len(reports) == copies
        for report in reports:
            assert report.outage_rate == outages / 300_001
            assert (report.avg_power_s1, report.avg_power_s2,
                    report.avg_power_relay) == pytest.approx(powers, rel=1e-12, abs=0.0)


def _default_sweep():
    """The relay policies and fixed-power baselines of the default
    `sweep-total-power` grid, as the CLI builds them."""
    spec = load_spec("sweep_total_power")
    relays, baselines = [], []
    for p_t_db in spec.grid:
        share = db_to_linear(p_t_db) / 3.0
        config = SystemConfig(spec.rate_1, spec.rate_2, spec.omega_x, spec.omega_y,
                              share, share, share)
        relays.append(policies_from_config(config)[2])
        baselines.append(fpa_policy(config, FpaConfig(share, share, share)))
    return relays, baselines


def _simulate_in_batches(relays, baselines, batches, trials, seed):
    """Outage-only `simulate` of the relays and baselines split into
    `batches` consecutive runs, with the reports put back in the order one
    run of `relays + baselines` returns them."""
    relay_reports, baseline_reports = [], []
    for k in range(batches):
        some_relays = relays[k * len(relays) // batches:(k + 1) * len(relays) // batches]
        some = baselines[k * len(baselines) // batches:(k + 1) * len(baselines) // batches]
        reports = simulate([], some_relays + some, trials, seed)
        relay_reports += reports[:len(some_relays)]
        baseline_reports += reports[len(some_relays):]
    return relay_reports + baseline_reports


def _stand_ins(corners):
    """Outage-only stand-ins for policies: the corner (a, b) and the mean
    gains (omega_x, omega_y) of each (omega_x, omega_y, a, b), which is all
    `simulate` reads of an outage-only policy, so corners no `RelayPolicy`
    takes (0.0, 5e-324, inf) can be counted."""
    return [SimpleNamespace(omega_x=ox, omega_y=oy, lambda1=a, lambda2=b)
            for ox, oy, a, b in corners]


def _rule_outages(p, sizes, seed):
    """`_demand_rule_outages` of the relay policy p."""
    return _demand_rule_outages(p.omega_x, p.omega_y, p.delta1, p.delta2, p.x0, p.y0, p.rho,
                                sizes, seed)


class TestSimulate:
    def test_mixed_means_keep_order_and_match_single_runs(self):
        """Policies of different mean gains, interleaved, come back in the
        order given and equal to runs of each policy alone."""
        sets = _validation_sets()
        relays = [sets[label][1] for label in ("set03", "set01", "set06", "set04")]
        pairs = [(sets["set05"][0], FpaConfig(2.0, 4.0, 0.5)),
                 (sets["set02"][0], FpaConfig(5.0, 8.0, 3.0))]
        reports = simulate(relays, [fpa_policy(c, f) for c, f in pairs], 70_000, 11)
        assert reports == ([run_opa(r, 70_000, 11) for r in relays]
                           + [run_fpa(c, f, 70_000, 11) for c, f in pairs])

    @pytest.mark.parametrize("label,outages,powers", [
        ("set03", 187000, (0.8019652993227292, 1.1979537693257372, 0.57134586051385)),
        ("set06", 154244, (0.7970565523824802, 1.202860261893392, 0.9940702817777498)),
    ])
    def test_unequal_means_are_pinned(self, label, outages, powers):
        """Mean gains (2, 0.5) capped and (0.5, 2) unbounded: reports recorded
        from the engine when it drew every run with its own means."""
        report = simulate([_validation_sets()[label][1]], [], 300_001, 7)[0]
        assert report.outage_rate == outages / 300_001
        assert (report.avg_power_s1, report.avg_power_s2,
                report.avg_power_relay) == pytest.approx(powers, rel=1e-12, abs=0.0)

    def test_fpa_unequal_means_are_pinned(self):
        config = _validation_sets()["set03"][0]
        report = simulate([], [fpa_policy(config, FpaConfig(5.0, 8.0, 3.0))], 300_001, 7)[0]
        assert report.outage_rate == 169859 / 300_001

    def test_nothing_to_simulate(self):
        """No policies, no reports; a bad seed is rejected as it is with
        policies to simulate, with the sampler's message."""
        assert simulate([], [], 1000, 1) == []
        relay = _relay(_capped_config())
        for seed in (-5, 2 ** 64, 1.5, True):
            for policies in ([], [relay]):
                with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                    simulate(policies, [], 1000, seed)

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            simulate([], [], 0, 1)


class TestOutageOnly:
    @pytest.mark.parametrize("batches", [1, 2, 8])
    def test_outage_rates_match_full_runs(self, batches):
        """The 21 default-sweep policies and the 24 validate policies (mixed
        mean gains and rates, capped and unbounded) with the sweep's
        baselines: an outage-only run is the full run with the relays' powers
        None, however the policies are split across runs."""
        relays, baselines = _default_sweep()
        relays += [relay for _, _, relay in validation_policies()]
        full = simulate(relays, baselines, 200_001, 9)
        quick = _simulate_in_batches(relays, baselines, batches, 200_001, 9)
        blank = dict(avg_power_s1=None, avg_power_s2=None, avg_power_relay=None)
        assert quick == ([dataclasses.replace(r, **blank) for r in full[:len(relays)]]
                         + full[len(relays):])


def _demand_rule_outages(omega_x, omega_y, d1, d2, x0, y0, cap, sizes, seed):
    """Outages of the relay's rule, written out with numpy division, on the
    draws of each chunk: served where x >= x0, y >= y0 and, under a cap,
    max(d1 / y, d2 / x) <= cap."""
    outages = 0
    for i, n in enumerate(sizes):
        unit_x, unit_y = FadingSampler(seed, stream_index=i).sample_block(n)
        x, y = omega_x * unit_x, omega_y * unit_y
        served = (x >= x0) & (y >= y0)
        if cap is not None:
            with np.errstate(divide="ignore", over="ignore"):
                served &= np.maximum(d1 / y, d2 / x) <= cap
        outages += n - int(np.count_nonzero(served))
    return outages


class TestChunkedCounts:
    """Three chunks, the last one short, two mean-gain groups, capped and
    unbounded relay policies and fixed-power baselines in one run."""

    TRIALS = 2 * CHUNK_TRIALS + 123
    SEED = 31

    @staticmethod
    def _policies():
        sets = _validation_sets()
        relays = [sets[label][1] for label in ("set01", "set02", "set03", "set04")]
        baselines = [fpa_policy(sets["set01"][0], FpaConfig(3.0, 3.0, 3.0)),
                     fpa_policy(sets["set03"][0], FpaConfig(5.0, 8.0, 3.0))]
        return relays, baselines

    def test_policies_span_both_groups_and_caps(self):
        relays, baselines = self._policies()
        assert {(r.omega_x, r.omega_y) for r in relays} == {(1.0, 1.0), (2.0, 0.5)}
        assert {r.rho is None for r in relays} == {True, False}
        assert {(b.omega_x, b.omega_y) for b in baselines} == {(1.0, 1.0), (2.0, 0.5)}

    def test_outage_rates_do_not_depend_on_powers(self):
        relays, baselines = self._policies()
        full = simulate(relays, baselines, self.TRIALS, self.SEED)
        quick = simulate([], relays + baselines, self.TRIALS, self.SEED)
        assert [r.outage_rate for r in full] == [r.outage_rate for r in quick]
        assert all(r.avg_power_relay is None for r in full[len(relays):] + quick)

    @pytest.mark.parametrize("powers", [True, False])
    def test_counts_are_the_demand_rule(self, powers):
        """Outages equal the rule bit for bit, the baselines' too: theirs is
        the same rule at constant powers, uplink cutoffs d / p and the cap
        p_r.  With powers, each relay's average power is, bit for bit, the
        fsum over the chunks of that chunk's cycle_powers sum, divided by
        trials."""
        relays, baselines = self._policies()
        sizes = [CHUNK_TRIALS, CHUNK_TRIALS, 123]
        expected = [_rule_outages(p, sizes, self.SEED) for p in relays + baselines]
        reports = (simulate(relays, baselines, self.TRIALS, self.SEED) if powers
                   else simulate([], relays + baselines, self.TRIALS, self.SEED))
        assert [r.outage_rate for r in reports] == [k / self.TRIALS for k in expected]
        assert 0 < min(expected) and max(expected) < self.TRIALS
        if powers:
            for relay, report in zip(relays, reports):
                chunk_sums = []
                for i, n in enumerate(sizes):
                    unit_x, unit_y = FadingSampler(self.SEED, stream_index=i).sample_block(n)
                    chunk_sums.append([float(p.sum()) for p in cycle_powers(
                        relay, relay.omega_x * unit_x, relay.omega_y * unit_y)])
                assert (report.avg_power_s1, report.avg_power_s2, report.avg_power_relay) \
                    == tuple(math.fsum(column) / self.TRIALS for column in zip(*chunk_sums))


class TestSortedCorners:
    """Square corners (a == b) counted from one sort of min(x, y) per block
    give the counts of the relay's rule."""

    TRIALS = 2 * CHUNK_TRIALS + 123
    SIZES = [CHUNK_TRIALS, CHUNK_TRIALS, 123]
    SEED = 17

    def test_default_sweep_takes_the_sort(self):
        relays, baselines = _default_sweep()
        assert all(p.lambda1 == p.lambda2 for p in relays + baselines)

    @pytest.mark.parametrize("batches", [1, 2])
    def test_default_sweep_counts_agree(self, batches):
        """The outage rates from the sort (outage only, in one run or in
        `batches` runs of fewer square corners) equal those of cycle_totals'
        relay pass (the relays with powers, in one run)."""
        relays, baselines = _default_sweep()
        reports = {False: _simulate_in_batches(relays, baselines, batches, self.TRIALS,
                                               self.SEED),
                   True: simulate(relays, baselines, self.TRIALS, self.SEED)}
        assert [r.outage_rate for r in reports[False]] \
            == [r.outage_rate for r in reports[True]]

    def test_default_sweep_counts_are_the_demand_rule(self):
        relays, baselines = _default_sweep()
        expected = [_rule_outages(p, self.SIZES, self.SEED) for p in relays + baselines]
        reports = simulate([], relays + baselines, self.TRIALS, self.SEED)
        assert [r.outage_rate for r in reports] == [k / self.TRIALS for k in expected]

    @pytest.mark.parametrize("powers", [False, True])
    def test_mixed_groups_and_edge_corners(self, powers):
        """Two mean-gain groups, each with a relay policy (with powers or
        outage only) and outage-only stand-ins of square and non-square
        corners; the square ones include a drawn min(x, y) itself (a tie,
        served), the next double above it, 0.0 and inf."""
        sets = _validation_sets()
        groups = [sets["set01"][0], sets["set03"][0]]
        assert {(c.omega_x, c.omega_y) for c in groups} == {(1.0, 1.0), (2.0, 0.5)}
        corners = []
        for k, config in enumerate(groups):
            unit_x, unit_y = FadingSampler(self.SEED, stream_index=k).sample_block(CHUNK_TRIALS)
            tie = float(min(config.omega_x * unit_x[1000], config.omega_y * unit_y[1000]))
            corners += [(config.omega_x, config.omega_y, *corner) for corner in
                        [(tie, tie), (math.nextafter(tie, math.inf),) * 2, (0.0, 0.0),
                         (math.inf, math.inf), (0.5, 0.5), (0.3, 0.7), (0.9, 0.2)]]
        relays = [sets[label][1] for label in ("set01", "set03")]
        stand_ins = _stand_ins(corners)
        reports = (simulate(relays, stand_ins, self.TRIALS, self.SEED) if powers
                   else simulate([], relays + stand_ins, self.TRIALS, self.SEED))
        expected = [_rule_outages(r, self.SIZES, self.SEED) for r in relays]
        expected += [_demand_rule_outages(ox, oy, 1.0, 1.0, a, b, None, self.SIZES, self.SEED)
                     for ox, oy, a, b in corners]
        assert [r.outage_rate for r in reports] == [k / self.TRIALS for k in expected]
        expected = expected[len(relays):]
        for group in (expected[:7], expected[7:]):
            tie, above, zero, infinite = group[:4]
            assert tie < above and zero == 0 and infinite == self.TRIALS

    @pytest.mark.parametrize("powers", [False, True])
    def test_counts_at_a_drawn_min_and_its_neighbours_are_exact(self, monkeypatch, powers):
        """Square corners of outage-only stand-ins at a drawn min(x, y) z and
        at the doubles next to it are counted exactly on the gains, with
        `_count_outside`, as are 0.0, 5e-324, 3.5e38 (past float32's range)
        and inf.  One group has equal mean gains and only square corners,
        whose corners near z share a float32 key window with a state; the
        other has unequal ones and a relay policy (with powers or outage
        only)."""
        sets = _validation_sets()
        groups = [sets["set01"][0], sets["set03"][0]]
        assert [(c.omega_x, c.omega_y) for c in groups] == [(1.0, 1.0), (2.0, 0.5)]
        unit_x, unit_y = FadingSampler(self.SEED, stream_index=0).sample_block(CHUNK_TRIALS)
        corners, near = [], []
        for k, config in enumerate(groups):
            z = float(min(config.omega_x * unit_x[500 + k], config.omega_y * unit_y[500 + k]))
            beside = [math.nextafter(z, -math.inf), math.nextafter(z, math.inf)]
            assert np.float32(beside[0]) == np.float32(z) == np.float32(beside[1])
            near += beside
            corners += [(config.omega_x, config.omega_y, a, a)
                        for a in [z, *beside, 0.0, 5e-324, 0.5, 3.5e38, math.inf]]
        with np.errstate(over="ignore"):
            assert np.float32(3.5e38) == np.inf
        fallback = []
        count_outside = mc_engine._count_outside
        monkeypatch.setattr(mc_engine, "_count_outside", lambda x, y, a, b, masks: (
            fallback.append(a) or count_outside(x, y, a, b, masks)))
        relays = [sets["set03"][1]]
        stand_ins = _stand_ins(corners)
        reports = (simulate(relays, stand_ins, self.TRIALS, self.SEED) if powers
                   else simulate([], relays + stand_ins, self.TRIALS, self.SEED))
        expected = [_rule_outages(r, self.SIZES, self.SEED) for r in relays]
        expected += [_demand_rule_outages(ox, oy, 1.0, 1.0, a, a, None, self.SIZES, self.SEED)
                     for ox, oy, a, _ in corners]
        assert [r.outage_rate for r in reports] == [k / self.TRIALS for k in expected]
        assert set(near) <= set(fallback)
        for group in (expected[1:9], expected[9:]):
            tie, below, above, zero, tiny, _, huge, infinite = group
            assert below <= tie < above and zero == tiny == 0 and huge == infinite == self.TRIALS


def _trace_engine(monkeypatch):
    """Record, for the runs that follow, the size of every block drawn, and
    the block of every log step, of every `_sorted_counts` call and of every
    exact count with its corner; blocks are numbered in the order drawn."""
    trace, block = {"drawn": [], "log": [], "sorts": [], "exact": []}, [-1]
    uniform_block, log_step = FadingSampler._uniform_block, FadingSampler._log_step
    sorted_counts, count_outside = mc_engine._sorted_counts, mc_engine._count_outside

    def draw(self, n, out):
        block[0] += 1
        trace["drawn"].append(n)
        return uniform_block(self, n, out)

    monkeypatch.setattr(FadingSampler, "_uniform_block", draw)
    monkeypatch.setattr(FadingSampler, "_log_step", staticmethod(
        lambda u: trace["log"].append(block[0]) or log_step(u)))
    monkeypatch.setattr(mc_engine, "_sorted_counts", lambda z, free, lo, hi: (
        trace["sorts"].append(block[0]) or sorted_counts(z, free, lo, hi)))
    monkeypatch.setattr(mc_engine, "_count_outside", lambda x, y, a, b, masks: (
        trace["exact"].append((block[0], a)) or count_outside(x, y, a, b, masks)))
    return trace


def _block_plan(sizes):
    """The sizes of the blocks `simulate` draws for chunks of `sizes` trials."""
    return [m for n in sizes for m in mc_engine._pairwise(n, lambda m: [m])]


def _corner_at(v, omega):
    """A corner a whose c = -expm1(-a / omega) is the uniform v, found by
    stepping from omega * -log1p(-v) one double at a time."""
    a = omega * -math.log1p(-v)
    for _ in range(64):
        c = float(-np.expm1(-np.array([a]) / omega)[0])
        if c == v:
            return a
        a = math.nextafter(a, math.inf if c < v else -math.inf)
    raise AssertionError(f"no corner maps to {v!r} at omega {omega!r}")


class TestUniformWindows:
    """Equal-gain groups of square corners only, counted on the float32 keys
    of min(u) with a window around each corner's c = 1 - exp(-a / omega)."""

    TRIALS = 2 * CHUNK_TRIALS + 123
    SIZES = [CHUNK_TRIALS, CHUNK_TRIALS, 123]
    SEED = 23

    def test_windows_are_counted_exactly(self, monkeypatch):
        """Corners whose c equals a drawn min(u), and the doubles next to
        them, reach the exact count; 0.0, 5e-324 (a / omega underflows),
        1e308 at omega 1e-10 (it overflows) and inf are counted as well.
        Three groups share one sort per block and take the log step only in
        blocks where a window holds a state."""
        assert 5e-324 / 3.0 == 0.0 and 1e308 / 1e-10 == math.inf
        u = FadingSampler(self.SEED, stream_index=0)._uniform_block(CHUNK_TRIALS, None)
        near, corners = [], []
        for k, omega in enumerate([1.0, 3.0]):
            a = _corner_at(float(u[700 + k].min()), omega)
            near += [a, math.nextafter(a, -math.inf), math.nextafter(a, math.inf)]
            corners += [(omega, c) for c in [*near[-3:], 0.0, 5e-324, 0.5, math.inf]]
        corners += [(1e-10, c) for c in [0.0, 1e308, math.inf]]
        expected = [_demand_rule_outages(omega, omega, 1.0, 1.0, a, a, None,
                                         self.SIZES, self.SEED) for omega, a in corners]
        trace = _trace_engine(monkeypatch)
        reports = simulate([], _stand_ins((omega, omega, a, a) for omega, a in corners),
                           self.TRIALS, self.SEED)
        assert [r.outage_rate for r in reports] == [k / self.TRIALS for k in expected]
        assert set(near) <= {a for _, a in trace["exact"]}
        assert trace["drawn"] == _block_plan(self.SIZES)
        assert trace["sorts"] == list(range(len(trace["drawn"])))
        assert trace["log"] == sorted({i for i, _ in trace["exact"]})
        for group in (expected[:7], expected[7:14]):
            at, below, above, zero, tiny, _, infinite = group
            assert below <= at <= above and zero == tiny == 0 and infinite == self.TRIALS
        assert expected[14:] == [0, self.TRIALS, self.TRIALS]

    def test_outage_only_sweep_skips_the_log_step(self, monkeypatch):
        """The outage-only default sweep at 100k trials, seed 1, takes the
        log step only in blocks where a window holds a state."""
        relays, baselines = _default_sweep()
        trace = _trace_engine(monkeypatch)
        simulate([], relays + baselines, 100_000, 1)
        assert trace["drawn"] == _block_plan([CHUNK_TRIALS, 100_000 - CHUNK_TRIALS])
        assert trace["sorts"] == list(range(len(trace["drawn"])))
        assert trace["log"] == sorted({i for i, _ in trace["exact"]})

    def test_window_in_a_later_block_is_counted_exactly(self, monkeypatch):
        """A corner whose c is the min(u) of trial 3 * 8192 + 700 of chunk
        0 holds a key in that chunk's fourth block, which takes the exact
        count, and the count is the relay's rule."""
        u = FadingSampler(self.SEED, stream_index=0)._uniform_block(CHUNK_TRIALS, None)
        corners = [_corner_at(float(u[3 * 8192 + 700].min()), 1.0), 0.5]
        expected = [_demand_rule_outages(1.0, 1.0, 1.0, 1.0, a, a, None,
                                         self.SIZES, self.SEED) for a in corners]
        trace = _trace_engine(monkeypatch)
        reports = simulate([], _stand_ins((1.0, 1.0, a, a) for a in corners),
                           self.TRIALS, self.SEED)
        assert [r.outage_rate for r in reports] == [k / self.TRIALS for k in expected]
        assert trace["drawn"][:4] == [8192] * 4
        assert trace["exact"] == [(3, corners[0])] and trace["log"] == [3]

    @pytest.mark.parametrize("seed", [0, 6])
    def test_fallback_seeds_match_the_powers_run(self, monkeypatch, seed):
        """At seeds where a window holds a state, the outage-only default
        sweep at 1M trials has the outage rates of the run with powers,
        whose relay policies take cycle_totals' relay pass."""
        relays, baselines = _default_sweep()
        full = simulate(relays, baselines, 1_000_000, seed)
        trace = _trace_engine(monkeypatch)
        quick = simulate([], relays + baselines, 1_000_000, seed)
        assert [r.outage_rate for r in quick] == [r.outage_rate for r in full]
        assert trace["exact"] and trace["log"] == sorted({i for i, _ in trace["exact"]})


@pytest.mark.parametrize("omega", [1.0, 0.37, 3.0])
def test_equal_gain_min_is_max_of_logs(omega):
    """-omega * max(log_x, log_y) of the sampler's logs, the min(x, y) of the
    gains an exact count in a uniform window builds, is, byte for byte over
    a full chunk, min(omega * x, omega * y) of its unit-mean draws."""
    sampler = FadingSampler(3, stream_index=1)
    log_x, log_y = sampler._log_step(sampler._uniform_block(CHUNK_TRIALS, None)).T
    x, y = FadingSampler(3, stream_index=1).sample_block(CHUNK_TRIALS)
    assert ((-omega) * np.maximum(log_x, log_y)).tobytes() \
        == np.minimum(omega * x, omega * y).tobytes()


@pytest.mark.parametrize("trials", [65_536, 16_960, 34_464, 8_193, 123])
def test_block_plan_sums_like_ndarray_sum(trials):
    """Each block's sum, added up in the block plan's tree, is ndarray.sum()
    of the whole chunk bit for bit, and no block exceeds 8,192 trials."""
    values = 1.0 / np.random.default_rng(trials).exponential(size=trials)
    blocks = []

    def block(m):
        start = sum(blocks)
        blocks.append(m)
        return values[start:start + m].sum()

    assert mc_engine._pairwise(trials, block) == values.sum()
    assert sum(blocks) == trials and max(blocks) <= 8192


def _traced_peak(*run) -> int:
    """Traced peak memory of `simulate(*run)`, in bytes."""
    tracemalloc.start()
    try:
        simulate(*run)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_default_sweep_allocates_no_new_buffer():
    """Traced peak of an outage-only `simulate` of the default sweep at 1M
    trials, bounded 5% above the 363,192 bytes it took: the run's one
    278,528-byte set of draw, gains and masks, plus its bookkeeping."""
    relays, baselines = _default_sweep()
    policies = relays + baselines
    simulate([], policies, 1_000, 20240915)    # imports numpy
    assert _traced_peak([], policies, 1_000_000, 20240915) <= 1.05 * 363_192


def test_validate_run_allocates_no_new_buffer():
    """Traced peak of a `simulate` with powers of the 24 validate policies
    and its four fixed-power baselines over three chunks, less the run's one
    278,528-byte buffer set, bounded 5% above the 429,844 bytes it took once
    chunks ran in blocks of 8,192 trials (5,121,950 when the engine could run
    chunks on threads)."""
    relays = [relay for _, _, relay in validation_policies()]
    baselines = [fpa_policy(SystemConfig(*links, 1.0, 1.0, 1.0), FpaConfig(*powers))
                 for _, links, powers in _FPA_VALIDATION_SETS]
    trials = 2 * CHUNK_TRIALS + 123
    simulate(relays, baselines, trials, 20240915)
    assert _traced_peak(relays, baselines, trials, 20240915) - 278_528 <= 1.05 * 429_844


def test_second_default_sweep_peaks_as_the_first():
    """`simulate` keeps nothing between runs: a second outage-only run of the
    default sweep at 1M trials takes the first's traced peak within 5%."""
    relays, baselines = _default_sweep()
    run = ([], relays + baselines, 1_000_000, 20240915)
    simulate([], run[1], 1_000, 20240915)      # imports numpy
    first = _traced_peak(*run)
    assert abs(_traced_peak(*run) - first) <= 0.05 * first


def test_concurrent_runs_use_their_own_buffers(monkeypatch):
    """Two threads whose runs overlap (each waits for the other inside its
    first chunk) draw into different buffer sets and get the reports of the
    same runs made one after the other: an outage-only run at seed 1 and a
    run with powers at seed 2."""
    relays, baselines = _default_sweep()
    trials = 2 * CHUNK_TRIALS + 123
    runs = [([], relays + baselines, trials, 1), (relays, baselines, trials, 2)]
    serial = [simulate(*run) for run in runs]
    barrier, buffers = threading.Barrier(2), {}
    uniform_block = FadingSampler._uniform_block

    def draw(self, n, out):
        if self.stream_index == 0:
            buffers[self.seed] = out.base
            barrier.wait(timeout=60)
        return uniform_block(self, n, out)

    monkeypatch.setattr(FadingSampler, "_uniform_block", draw)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(simulate, *run) for run in runs]
            assert [future.result(timeout=120) for future in futures] == serial
    finally:
        sys.setswitchinterval(interval)
    assert buffers[1] is not buffers[2]


class TestSimReport:
    def test_opa_powers_may_be_none(self):
        assert SimReport(10, 0.5, None, None, None).avg_power_relay is None


class TestOpaEstimates:
    def test_outage_floor_regime(self):
        """With the relay budget unbinding, the empirical outage sits within
        4 sigma of 1 - exp(-0.4)."""
        config = _unbounded_config()
        _, _, relay = policies_from_config(config)
        assert relay.rho is None
        report = run_opa(relay, trials=1_000_000, seed=31)
        expected = load_bench("oracles").quadrant_outage(relay.x0, relay.y0, 1.0, 1.0)
        sigma = math.sqrt(expected * (1.0 - expected) / report.trials)
        assert abs(report.outage_rate - expected) <= 4.0 * sigma

    def test_capped_outage_matches_closed_form(self):
        config = _capped_config()
        _, _, relay = policies_from_config(config)
        analytic = outage_opa(relay).p_out
        report = run_opa(relay, trials=N, seed=32)
        sigma = math.sqrt(analytic * (1.0 - analytic) / N)
        assert abs(report.outage_rate - analytic) <= 4.0 * sigma

    def test_end_node_budgets_respected(self):
        report = run_opa(_relay(_capped_config()), trials=1_000_000, seed=33)
        assert report.avg_power_s1 == pytest.approx(0.8, rel=0.01)
        assert report.avg_power_s2 == pytest.approx(1.2, rel=0.01)

    def test_relay_budget_binds_when_capped(self):
        config = _capped_config()
        relay = _relay(config)
        report = run_opa(relay, trials=1_000_000, seed=34)
        assert report.avg_power_relay <= config.p_avg_relay * 1.01
        assert report.avg_power_relay == pytest.approx(config.p_avg_relay, rel=0.01)

    def test_relay_budget_not_exceeded_when_unbounded(self):
        config = _unbounded_config()
        _, _, relay = policies_from_config(config)
        report = run_opa(relay, trials=1_000_000, seed=35)
        assert report.avg_power_relay <= config.p_avg_relay * 1.01
        assert report.avg_power_relay == pytest.approx(avg_relay_power(relay), rel=0.01)

    def test_outage_nonincreasing_in_budgets(self):
        """Raising any one budget cannot raise the outage rate (within one
        sigma of MC noise), probed on a coarse grid."""
        base = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.5, 0.5, 0.5)
        report = run_opa(_relay(base), trials=N, seed=37)
        slack = math.sqrt(report.outage_rate * (1.0 - report.outage_rate) / N)
        for bumped in (
            SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 1.0, 0.5, 0.5),
            SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.5, 1.0, 0.5),
            SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 0.5, 0.5, 1.0),
        ):
            better = run_opa(_relay(bumped), trials=N, seed=37)
            assert better.outage_rate <= report.outage_rate + slack

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            run_opa(_relay(_capped_config()), trials=0, seed=1)


class TestFpaEstimates:
    def test_unit_example(self):
        config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 1.0, 1.0, 1.0)
        fpa = FpaConfig(10.0, 10.0, 10.0)
        report = run_fpa(config, fpa, trials=1_000_000, seed=40)
        expected = outage_fpa(config, fpa)
        sigma = math.sqrt(expected * (1.0 - expected) / report.trials)
        assert abs(report.outage_rate - expected) <= 4.0 * sigma

    def test_report_is_the_outage_only_policy_report(self):
        """A baseline's report is the outage-only report of its relay
        policy, whose powers are None."""
        config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 1.0, 1.0, 1.0)
        fpa = FpaConfig(3.0, 5.0, 7.0)
        report = run_fpa(config, fpa, trials=10_000, seed=41)
        assert report == simulate([], [fpa_policy(config, fpa)], 10_000, 41)[0]
        assert (report.avg_power_s1, report.avg_power_s2, report.avg_power_relay) \
            == (None, None, None)

    def test_huge_relay_power_leaves_uplink_limit(self):
        config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 1.0, 1.0, 1.0)
        fpa = FpaConfig(10.0, 10.0, 1e6)
        report = run_fpa(config, fpa, trials=N, seed=42)
        expected = -math.expm1(-(0.1 + 0.1))
        sigma = math.sqrt(expected * (1.0 - expected) / N)
        assert abs(report.outage_rate - expected) <= 4.0 * sigma

    def test_rejects_bad_trials(self):
        config = SystemConfig(1 / 3, 1 / 3, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            run_fpa(config, FpaConfig(1.0, 1.0, 1.0), trials=-5, seed=1)
