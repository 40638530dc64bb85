import math

import numpy as np
import pytest

from aoiq import (Constant, Sinusoid, PiecewiseConstant, Uniform, Exponential,
                  Erlang, Deterministic, SystemConfig, SimRequest, simulate_aoi_at,
                  empirical_cdf, SolverSettings, aoi_cdf_tv, aoi_cdf_negligible,
                  closed_form_mm11, closed_form_mm11_preemptive, ConfigError)
from aoiq import simulator


def dkw_band(n, alpha=0.01):
    # uniform confidence band for an empirical CDF on n iid samples
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def test_request_validation():
    cfg = SystemConfig(Constant(1.0), Exponential(1.0), 0.5)
    with pytest.raises(ConfigError):
        SimRequest(cfg, -1.0, 10, 0)
    with pytest.raises(ConfigError):
        SimRequest(cfg, 1.0, 0, 0)


@pytest.mark.parametrize("replications, seed", [
    (True, 3), (10.0, 3), (10, 3.7), (10, -1), (10, False)])
def test_request_needs_integer_counts(replications, seed):
    cfg = SystemConfig(Constant(1.0), Exponential(1.0), 0.5)
    with pytest.raises(ConfigError):
        SimRequest(cfg, 1.0, replications, seed)
    SimRequest(cfg, 1.0, np.int64(10), np.int64(3))


def test_zero_rate_age_equals_clock():
    # no arrivals ever: the virtual time-0 update is all there is
    cfg = SystemConfig(Constant(0.0), Exponential(1.0), 0.5)
    rng = np.random.default_rng(0)
    samples, counts = simulate_aoi_at(cfg, 5.0, rng, 3)
    np.testing.assert_array_equal(samples, [5.0, 5.0, 5.0])
    assert counts["completions"] == 0


def test_counters_without_preemption():
    cfg = SystemConfig(Constant(3.0), Exponential(0.4), 0.0)
    rng = np.random.default_rng(42)
    _, counters = simulate_aoi_at(cfg, 20.0, rng, 200)
    assert counters["busy_arrivals"] > 0
    assert counters["discards"] == counters["busy_arrivals"]
    assert counters["preemptions"] == 0


def test_counters_full_preemption():
    cfg = SystemConfig(Constant(3.0), Exponential(0.4), 1.0)
    rng = np.random.default_rng(42)
    _, counters = simulate_aoi_at(cfg, 20.0, rng, 200)
    assert counters["busy_arrivals"] > 0
    assert counters["preemptions"] == counters["busy_arrivals"]
    assert counters["discards"] == 0


def test_partial_preemption_splits_busy_arrivals():
    cfg = SystemConfig(Constant(3.0), Exponential(0.4), 0.6)
    rng = np.random.default_rng(7)
    _, counters = simulate_aoi_at(cfg, 20.0, rng, 400)
    total = counters["preemptions"] + counters["discards"]
    assert total == counters["busy_arrivals"]
    frac = counters["preemptions"] / total
    assert abs(frac - 0.6) < 0.05


@pytest.mark.parametrize("theta", [0.0, 0.6, 1.0])
def test_counter_means_match_the_exponential_busy_law(theta):
    # with exponential service the server is busy at s with probability
    # lam/(lam+mu) (1 - exp(-(lam+mu) s)) whatever theta is, so over [0, t]
    # the mean completions are mu lam/(lam+mu) tau and the mean busy
    # arrivals lam^2/(lam+mu) tau, tau = t - (1 - exp(-(lam+mu) t))/(lam+mu)
    lam, mu, t = 3.0, 0.4, 20.0
    cfg = SystemConfig(Constant(lam), Exponential(mu), theta)
    batches, reps = 40, 500
    counts = [simulate_aoi_at(cfg, t, np.random.default_rng([11, i]), reps)[1]
              for i in range(batches)]
    tau = t - (1.0 - math.exp(-(lam + mu) * t)) / (lam + mu)
    for key, want in (("completions", lam * mu / (lam + mu) * tau),
                      ("busy_arrivals", lam * lam / (lam + mu) * tau)):
        means = np.array([c[key] for c in counts]) / reps
        se = means.std(ddof=1) / math.sqrt(batches)
        assert abs(means.mean() - want) < 5.0 * se, (key, means.mean(), want)
    busy = sum(c["busy_arrivals"] for c in counts)
    pre = sum(c["preemptions"] for c in counts)
    assert abs(pre / busy - theta) <= 5.0 * math.sqrt(theta * (1.0 - theta) / busy)


def test_horizon_zero_gives_zero_age_and_no_events():
    cfg = SystemConfig(Constant(2.0), Exponential(1.0), 0.5)
    samples, counts = simulate_aoi_at(cfg, 0.0, np.random.default_rng(0), 5)
    np.testing.assert_array_equal(samples, np.zeros(5))
    assert set(counts.values()) == {0}
    np.testing.assert_array_equal(
        empirical_cdf(SimRequest(cfg, 0.0, 5, 0), [0.0, 1.0]), [1.0, 1.0])


def test_zero_rate_piece_at_the_start():
    # no arrival before t = 1, so Delta(0.5) = 0.5 in every replication
    cfg = SystemConfig(PiecewiseConstant((0.0, 1.0, 2.0), (0.0, 2.0)),
                       Exponential(1.0), 0.5)
    vals = empirical_cdf(SimRequest(cfg, 0.5, 50, 4), [0.0, 1.0])
    np.testing.assert_array_equal(vals, [0.0, 1.0])


def test_single_replication():
    cfg = SystemConfig(Sinusoid(1.7, 1.0, 1.8), Erlang(5, 1 / 6), 0.6)
    samples, counts = simulate_aoi_at(cfg, 10.0, np.random.default_rng(3), 1)
    assert samples.shape == (1,) and 0.0 <= samples[0] <= 10.0
    assert counts["busy_arrivals"] == counts["preemptions"] + counts["discards"]
    vals = empirical_cdf(SimRequest(cfg, 10.0, 1, 3), [0.0, 10.0])
    np.testing.assert_array_equal(vals, [0.0, 1.0])


def test_last_block_may_hold_one_row(monkeypatch):
    # mass 6 gives 1024 // (6 + 10 sqrt(6) + 10) = 25 rows per block, so 51
    # replications run as blocks of 25, 25 and 1
    monkeypatch.setattr(simulator, "BLOCK_CANDIDATES", 2 ** 10)
    cfg = SystemConfig(Constant(1.0), Exponential(1.2), 0.5)
    req = SimRequest(cfg, 6.0, 51, seed=9)
    xs = np.linspace(0.0, 6.0, 13)
    samples = np.sort(np.concatenate([
        simulate_aoi_at(cfg, 6.0, np.random.default_rng([9, b]), n)[0]
        for b, n in enumerate((25, 25, 1))]))
    want = np.searchsorted(samples, xs, side="right") / 51.0
    np.testing.assert_array_equal(empirical_cdf(req, xs), want)


@pytest.mark.parametrize("theta, closed_form", [
    (0.0, closed_form_mm11), (1.0, closed_form_mm11_preemptive)])
def test_long_horizon_matches_the_stationary_closed_form(theta, closed_form):
    # at t = 60 the transient of lam + mu = 2.2 is gone (e^-132)
    lam, mu, n = 1.0, 1.2, 20_000
    cfg = SystemConfig(Constant(lam), Exponential(mu), theta)
    xs = np.linspace(0.5, 8.0, 8)
    emp = empirical_cdf(SimRequest(cfg, 60.0, n, seed=60), xs)
    want = np.array([closed_form(lam, mu, x) for x in xs])
    assert np.max(np.abs(emp - want)) < dkw_band(n)


def test_padding_never_completes_a_service():
    # only a real arrival column may complete a service: the AoI under
    # Deterministic(1) service is at least min(1, t)
    cfg = SystemConfig(Constant(2.0), Deterministic(1.0), 0.5)
    samples, _ = simulate_aoi_at(cfg, 5.0, np.random.default_rng(0), 2000)
    assert np.all(samples >= 1.0)


def test_blocks_are_reproducible_and_unbiased(monkeypatch):
    # a small candidate budget splits 2000 replications into many blocks
    monkeypatch.setattr(simulator, "BLOCK_CANDIDATES", 2 ** 14)
    blocks = []

    def recorded(config, t, rng, reps):
        samples, counts = simulate_aoi_at(config, t, rng, reps)
        blocks.append((reps, counts))
        return samples, counts

    monkeypatch.setattr(simulator, "simulate_aoi_at", recorded)
    cfg = SystemConfig(Sinusoid(1.7, 1.0, 1.8), Erlang(5, 1 / 6), 0.6)
    req = SimRequest(cfg, 12.0, 2000, seed=8)
    xs = np.linspace(0.5, 6.0, 12)
    a = empirical_cdf(req, xs)
    assert len(blocks) >= 3 and sum(reps for reps, _ in blocks) == 2000
    np.testing.assert_array_equal(a, empirical_cdf(req, xs))
    settings = SolverSettings(horizon=12.0)
    want = np.array([aoi_cdf_tv(cfg, 12.0, x, settings=settings) for x in xs])
    assert np.max(np.abs(a - want)) < dkw_band(2000)
    total = {key: sum(c[key] for _, c in blocks) for key in blocks[0][1]}
    assert total["busy_arrivals"] > 0
    assert total["busy_arrivals"] == total["preemptions"] + total["discards"]


def test_replications_are_deterministic():
    cfg = SystemConfig(Sinusoid(1.7, 1.0, 1.8), Erlang(5, 1 / 6), 0.6)
    req = SimRequest(cfg, 10.0, 500, seed=123)
    xs = np.linspace(0.5, 10.0, 9)
    a = empirical_cdf(req, xs)
    b = empirical_cdf(req, xs)
    np.testing.assert_array_equal(a, b)


def test_seed_changes_the_draw():
    cfg = SystemConfig(Constant(1.5), Exponential(1.0), 0.3)
    xs = np.array([1.0, 2.0])
    a = empirical_cdf(SimRequest(cfg, 8.0, 300, seed=1), xs)
    b = empirical_cdf(SimRequest(cfg, 8.0, 300, seed=2), xs)
    assert np.any(a != b)


def test_age_capped_by_clock():
    cfg = SystemConfig(Constant(0.3), Exponential(0.2), 0.5)
    req = SimRequest(cfg, 4.0, 500, seed=5)
    vals = empirical_cdf(req, np.array([4.0, 10.0]))
    np.testing.assert_array_equal(vals, [1.0, 1.0])


def test_near_instant_service_reproduces_poisson_age():
    # with service ~ Uniform(0, 2e-3) the AoI law collapses to the
    # last-arrival law 1 - exp(-lam x)
    cfg = SystemConfig(Constant(1.0), Uniform(0.0, 2e-3), 0.0)
    n = 40_000
    req = SimRequest(cfg, 10.0, n, seed=99)
    xs = np.array([0.5, 1.0, 2.0, 4.0])
    emp = empirical_cdf(req, xs)
    want = np.array([aoi_cdf_negligible(cfg.rate, 10.0, x) for x in xs])
    assert np.max(np.abs(emp - want)) < dkw_band(n)


def test_empirical_law_matches_solver():
    cfg = SystemConfig(Sinusoid(1.7, 1.0, 1.8), Erlang(5, 1 / 6), 0.6)
    n = 40_000
    req = SimRequest(cfg, 10.0, n, seed=2024)
    xs = np.linspace(0.8, 9.0, 8)
    emp = empirical_cdf(req, xs)
    settings = SolverSettings(horizon=10.0)
    want = np.array([aoi_cdf_tv(cfg, 10.0, x, settings=settings) for x in xs])
    assert np.max(np.abs(emp - want)) < dkw_band(n)


def test_empirical_cdf_monotone():
    cfg = SystemConfig(Constant(2.0), Exponential(1.0), 0.5)
    req = SimRequest(cfg, 6.0, 2_000, seed=3)
    xs = np.linspace(0.0, 6.0, 25)
    emp = empirical_cdf(req, xs)
    assert np.all(np.diff(emp) >= 0.0)
    assert emp[0] >= 0.0 and emp[-1] <= 1.0
