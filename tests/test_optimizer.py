import math

import numpy as np
import pytest

from aoiq import (Exponential, Deterministic, Uniform, Gamma, Erlang,
                  ConstraintSchedule, PiecewiseRatePlan, OptimizerSettings,
                  choose_theta, split_windows, stationary_rate_search,
                  evaluate_plan, optimize_rates, benchmark_constant_rate,
                  Constant, PiecewiseConstant, SolverSettings, ConfigError)
from aoiq import optimizer as opt_mod

SCHED = ConstraintSchedule(times=(0.0, 14.0, 30.0, 56.0),
                           thresholds=(1.0, 0.8, 1.0),
                           probabilities=(0.9, 0.9, 0.9))


# ---------------------------------------------------------------------------
# schedule / plan containers
# ---------------------------------------------------------------------------

def test_schedule_validation():
    with pytest.raises(ConfigError):
        ConstraintSchedule((0.0, 5.0), (1.0, 2.0), (0.9,))       # length mismatch
    with pytest.raises(ConfigError):
        ConstraintSchedule((0.0, 5.0, 4.0), (1.0, 1.0), (0.9, 0.9))
    with pytest.raises(ConfigError):
        ConstraintSchedule((0.0, 5.0), (-1.0,), (0.9,))
    with pytest.raises(ConfigError):
        ConstraintSchedule((0.0, 5.0), (1.0,), (1.0,))           # p must be < 1
    with pytest.raises(ConfigError):
        ConstraintSchedule((0.0, 2.0), (3.0,), (0.9,))           # x >= interval width


def test_schedule_interval_lookup():
    assert SCHED.n == 3
    assert SCHED.interval_of(0.0) == 0
    assert SCHED.interval_of(13.9) == 0
    assert SCHED.interval_of(14.0) == 1
    assert SCHED.interval_of(55.0) == 2
    assert SCHED.interval_of(56.0) == 2


def test_plan_cost_is_rate_time_area():
    plan = PiecewiseRatePlan((0.0, 10.0, 30.0), (2.0, 0.5))
    assert plan.cost == pytest.approx(2.0 * 10.0 + 0.5 * 20.0, abs=1e-12)


def test_plan_is_a_step_profile_that_is_zero_before_it_starts():
    plan = PiecewiseRatePlan((5.0, 10.0, 30.0), (2.0, 0.5))
    assert isinstance(plan, PiecewiseConstant)
    assert plan.rate(0.0) == plan.rate(math.nextafter(5.0, 0.0)) == 0.0
    assert plan.rate([5.0, 29.0, 40.0]).tolist() == [2.0, 0.5, 0.5]
    assert plan.integral(0.0, 30.0) == plan.cost == 20.0


def test_plan_validation():
    with pytest.raises(ConfigError):
        PiecewiseRatePlan((0.0, 10.0), (1.0, 2.0))
    with pytest.raises(ConfigError):
        PiecewiseRatePlan((0.0, 10.0, 5.0), (1.0, 2.0))


# ---------------------------------------------------------------------------
# policy and window split
# ---------------------------------------------------------------------------

def test_choose_theta_policy_table():
    assert choose_theta(Exponential(1.0)) == 1.0
    assert choose_theta(Deterministic(1.0)) == 0.0
    assert choose_theta(Uniform(0.0, 2.0)) == 0.0
    assert choose_theta(Erlang(5, 1 / 6)) == 0.0
    assert choose_theta(Gamma(2.0, 1.0)) == 0.0
    assert choose_theta(Gamma(0.5, 1.0)) == 1.0
    # shape 1 is the exponential law, memoryless
    assert choose_theta(Gamma(1.0, 2.0)) == 1.0
    assert choose_theta(Erlang(1, 2.0)) == 1.0


def test_choose_theta_rejects_unknown_service():
    class Weird:
        kind = "weird"
    with pytest.raises(ConfigError):
        choose_theta(Weird())


def test_split_windows_layout():
    pts = split_windows(SCHED)
    assert pts == (0.0, 14.0 - 0.8, 14.0, 30.0 - 1.0, 30.0, 56.0)
    assert len(pts) == 2 * SCHED.n


def test_split_windows_single_interval():
    one = ConstraintSchedule((0.0, 10.0), (1.0,), (0.9,))
    assert split_windows(one) == (0.0, 10.0)


def test_split_windows_needs_cruising_room():
    # the second threshold reaches back past the start of interval 0
    tight = ConstraintSchedule((0.0, 1.0, 10.0), (0.5, 5.0), (0.5, 0.5))
    with pytest.raises(ConfigError):
        split_windows(tight)


# ---------------------------------------------------------------------------
# stationary search
# ---------------------------------------------------------------------------

def explicit_settings(grid):
    return OptimizerSettings(rate_grid=tuple(grid))


def test_rate_search_picks_smallest_feasible():
    # full preemption, exponential service: Phi(lam=2, x=ln 2) = 1/4 exactly,
    # while lam=1.5 only reaches ~0.207, so 2 is the smallest grid winner
    settings = explicit_settings((0.5, 1.0, 1.5, 2.0, 3.0))
    lam = stationary_rate_search(Exponential(1.0), 1.0,
                                 [(math.log(2.0), 0.249)], settings)
    assert lam == 2.0


def test_rate_search_monotone_in_target():
    settings = explicit_settings((0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0))
    picks = []
    for p in (0.2, 0.5, 0.8, 0.95):
        lam = stationary_rate_search(Exponential(1.0), 1.0, [(1.0, p)], settings)
        picks.append(lam if lam is not None else math.inf)
    assert picks == sorted(picks)


def test_rate_search_infeasible_returns_none():
    settings = explicit_settings((0.5, 1.0))
    assert stationary_rate_search(Exponential(1.0), 1.0, [(0.05, 0.99)], settings) is None


def test_rate_search_target_at_one_returns_none():
    settings = explicit_settings((0.5, 1.0))
    assert stationary_rate_search(Exponential(1.0), 1.0, [(1.0, 1.0)], settings) is None


def test_rate_search_requires_constraints():
    with pytest.raises(ConfigError):
        stationary_rate_search(Exponential(1.0), 1.0, [], explicit_settings((1.0,)))


def test_rate_search_shares_cache():
    settings = explicit_settings((0.5, 1.0, 2.0))
    cache = {}
    stationary_rate_search(Exponential(1.0), 1.0, [(1.0, 0.5)], settings, _cache=cache)
    n_first = len(cache)
    stationary_rate_search(Exponential(1.0), 1.0, [(1.0, 0.6)], settings, _cache=cache)
    assert len(cache) == max(n_first, 3)  # no re-evaluation of cached (lam, x)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_evaluate_plan_rows_and_skips():
    sched = ConstraintSchedule((0.0, 4.0, 8.0), (1.0, 2.0), (0.5, 0.5))
    plan = PiecewiseRatePlan(split_windows(sched), (2.0, 2.0, 2.0))
    rows = evaluate_plan(plan, sched, Exponential(1.0), 1.0, OptimizerSettings())
    etas = [r[0] for r in rows]
    # eta=0.5 and eta=1.0 fall inside the empty-start region (eta <= x_0)
    assert min(etas) == 1.5
    # past the start nothing else is skipped: interval 1 runs 4.0..8.0
    assert [eta for eta, k, *_ in rows if k == 1] == [4.0 + 0.5 * j for j in range(9)]
    assert etas == sorted(etas)
    for eta, k, phi, req, ok in rows:
        assert 0.0 <= phi <= 1.0
        assert req == 0.5
        assert ok == (phi >= req)


def test_audit_solver_takes_the_schedule_horizon(monkeypatch):
    # the audit grid always spans [0, t_n], and grid_n divides t_n
    seen, solve = [], opt_mod.solve_idle_prob

    def recorded(config, settings):
        seen.append(settings)
        return solve(config, settings)

    monkeypatch.setattr(opt_mod, "solve_idle_prob", recorded)
    sched = ConstraintSchedule((0.0, 4.0, 8.0), (1.0, 2.0), (0.5, 0.5))
    plan = PiecewiseRatePlan(split_windows(sched), (2.0, 2.0, 2.0))
    settings = OptimizerSettings(grid_n=1600)
    evaluate_plan(plan, sched, Exponential(1.0), 1.0, settings)
    assert seen == [SolverSettings(horizon=8.0, grid_n=1600)]


def test_audit_makes_one_scalar_query_per_node(monkeypatch):
    # the benchmark's tracer swaps optimizer.aoi_cdf_tv and reads t, x and
    # the idle curve of each call as scalars, by position or keyword
    calls, phi = [], opt_mod.aoi_cdf_tv

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return phi(*args, **kwargs)

    monkeypatch.setattr(opt_mod, "aoi_cdf_tv", recorded)
    sched = ConstraintSchedule((0.0, 4.0, 8.0), (1.0, 2.0), (0.5, 0.5))
    plan = PiecewiseRatePlan(split_windows(sched), (2.0, 2.0, 2.0))
    settings = OptimizerSettings()
    rows = evaluate_plan(plan, sched, Exponential(1.0), 1.0, settings)
    nodes = opt_mod._eta_nodes(sched, settings.eta_spacing)
    assert len(calls) == len(rows) == len(nodes)
    for (args, kwargs), (eta, k) in zip(calls, nodes):
        t, x = args[1], args[2]
        assert type(t) is float and type(x) is float
        assert (t, x) == (eta, sched.thresholds[k])
        assert kwargs["idle"].horizon == 8.0


FIG8_SCHEDULE = ConstraintSchedule(
    times=(0.0, 8.0, 16.0, 24.0, 32.0, 40.0, 48.0, 56.0),
    thresholds=(7.5, 6.5, 4.5, 3.0, 4.5, 6.5, 7.5),
    probabilities=(0.9,) * 7)


def test_fig8_plan_is_pinned():
    # the design case of the paper: a change to the solvers that moves
    # this plan changes the reproduced figure
    res = optimize_rates(Uniform(0.0, 4 / 3), FIG8_SCHEDULE)
    grid = OptimizerSettings().rate_grid
    assert res.feasible and res.rounds == 1 and res.theta == 0.0
    assert res.plan.breakpoints == split_windows(FIG8_SCHEDULE)
    assert res.plan.rates == tuple(grid[i] for i in (
        19, 21, 21, 26, 26, 31, 31, 31, 26, 26, 21, 21, 19))
    assert res.plan.cost == pytest.approx(35.93873019, abs=1e-8)


def test_exponential_spellings_give_one_plan():
    # Gamma and Erlang of shape 1 are Exponential(1.2) written another way
    results = [optimize_rates(svc, FIG8_SCHEDULE) for svc in
               (Exponential(1.2), Gamma(1.0, 1 / 1.2), Erlang(1, 1 / 1.2))]
    for res in results:
        assert res.feasible and res.rounds == 1 and res.theta == 1.0
        assert res.plan == results[0].plan
    assert results[0].plan.cost == pytest.approx(39.17306393, abs=1e-8)


def test_single_interval_end_to_end():
    # p must sit below the saturation level 1 - e^{-mu x} ~ 0.632
    sched = ConstraintSchedule((0.0, 10.0), (1.0,), (0.5,))
    res = optimize_rates(Exponential(1.0), sched)
    assert res.feasible
    assert res.theta == 1.0
    assert res.plan.breakpoints == (0.0, 10.0)
    audit = evaluate_plan(res.plan, sched, Exponential(1.0), 1.0, OptimizerSettings())
    assert all(ok for *_, ok in audit)
    # one grid step cheaper must violate the audit (minimality on the grid)
    settings = OptimizerSettings()
    grid = list(settings.rate_grid)
    idx = grid.index(res.plan.rates[0])
    if idx > 0:
        cheaper = PiecewiseRatePlan(res.plan.breakpoints, (grid[idx - 1],))
        worse = evaluate_plan(cheaper, sched, Exponential(1.0), 1.0, settings)
        assert any(not ok for *_, ok in worse)


def test_benchmark_is_single_rate_and_no_cheaper():
    sched = ConstraintSchedule((0.0, 14.0, 30.0), (2.5, 2.0), (0.9, 0.9))
    bench = benchmark_constant_rate(Uniform(0.0, 4 / 3), sched)
    assert bench.feasible
    assert len(bench.plan.rates) == 1
    heur = optimize_rates(Uniform(0.0, 4 / 3), sched)
    assert heur.feasible
    assert heur.plan.cost <= bench.plan.cost + 1e-9


# ---------------------------------------------------------------------------
# escalation loop (deterministic stand-in audit: real triggers need
# borderline transients that are slow and seed-sensitive)
# ---------------------------------------------------------------------------

def patched_audit(fail_until):
    """Audit double: interval 1 fails while its target is below fail_until."""
    state = {"calls": 0}

    def fake_evaluate(plan, schedule, service, theta, settings):
        state["calls"] += 1
        rows = []
        for eta, k in opt_mod._eta_nodes(schedule, settings.eta_spacing):
            phi = fail_until if k != 1 else state["target"]
            req = schedule.probabilities[k]
            rows.append((eta, k, phi, req, phi >= req))
        return rows

    return fake_evaluate, state


def test_escalation_raises_targets_until_feasible(monkeypatch):
    sched = ConstraintSchedule((0.0, 10.0, 20.0, 30.0), (1.0, 1.0, 1.0),
                               (0.5, 0.5, 0.5))
    seen = []

    def fake_search(service, theta, active, settings, _cache=None):
        seen.append(tuple(p for _, p in active))
        return 1.0

    def fake_evaluate(plan, schedule, service, theta, settings):
        rows = []
        for eta, k in opt_mod._eta_nodes(schedule, settings.eta_spacing):
            # interval 1 keeps failing until its target was bumped twice
            phi = 1.0 if k != 1 else (0.4 if len(seen) < 3 else 1.0)
            req = schedule.probabilities[k]
            rows.append((eta, k, phi, req, phi >= req))
        return rows

    monkeypatch.setattr(opt_mod, "stationary_rate_search", fake_search)
    monkeypatch.setattr(opt_mod, "evaluate_plan", fake_evaluate)
    settings = OptimizerSettings(eps=0.01)
    # one window with every interval active: one search per round
    whole = ((0.0, 30.0), ((0, 1, 2),))
    res = opt_mod._refine(sched, Exponential(1.0), 1.0, settings, whole)
    assert res.feasible
    assert res.rounds == 3
    # each failing round bumped interval 1 once per violating eta node
    assert seen[0] == (0.5, 0.5, 0.5)
    assert seen[1][0] == 0.5 and seen[1][2] == 0.5
    assert seen[1][1] > 0.5
    assert seen[2][1] > seen[1][1]
    assert res.targets[1] == seen[2][1]


def test_escalation_exhausts_budget_with_violations(monkeypatch):
    sched = ConstraintSchedule((0.0, 10.0, 20.0), (1.0, 1.0), (0.5, 0.5))

    def fake_search(service, theta, active, settings, _cache=None):
        return 1.0

    def fake_evaluate(plan, schedule, service, theta, settings):
        rows = []
        for eta, k in opt_mod._eta_nodes(schedule, settings.eta_spacing):
            rows.append((eta, k, 0.3, schedule.probabilities[k], False))
        return rows

    monkeypatch.setattr(opt_mod, "stationary_rate_search", fake_search)
    monkeypatch.setattr(opt_mod, "evaluate_plan", fake_evaluate)
    settings = OptimizerSettings(eps=0.05, ite_max=4)
    res = opt_mod._refine(sched, Exponential(1.0), 1.0, settings,
                          opt_mod._windows(sched))
    assert not res.feasible
    assert res.rounds == 4
    assert res.plan is not None
    assert len(res.violations) > 0
    for eta, k, phi, req in res.violations:
        assert phi == 0.3 and req == 0.5
    # targets kept climbing but are capped at 1
    assert all(t <= 1.0 for t in res.targets)
    assert all(t > 0.5 for t in res.targets)


def test_escalation_infeasible_when_search_fails():
    # thresholds tiny and probability demanding: no grid rate can satisfy
    # the stationary pre-check, so the search reports infeasible directly
    sched = ConstraintSchedule((0.0, 10.0), (0.01,), (0.999,))
    settings = OptimizerSettings(rate_grid=(0.5, 1.0), ite_max=3)
    res = optimize_rates(Exponential(1.0), sched, settings=settings)
    assert not res.feasible
    assert res.plan is None
    assert res.violations == ()


def test_settings_validation():
    with pytest.raises(ConfigError):
        OptimizerSettings(rate_grid=())
    with pytest.raises(ConfigError):
        OptimizerSettings(eps=0.0)
    with pytest.raises(ConfigError):
        OptimizerSettings(ite_max=0)
    with pytest.raises(ConfigError):
        OptimizerSettings(eta_spacing=-0.5)
    for grid_n in ("500", 500.5, True, 1):
        with pytest.raises(ConfigError):
            OptimizerSettings(grid_n=grid_n)
