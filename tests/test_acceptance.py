"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see every verdict line;
without -s pytest still fails loudly on any violated criterion.
"""

import math
import time

import numpy as np

from aoiq import (Constant, Sinusoid, PiecewiseConstant, Exponential,
                  Deterministic, Uniform, Gamma, Erlang, SystemConfig,
                  SolverSettings, solve_idle_prob, aoi_cdf_tv,
                  aoi_cdf_negligible, StationaryModel, aoi_cdf_stationary,
                  closed_form_mm11, closed_form_md11,
                  closed_form_mm11_preemptive, check_dominance,
                  SimRequest, empirical_cdf,
                  ConstraintSchedule, OptimizerSettings, optimize_rates,
                  benchmark_constant_rate, evaluate_plan)


def verdict(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_stationary_exponential_matches_closed_form():
    model = StationaryModel(0.8, Exponential(1.2), 0.0)
    xs = np.linspace(0.0, 10.0, 100)
    start = time.perf_counter()
    got = np.array([aoi_cdf_stationary(model, x) for x in xs])
    elapsed = time.perf_counter() - start
    want = np.array([closed_form_mm11(0.8, 1.2, x) for x in xs])
    err = float(np.max(np.abs(got - want)))
    ok = err <= 1e-8 and elapsed < 1.0
    verdict(1, ok, f"exponential-service stationary CDF, no preemption: "
                   f"max err {err:.3e} (tol 1e-8) in {elapsed:.3f}s (limit 1s)")


def test_criterion_02_stationary_deterministic_matches_closed_form():
    lam, mu = 0.8, 1.2
    model = StationaryModel(lam, Deterministic(1.0 / mu), 0.0)
    seams = (1.0 / mu, 2.0 / mu)
    xs = np.concatenate([np.linspace(0.0, 10.0, 100),
                         [s + d for s in seams for d in (-1e-9, 0.0, 1e-9)]])
    got = np.array([aoi_cdf_stationary(model, x) for x in xs])
    want = np.array([closed_form_md11(lam, mu, x) for x in xs])
    err = float(np.max(np.abs(got - want)))
    zero_exact = all(aoi_cdf_stationary(model, x) == 0.0
                     for x in np.linspace(0.0, 1.0 / mu - 1e-9, 25))
    jump = max(abs(aoi_cdf_stationary(model, s + 1e-9)
                   - aoi_cdf_stationary(model, s - 1e-9)) for s in seams)
    ok = err <= 1e-8 and zero_exact and jump <= 1e-8
    verdict(2, ok, f"deterministic-service stationary CDF, no preemption: "
                   f"max err {err:.3e} (tol 1e-8), seam jump {jump:.3e}, "
                   f"zero region exact={zero_exact}")


def test_criterion_03_inversion_matches_full_preemption_closed_form():
    worst = 0.0
    for lam, mu in ((2.0, 1.0), (0.8, 1.2), (3.5, 1.2)):
        model = StationaryModel(lam, Exponential(mu), 1.0)
        for x in np.linspace(0.1, 10.0, 34):
            got = aoi_cdf_stationary(model, x)
            want = closed_form_mm11_preemptive(lam, mu, x)
            worst = max(worst, abs(got - want))
    ok = worst <= 1e-5
    verdict(3, ok, f"transform inversion vs full-preemption closed form: "
                   f"max err {worst:.3e} (tol 1e-5)")


def test_criterion_04_preemption_never_hurts():
    rng = np.random.default_rng(4)
    xs = np.linspace(0.05, 12.0, 200)
    pairs = []
    while len(pairs) < 5:
        lam, mu = rng.uniform(0.3, 4.0, 2)
        if abs(lam - mu) > 1e-3:
            pairs.append((lam, mu))
    bad = [p for p in pairs if not check_dominance(*p, xs)]
    ok = not bad
    verdict(4, ok, f"preemptive CDF >= non-preemptive CDF at 200 points x 5 "
                   f"random rate pairs: {len(bad)} violations")


def test_criterion_05_finite_time_reaches_stationary():
    cfg = SystemConfig(Constant(2.0), Erlang(5, 1 / 6), 0.5)
    model = StationaryModel(2.0, Erlang(5, 1 / 6), 0.5)
    start = time.perf_counter()
    settings = SolverSettings(horizon=50.0)
    idle = solve_idle_prob(cfg, settings)
    diffs = [abs(aoi_cdf_tv(cfg, 50.0, x, settings=settings, idle=idle)
                 - aoi_cdf_stationary(model, x))
             for x in (0.5, 1.0, 2.5, 4.0)]
    elapsed = time.perf_counter() - start
    err = max(diffs)
    ok = err <= 1e-3 and elapsed < 60.0
    verdict(5, ok, f"finite-time solver at t=50 vs stationary law: "
                   f"max diff {err:.3e} (tol 1e-3) in {elapsed:.1f}s (limit 60s)")


def test_criterion_06_simulation_cross_validation():
    cfg = SystemConfig(Sinusoid(1.7, 1.0, 1.8), Erlang(5, 1 / 6), 0.6)
    xs = np.linspace(0.5, 10.0, 20)
    settings = SolverSettings(horizon=10.0)
    idle = solve_idle_prob(cfg, settings)
    analytic = np.array([aoi_cdf_tv(cfg, 10.0, x, settings=settings, idle=idle)
                         for x in xs])
    emp = empirical_cdf(SimRequest(cfg, 10.0, 100_000, seed=20260815), xs)
    err = float(np.max(np.abs(emp - analytic)))
    # system age bounds the AoI: at t=3 the CDF closes exactly at x=3
    jump_analytic = aoi_cdf_tv(cfg, 3.0, 3.0, settings=SolverSettings(horizon=3.0))
    jump_emp = empirical_cdf(SimRequest(cfg, 3.0, 2_000, seed=7), [3.0])[0]
    ok = err <= 0.01 and jump_analytic == 1.0 and jump_emp == 1.0
    verdict(6, ok, f"empirical vs solver at 20 thresholds, 1e5 replications: "
                   f"max diff {err:.3e} (tol 0.01); "
                   f"P(age(3)<=3): solver {jump_analytic}, empirical {jump_emp}")


def test_criterion_07_near_zero_service_limit():
    cfg = SystemConfig(Constant(1.0), Uniform(0.0, 2e-3), 0.0)
    xs = np.array([0.5, 1.0, 2.0, 4.0])
    want = np.array([-math.expm1(-x) for x in xs])
    emp = empirical_cdf(SimRequest(cfg, 10.0, 100_000, seed=11), xs)
    sim_err = float(np.max(np.abs(emp - want)))
    settings = SolverSettings(horizon=10.0)
    idle = solve_idle_prob(cfg, settings)
    tv_err = max(abs(aoi_cdf_tv(cfg, 10.0, float(x), settings=settings, idle=idle)
                     - w) for x, w in zip(xs, want))
    ok = sim_err <= 0.01 and tv_err <= 5e-3
    verdict(7, ok, f"instantaneous-processing law 1-exp(-x): simulator off by "
                   f"{sim_err:.3e} (tol 0.01), solver off by {tv_err:.3e} (tol 5e-3)")


def test_criterion_08_cdf_peak_lags_rate_peak():
    cfg = SystemConfig(Sinusoid(1.8, 1.0, 0.8), Exponential(1.5), 0.2)
    ts = np.round(np.arange(6.0, 14.0 + 1e-9, 0.1), 10)
    settings = SolverSettings(horizon=float(ts[-1]))
    idle = solve_idle_prob(cfg, settings)
    phis = np.array([aoi_cdf_tv(cfg, float(t), 2.5, settings=settings, idle=idle)
                     for t in ts])
    lam = 1.8 + np.sin(0.8 * ts)
    t_phi = float(ts[np.argmax(phis)])
    t_lam = float(ts[np.argmax(lam)])
    ok = t_phi > t_lam
    verdict(8, ok, f"best-freshness instant lags the rate peak: "
                   f"argmax Phi(t, 2.5) = {t_phi} > argmax lambda = {t_lam}")


def test_criterion_09_optimizer_end_to_end():
    schedule = ConstraintSchedule(
        times=(0.0, 8.0, 16.0, 24.0, 32.0, 40.0, 48.0, 56.0),
        thresholds=(7.5, 6.5, 4.5, 3.0, 4.5, 6.5, 7.5),
        probabilities=(0.9,) * 7)
    service = Uniform(0.0, 4 / 3)
    start = time.perf_counter()
    result = optimize_rates(service, schedule)
    bench = benchmark_constant_rate(service, schedule)
    elapsed = time.perf_counter() - start
    audit_ok = False
    cheaper = False
    if result.feasible and bench.feasible:
        audit = evaluate_plan(result.plan, schedule, service, result.theta,
                              OptimizerSettings())
        audit_ok = all(ok for *_, ok in audit)
        cheaper = result.plan.cost < bench.plan.cost
    ok = result.feasible and bench.feasible and audit_ok and cheaper \
        and elapsed < 600.0
    costs = (f"cost {result.plan.cost:.4f} vs benchmark {bench.plan.cost:.4f}"
             if result.feasible and bench.feasible else "infeasible")
    verdict(9, ok, f"rate plan feasible under independent audit and cheaper "
                   f"than the single-rate benchmark: {costs}, "
                   f"{elapsed:.1f}s (limit 600s)")


def test_criterion_10_idle_solver_converges_everywhere():
    cases = []
    for svc in (Exponential(1.2), Uniform(0.0, 5 / 3), Gamma(1.2, 1 / 1.44),
                Erlang(5, 1 / 6)):
        cases.append((SystemConfig(Sinusoid(1.7, 1.0, 1.8), svc, 0.6), 10.0))
    for rate in (Sinusoid(1.8, 1.0, 0.8), Constant(1.8)):
        cases.append((SystemConfig(rate, Exponential(1.5), 0.2), 20.0))
    square = PiecewiseConstant((0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0),
                               (1.5, 0.5, 1.5, 0.5, 1.5, 0.5, 1.5))
    for rate in (Sinusoid(1.0, 1.0, 0.8), square):
        for svc in (Exponential(1.5), Uniform(0.0, 4 / 3)):
            for theta in (0.1, 0.9):
                cases.append((SystemConfig(rate, svc, theta), 20.0))
    cases.append((SystemConfig(Constant(2.0), Erlang(5, 1 / 6), 0.5), 50.0))

    worst_resid = 0.0
    in_range = True
    starts_at_one = True
    for cfg, horizon in cases:
        idle = solve_idle_prob(cfg, SolverSettings(horizon=horizon))
        worst_resid = max(worst_resid, idle.residual)
        vals = idle.grid.values
        in_range &= bool(np.all(vals >= 0.0) and np.all(vals <= 1.0))
        starts_at_one &= vals[0] == 1.0
    ok = worst_resid <= 1e-8 and in_range and starts_at_one
    verdict(10, ok, f"idle-curve fixed point over {len(cases)} parameter sets: "
                    f"worst residual {worst_resid:.3e} (tol 1e-8), "
                    f"M in [0,1]={in_range}, M(0)=1 exact={starts_at_one}")


def test_soft_check_numeric_vs_simulation_speed():
    # informational only: no assertion on wall-clock ratios
    cfg = SystemConfig(Sinusoid(1.7, 1.0, 1.8), Erlang(5, 1 / 6), 0.6)
    start = time.perf_counter()
    phi = aoi_cdf_tv(cfg, 10.0, 3.2)
    t_solve = time.perf_counter() - start
    start = time.perf_counter()
    emp = empirical_cdf(SimRequest(cfg, 10.0, 100_000, seed=1), [3.2])[0]
    t_sim = time.perf_counter() - start
    faster = t_solve < t_sim
    print(f"[INFO] soft check: one solver query {t_solve:.2f}s vs 1e5-rep "
          f"simulation {t_sim:.2f}s (solver faster: {faster}); "
          f"values {phi:.5f} vs {emp:.5f}")
