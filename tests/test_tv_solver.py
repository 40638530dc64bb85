import math

import numpy as np
import pytest

from aoiq import _kernels, tv_solver
from aoiq import (Constant, Sinusoid, PiecewiseConstant, Exponential,
                  Deterministic, Uniform, Gamma, Erlang, SystemConfig,
                  SolverSettings, solve_idle_prob, aoi_cdf_tv,
                  aoi_cdf_negligible, mean_aoi_negligible,
                  StationaryModel, m_infinity, closed_form_mm11,
                  closed_form_md11, closed_form_mm11_preemptive,
                  aoi_cdf_stationary, ConfigError, ConvergenceError,
                  ConstraintSchedule, OptimizerSettings, PiecewiseRatePlan,
                  split_windows)

MM_CFG = SystemConfig(Constant(0.8), Exponential(1.2), 0.0)


def idle_for(config, horizon, **kw):
    return solve_idle_prob(config, SolverSettings(horizon=horizon, **kw))


# ---------------------------------------------------------------------------
# settings / validation
# ---------------------------------------------------------------------------

def test_settings_validation():
    with pytest.raises(ConfigError):
        SolverSettings(horizon=-1.0)
    with pytest.raises(ConfigError):
        SolverSettings(grid_n=1)
    for grid_n in ("500", 500.5, 500.0, True):
        with pytest.raises(ConfigError):
            SolverSettings(grid_n=grid_n)


def test_idle_requires_horizon():
    with pytest.raises(ConfigError):
        solve_idle_prob(MM_CFG, SolverSettings())


STEADY_XS = (0.5, 1.0, 1.5, 2.0, 3.0, 5.0)


def _steady_error(service, theta, want):
    """Max |Phi(30, x) - want(x)| at lambda = 0.8 on the default grid, where
    the constant-rate system has reached its stationary law."""
    cfg = SystemConfig(Constant(0.8), service, theta)
    idle = idle_for(cfg, 30.0)
    return max(abs(aoi_cdf_tv(cfg, 30.0, x, idle=idle) - want(x))
               for x in STEADY_XS)


def _stationary(service, theta):
    model = StationaryModel(0.8, service, theta)
    return lambda x: aoi_cdf_stationary(model, x)


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_cdf_accepts_service_without_bounded_density(theta):
    # the product weights read only F: a service atom (G_z jumps at age d,
    # so first order) and an unbounded density at 0 need no special case
    det = Deterministic(1 / 1.2)
    want = ((lambda x: closed_form_md11(0.8, 1.2, x)) if theta == 0.0
            else _stationary(det, theta))
    assert _steady_error(det, theta, want) <= 2e-3
    gam = Gamma(1 / 1.2, 1.0)
    assert _steady_error(gam, theta, _stationary(gam, theta)) <= 5e-5


@pytest.mark.parametrize("svc, theta", [(Uniform(0.0, 4 / 3), 0.0),
                                        (Uniform(0.0, 4 / 3), 0.6),
                                        (Exponential(1.2), 0.3)],
                         ids=["uni-0.0", "uni-0.6", "exp-0.3"])
def test_cdf_second_order_at_default_step(svc, theta):
    # the uniform density jump at 4/3 falls inside a cell, where a kernel
    # sampled at the nodes is only first order
    assert _steady_error(svc, theta, _stationary(svc, theta)) <= 5e-5


# ---------------------------------------------------------------------------
# idle-probability curve
# ---------------------------------------------------------------------------

def test_idle_starts_at_one_and_stays_in_unit_interval():
    idle = idle_for(SystemConfig(Sinusoid(1.7, 1.0, 1.8), Erlang(5, 1 / 6), 0.6), 10.0)
    assert idle(0.0) == 1.0
    ts = np.linspace(0.0, 10.0, 400)
    vals = np.array([idle(t) for t in ts])
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert idle.residual <= 1e-8


def test_idle_full_preemption_solves_in_one_sweep():
    # theta = 1 removes the implicit term; every arrival keeps the server
    # busy, so P0(t) = mu/(lam+mu) + lam/(lam+mu) exp(-(lam+mu) t)
    lam, mu = 2.0, 1.0
    idle = idle_for(SystemConfig(Constant(lam), Exponential(mu), 1.0), 5.0)
    ts = np.linspace(0.0, 5.0, 51)
    want = mu / (lam + mu) + lam / (lam + mu) * np.exp(-(lam + mu) * ts)
    assert np.max(np.abs(idle(ts) - want)) <= 1e-4
    assert idle.residual <= 1e-14


def test_idle_matches_stationary_level():
    idle = idle_for(MM_CFG, 40.0)
    assert idle(40.0) == pytest.approx(m_infinity(StationaryModel(0.8, Exponential(1.2), 0.0)), abs=1e-5)
    cfg = SystemConfig(Constant(2.0), Erlang(5, 1 / 6), 0.5)
    idle = idle_for(cfg, 50.0)
    assert idle(50.0) == pytest.approx(m_infinity(StationaryModel(2.0, Erlang(5, 1 / 6), 0.5)), abs=1e-5)


def test_idle_march_certified_above_unit_load():
    # lambda (1 - theta) E[S] = 2: the regime where fixed-point sweeps
    # amplify; the march still meets the residual contract.
    cfg = SystemConfig(Constant(2.0), Exponential(1.0), 0.0)
    idle = idle_for(cfg, 30.0)
    assert idle.residual <= 1e-8
    assert idle(30.0) == pytest.approx(m_infinity(StationaryModel(2.0, Exponential(1.0), 0.0)), abs=1e-5)


def test_idle_iteration_budget_enforced(monkeypatch):
    # a bound below the rounding floor of the discrete equations cannot be met
    monkeypatch.setattr(SolverSettings, "etol", 1e-20)
    cfg = SystemConfig(Constant(2.0), Exponential(1.0), 0.0)
    with pytest.raises(ConvergenceError) as exc:
        idle_for(cfg, 30.0)
    assert exc.value.residual > 1e-20


# ---------------------------------------------------------------------------
# the AoI distribution itself
# ---------------------------------------------------------------------------

def test_cdf_trivial_regions():
    assert aoi_cdf_tv(MM_CFG, 3.0, 3.0) == 1.0
    assert aoi_cdf_tv(MM_CFG, 3.0, 7.0) == 1.0
    assert aoi_cdf_tv(MM_CFG, 3.0, 0.0) == 0.0


def test_cdf_rejects_negative_arguments():
    with pytest.raises(ValueError):
        aoi_cdf_tv(MM_CFG, -1.0, 0.5)
    with pytest.raises(ValueError):
        aoi_cdf_tv(MM_CFG, 1.0, -0.5)


def test_cdf_rejects_short_idle_curve():
    idle = idle_for(MM_CFG, 5.0)
    with pytest.raises(ConfigError):
        aoi_cdf_tv(MM_CFG, 8.0, 1.0, idle=idle)


def test_idle_curve_must_cover_t_in_every_entry_point():
    idle = idle_for(MM_CFG, 5.0)
    with pytest.raises(ConfigError, match="does not cover t=8.0"):
        aoi_cdf_tv(MM_CFG, 8.0, 2.0, idle=idle)


def test_cdf_converges_to_stationary_no_preemption():
    idle = idle_for(MM_CFG, 40.0)
    for x in (0.5, 1.0, 2.5, 4.0):
        want = closed_form_mm11(0.8, 1.2, x)
        got = aoi_cdf_tv(MM_CFG, 40.0, x, idle=idle)
        assert got == pytest.approx(want, abs=1e-3)


def test_cdf_converges_to_stationary_full_preemption():
    cfg = SystemConfig(Constant(2.0), Exponential(1.0), 1.0)
    idle = idle_for(cfg, 40.0)
    for x in (0.5, 1.0, 2.5, 4.0):
        want = closed_form_mm11_preemptive(2.0, 1.0, x)
        got = aoi_cdf_tv(cfg, 40.0, x, idle=idle)
        assert got == pytest.approx(want, abs=1e-3)


def test_cdf_monotone_in_x():
    cfg = SystemConfig(Sinusoid(1.7, 1.0, 1.8), Erlang(5, 1 / 6), 0.6)
    idle = idle_for(cfg, 10.0)
    xs = np.linspace(0.2, 9.0, 12)
    vals = [aoi_cdf_tv(cfg, 10.0, x, idle=idle) for x in xs]
    assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_cdf_shared_idle_matches_fresh_solve():
    cfg = SystemConfig(Sinusoid(1.8, 1.0, 0.8), Exponential(1.5), 0.2)
    idle = idle_for(cfg, 12.0)
    a = aoi_cdf_tv(cfg, 9.0, 2.5, idle=idle)
    b = aoi_cdf_tv(cfg, 9.0, 2.5)
    assert a == pytest.approx(b, abs=1e-9)


@pytest.mark.parametrize("grid_n", [4, 8, 16])
def test_cdf_rejects_grid_too_coarse_for_implicit_step(grid_n):
    # h * lambda_max * theta >= 1: the implicit step divides by a
    # denominator at or below zero and would return a wrong value
    cfg = SystemConfig(Sinusoid(1.7, 1.0, 1.8), Erlang(5, 1 / 6), 0.9)
    with pytest.raises(ConfigError, match="grid_n >= "):
        aoi_cdf_tv(cfg, 20.0, 10.0, SolverSettings(grid_n=grid_n))


def _sum_case():
    """150 nodes, five 32-row blocks of the march, with omega = h k
    (omega[0] = h / 2) and rho = h k / 2."""
    rng = np.random.default_rng(3)
    n, h = 150, 0.05
    base, c, beta = rng.uniform(0.0, 1.0, (3, n))
    k = np.exp(-np.arange(n) * h)
    Lam = np.cumsum(rng.uniform(0.0, 2.0 * h, n))
    omega = h * k
    omega[0] *= 0.5
    return base, c, beta, Lam, (omega, h * k / 2)


def _dense_weights(c, Lam, weights, weight):
    """W[i, j], the weight of v[j] in S_i, with one exp per entry."""
    omega, rho = weights
    lag = np.subtract.outer(np.arange(c.size), np.arange(c.size))
    W = np.where(lag >= 0, omega[np.abs(lag)], 0.0)
    W[:, 0] = rho
    W[0] = 0.0  # S_0 = 0
    return W * c * np.exp(-weight * np.subtract.outer(Lam, Lam).clip(min=0.0))


def _per_node_march(base, W, alpha, beta):
    """Reference: w_i = base_i + S_i(alpha w + beta), one node at a time."""
    w = np.empty(base.size)
    for i in range(base.size):
        known = base[i] + W[i, :i] @ (alpha * w[:i] + beta[:i]) + W[i, i] * beta[i]
        w[i] = known / (1.0 - alpha * W[i, i])
    return w


# at weight 40, weight * Lam spans about 300, so the blocks also end at the
# cap on weight * (Lam[i] - Lam[a]), after about 16 rows
WEIGHTS = (0.0, 0.6, 40.0)


@pytest.mark.parametrize("alpha", [-0.7, 0.0, 0.4])
def test_block_march_matches_per_node_march(alpha):
    base, c, beta, Lam, weights = _sum_case()
    for weight in WEIGHTS:
        w, resid = _kernels.march(base, c, weights, Lam, weight, alpha, beta)
        want = _per_node_march(base, _dense_weights(c, Lam, weights, weight),
                               alpha, beta)
        assert np.max(np.abs(w - want)) <= 1e-13
        assert resid <= 1e-14


def test_history_matches_dense_weight_sum():
    _, c, _, Lam, weights = _sum_case()
    for weight in WEIGHTS:
        got = _kernels.history(c, weights, Lam, weight)
        want = _dense_weights(c, Lam, weights, weight).sum(axis=1)
        assert np.max(np.abs(got - want)) <= 1e-13


def test_weight_factors_stay_finite_past_the_exp_range():
    # theta * Lam spans 800 over [0, 1], past exp's 709: factoring the
    # weights at one anchor would overflow; the blocks re-anchor instead
    lam, mu = 800.0, 1.0
    cfg = SystemConfig(Constant(lam), Exponential(mu), 1.0)
    idle = idle_for(cfg, 1.0, grid_n=8000)
    p0 = mu / (lam + mu) + lam / (lam + mu) * np.exp(-(lam + mu) * idle.grid.ts)
    assert np.max(np.abs(idle.grid.values - p0)) <= 1e-5
    for y in (0.5, 1.0):
        # the completion flux G_z(1, y, 0) on the diagonal ending at t = 1;
        # (h lam)^2 / 12 interpolation error of the exponential, about 8e-4
        _, Lam, c, mom = _diagonal(cfg, idle, 1.0, y)
        gz = _kernels.history(c, mom["dF"], Lam, cfg.theta)[-1]
        want = lam * mu / (lam + mu) * -math.expm1(-(lam + mu) * y)
        assert gz == pytest.approx(want, abs=2e-3)


@pytest.mark.parametrize("alpha", [0.0, -0.0])
def test_explicit_march_is_one_history_sum(alpha):
    # -0.0 is the theta = 1 idle curve's alpha = -(1 - theta)
    base, c, beta, Lam, weights = _sum_case()
    for weight in WEIGHTS:
        w, resid = _kernels.march(base, c, weights, Lam, weight, alpha, beta)
        want = base + _kernels.history(c * beta, weights, Lam, weight)
        np.testing.assert_array_equal(w, want)
        assert resid == 0.0


def test_explicit_march_flags_a_non_finite_value(monkeypatch):
    base, c, beta, Lam, weights = _sum_case()
    beta[40] = np.inf
    with np.errstate(invalid="ignore"):
        _, resid = _kernels.march(base, c, weights, Lam, 0.6, 0.0, beta)
    assert not math.isfinite(resid)

    # a blown-up joint block M(., x), the only history sum of weight 1 at
    # theta = 0, reaches the explicit Phi-hat march, whose residual then
    # refuses the value
    history = _kernels.history

    def blown(c, weights, Lam, weight):
        out = history(c, weights, Lam, weight)
        if weight == 1.0:
            out[out.size // 2] = np.inf
        return out

    monkeypatch.setattr(_kernels, "history", blown)
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError):
        aoi_cdf_tv(MM_CFG, 5.0, 2.0)


def test_full_preemption_idle_curve_matches_per_node_march():
    # theta = 1 makes the idle equation explicit, w = e^{-Lam} + S[lam F];
    # Lam reaches about 34, so its history sum takes two blocks
    cfg = SystemConfig(Sinusoid(1.7, 1.0, 1.8), Erlang(5, 1 / 6), 1.0)
    n, T = 800, 20.0
    idle = idle_for(cfg, T, grid_n=n)
    ts = np.linspace(0.0, T, n + 1)
    Lam = cfg.rate.integral(0.0, ts)
    assert Lam[-1] > _kernels._CAP
    lam = cfg.rate.rate(ts)
    W = _dense_weights(lam, Lam, _kernels.moments(cfg.service, T / n, n)["F"], 1.0)
    want = _per_node_march(np.exp(-Lam), W, 0.0, np.ones(n + 1))
    assert np.max(np.abs(idle.grid.values - want)) <= 1e-14


def _diagonal(config, idle, t, x):
    """aoi_cdf_tv's diagonal r = t - x + tau, tau in [0, x], on the fewest
    steps no longer than the idle curve's: (lambda, Lambda, c, moments),
    c = lambda (theta + (1 - theta) M(r, inf))."""
    n = max(2, math.ceil(x / idle.grid.h - 1e-12))
    _, r, lam, Lam, mom = tv_solver._grid(config, t - x, x, n)
    c = lam * (config.theta + (1.0 - config.theta) * idle(r))
    return lam, Lam, c, mom


def _dense_phi(config, idle, t, x):
    """Phi(t, x) with every history sum on dense weights and the Phi-hat
    equation marched one node at a time."""
    lam, Lam, c, mom = _diagonal(config, idle, t, x)
    gz = _dense_weights(c, Lam, mom["dF"], config.theta).sum(axis=1)
    mx = _dense_weights(gz, Lam, mom["1"], 1.0).sum(axis=1)
    theta = config.theta
    W = _dense_weights(lam, Lam, mom["1-F"], theta)
    return _per_node_march(mx, W, theta, (1.0 - theta) * mx)[-1]


def test_no_preemption_phi_matches_dense_reference_at_fig8_audit_nodes():
    # the fig-8 plan at theta = 0, where the Phi-hat equation is explicit
    sched = ConstraintSchedule((0.0, 8.0, 16.0, 24.0, 32.0, 40.0, 48.0, 56.0),
                               (7.5, 6.5, 4.5, 3.0, 4.5, 6.5, 7.5), (0.9,) * 7)
    grid = OptimizerSettings().rate_grid
    rates = [grid[i] for i in (19, 21, 21, 26, 26, 31, 31, 31, 26, 26, 21, 21, 19)]
    plan = PiecewiseRatePlan(split_windows(sched), rates)
    cfg = SystemConfig(plan.profile(), Uniform(0.0, 4 / 3), 0.0)
    idle = idle_for(cfg, 56.0)
    for eta, x in ((21.0, 4.5), (29.5, 3.0), (55.5, 7.5)):
        got = aoi_cdf_tv(cfg, eta, x, idle=idle)
        assert got == pytest.approx(_dense_phi(cfg, idle, eta, x), abs=1e-14)


# ---------------------------------------------------------------------------
# negligible processing time
# ---------------------------------------------------------------------------

def test_negligible_cdf_constant_rate():
    lam = 1.3
    prof = Constant(lam)
    for x in (0.1, 0.7, 2.0):
        assert aoi_cdf_negligible(prof, 10.0, x) == pytest.approx(-math.expm1(-lam * x), abs=1e-14)
    assert aoi_cdf_negligible(prof, 2.0, 2.0) == 1.0
    assert aoi_cdf_negligible(prof, 2.0, 5.0) == 1.0


def test_negligible_cdf_piecewise_rate():
    prof = PiecewiseConstant((0.0, 3.0, 6.0), (1.5, 0.5))
    # window (2, 5]: one unit at 1.5 then two at 0.5
    want = -math.expm1(-(1.5 * 1.0 + 0.5 * 2.0))
    assert aoi_cdf_negligible(prof, 5.0, 3.0) == pytest.approx(want, abs=1e-14)


def test_negligible_mean_constant_rate():
    lam, t = 1.3, 10.0
    want = -math.expm1(-lam * t) / lam
    assert mean_aoi_negligible(Constant(lam), t) == pytest.approx(want, abs=1e-10)
    assert mean_aoi_negligible(Constant(lam), 0.0) == 0.0


def test_negligible_mean_piecewise_rate():
    prof = PiecewiseConstant((0.0, 3.0, 6.0), (1.5, 0.5))
    t = 5.0
    grid = np.linspace(0.0, t, 200_001)
    vals = np.exp(-prof.integral(t - grid, t))
    want = np.trapezoid(vals, grid)
    assert mean_aoi_negligible(prof, t) == pytest.approx(want, abs=1e-8)


def test_negligible_validation():
    with pytest.raises(ValueError):
        aoi_cdf_negligible(Constant(1.0), -1.0, 0.5)
    with pytest.raises(ValueError):
        mean_aoi_negligible(Constant(1.0), -2.0)
