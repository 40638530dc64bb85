import math

import numpy as np
import pytest

from aoiq import (Constant, Sinusoid, PiecewiseConstant, Tabulated,
                  Exponential, Deterministic, Uniform, Gamma, Erlang,
                  SystemConfig, GridFunction, config_from_dict,
                  rate_from_dict, service_from_dict,
                  StationaryModel, aoi_cdf_stationary, aoi_pdf_stationary,
                  m_x_stationary, SolverSettings, solve_idle_prob,
                  aoi_cdf_tv, aoi_cdf_negligible, mean_aoi_negligible,
                  SimRequest, empirical_cdf, ConstraintSchedule, PiecewiseRatePlan,
                  OptimizerSettings, optimize_rates, benchmark_constant_rate,
                  evaluate_plan, stationary_rate_search, closed_form_mm11, closed_form_md11,
                  closed_form_mm11_preemptive, ConfigError)
from aoiq.errors import check, check_all

CFG = SystemConfig(Constant(1.0), Exponential(1.2), 0.5)
IDLE = solve_idle_prob(CFG, SolverSettings(horizon=2.0))
SCHED = ConstraintSchedule((0.0, 5.0), (1.0,), (0.9,))
SEARCH = OptimizerSettings(rate_grid=(1.0, 2.0))


# ---------------------------------------------------------------------------
# the check itself
# ---------------------------------------------------------------------------

def test_check_returns_float_or_int():
    assert check(2, "a") == 2.0 and type(check(2, "a")) is float
    assert type(check(np.float32(0.5), "a")) is float
    assert check(np.int64(3), "n", 1, integer=True) == 3
    assert type(check(np.int64(3), "n", 1, integer=True)) is int
    assert check(0.0, "a", 0) == 0.0
    assert check(1.0, "p", 0, 1) == 1.0


@pytest.mark.parametrize("value, kwargs", [
    (math.nan, {}), (math.inf, {}), (-math.inf, {}), (True, {}), (np.True_, {}),
    ("1.5", {}), (None, {}), (1j, {}), (10 ** 400, {}),
    (0.0, {"low": 0, "above": True}), (-1e-300, {"low": 0}), (1.5, {"high": 1}),
    (2.5, {"integer": True}), (2.0, {"integer": True}), (0, {"low": 1, "integer": True})])
def test_check_rejects_and_names_the_parameter(value, kwargs):
    with pytest.raises(ConfigError, match="^rate_a must be"):
        check(value, "rate_a", **kwargs)


def test_check_all():
    assert check_all([0, 1.5, np.float64(2.0)], "xs", 0, increasing=True) == (0.0, 1.5, 2.0)
    assert check_all((), "xs") == ()
    with pytest.raises(ConfigError, match="strictly increasing"):
        check_all((0.0, 1.0, 1.0), "xs", increasing=True)
    with pytest.raises(ConfigError, match="^xs must be a real number"):
        check_all([1.0, True], "xs")
    with pytest.raises(ConfigError, match="^xs must be a sequence"):
        check_all(1.0, "xs")


# ---------------------------------------------------------------------------
# every constructor and entry point runs its parameters through the check
# ---------------------------------------------------------------------------

# name: (call with the parameter under test, a valid value of it)
ENTRY_POINTS = {
    "Constant.a": (lambda v: Constant(v), 1.0),
    "Sinusoid.a": (lambda v: Sinusoid(v, 0.5, 1.0), 1.0),
    "Sinusoid.b": (lambda v: Sinusoid(1.0, v, 1.0), 0.5),
    "Sinusoid.omega": (lambda v: Sinusoid(1.0, 0.5, v), 1.0),
    "PiecewiseConstant.breakpoints": (lambda v: PiecewiseConstant((0.0, v), (1.0,)), 1.0),
    "PiecewiseConstant.rates": (lambda v: PiecewiseConstant((0.0, 1.0), (v,)), 1.0),
    "Tabulated.grid": (lambda v: Tabulated((0.0, v), (1.0, 1.0)), 1.0),
    "Tabulated.values": (lambda v: Tabulated((0.0, 1.0), (1.0, v)), 1.0),
    "Exponential.mu": (lambda v: Exponential(v), 1.0),
    "Deterministic.d": (lambda v: Deterministic(v), 1.0),
    "Uniform.low": (lambda v: Uniform(v, 2.0), 0.5),
    "Uniform.high": (lambda v: Uniform(0.0, v), 1.0),
    "Gamma.shape": (lambda v: Gamma(v, 1.0), 1.0),
    "Gamma.scale": (lambda v: Gamma(1.0, v), 1.0),
    "Erlang.n": (lambda v: Erlang(v, 1.0), 2),
    "Erlang.scale": (lambda v: Erlang(2, v), 1.0),
    "SystemConfig.theta": (
        lambda v: SystemConfig(Constant(1.0), Exponential(1.0), v), 0.5),
    "GridFunction.t0": (lambda v: GridFunction(v, 0.1, (0.0, 1.0)), 1.0),
    "GridFunction.h": (lambda v: GridFunction(0.0, v, (0.0, 1.0)), 0.1),
    "GridFunction.values": (lambda v: GridFunction(0.0, 0.1, (0.0, v)), 1.0),
    "config_from_dict.theta": (lambda v: config_from_dict(
        {"rate": {"kind": "constant", "a": 1.0},
         "service": {"kind": "exponential", "mu": 1.0}, "theta": v}), 0.5),
    "rate_from_dict.a": (lambda v: rate_from_dict({"kind": "constant", "a": v}), 1.0),
    "rate_from_dict.omega": (lambda v: rate_from_dict(
        {"kind": "sinusoid", "params": {"a": 1.0, "b": 0.5, "omega": v}}), 1.0),
    "service_from_dict.mu": (lambda v: service_from_dict({"kind": "exponential", "mu": v}), 1.0),
    "service_from_dict.n": (lambda v: service_from_dict(
        {"kind": "erlang", "n": v, "scale": 1.0}), 2),
    "StationaryModel.lam": (lambda v: StationaryModel(v, Exponential(1.0), 0.5), 1.0),
    "StationaryModel.theta": (lambda v: StationaryModel(1.0, Exponential(1.0), v), 0.5),
    "aoi_cdf_stationary.x": (lambda v: aoi_cdf_stationary(
        StationaryModel(1.0, Exponential(1.0), 0.0), v), 1.0),
    "aoi_pdf_stationary.x": (lambda v: aoi_pdf_stationary(
        StationaryModel(1.0, Exponential(1.0), 0.5), v), 1.0),
    "m_x_stationary.x": (lambda v: m_x_stationary(
        StationaryModel(1.0, Exponential(1.0), 0.5), v), 1.0),
    "SolverSettings.horizon": (lambda v: SolverSettings(horizon=v), 1.0),
    "SolverSettings.grid_n": (lambda v: SolverSettings(grid_n=v), 20),
    "aoi_cdf_tv.t": (lambda v: aoi_cdf_tv(CFG, v, 0.5, idle=IDLE), 1.0),
    "aoi_cdf_tv.x": (lambda v: aoi_cdf_tv(CFG, 1.0, v, idle=IDLE), 0.5),
    "aoi_cdf_negligible.t": (lambda v: aoi_cdf_negligible(Constant(1.0), v, 0.5), 1.0),
    "aoi_cdf_negligible.x": (lambda v: aoi_cdf_negligible(Constant(1.0), 2.0, v), 0.5),
    "mean_aoi_negligible.t": (lambda v: mean_aoi_negligible(Constant(1.0), v), 1.0),
    "SimRequest.t": (lambda v: SimRequest(CFG, v, 10, 0), 1.0),
    "SimRequest.replications": (lambda v: SimRequest(CFG, 1.0, v, 0), 10),
    "SimRequest.seed": (lambda v: SimRequest(CFG, 1.0, 10, v), 0),
    "empirical_cdf.xs": (
        lambda v: empirical_cdf(SimRequest(CFG, 1.0, 10, 0), [v, 1.0]), 0.5),
    "ConstraintSchedule.times": (
        lambda v: ConstraintSchedule((0.0, v), (1.0,), (0.9,)), 5.0),
    "ConstraintSchedule.thresholds": (
        lambda v: ConstraintSchedule((0.0, 5.0), (v,), (0.9,)), 1.0),
    "ConstraintSchedule.probabilities": (
        lambda v: ConstraintSchedule((0.0, 5.0), (1.0,), (v,)), 0.9),
    "PiecewiseRatePlan.breakpoints": (lambda v: PiecewiseRatePlan((0.0, v), (1.0,)), 1.0),
    "PiecewiseRatePlan.rates": (lambda v: PiecewiseRatePlan((0.0, 1.0), (v,)), 1.0),
    "OptimizerSettings.rate_grid": (lambda v: OptimizerSettings(rate_grid=(1.0, v)), 2.0),
    "OptimizerSettings.eps": (lambda v: OptimizerSettings(eps=v), 0.01),
    "OptimizerSettings.ite_max": (lambda v: OptimizerSettings(ite_max=v), 3),
    "OptimizerSettings.eta_spacing": (lambda v: OptimizerSettings(eta_spacing=v), 0.5),
    "OptimizerSettings.grid_n": (lambda v: OptimizerSettings(grid_n=v), 20),
    "stationary_rate_search.theta": (lambda v: stationary_rate_search(
        Exponential(1.2), v, [(1.0, 0.5)], SEARCH), 0.0),
    "stationary_rate_search.x": (lambda v: stationary_rate_search(
        Exponential(1.2), 0.0, [(v, 0.5)], SEARCH), 1.0),
    "stationary_rate_search.p": (lambda v: stationary_rate_search(
        Exponential(1.2), 0.0, [(1.0, v)], SEARCH), 0.5),
    "optimize_rates.theta": (
        lambda v: optimize_rates(Exponential(1.0), SCHED, theta=v), 1.0),
    "benchmark_constant_rate.theta": (
        lambda v: benchmark_constant_rate(Exponential(1.0), SCHED, theta=v), 1.0),
    "evaluate_plan.theta": (lambda v: evaluate_plan(
        PiecewiseRatePlan((0.0, 5.0), (1.0,)), SCHED, Exponential(1.0), v, SEARCH), 1.0),
}
# the closed-form oracles, each in lam, mu and x
for _form in (closed_form_mm11, closed_form_md11, closed_form_mm11_preemptive):
    ENTRY_POINTS |= {
        f"{_form.__name__}.lam": (lambda v, f=_form: f(v, 1.2, 1.0), 0.8),
        f"{_form.__name__}.mu": (lambda v, f=_form: f(0.8, v, 1.0), 1.2),
        f"{_form.__name__}.x": (lambda v, f=_form: f(0.8, 1.2, v), 1.0),
    }


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True],
                         ids=["nan", "inf", "-inf", "True"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_non_finite_or_bool_parameter_is_a_config_error(entry, value):
    call, valid = ENTRY_POINTS[entry]
    call(valid)
    with pytest.raises(ConfigError):
        call(value)


def test_checked_values_keep_their_stored_types():
    assert Erlang(np.int64(5), 1).shape == 5 and type(Erlang(5, 1).shape) is int
    assert Erlang(5, 1).scale == 1.0 and type(Erlang(5, 1).scale) is float
    assert Erlang(5.0, 0.5) == Erlang(5, 0.5) and type(Erlang(5.0, 0.5).shape) is int
    assert type(Erlang(np.float64(5), 0.5).shape) is int
    assert config_from_dict({"rate": {"kind": "constant", "a": 1},
                             "service": {"kind": "erlang", "n": 5.0, "scale": 0.5},
                             "theta": 0}).service == Erlang(5, 0.5)
    with pytest.raises(ConfigError, match="^erlang shape n must be an integer"):
        Erlang(2.5, 1.0)
    with pytest.raises(ConfigError, match="^erlang scale must be"):
        Erlang(2, 0.0)
    assert repr(Exponential(2)) == "Exponential(mu=2)"
    assert repr(Uniform(2)) == "Uniform(low=0.0, high=2.0)"
    assert PiecewiseConstant([0, 1], [np.float64(2)]).rates == (2.0,)
    assert SCHED.times == (0.0, 5.0) and type(SCHED.times[0]) is float
    assert config_from_dict({"rate": {"kind": "constant", "a": 1},
                             "service": {"kind": "exponential", "mu": 1},
                             "theta": 1}).theta == 1.0


def test_search_thresholds_and_probabilities_are_in_range():
    # a target may be raised up to 1, where no rate meets it
    assert stationary_rate_search(Exponential(1.2), 0.0, [(1.0, 1.0)], SEARCH) is None
    assert stationary_rate_search(Exponential(1.2), 0.0, [(1.0, 0.0)], SEARCH) == 1.0
    for pair, name in (((0.0, 0.5), "threshold"), ((-1.0, 0.5), "threshold"),
                       ((1.0, 1.5), "probability"), ((1.0, -0.1), "probability")):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            stationary_rate_search(Exponential(1.2), 0.0, [pair], SEARCH)


def test_abscissa_lists_are_checked_and_a_scalar_is_one_point():
    with pytest.raises(ConfigError, match="^xs must be a real number"):
        empirical_cdf(SimRequest(CFG, 1.0, 10, 0), [True])
    assert empirical_cdf(SimRequest(CFG, 1.0, 10, 0), 2.0).tolist() == [1.0]


# a service or rate that is not a law fails at construction, naming the
# parameter, instead of with an AttributeError in the first evaluation
NOT_A_LAW = {
    "StationaryModel.service=None": (lambda: StationaryModel(0.8, None, 0.0),
                                     "stationary service"),
    "StationaryModel.service=str": (lambda: StationaryModel(0.8, "exp", 0.3),
                                    "stationary service"),
    "StationaryModel.service=float": (lambda: StationaryModel(0.8, 1.2, 0.0),
                                      "stationary service"),
    "StationaryModel.service=class": (lambda: StationaryModel(0.8, Exponential, 0.3),
                                      "stationary service"),
    "SystemConfig.service=None": (lambda: SystemConfig(Constant(1.0), None, 0.5),
                                  "service"),
    "SystemConfig.service=rate": (lambda: SystemConfig(Constant(1.0), Constant(1.0), 0.5),
                                  "service"),
    "SystemConfig.rate=str": (lambda: SystemConfig("x", Exponential(1.0), 0.5),
                              "arrival rate"),
    "SystemConfig.rate=float": (lambda: SystemConfig(1.0, Exponential(1.0), 0.5),
                                "arrival rate"),
}


@pytest.mark.parametrize("entry", list(NOT_A_LAW))
def test_service_or_rate_that_is_not_a_law_is_a_config_error(entry):
    call, name = NOT_A_LAW[entry]
    with pytest.raises(ConfigError, match=f"^{name} must be a "):
        call()
