"""Exact Age-of-Information distributions for a single-buffer sampling
system with time-varying Poisson arrivals and probabilistic preemption:
finite-time Volterra solver, stationary transforms with numerical Laplace
inversion, a validating discrete-event simulator, and a constrained
sampling-rate optimizer.
"""

from .errors import ConfigError, ConvergenceError, InversionError
from .model import (Constant, Sinusoid, PiecewiseConstant, Tabulated,
                    Exponential, Deterministic, Uniform, Gamma, Erlang,
                    SystemConfig, GridFunction, rate_at, is_nbu,
                    rate_from_dict, service_from_dict, config_from_dict)
from .tv_solver import (SolverSettings, IdleProbabilityCurve, solve_idle_prob,
                        kernel_gz, m_tx, aoi_cdf_tv, aoi_cdf_negligible,
                        mean_aoi_negligible)
from .stationary import (StationaryModel, m_infinity, m_x_stationary,
                         aoi_lst, aoi_cdf_stationary, aoi_pdf_stationary,
                         closed_form_mm11, closed_form_md11,
                         closed_form_mm11_preemptive, check_dominance)
from .simulator import SimRequest, simulate_aoi_at, empirical_cdf
from .optimizer import (ConstraintSchedule, PiecewiseRatePlan,
                        OptimizerSettings, OptimizeResult, choose_theta,
                        split_windows, stationary_rate_search, evaluate_plan,
                        optimize_rates, benchmark_constant_rate)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConvergenceError", "InversionError",
    "Constant", "Sinusoid", "PiecewiseConstant", "Tabulated",
    "Exponential", "Deterministic", "Uniform", "Gamma", "Erlang",
    "SystemConfig", "GridFunction", "rate_at",
    "is_nbu", "rate_from_dict", "service_from_dict", "config_from_dict",
    "SolverSettings", "IdleProbabilityCurve", "solve_idle_prob",
    "kernel_gz", "m_tx", "aoi_cdf_tv", "aoi_cdf_negligible",
    "mean_aoi_negligible",
    "StationaryModel", "m_infinity", "m_x_stationary",
    "aoi_lst", "aoi_cdf_stationary", "aoi_pdf_stationary",
    "closed_form_mm11", "closed_form_md11", "closed_form_mm11_preemptive",
    "check_dominance",
    "SimRequest", "simulate_aoi_at", "empirical_cdf",
    "ConstraintSchedule", "PiecewiseRatePlan", "OptimizerSettings",
    "OptimizeResult", "choose_theta", "split_windows",
    "stationary_rate_search", "evaluate_plan", "optimize_rates",
    "benchmark_constant_rate",
    "__version__",
]
