"""Command-line front end: config-driven runs and figure-reproduction presets.

Commands
--------
solve-tv           Phi(t, x) for a time-varying system (JSON config).
solve-stationary   steady-state CDF (and optionally PDF) at given x values.
simulate           empirical CDF of Delta(t) from seeded replications.
optimize           piecewise-constant rate plan under AoI constraints.
reproduce-figure   canned parameter sets emitting analytic + simulated columns.

Exit codes: 0 success; 2 configuration/IO error; 3 convergence or inversion
failure; 4 infeasible optimization.  Failures print one JSON record to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .errors import ConfigError, ConvergenceError, InversionError, check, check_all
from .model import (Constant, Sinusoid, PiecewiseConstant, Exponential,
                    Deterministic, Uniform, Gamma, Erlang, SystemConfig,
                    config_from_dict, service_from_dict)
from .tv_solver import SolverSettings, solve_idle_prob, aoi_cdf_tv
from .stationary import StationaryModel, aoi_cdf_stationary, aoi_pdf_stationary
from .simulator import SimRequest, empirical_cdf
from .optimizer import (ConstraintSchedule, OptimizerSettings, optimize_rates,
                        benchmark_constant_rate)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4

class _Infeasible(Exception):
    def __init__(self, message, violations):
        super().__init__(message)
        self.violations = violations


def _infeasible(label, result):
    """_Infeasible for an OptimizeResult that found no feasible plan: names
    the rounds that ran and whether the stationary search or the audit
    failed."""
    n = result.rounds
    message = f"{label}: no feasible plan within {n} round{'s' * (n != 1)}"
    if result.plan is None:
        message += "; no rate_grid entry meets the stationary targets"
    return _Infeasible(
        message,
        [{"eta": eta, "interval": k, "achieved": phi, "required": req}
         for eta, k, phi, req in result.violations])


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _load_config(path):
    if path is None:
        raise ConfigError("this command needs --config FILE")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _section(cfg, name):
    sec = cfg.get(name)
    if not isinstance(sec, dict):
        raise ConfigError(f"config needs a {name!r} object section")
    return sec


def _require(sec, key, where):
    if key not in sec:
        raise ConfigError(f"config section {where!r} needs key {key!r}")
    return sec[key]


def _floats(value, where):
    out = check_all(value, where)
    if not out:
        raise ConfigError(f"{where} must be nonempty")
    return out


def _solver_settings(args, sec, horizon):
    grid_n = args.grid_n if args.grid_n is not None else sec.get("grid_n")
    return SolverSettings(horizon=horizon, grid_n=grid_n)


def _sim_budget(args, reps, seed):
    """(replications, seed): --replications / --seed over the defaults."""
    return (args.replications if args.replications is not None else reps,
            args.seed if args.seed is not None else seed)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _cell(value):
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def _write_output(payload, out_path, fmt):
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(payload["columns"])
        for row in payload["rows"]:
            writer.writerow([_cell(v) for v in row])
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_solve_tv(args):
    cfg = _load_config(args.config)
    system = config_from_dict(cfg)
    sec = _section(cfg, "solve_tv")
    t = check(_require(sec, "t", "solve_tv"), "solve_tv.t", 0)
    xs = _floats(_require(sec, "xs", "solve_tv"), "solve_tv.xs")
    idle = solve_idle_prob(system, _solver_settings(args, sec, horizon=t))
    rows = [(t, x, aoi_cdf_tv(system, t, x, idle=idle)) for x in xs]
    return {"command": "solve-tv", "columns": ["t", "x", "phi"], "rows": rows}


def _cmd_solve_stationary(args):
    cfg = _load_config(args.config)
    system = config_from_dict(cfg)
    if not isinstance(system.rate, Constant):
        raise ConfigError("solve-stationary needs a constant-rate profile")
    sec = _section(cfg, "solve_stationary")
    xs = _floats(_require(sec, "xs", "solve_stationary"), "solve_stationary.xs")
    want_pdf = sec.get("pdf", False)
    if not isinstance(want_pdf, bool):
        raise ConfigError(f"solve_stationary.pdf must be true or false, got {want_pdf!r}")
    model = StationaryModel(system.rate.a, system.service, system.theta)
    rows = []
    for x in xs:
        row = [x, aoi_cdf_stationary(model, x)]
        if want_pdf:
            row.append(aoi_pdf_stationary(model, x))
        rows.append(tuple(row))
    columns = ["x", "cdf", "pdf"] if want_pdf else ["x", "cdf"]
    return {"command": "solve-stationary", "columns": columns, "rows": rows}


def _cmd_simulate(args):
    cfg = _load_config(args.config)
    system = config_from_dict(cfg)
    sec = _section(cfg, "simulate")
    t = check(_require(sec, "t", "simulate"), "simulate.t", 0)
    xs = _floats(_require(sec, "xs", "simulate"), "simulate.xs")
    reps, seed = _sim_budget(args, sec.get("replications", 20000), sec.get("seed", 0))
    request = SimRequest(system, t, reps, seed)
    emp = empirical_cdf(request, xs)
    rows = [(x, float(p), reps, seed) for x, p in zip(xs, emp)]
    return {"command": "simulate",
            "columns": ["x", "empirical", "replications", "seed"],
            "rows": rows}


def _plan_rows(label, plan):
    cost = plan.cost
    return [(label, a, b, r, cost) for a, b, r in
            zip(plan.breakpoints[:-1], plan.breakpoints[1:], plan.rates)]


def _cmd_optimize(args):
    cfg = _load_config(args.config)
    service = service_from_dict(_require(cfg, "service", "config"))
    sec = _section(cfg, "optimize")
    schedule = ConstraintSchedule(
        *(_require(sec, key, "optimize") for key in ("times", "thresholds", "probabilities")))
    kwargs = {key: sec[key] for key in ("rate_grid", "eps", "ite_max", "eta_spacing")
              if key in sec}
    settings = OptimizerSettings(grid_n=args.grid_n, **kwargs)
    result = optimize_rates(service, schedule, settings, theta=sec.get("theta"))
    if not result.feasible:
        raise _infeasible("heuristic", result)
    rows = _plan_rows("heuristic", result.plan)
    return {"command": "optimize",
            "columns": ["plan", "t_start", "t_end", "rate", "cost"],
            "rows": rows,
            "cost": result.plan.cost,
            "theta": result.theta,
            "rounds": result.rounds,
            "feasible": True}


# ---------------------------------------------------------------------------
# Figure presets (fixed parameter sets, addressable by id)
# ---------------------------------------------------------------------------

def _fig2_services():
    mu = 1.2
    return [("exp", Exponential(mu)),
            ("uni", Uniform(0.0, 2.0 / mu)),
            ("gam1", Gamma(mu, 1.0 / mu ** 2)),
            ("erlang", Erlang(5, 1.0 / (5 * mu)))]


def _phi_and_sim(args, system, ts, xs, reps, seed):
    """Phi(t, x) and the empirical CDF, each of shape (len(ts), len(xs)),
    from one idle solve on [0, ts[-1]] and one simulation request per t
    (the i-th time uses seed + 1000 i)."""
    reps, seed = _sim_budget(args, reps, seed)
    idle = solve_idle_prob(system, _solver_settings(args, {}, horizon=float(ts[-1])))
    phi = [[aoi_cdf_tv(system, float(t), float(x), idle=idle) for x in xs]
           for t in ts]
    emp = [empirical_cdf(SimRequest(system, float(t), reps, seed + 1000 * i), xs)
           for i, t in enumerate(ts)]
    return np.array(phi), np.array(emp)


def _fig2(args, t):
    rate = Sinusoid(1.7, 1.0, 1.8)
    xs = np.linspace(0.15 * t / 3.0, t, 20)
    rows = []
    for name, svc in _fig2_services():
        phi, emp = _phi_and_sim(args, SystemConfig(rate, svc, 0.6), [t], xs,
                                reps=20000, seed=1207)
        rows.extend((name, float(x), float(a), float(e))
                    for x, a, e in zip(xs, phi[0], emp[0]))
    return {"command": "reproduce-figure",
            "figure": "fig2a" if t == 3.0 else "fig2b",
            "columns": ["series", "x", "analytic", "simulated"], "rows": rows}


def _time_sweep(args, figure, systems, xs, reps, seed):
    """Phi(t, x) against t in [0.5, 20] for each threshold x of each
    (series prefix, system)."""
    ts = np.arange(0.5, 20.0 + 1e-9, 0.5)
    rows = []
    for prefix, system in systems:
        phi, emp = _phi_and_sim(args, system, ts, xs, reps, seed)
        rows.extend((f"{prefix}x{x:g}", float(t), float(phi[i, j]), float(emp[i, j]))
                    for j, x in enumerate(xs) for i, t in enumerate(ts))
    return {"command": "reproduce-figure", "figure": figure,
            "columns": ["series", "t", "analytic", "simulated"], "rows": rows}


def _fig4(args, variant):
    rate = Sinusoid(1.8, 1.0, 0.8) if variant == "a" else Constant(1.8)
    return _time_sweep(args, f"fig4{variant}",
                       [("", SystemConfig(rate, Exponential(1.5), 0.2))],
                       (0.5, 1.5, 2.5, 3.5), reps=1000, seed=408)


def _fig5(args):
    mu = 1.5
    square = PiecewiseConstant((0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0),
                               (1.5, 0.5, 1.5, 0.5, 1.5, 0.5, 1.5))
    rates = [("sin", Sinusoid(1.0, 1.0, 0.8)), ("square", square)]
    services = [("exp", Exponential(mu)), ("uni", Uniform(0.0, 2.0 / mu))]
    systems = [(f"{rname}-{sname}-th{theta:g}-", SystemConfig(rate, svc, theta))
               for rname, rate in rates for sname, svc in services
               for theta in (0.1, 0.9)]
    return _time_sweep(args, "fig5", systems, (0.8, 3.0), reps=300, seed=505)


def _fig6(args):
    system = SystemConfig(Constant(2.0), Erlang(5, 1.0 / 6.0), 0.5)
    xs = np.arange(0.25, 8.0 + 1e-9, 0.25)
    phi, emp = _phi_and_sim(args, system, [50.0], xs, reps=20000, seed=606)
    model = StationaryModel(system.rate.a, system.service, system.theta)
    rows = [(float(x), float(a), aoi_cdf_stationary(model, float(x)), float(e))
            for x, a, e in zip(xs, phi[0], emp[0])]
    return {"command": "reproduce-figure", "figure": "fig6",
            "columns": ["x", "analytic", "stationary", "simulated"],
            "rows": rows}


def _fig7(args):
    lam, mu = 0.8, 1.2
    services = [("exp", Exponential(mu)),
                ("det", Deterministic(1.0 / mu)),
                ("uni", Uniform(0.0, 2.0 / mu)),
                ("gam1", Gamma(mu, 1.0 / mu ** 2)),
                ("gam2", Gamma(1.0 / mu, 1.0)),
                ("erlang", Erlang(5, 1.0 / (5 * mu)))]
    xs = np.arange(0.25, 10.0 + 1e-9, 0.25)
    reps, seed = _sim_budget(args, 5000, 707)
    t_sim = 50.0
    rows = []
    for theta in (0.0, 0.3):
        for name, svc in services:
            model = StationaryModel(lam, svc, theta)
            emp = empirical_cdf(
                SimRequest(SystemConfig(Constant(lam), svc, theta),
                           t_sim, reps, seed), xs)
            for x, e in zip(xs, emp):
                rows.append((f"th{theta:g}-{name}", float(x),
                             aoi_cdf_stationary(model, float(x)),
                             aoi_pdf_stationary(model, float(x)), float(e)))
    return {"command": "reproduce-figure", "figure": "fig7",
            "columns": ["series", "x", "cdf", "pdf", "simulated"],
            "rows": rows}


def _fig8(args):
    unread = [f"--{name}" for name in ("seed", "replications")
              if getattr(args, name) is not None]
    if unread:
        raise ConfigError(f"fig8 runs no simulation and reads no {', '.join(unread)}")
    schedule = ConstraintSchedule(
        times=(0.0, 8.0, 16.0, 24.0, 32.0, 40.0, 48.0, 56.0),
        thresholds=(7.5, 6.5, 4.5, 3.0, 4.5, 6.5, 7.5),
        probabilities=(0.9,) * 7)
    service = Uniform(0.0, 4.0 / 3.0)
    settings = OptimizerSettings(grid_n=args.grid_n)
    heuristic = optimize_rates(service, schedule, settings)
    benchmark = benchmark_constant_rate(service, schedule, settings)
    for label, res in (("heuristic", heuristic), ("benchmark", benchmark)):
        if not res.feasible:
            raise _infeasible(f"fig8 {label}", res)
    rows = _plan_rows("heuristic", heuristic.plan) \
        + _plan_rows("benchmark", benchmark.plan)
    return {"command": "reproduce-figure", "figure": "fig8",
            "columns": ["plan", "t_start", "t_end", "rate", "cost"],
            "rows": rows,
            "heuristic_cost": heuristic.plan.cost,
            "benchmark_cost": benchmark.plan.cost,
            "theta": heuristic.theta}


_FIGURES = {
    "fig2a": lambda args: _fig2(args, 3.0),
    "fig2b": lambda args: _fig2(args, 10.0),
    "fig4a": lambda args: _fig4(args, "a"),
    "fig4b": lambda args: _fig4(args, "b"),
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
}


def _cmd_reproduce_figure(args):
    if args.figure is None:
        raise ConfigError("reproduce-figure needs --figure ID")
    return _FIGURES[args.figure](args)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="aoiq",
        description="Age-of-Information distribution toolkit "
                    "(time-varying solver, stationary transforms, simulator, "
                    "rate optimizer)")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--config": {"help": "JSON experiment file"},
        "--figure": {"choices": tuple(_FIGURES)},
        "--seed": {"type": int},
        "--replications": {"type": int},
        "--grid-n": {"type": int},
    }
    # each command accepts exactly the flags its handler reads
    commands = {
        "solve-tv": (_cmd_solve_tv, ("--config", "--grid-n")),
        "solve-stationary": (_cmd_solve_stationary, ("--config",)),
        "simulate": (_cmd_simulate, ("--config", "--seed", "--replications")),
        "optimize": (_cmd_optimize, ("--config", "--grid-n")),
        "reproduce-figure": (_cmd_reproduce_figure,
                             ("--figure", "--seed", "--replications",
                              "--grid-n")),
    }
    for name, (handler, names) in commands.items():
        p = sub.add_parser(name)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(handler=handler)
    return parser


def _error_record(exc, **extra):
    record = {"error": type(exc).__name__, "message": str(exc)}
    record.update({k: v for k, v in extra.items() if v is not None})
    sys.stderr.write(json.dumps(record) + "\n")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        payload = args.handler(args)
        _write_output(payload, args.out, args.format)
    except _Infeasible as exc:
        _error_record(exc, violations=exc.violations)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        _error_record(exc, residual=exc.residual)
        return EXIT_NUMERIC
    except InversionError as exc:
        _error_record(exc, diagnostics=exc.diagnostics)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, OSError) as exc:
        _error_record(exc)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
