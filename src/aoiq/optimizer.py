"""Heuristic rate planning under time-varying AoI constraints.

Given checkpoints t_0 < ... < t_n with a threshold/probability pair
(x_i, p_i) per interval, the planner picks a preemption policy from the
service law, splits every non-final interval into a cruising and a
preparation window, assigns each window the cheapest grid rate whose
*stationary* AoI law meets the window's targets, and then audits the
resulting piecewise-constant profile with the exact finite-time solver.
Audit violations raise the offending interval's internal target by eps and
the loop repeats, up to ite_max rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check, check_all
from .model import Exponential, Deterministic, Uniform, Gamma, PiecewiseConstant, SystemConfig
from .stationary import StationaryModel, aoi_cdf_stationary
from .tv_solver import SolverSettings, solve_idle_prob, aoi_cdf_tv

__all__ = [
    "ConstraintSchedule", "PiecewiseRatePlan", "OptimizerSettings",
    "OptimizeResult", "choose_theta", "split_windows",
    "stationary_rate_search", "evaluate_plan", "optimize_rates",
    "benchmark_constant_rate",
]


@dataclass(frozen=True)
class ConstraintSchedule:
    """Checkpoints t_0..t_n with one (threshold, probability) requirement
    active on each interval [t_i, t_{i+1})."""

    times: tuple
    thresholds: tuple
    probabilities: tuple

    def __post_init__(self):
        times = check_all(self.times, "schedule times", increasing=True)
        xs = check_all(self.thresholds, "thresholds", 0, above=True)
        # p < 1 is p <= the largest double below 1
        ps = check_all(self.probabilities, "probabilities", 0, math.nextafter(1.0, 0.0),
                       above=True)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "thresholds", xs)
        object.__setattr__(self, "probabilities", ps)
        if len(times) < 2:
            raise ConfigError("schedule needs at least two time points")
        if len(xs) != len(times) - 1 or len(ps) != len(xs):
            raise ConfigError(
                f"schedule needs n+1 times, n thresholds, n probabilities; "
                f"got {len(times)}, {len(xs)}, {len(ps)}")
        for i, x in enumerate(xs):
            if x >= times[i + 1] - times[i]:
                raise ConfigError(
                    f"threshold x_{i}={x} must be smaller than the interval "
                    f"width {times[i + 1] - times[i]} (a preparation window "
                    "must fit)")

    @property
    def n(self):
        return len(self.thresholds)

    def interval_of(self, t):
        """Index i with t_i <= t < t_{i+1} (clamped at the ends)."""
        i = int(np.searchsorted(np.asarray(self.times), t, side="right")) - 1
        return min(max(i, 0), self.n - 1)


class PiecewiseRatePlan(PiecewiseConstant):
    """A step-rate answer: a PiecewiseConstant profile (rate 0 before its
    first breakpoint) whose cost is the exact objective integral over
    [breakpoints[0], breakpoints[-1]]."""

    @property
    def cost(self):
        return float(sum(r * (b - a) for r, a, b in
                         zip(self.rates, self.breakpoints[:-1], self.breakpoints[1:])))


def _default_rate_grid():
    return tuple(np.geomspace(0.05, 20.0, 60))


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs for the search loop; the method itself fixes none of
    these, so they are explicit artifact choices. `grid_n` is the audit
    solver's step count on [0, t_n]; None takes its default step."""

    rate_grid: tuple = field(default_factory=_default_rate_grid)
    eps: float = 0.01
    ite_max: int = 30
    eta_spacing: float = 0.5
    grid_n: int | None = None

    def __post_init__(self):
        grid = check_all(self.rate_grid, "rate_grid", 0, above=True, increasing=True)
        object.__setattr__(self, "rate_grid", grid)
        if not grid:
            raise ConfigError("rate_grid must be nonempty")
        check(self.eps, "eps", 0, above=True)
        check(self.ite_max, "ite_max", 1, integer=True)
        check(self.eta_spacing, "eta_spacing", 0, above=True)
        # a bad grid_n fails here, not at the first audit
        SolverSettings(grid_n=self.grid_n)


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of the refinement loop. `plan` is the last profile built;
    when feasible is False, `violations` lists the audit failures
    (eta, interval, achieved, required) of the final round."""

    feasible: bool
    plan: PiecewiseRatePlan
    theta: float
    rounds: int
    targets: tuple
    violations: tuple


def choose_theta(service):
    """Preemption policy from the service law: preempt (1) exactly when a
    fresh draw is never worse than the elapsed one (memoryless or
    decreasing-hazard laws: the exponential, and a Gamma or Erlang of shape
    <= 1, whose shape 1 is the exponential); otherwise finish what was
    started (0)."""
    if isinstance(service, Exponential):
        return 1.0
    if isinstance(service, (Deterministic, Uniform)):
        return 0.0
    if isinstance(service, Gamma):
        return 0.0 if service.shape > 1.0 else 1.0
    raise ConfigError(f"no preemption policy for service kind {service.kind!r}")


def _windows(schedule):
    """The window table (breakpoints, active): 2n breakpoints, and per
    window the intervals whose requirements it must meet. Every non-final
    [t_i, t_{i+1}) splits at t_{i+1} - x_{i+1} into cruising (active: i)
    and preparation (active: i, i+1); the final interval stays whole
    (nothing upcoming to prepare for; active: n-1)."""
    times, xs = schedule.times, schedule.thresholds
    n = schedule.n
    pts, active = [times[0]], []
    for i in range(n - 1):
        split = times[i + 1] - xs[i + 1]
        if split <= times[i]:
            raise ConfigError(
                f"no room for a cruising window on [{times[i]}, {times[i + 1]}): "
                f"next threshold {xs[i + 1]} eats the whole interval")
        pts.extend((split, times[i + 1]))
        active.extend(((i,), (i, i + 1)))
    pts.append(times[n])
    active.append((n - 1,))
    return tuple(pts), tuple(active)


def split_windows(schedule):
    """Breakpoints of the cruising/preparation window split: 2n points."""
    return _windows(schedule)[0]


def stationary_rate_search(service, theta, active, settings, _cache=None):
    """Smallest rate_grid entry whose stationary AoI law satisfies
    Phi(x) >= p for every (x, p) in `active`; None when no entry does."""
    if not active:
        raise ConfigError("stationary_rate_search needs at least one constraint")
    # x > 0 as in a schedule; p up to 1, the cap of a raised target
    active = [(check(x, "threshold", 0, above=True), check(p, "probability", 0, 1))
              for x, p in active]
    if any(p >= 1.0 for _, p in active):
        return None
    cache = _cache if _cache is not None else {}
    for lam in settings.rate_grid:
        ok = True
        for x, p in active:
            key = (lam, x)
            phi = cache.get(key)
            if phi is None:
                model = StationaryModel(lam, service, theta)
                phi = aoi_cdf_stationary(model, x)
                cache[key] = phi
            if phi < p:
                ok = False
                break
        if ok:
            return float(lam)
    return None


def _eta_nodes(schedule, spacing):
    """Audit nodes: spacing-stepped over (t_0, t_n], skipping nodes where
    eta <= x_k (there Phi = 1 from the empty start, nothing to check)."""
    t0, tn = schedule.times[0], schedule.times[-1]
    count = int(round((tn - t0) / spacing))
    etas = t0 + spacing * np.arange(1, count + 1)
    etas = etas[etas <= tn + 1e-12]
    out = []
    for eta in etas:
        k = schedule.interval_of(float(eta))
        if eta > schedule.thresholds[k]:
            out.append((float(eta), k))
    return out


def evaluate_plan(plan, schedule, service, theta, settings):
    """Post-hoc audit with the finite-time solver: returns
    [(eta, k, achieved, required, ok)] for every audit node. Independent of
    the search loop, so a feasibility claim can be re-checked from scratch."""
    config = SystemConfig(plan, service, theta)
    idle = solve_idle_prob(config, SolverSettings(horizon=schedule.times[-1],
                                                  grid_n=settings.grid_n))
    rows = []
    for eta, k in _eta_nodes(schedule, settings.eta_spacing):
        phi = aoi_cdf_tv(config, eta, schedule.thresholds[k], idle=idle)
        req = schedule.probabilities[k]
        rows.append((eta, k, phi, req, phi >= req))
    return rows


def _refine(schedule, service, theta, settings, windows):
    """Shared search-audit-escalate loop over a window table (breakpoints,
    active intervals per window). Each round gives every window the
    smallest grid rate meeting the current targets of its active intervals,
    stopping at the first window that finds none (infeasible), and audits
    the plan; each violating node bumps its interval's target by eps."""
    settings = settings or OptimizerSettings()
    theta = choose_theta(service) if theta is None else check(theta, "theta", 0, 1)
    bps, active = windows
    xs = schedule.thresholds
    targets = list(schedule.probabilities)
    cache = {}
    plan = None
    rounds = 0
    for _ in range(settings.ite_max):
        rounds += 1
        rates = []
        for ks in active:
            lam = stationary_rate_search(service, theta,
                                         [(xs[k], targets[k]) for k in ks],
                                         settings, _cache=cache)
            if lam is None:
                return OptimizeResult(False, None, theta, rounds, tuple(targets), ())
            rates.append(lam)
        plan = PiecewiseRatePlan(bps, tuple(rates))
        audit = evaluate_plan(plan, schedule, service, theta, settings)
        bad = [row for row in audit if not row[4]]
        if not bad:
            return OptimizeResult(True, plan, theta, rounds, tuple(targets), ())
        # one bump per violating node, aimed at that node's interval
        for _, k, _, _, _ in bad:
            targets[k] = min(targets[k] + settings.eps, 1.0)
    violations = tuple((eta, k, phi, req) for eta, k, phi, req, ok in audit if not ok)
    return OptimizeResult(False, plan, theta, rounds, tuple(targets), violations)


def optimize_rates(service, schedule, settings=None, theta=None):
    """Full heuristic: policy choice, window split, per-window stationary
    grid search, finite-time audit, eps-escalation. Returns an
    OptimizeResult; result.feasible=False carries the last violations."""
    return _refine(schedule, service, theta, settings, _windows(schedule))


def benchmark_constant_rate(service, schedule, settings=None, theta=None):
    """Reference point: one rate over the whole horizon meeting every
    requirement in steady state, audited and escalated the same way."""
    whole = ((schedule.times[0], schedule.times[-1]), (tuple(range(schedule.n)),))
    return _refine(schedule, service, theta, settings, whole)
