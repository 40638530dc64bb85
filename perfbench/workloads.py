"""The four benchmark workloads: inputs built from a seed, one timed pass,
and the checks on every output of the pass.

Every workload calls the public API through an `api` namespace (see
`tracing.direct_api`) so that a traced run can put timers around the
same calls without touching the library.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from aoiq import (ConstraintSchedule, Deterministic, Erlang, Exponential,
                  Gamma, OptimizerSettings, PiecewiseConstant, SimRequest,
                  Sinusoid, SolverSettings, StationaryModel, SystemConfig,
                  Uniform, aoi_cdf_tv, closed_form_md11, closed_form_mm11,
                  closed_form_mm11_preemptive, optimize_rates, solve_idle_prob,
                  split_windows)
from aoiq.errors import ConvergenceError, InversionError
from tracing import direct_api

# Each nominal x sits in the middle of a 0.25-wide cell; a seed picks one of
# POSITIONS evenly spaced points inside the cell, so the committed reference
# table covers every seed.
CELL = 0.25
POSITIONS = 8

NUMERIC_ERRORS = (InversionError, ConvergenceError)


def cell_positions(x):
    """The POSITIONS abscissae a seed may draw for nominal x."""
    return [x - CELL / 2 + CELL * (k + 0.5) / POSITIONS for k in range(POSITIONS)]


def jittered(nominal, rng):
    """Each nominal x moved to one of its cell positions.
    Returns (xs, position indices)."""
    ks = [int(k) for k in rng.integers(0, POSITIONS, size=len(nominal))]
    return [cell_positions(x)[k] for x, k in zip(nominal, ks)], ks


@dataclass
class PassResult:
    """One pass: wall time, per-operation latencies (empty where a workload
    has no latency to report), and the checked outputs. `failures` lists
    (output id, reason) for every output that raised or failed its check;
    `unexpected` is the part of it that makes the run incorrect (all of it,
    unless the workload records known defects)."""

    wall_s: float
    op_s: list
    attempted: int
    failures: list
    max_abs_err: float = 0.0
    extra: dict = field(default_factory=dict)
    unexpected: list | None = None

    def __post_init__(self):
        if self.unexpected is None:
            self.unexpected = self.failures


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# tv_sweep: the finite-time solver on the fig-2 Erlang system
# ---------------------------------------------------------------------------

class TvSweep:
    """One idle-curve solve on [0, 20] at the default step, then 100
    Phi(t, x) queries sharing it. Checks: the idle curve meets its residual
    contract, Phi lies in [0, 1] and within TOL of the 4x-grid reference."""

    name = "tv_sweep"
    TS = (5.0, 10.0, 15.0, 20.0)
    NOMINAL = tuple(CELL * i for i in range(1, 26))
    TOL = 1e-3

    def __init__(self, seed, reference):
        self.config = self.system()
        self.settings = SolverSettings(horizon=self.TS[-1])
        ref = reference["tv_sweep"]["phi"]
        rng = np.random.default_rng([seed, 1])
        self.queries = []
        for ti, t in enumerate(self.TS):
            xs, ks = jittered(self.NOMINAL, rng)
            for ci, (x, k) in enumerate(zip(xs, ks)):
                self.queries.append((t, x, ref[ti][ci][k]))
        # a seeded order spreads queries of every size over the pass, so
        # slow drifts in machine speed do not land on one part of the
        # latency distribution
        self.queries = [self.queries[i] for i in rng.permutation(len(self.queries))]

    @staticmethod
    def system():
        return SystemConfig(Sinusoid(1.7, 1.0, 1.8), Erlang(5, 1.0 / 6.0), 0.6)

    def warmup(self, api):
        small = SolverSettings(horizon=2.0)
        idle = api.solve_idle_prob(self.config, small)
        api.aoi_cdf_tv(self.config, 2.0, 0.5, settings=small, idle=idle)

    def run(self, api):
        op_s, phis = [], []
        t0 = time.perf_counter()
        idle = api.solve_idle_prob(self.config, self.settings)
        for t, x, _ in self.queries:
            phi, dt = _timed(lambda: api.aoi_cdf_tv(
                self.config, t, x, settings=self.settings, idle=idle))
            phis.append(phi)
            op_s.append(dt)
        wall = time.perf_counter() - t0
        return self.check(idle, phis, wall, op_s)

    def check(self, idle, phis, wall, op_s):
        failures = []
        if not idle.residual <= self.settings.etol:
            failures.append(("idle", f"residual {idle.residual:.3e}"))
        errs = []
        for (t, x, ref), phi in zip(self.queries, phis):
            err = abs(phi - ref)
            errs.append(err)
            if not 0.0 <= phi <= 1.0:
                failures.append(((t, x), f"phi {phi!r} outside [0, 1]"))
            elif not err <= self.TOL:
                failures.append(((t, x), f"phi {phi:.8f} vs reference {ref:.8f}"))
        return PassResult(wall, op_s, 1 + len(phis), failures, max(errs))

    @classmethod
    def reference(cls):
        """Phi at every cell position, solved on a 4x finer grid."""
        config = cls.system()
        default_n = len(solve_idle_prob(config, SolverSettings(horizon=cls.TS[-1])).grid) - 1
        fine = SolverSettings(horizon=cls.TS[-1], grid_n=4 * default_n)
        idle = solve_idle_prob(config, fine)
        phi = [[[aoi_cdf_tv(config, t, x, settings=fine, idle=idle) for x in cell_positions(c)]
                for c in cls.NOMINAL] for t in cls.TS]
        return {"grid_n": fine.grid_n, "default_grid_n": default_n,
                "horizon": fine.horizon, "h": idle.grid.h,
                "seeds": f"all: every x a seed can draw ({POSITIONS} per cell)",
                "phi": phi}


# ---------------------------------------------------------------------------
# stationary_curve: both stationary routes on the widened fig-7 grid
# ---------------------------------------------------------------------------

MU = 1.2
STATIONARY_SERVICES = (
    ("exp", Exponential(MU)),
    ("det", Deterministic(1.0 / MU)),
    ("uni", Uniform(0.0, 2.0 / MU)),
    ("gam1", Gamma(MU, 1.0 / MU ** 2)),
    ("gam2", Gamma(1.0 / MU, 1.0)),
    ("erlang", Erlang(5, 1.0 / (5 * MU)))
)
TAIL_XS = (20.0, 30.0, 40.0, 60.0, 100.0)


def stationary_models():
    """(label, model, closed form or None) for the 39 stationary models."""
    out = []
    for lam in (0.4, 0.8, 1.6):
        for theta in (0.0, 0.3):
            for name, svc in STATIONARY_SERVICES:
                oracle = None
                if theta == 0.0 and name == "exp":
                    oracle = closed_form_mm11
                elif theta == 0.0 and name == "det":
                    oracle = closed_form_md11
                out.append((f"lam{lam:g}-th{theta:g}-{name}",
                            StationaryModel(lam, svc, theta), oracle))
        out.append((f"lam{lam:g}-th1-exp", StationaryModel(lam, Exponential(MU), 1.0),
                    closed_form_mm11_preemptive))
    return out


class StationaryCurve:
    """CDF and PDF of 39 models at 45 abscissae (40 jittered grid points in
    (0, 10] and the fixed tail points 20..100): 3510 calls.

    No per-operation latency is kept: call times are bimodal, since 21 of
    the 39 models take the inversion (fast) and 18 the theta=0 convolution
    (slow). Checks: CDF in [0, 1] and never below its value at a smaller x,
    PDF >= -1e-9; a typed numerical error fails the call. Failures the
    reference lists as known seed defects still count as failed but do not
    make the run incorrect."""

    name = "stationary_curve"
    NOMINAL = tuple(CELL * i for i in range(1, 41))
    PDF_FLOOR = -1e-9

    def __init__(self, seed, reference, xs=None):
        self.models = stationary_models()
        if xs is None:
            xs = jittered(self.NOMINAL, np.random.default_rng([seed, 2]))[0] + list(TAIL_XS)
        self.xs = xs
        self.known = {tuple(k) for k in reference["stationary_curve"]["known_failures"]}

    def warmup(self, api):
        api.aoi_cdf_stationary(StationaryModel(0.8, Uniform(0.0, 1.0), 0.0), 1.0)
        api.aoi_cdf_stationary(StationaryModel(0.8, Uniform(0.0, 1.0), 0.3), 1.0)

    def run(self, api):
        n = len(self.models)
        cdf = np.full((n, len(self.xs)), np.nan)
        pdf = np.full((n, len(self.xs)), np.nan)
        failures = []
        t0 = time.perf_counter()
        for i, (label, model, _) in enumerate(self.models):
            for j, x in enumerate(self.xs):
                try:
                    cdf[i, j] = api.aoi_cdf_stationary(model, x)
                except NUMERIC_ERRORS as exc:
                    failures.append(((label, x, "cdf"), type(exc).__name__))
                try:
                    pdf[i, j] = api.aoi_pdf_stationary(model, x)
                except NUMERIC_ERRORS as exc:
                    failures.append(((label, x, "pdf"), type(exc).__name__))
        wall = time.perf_counter() - t0
        return self.check(cdf, pdf, failures, wall)

    def check(self, cdf, pdf, failures, wall):
        errs = [0.0]
        for i, (label, _, oracle) in enumerate(self.models):
            prev = -math.inf
            for j, x in enumerate(self.xs):
                c, p = cdf[i, j], pdf[i, j]
                if not math.isnan(c):
                    if not 0.0 <= c <= 1.0:
                        failures.append(((label, x, "cdf"), f"cdf {c!r} outside [0, 1]"))
                    elif c < prev:
                        failures.append(((label, x, "cdf"), f"cdf {c!r} decreases"))
                    prev = max(prev, c)
                    if oracle is not None:
                        errs.append(abs(c - oracle(self.models[i][1].lam, MU, x)))
                if not math.isnan(p) and not p >= self.PDF_FLOOR:
                    failures.append(((label, x, "pdf"), f"pdf {p!r} < {self.PDF_FLOOR}"))
        calls = 2 * cdf.size
        unexpected = [f for f in failures if f[0] not in self.known]
        return PassResult(wall, [], calls, failures, max(errs),
                          unexpected=unexpected)

    @classmethod
    def reference(cls):
        """The failures of the seed library at every x any seed can draw,
        recorded as known defects."""
        xs = [x for c in cls.NOMINAL for x in cell_positions(c)] + list(TAIL_XS)
        curve = cls(None, {"stationary_curve": {"known_failures": []}}, xs=xs)
        result = curve.run(direct_api())
        known = sorted({where for where, _ in result.failures})
        return {"seeds": f"all: every x a seed can draw ({POSITIONS} per cell)",
                "known_failures": [list(k) for k in known]}


# ---------------------------------------------------------------------------
# rate_design: optimize_rates on the fig-8 schedule
# ---------------------------------------------------------------------------

FIG8_SCHEDULE = ConstraintSchedule(
    times=(0.0, 8.0, 16.0, 24.0, 32.0, 40.0, 48.0, 56.0),
    thresholds=(7.5, 6.5, 4.5, 3.0, 4.5, 6.5, 7.5),
    probabilities=(0.9,) * 7)


class RateDesign:
    """One optimize_rates call with the default settings. Checks: the plan
    is feasible, uses the window split and rate grid, and costs at most
    COST_SLACK more than the seed's plan."""

    name = "rate_design"
    COST_SLACK = 0.05

    def __init__(self, seed, reference):
        # the workload has no random inputs; the seed is accepted and unused
        self.service = Uniform(0.0, 4.0 / 3.0)
        self.schedule = FIG8_SCHEDULE
        self.settings = OptimizerSettings()
        self.ref_cost = reference["rate_design"]["cost"]

    def warmup(self, api):
        api.aoi_cdf_stationary(StationaryModel(1.0, self.service, 0.0), 3.0)
        small = SolverSettings(horizon=2.0)
        config = SystemConfig(PiecewiseConstant((0.0, 1.0, 2.0), (1.0, 2.0)),
                              self.service, 0.0)
        idle = api.solve_idle_prob(config, small)
        api.aoi_cdf_tv(config, 2.0, 0.5, settings=small, idle=idle)

    def run(self, api):
        result, wall = _timed(lambda: api.optimize_rates(
            self.service, self.schedule, self.settings))
        return self.check(result, wall)

    def check(self, result, wall):
        failures = []
        plan = result.plan
        if not result.feasible:
            failures.append(("plan", f"infeasible after {result.rounds} rounds"))
        elif plan.breakpoints != split_windows(self.schedule):
            failures.append(("plan", "breakpoints differ from the window split"))
        elif not set(plan.rates) <= set(self.settings.rate_grid):
            failures.append(("plan", "a rate is not on the rate grid"))
        elif not plan.cost <= self.ref_cost * (1.0 + self.COST_SLACK):
            failures.append(("plan", f"cost {plan.cost:.6f} vs seed {self.ref_cost:.6f}"))
        cost = plan.cost if plan is not None else math.nan
        return PassResult(wall, [], 1, failures, extra={"plan_cost": cost})

    @classmethod
    def reference(cls):
        """The plan the library finds."""
        w = cls(None, {"rate_design": {"cost": None}})
        result = optimize_rates(w.service, w.schedule, w.settings)
        return {"feasible": result.feasible, "cost": result.plan.cost,
                "rounds": result.rounds, "rates": list(result.plan.rates)}


# ---------------------------------------------------------------------------
# sim_sweep: the simulator on a fig-5-style time sweep
# ---------------------------------------------------------------------------

SQUARE = PiecewiseConstant((0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0),
                           (1.5, 0.5, 1.5, 0.5, 1.5, 0.5, 1.5))


def sim_systems():
    """(label, config) for the 8 fig-5 systems."""
    out = []
    for rname, rate in (("sin", Sinusoid(1.0, 1.0, 0.8)), ("square", SQUARE)):
        for sname, svc in (("exp", Exponential(1.5)), ("uni", Uniform(0.0, 4.0 / 3.0))):
            for theta in (0.1, 0.9):
                out.append((f"{rname}-{sname}-th{theta:g}", SystemConfig(rate, svc, theta)))
    return out


def dkw_radius(n, alpha):
    """Dvoretzky-Kiefer-Wolfowitz band half-width for n samples."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


class SimSweep:
    """104 empirical_cdf requests of 500 replications (8 systems x 13 times,
    xs = 0.8 and 3.0). Check: every value lies inside the DKW band
    (alpha = 1e-3) around the stored solver reference."""

    name = "sim_sweep"
    TS = tuple(1.5 * i for i in range(1, 14))
    XS = (0.8, 3.0)
    REPS = 500
    ALPHA = 1e-3

    def __init__(self, seed, reference):
        ref = reference["sim_sweep"]["phi"]
        seeds = np.random.default_rng([seed, 4]).integers(0, 2 ** 31, size=104)
        self.requests = []
        self.arrivals = 0.0
        for label, config in sim_systems():
            for ti, t in enumerate(self.TS):
                request = SimRequest(config, t, self.REPS, int(seeds[len(self.requests)]))
                self.requests.append((label, request, ref[label][ti]))
                self.arrivals += self.REPS * config.rate.integral(0.0, t)
        order = np.random.default_rng([seed, 5]).permutation(len(self.requests))
        self.requests = [self.requests[i] for i in order]
        self.radius = dkw_radius(self.REPS, self.ALPHA)

    def warmup(self, api):
        api.empirical_cdf(SimRequest(self.requests[0][1].config, 5.0, 20, 0), self.XS)

    def run(self, api):
        op_s, outs = [], []
        t0 = time.perf_counter()
        for _, request, _ in self.requests:
            emp, dt = _timed(lambda: api.empirical_cdf(request, self.XS))
            outs.append(emp)
            op_s.append(dt)
        wall = time.perf_counter() - t0
        return self.check(outs, wall, op_s)

    def check(self, outs, wall, op_s):
        failures, errs = [], []
        for (label, request, ref), emp in zip(self.requests, outs):
            err = float(np.max(np.abs(np.asarray(emp) - np.asarray(ref))))
            errs.append(err)
            if not err <= self.radius:
                failures.append(((label, request.t),
                                 f"empirical {list(emp)} vs reference {ref}"))
        return PassResult(wall, op_s, len(outs), failures, max(errs),
                          {"arrivals": self.arrivals})

    @classmethod
    def reference(cls):
        """Solver Phi(t, x) per system at the default step."""
        phi, grids = {}, {}
        for label, config in sim_systems():
            settings = SolverSettings(horizon=cls.TS[-1])
            idle = solve_idle_prob(config, settings)
            grids[label] = len(idle.grid) - 1
            phi[label] = [[aoi_cdf_tv(config, t, x, settings=settings, idle=idle)
                           for x in cls.XS] for t in cls.TS]
        return {"horizon": cls.TS[-1], "grid_n": grids,
                "seeds": "all: the reference does not depend on the seed",
                "phi": phi}


WORKLOADS = {w.name: w for w in (TvSweep, StationaryCurve, RateDesign, SimSweep)}
