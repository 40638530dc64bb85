"""Finite-time AoI distribution for the time-varying system.

Solves the Volterra equations of the second kind behind Phi(t, x) on
equally spaced grids, h <= 0.01 for every service law, each sampled by
`_grid`: lambda and Lambda at the nodes, and weights integrated exactly
from the service survival function (`_kernels.moments`):

* the idle-probability curve M(t, inf) on [0, T], and
* the fixed-u equation for Phi-hat(u, x) (u = t - x held fixed) on the
  diagonal r = u + tau, tau in [0, x], returning the terminal node; its
  known term, the joint block M(r, x), is two explicit sums along the
  diagonal (the completion flux G_z, then M).

Plus the negligible-processing closed forms where service time is ~0.

The idle-curve and Phi-hat equations are linear in the unknowns, so
`_kernels.march` solves them directly (Linz, Analytical and Numerical
Methods for Volterra Equations, SIAM 1985, ch. 7): an implicit one 32
nodes per linear solve, an explicit one (the theta = 0 Phi-hat equation,
the theta = 1 idle curve) as one convolution, like the explicit sums along
a diagonal. The grid is the only accuracy setting: the discrete equations
are evaluated again at the solution, which leaves a roundoff residual (0
for an explicit equation, NaN for a value that is not finite), and a
residual above SolverSettings.etol = 1e-8 raises ConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import _kernels
from ._quad import gauss_panels
from .errors import ConfigError, ConvergenceError, check
from .model import GridFunction

__all__ = [
    "SolverSettings", "IdleProbabilityCurve", "solve_idle_prob",
    "aoi_cdf_tv", "aoi_cdf_negligible", "mean_aoi_negligible",
]


@dataclass(frozen=True)
class SolverSettings:
    """The grid of the Volterra solvers, their only accuracy setting.

    horizon: right end T of the idle-curve grid; None lets aoi_cdf_tv use
        its evaluation time t.
    grid_n: number of steps on [0, T]; None takes the fewest steps with
        h <= 0.01, whatever the service law.
    etol: a constant, the bound on the sup-norm residual of the discrete
        equations; the solve leaves a roundoff residual, far below it.
    """

    horizon: float | None = None
    grid_n: int | None = None
    etol: ClassVar[float] = 1e-8

    def __post_init__(self):
        if self.horizon is not None:
            check(self.horizon, "horizon", 0, above=True)
        if self.grid_n is not None:
            check(self.grid_n, "grid_n", 2, integer=True)


class IdleProbabilityCurve:
    """M(t, inf) = B(t, 0) on [0, T]: probability the system is empty.

    residual is the sup-norm residual of the discrete equations; iterations
    counts the passes of the solve, always one march.
    """

    iterations = 1

    def __init__(self, grid, residual):
        self.grid = grid
        self.residual = residual

    def __call__(self, t):
        return self.grid(t)

    @property
    def horizon(self):
        return self.grid.t1


_STEP = 0.01


def _grid(config, start, length, n):
    """The model on n equal steps of [start, start + length]: the step h,
    the nodes, lambda and Lambda (from start) at the nodes, and the
    product-integration weights of the service law on n steps of h."""
    h = length / n
    nodes = start + np.linspace(0.0, length, n + 1)
    lam = config.rate.rate(nodes)
    Lam = np.asarray(config.rate.integral(start, nodes), dtype=float)
    return h, nodes, lam, Lam, _kernels.moments(config.service, h, n)


def _certify(residual, label):
    if not residual <= SolverSettings.etol:
        raise ConvergenceError(
            f"{label}: residual {residual:.3e} of the discrete equations "
            f"exceeds etol {SolverSettings.etol:.1e}", residual=residual)


# ---------------------------------------------------------------------------
# The idle-probability curve M(t, inf)
# ---------------------------------------------------------------------------

def solve_idle_prob(config, settings):
    """Solve the M(t, inf) equation on [0, T], certified to sup-norm
    residual <= SolverSettings.etol.

    The returned curve includes the never-updated term exp(-int_0^t lambda*theta)
    and interpolates linearly between nodes; M(0, inf) = 1 (empty start).
    """
    if settings.horizon is None:
        raise ConfigError("solve_idle_prob needs settings.horizon")
    T = settings.horizon
    n = settings.grid_n or max(2, math.ceil(T / _STEP - 1e-12))
    h, _, lam, Lam, mom = _grid(config, 0.0, T, n)
    theta = config.theta

    # w_i = e^{-theta Lam_i} + theta S_i[lam F] - (1 - theta) S_i[lam (1 - F) w]
    base = np.exp(-theta * Lam)
    if theta:
        base += theta * _kernels.history(lam, mom["F"], Lam, theta)
    w, resid = _kernels.march(base, lam, mom["1-F"], Lam, theta,
                              alpha=-(1.0 - theta), beta=np.zeros(n + 1))
    _certify(resid, "idle curve")
    grid = GridFunction(0.0, h, np.clip(w, 0.0, 1.0))
    return IdleProbabilityCurve(grid, resid)


# ---------------------------------------------------------------------------
# The AoI distribution Phi(t, x)
# ---------------------------------------------------------------------------

def aoi_cdf_tv(config, t, x, settings=None, idle=None):
    """P(Delta(t) <= x) for the time-varying system.

    Returns 1 when x >= t (the AoI cannot exceed the system age under the
    empty start). Otherwise solves the fixed-u Volterra equation on a grid
    over [0, x] and returns the terminal node, clipped into [0, 1].

    A precomputed IdleProbabilityCurve covering [0, t] can be shared across
    (t, x) queries via `idle`; its grid step then sets the step, and
    `settings` only checks that its horizon, when set, is not below t.

    Raises ConfigError when `idle` does not cover t, and when the grid is
    too coarse for the implicit step: h * lambda * theta must stay below 1
    at every node of the diagonal, t included.
    """
    t, x = check(t, "t", 0), check(x, "x", 0)
    if x >= t:
        return 1.0
    if x == 0:
        return 0.0
    if settings is None:
        settings = SolverSettings()
    if settings.horizon is not None and settings.horizon < t:
        raise ConfigError(
            f"settings.horizon {settings.horizon} is below the evaluation time {t}")
    if idle is None:
        idle = solve_idle_prob(config, replace(settings, horizon=settings.horizon or t))
    elif idle.horizon < t - 1e-9 * max(1.0, t):
        raise ConfigError(f"idle curve horizon {idle.horizon} does not cover t={t}")

    # the diagonal r = u + tau, tau in [0, x], on the fewest steps no longer
    # than the idle curve's, and the arrival weight
    # c = lambda (theta + (1 - theta) M(r, inf)) at its nodes
    u = t - x
    theta = config.theta
    h, r, lam, Lam, mom = _grid(config, u, x, max(2, math.ceil(x / idle.grid.h - 1e-12)))
    c = lam * (theta + (1.0 - theta) * np.asarray(idle(r), dtype=float))

    # the march divides by 1 - omega_0 lambda_i theta at the diagonal's
    # nodes, omega_0 <= h/2; keeping that above 1/2 bounds the error
    # amplification of each step by 2
    stiffness = float(lam.max()) * theta
    if h * stiffness >= 1.0:
        h_max = 1.0 / stiffness
        raise ConfigError(
            f"Phi(t={t}, x={x}): step h={h:.4g} is too coarse for the implicit "
            f"step, which needs h < {h_max:.4g}; use grid_n >= "
            f"{math.floor(idle.horizon / h_max) + 1} on horizon {idle.horizon:g}")

    # the joint block M(r, x) from G_z, then
    # Phi-hat_i = M_i + S_i[lam (1 - F) (theta Phi-hat + (1 - theta) M)]
    gz = _kernels.history(c, mom["dF"], Lam, theta)
    mx = _kernels.history(gz, mom["1"], Lam, 1.0)
    w, resid = _kernels.march(mx, lam, mom["1-F"], Lam, theta,
                              alpha=theta, beta=(1.0 - theta) * mx)
    _certify(resid, f"Phi(t={t}, x={x})")
    return float(min(max(w[-1], 0.0), 1.0))


# ---------------------------------------------------------------------------
# Negligible processing time
# ---------------------------------------------------------------------------

def aoi_cdf_negligible(profile, t, x):
    """P(Delta(t) <= x) when processing is instantaneous:
    1 - exp(-int_{t-x}^{t} lambda) for t > x, else 1."""
    t, x = check(t, "t", 0), check(x, "x", 0)
    if t <= x:
        return 1.0
    return float(-np.expm1(-profile.integral(t - x, t)))


def mean_aoi_negligible(profile, t):
    """E[Delta(t)] with instantaneous processing:
    int_0^t exp(-int_{t-x}^{t} lambda) dx by composite quadrature."""
    t = check(t, "t", 0)
    if t == 0:
        return 0.0
    # one panel per smooth piece: the integrand kinks where t - x crosses a breakpoint
    edges = sorted({0.0, t, *(t - b for b in profile.breakpoints_in(0.0, t))})
    panels = gauss_panels(lambda xs: np.exp(-profile.integral(t - xs, t)), edges, 64)
    return float(np.sum(panels))
