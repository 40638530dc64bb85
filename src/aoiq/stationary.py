"""Steady-state AoI distribution for constant arrival rate.

Two routes, deliberately independent of the time-varying solver, and
neither reads a service density:

* theta > 0: the AoI Laplace-Stieltjes transform (evaluated in cancelled
  form, so s=0 is regular) inverted numerically with Euler-summation
  acceleration of the Bromwich series.
* theta = 0: the convolution
  T[g](x) = g(x) + lambda int_0^x g(s) (1 - F(x-s)) ds
  gives the CDF as T[M] and the PDF as T[M'], M' = lambda (M(inf) F - M)
  (T commutes with d/dx because M(0) = 0).

M(x) = P(idle, AoI <= x), for every theta, comes from one march over
sorted knots (0, the service breakpoints and every point asked for) with
all piece integrals of F from one call of the Gauss panel rule, so each
convolution evaluates M at x and at all of its quadrature nodes in one
pass. No panel over [0, x] is longer than 16 (E[S] + 1/lambda), so the
tail stays resolved at any x.

Closed forms for M/M/1/1, M/D/1/1 and M/M/1/1-preemptive serve as oracles,
each with an analytic limit branch for lambda ~ mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import gauss_nodes, gauss_panels, geometric_ladder, split_points
from .errors import ConfigError, InversionError

__all__ = [
    "StationaryModel",
    "m_infinity", "m_x_stationary", "aoi_lst",
    "aoi_cdf_stationary", "aoi_pdf_stationary",
    "closed_form_mm11", "closed_form_md11", "closed_form_mm11_preemptive",
    "check_dominance",
]

# Euler-summation inversion constants (Abate-Whitt 1995): the Bromwich
# contour sits at Re(s) = A / (2x), the aliasing error is ~exp(-A) and the
# roundoff amplification ~exp(A/2) * eps; A = 18.4 balances both near 1e-8.
# A is the same at every x: letting it grow with x (say A = 2x) would
# multiply the roundoff by e^x and turn the tail into noise.
_EULER_A = 18.4
_EULER_TERMS = 40
_EULER_STAGES = 12
# series index, alternating signs (first term halved) and the binomial
# weights of the Euler average over the last _EULER_STAGES + 1 partial sums
_EULER_K = np.arange(_EULER_TERMS + _EULER_STAGES + 1)
_EULER_SIGNS = (-1.0) ** _EULER_K
_EULER_SIGNS[0] = 0.5
_EULER_WEIGHTS = np.array([math.comb(_EULER_STAGES, j)
                           for j in range(_EULER_STAGES + 1)]) / 2.0 ** _EULER_STAGES
# relative threshold for the lambda ~ mu limit branches
_EQ_RATE_DELTA = 1e-6
# M and the convolution integrand change on the scale E[S] + 1/lambda; 64
# nodes resolve them on panels up to _PANEL_SCALE times that long
_PANEL_SCALE = 16


@dataclass(frozen=True)
class StationaryModel:
    """Constant-rate M/G/1/1 instance."""

    lam: float
    service: object
    theta: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ConfigError(f"stationary model needs lambda > 0, got {self.lam}")
        if not (0.0 <= self.theta <= 1.0):
            raise ConfigError(f"theta must be in [0, 1], got {self.theta}")


# ---------------------------------------------------------------------------
# M(inf) and M(x)
# ---------------------------------------------------------------------------

def m_infinity(model):
    """Stationary idle probability. theta > 0:
    theta*F~(lam*theta) / (1 - (1-theta)*F~(lam*theta)); theta = 0 is the
    L'Hospital limit 1 / (1 + lam * mean)."""
    th = model.theta
    if th == 0.0:
        return 1.0 / (1.0 + model.lam * model.service.mean)
    fl = float(np.real(model.service.lst(model.lam * th)))
    return th * fl / (1.0 - (1.0 - th) * fl)


def _m(model, s):
    """M at points s of any order and shape, marched over the knots
    {0, max(s, 0), service breakpoints below max s}. Integrating the density
    form by parts leaves only F:
        M(x) = c lam int_0^x F(v) e^{-lam theta v}
                             (theta + (1-theta) e^{-lam (x-v)}) dv,
    c = theta + (1-theta) M(inf). The theta part is a cumsum of piece
    integrals; the other part is marched as
        B(b) = B(a) e^{-lam (b-a)}
               + int_a^b F(v) e^{-lam theta v} e^{-lam (b-v)} dv,
    with both piece integrals from one panel call."""
    lam, th = model.lam, model.theta
    s = np.maximum(np.asarray(s, dtype=float), 0.0)
    top = float(np.max(s, initial=0.0))
    bps = [b for b in model.service.breakpoints() if b < top]
    knots = np.unique(np.concatenate([[0.0], s.ravel(), bps]))
    ends = knots[1:, None]

    def integrands(v):
        weighted = model.service.cdf(v) * np.exp(-lam * th * v)
        return np.stack([weighted, weighted * np.exp(-lam * (ends - v))])

    flat, pieces = gauss_panels(integrands, knots, 64)
    decay = np.exp(-lam * np.diff(knots))
    scale = (th + (1.0 - th) * m_infinity(model)) * lam
    m = np.zeros(knots.size)
    for k in range(pieces.size):
        m[k + 1] = m[k] * decay[k] + scale * (1.0 - th) * pieces[k]
    m[1:] += scale * th * np.cumsum(flat)
    return m[np.searchsorted(knots, s)]


def _panel_edges(model, x, splits=()):
    """Sorted edges of [0, x]: the interior split points plus an even grid
    of panels no longer than _PANEL_SCALE (E[S] + 1/lam)."""
    longest = _PANEL_SCALE * (model.service.mean + 1.0 / model.lam)
    even = np.linspace(0.0, x, math.ceil(x / longest) + 1)
    return split_points(0.0, x, [*even, *splits])


def m_x_stationary(model, x):
    """Stationary M(x) = P(idle, AoI <= x) for every theta and service law;
    the march is graded toward 0, where F(v) may behave like v^shape."""
    if x <= 0:
        return 0.0
    val = _m(model, [*geometric_ladder(x), *_panel_edges(model, x)])[-1]
    return float(min(max(val, 0.0), 1.0))


# ---------------------------------------------------------------------------
# The AoI LST (theta > 0) and its numerical inversion
# ---------------------------------------------------------------------------

def aoi_lst(model, s):
    """LST of the stationary AoI for theta > 0, in cancelled form:

        Phi~(s) = [lam/(lam+s)] * theta*F~(lam*theta+s) /
                  (1 - (1-theta)*F~(lam*theta)) * (1 + (1-theta)K(s)) /
                  (1 - theta*K(s)),
        K(s) = lam (1 - F~(lam*theta+s)) / (lam*theta + s).

    The textbook form carries s * M*(s) with a 1/s inside M*; the s cancels
    analytically, and evaluating the cancelled product keeps s = 0 regular.
    """
    th = model.theta
    if th == 0.0:
        raise ConfigError(
            "theta = 0 has no LST route here; aoi_cdf_stationary uses the "
            "convolution path instead")
    lam = model.lam
    s = np.asarray(s)
    ftl = model.service.lst(lam * th + s)
    f0 = np.real(model.service.lst(lam * th))
    s_m = lam / (lam + s) * th * ftl / (1.0 - (1.0 - th) * f0)
    k = lam * (1.0 - ftl) / (lam * th + s)
    out = s_m * (1.0 + (1.0 - th) * k) / (1.0 - th * k)
    return out if out.ndim else complex(out)


def _euler_invert(fhat, x):
    """Abate-Whitt Euler summation of the Bromwich series at time x."""
    a, n = _EULER_A, _EULER_TERMS
    s = (a + 2j * np.pi * _EULER_K) / (2.0 * x)
    with np.errstate(over="raise", invalid="raise"):
        try:
            vals = np.asarray(fhat(s), dtype=complex)
            partial = np.cumsum(2.0 * np.real(vals) * _EULER_SIGNS)
            scale = math.exp(a / 2.0) / (2.0 * x)
            value = scale * float(np.dot(_EULER_WEIGHTS, partial[n:]))
            # successive Euler-averaged estimates agree to ~1e-9 when the
            # series is healthy; a large gap means roundoff has taken over
            previous = scale * float(np.dot(_EULER_WEIGHTS, partial[n - 1:-1]))
            drift = abs(value - previous)
        except (FloatingPointError, OverflowError) as exc:
            raise InversionError(
                f"inversion overflowed at x={x} (abscissa {a / (2 * x):.3g})",
                diagnostics={"x": x, "A": a, "cause": str(exc)}) from exc
    if not math.isfinite(value):
        raise InversionError(
            f"inversion produced a non-finite value at x={x}",
            diagnostics={"x": x, "A": a})
    if drift > 0.1:
        raise InversionError(
            f"inversion estimates disagree at x={x} (drift {drift:.3g})",
            diagnostics={"x": x, "A": a, "drift": drift})
    return value


# ---------------------------------------------------------------------------
# CDF / PDF
# ---------------------------------------------------------------------------

def _convolve(model, x, g):
    """T[g](x) = g(x) + lam int_0^x g(s) (1 - F(x-s)) ds at theta = 0, for
    g(model, s) = M or M', with g at x and at every Gauss node from one
    march. The integrand kinks at each service breakpoint b (through g) and
    at x - b (through F)."""
    bps = [b for b in model.service.breakpoints() if 0.0 < b < x]
    nodes, half, w = gauss_nodes(
        _panel_edges(model, x, bps + [x - b for b in bps]), 64)
    vals = g(model, np.append(nodes, x))
    inner = vals[:-1].reshape(nodes.shape) * (1.0 - model.service.cdf(x - nodes))
    return float(vals[-1]) + model.lam * float(np.sum(half * (inner @ w)))


def _m_prime(model, s):
    """dM/dx = lam (M(inf) F - M) at theta = 0."""
    return model.lam * (m_infinity(model) * model.service.cdf(s) - _m(model, s))


def aoi_cdf_stationary(model, x):
    """P(AoI <= x) in steady state: T[M] at theta = 0, the inversion of
    Phi~(s)/s for theta > 0."""
    if x <= 0:
        return 0.0
    if model.theta == 0.0:
        val = _convolve(model, x, _m)
    else:
        val = _euler_invert(lambda s: aoi_lst(model, s) / s, x)
    return min(max(val, 0.0), 1.0)


def aoi_pdf_stationary(model, x):
    """AoI density in steady state: T[M'] at theta = 0, the inversion of
    Phi~(s) for theta > 0. The inversion is known to lose accuracy near
    x = 0 when the true density does not vanish there; the CDF route is the
    primary contract."""
    if x <= 0:
        return 0.0
    if model.theta == 0.0:
        return _convolve(model, x, _m_prime)
    return _euler_invert(lambda s: aoi_lst(model, s), x)


# ---------------------------------------------------------------------------
# Closed-form oracles
# ---------------------------------------------------------------------------

def _rates_close(lam, mu):
    return abs(lam - mu) < _EQ_RATE_DELTA * max(lam, mu)


def closed_form_mm11(lam, mu, x):
    """M/M/1/1 without preemption (theta = 0), exponential service rate mu."""
    if lam <= 0 or mu <= 0:
        raise ConfigError("closed_form_mm11 needs lam, mu > 0")
    if x <= 0:
        return 0.0
    if _rates_close(lam, mu):
        # limit lam -> mu of the expression below
        mx = mu * x
        return 1.0 - math.exp(-mx) * (1.0 + mx + 0.25 * mx * mx)
    d = lam - mu
    term_lam = mu ** 3 / ((lam + mu) * d * d) * math.exp(-lam * x)
    bracket = (lam * lam - lam * mu - mu * mu) / (d * d) + lam * mu * x / d
    term_mu = lam / (lam + mu) * bracket * math.exp(-mu * x)
    return 1.0 - term_lam - term_mu


def closed_form_md11(lam, mu, x):
    """M/D/1/1 without preemption; deterministic service time 1/mu."""
    if lam <= 0 or mu <= 0:
        raise ConfigError("closed_form_md11 needs lam, mu > 0")
    if x < 0:
        return 0.0
    if x < 1.0 / mu:
        return 0.0
    if x < 2.0 / mu:
        return lam * mu * x / (lam + mu) - lam / (lam + mu)
    return 1.0 - mu / (lam + mu) * math.exp(-lam * x + 2.0 * lam / mu)


def closed_form_mm11_preemptive(lam, mu, x):
    """M/M/1/1 with full preemption (theta = 1)."""
    if lam <= 0 or mu <= 0:
        raise ConfigError("closed_form_mm11_preemptive needs lam, mu > 0")
    if x <= 0:
        return 0.0
    if _rates_close(lam, mu):
        mx = mu * x
        return 1.0 - (1.0 + mx) * math.exp(-mx)
    return 1.0 - lam / (lam - mu) * math.exp(-mu * x) \
        + mu / (lam - mu) * math.exp(-lam * x)


def check_dominance(lam, mu, xs):
    """Dominance check: the full-preemption CDF dominates the
    non-preemptive one at every point of xs (vacuously true when empty)."""
    for x in np.atleast_1d(np.asarray(xs, dtype=float)):
        if closed_form_mm11_preemptive(lam, mu, float(x)) \
                < closed_form_mm11(lam, mu, float(x)) - 1e-12:
            return False
    return True
