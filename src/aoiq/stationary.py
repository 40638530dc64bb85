"""Steady-state AoI distribution for constant arrival rate.

Two routes, deliberately independent of the time-varying solver, and
neither reads a service density:

* theta > 0: the AoI Laplace-Stieltjes transform (evaluated in cancelled
  form, so s=0 is regular) inverted numerically with Euler-summation
  acceleration of the Bromwich series.
* theta = 0: the convolution
  T[g](x) = g(x) + lambda int_0^x g(s) S(x-s) ds,  S = 1 - F,
  in survival form: 1 - Phi(x) = T[D](x) + lambda M(inf) int_x^inf S(z) dz
  and the PDF is T[M'] (T commutes with d/dx because M(0) = 0), with the
  closed forms D = M(inf) - M = M(inf) (S + W) and M' = lambda M(inf) W,
  W the service law's exp_convolved. Every term is >= 0, so the tail
  keeps its relative accuracy, the CDF cannot fall by roundoff and the
  PDF cannot go negative; below the service's support (S(x) = 1) both
  are exactly 0.

T runs on one outer rule over [0, x]: 64-node Gauss panels no longer than
16 (E[S] + 1/lambda), split at the service breakpoints b and at x - b,
with the first and last quarter of the end panels, at most 4 E[S] long,
on 32 nodes graded like t^4 toward 0 and x, where S may behave like
v^shape. The same rule gives m_x_stationary for theta > 0; at theta = 0
M = M(inf) (F - W) needs no quadrature.

Closed forms for M/M/1/1, M/D/1/1 and M/M/1/1-preemptive serve as oracles,
each with an analytic limit branch for lambda ~ mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import gauss_nodes, graded_nodes, split_points
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
# nodes resolve them on panels up to _PANEL_SCALE times that long. At the
# ends S(v) and S(x - v) change on the scale E[S], so 32 nodes graded like
# t^4 resolve at most _END_SCALE E[S] there.
_PANEL_SCALE = 16
_PANEL_NODES = 64
_END_NODES = 32
_END_SCALE = 4


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


def _abscissa(x):
    """x as a float; an AoI value must be finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ConfigError(f"AoI abscissa x must be finite, got {x}")
    return x


def _outer_rule(model, x):
    """(nodes, weights) on [0, x]. Panels of at most
    _PANEL_SCALE (E[S] + 1/lam), split at every service breakpoint b and at
    x - b, carry _PANEL_NODES Gauss nodes each, except that the first and
    the last quarter of the end panels, capped at _END_SCALE E[S], carry
    _END_NODES nodes graded like t^4 toward 0 and toward x, where S(v) and
    S(x - v) may behave like v^k (Gamma shape k)."""
    bps = [b for b in model.service.breakpoints() if 0.0 < b < x]
    longest = _PANEL_SCALE * (model.service.mean + 1.0 / model.lam)
    even = np.linspace(0.0, x, math.ceil(x / longest) + 1)
    edges = split_points(0.0, x, [*even, *bps, *(x - b for b in bps)])
    graded = _END_SCALE * model.service.mean
    first = min(0.25 * (edges[1] - edges[0]), graded)
    last = min(0.25 * (edges[-1] - edges[-2]), graded)
    inner, half, w = gauss_nodes([first, *edges[1:-1], x - last], _PANEL_NODES)
    head, head_w = graded_nodes(first, _END_NODES)
    end, end_w = graded_nodes(last, _END_NODES)
    nodes = np.concatenate((head, inner.ravel(), x - end))
    weights = np.concatenate((head_w, (half[:, None] * w).ravel(), end_w))
    return nodes, weights


def m_x_stationary(model, x):
    """Stationary M(x) = P(idle, AoI <= x) for every theta and service law.
    Integrating the density form by parts leaves only F:
        M(x) = c lam int_0^x F(v) e^{-lam theta v}
                             (theta + (1-theta) e^{-lam (x-v)}) dv,
    c = theta + (1-theta) M(inf): M(inf) (F(x) - exp_convolved(lam, x)) at
    theta = 0, one sum over the outer rule on [0, x] for theta > 0."""
    x = _abscissa(x)
    if x <= 0:
        return 0.0
    lam, th, svc = model.lam, model.theta, model.service
    if th == 0.0:
        val = m_infinity(model) * (svc.cdf(x) - svc.exp_convolved(lam, x))
    else:
        v, w = _outer_rule(model, x)
        c = th + (1.0 - th) * m_infinity(model)
        vals = svc.cdf(v) * np.exp(-lam * th * v) * (th + (1.0 - th) * np.exp(-lam * (x - v)))
        val = c * lam * float(vals @ w)
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

def _convolve(model, x, density):
    """T[g](x) = g(x) + lam int_0^x g(s) S(x-s) ds at theta = 0, S = 1 - F,
    on the outer rule, for g = D = M(inf) P(S + Y > s) = M(inf) (S + W)
    (density False) or g = M' = lam M(inf) W (density True), Y ~ Exp(lam),
    W(s) = P(S <= s < S + Y) in closed form; every term is >= 0."""
    lam, svc = model.lam, model.service
    minf = m_infinity(model)
    nodes, weights = _outer_rule(model, x)
    s = np.append(nodes, x)
    w = svc.exp_convolved(lam, s)
    g = lam * minf * w if density else minf * (svc.sf(s) + w)
    return float(g[-1]) + lam * float((g[:-1] * svc.sf(x - nodes)) @ weights)


def _survival(model, x):
    """1 - Phi(x) at theta = 0, T[D](x) + lam M(inf) int_x^inf S, to
    relative accuracy, also where Phi(x) rounds to 1."""
    return (_convolve(model, x, False)
            + model.lam * m_infinity(model) * model.service.tail(x))


def aoi_cdf_stationary(model, x):
    """P(AoI <= x) in steady state. theta = 0: the survival form
        1 - Phi(x) = T[D](x) + lam M(inf) int_x^inf S(z) dz,
    all terms >= 0, so the tail keeps its relative accuracy; theta > 0:
    the inversion of Phi~(s)/s."""
    x = _abscissa(x)
    if x <= 0:
        return 0.0
    if model.theta == 0.0:
        # below the service's support S(x) = 1 and the AoI cannot be <= x
        if model.service.sf(x) == 1.0:
            return 0.0
        val = 1.0 - _survival(model, x)
    else:
        val = _euler_invert(lambda s: aoi_lst(model, s) / s, x)
    return min(max(val, 0.0), 1.0)


def aoi_pdf_stationary(model, x):
    """AoI density in steady state: T[M'] at theta = 0, the inversion of
    Phi~(s) for theta > 0. The inversion is known to lose accuracy near
    x = 0 when the true density does not vanish there; the CDF route is the
    primary contract."""
    x = _abscissa(x)
    if x <= 0:
        return 0.0
    if model.theta == 0.0:
        if model.service.sf(x) == 1.0:
            return 0.0
        return _convolve(model, x, True)
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
