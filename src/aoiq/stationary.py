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
16 (E[S] + 1/lambda), split at the service breakpoints b (and, at large
lambda, at b + 40/lambda, where D's boundary layer after an atom ends) and
at their mirror images x - b, with the first and last quarter of the end
panels, at most 4 E[S] long, on 32 nodes graded like t^4 toward 0 and x,
where S may behave like v^shape. The rule is laid out from unit templates
for its left half and mirrored, so x - s runs over the nodes backwards:
one S evaluation at (nodes, x) gives g and the kernel S(x - s), and the
last value, S(x), is the below-support test. The same rule gives
m_x_stationary for theta > 0; at theta = 0 M = M(inf) (F - W) needs no
quadrature.

A call pays only for its x: StationaryModel derives M(inf), the LST
constant (theta > 0) and the rule's panel bound, end cap and split points
once, at construction. Up to x1 = min(panel bound, 16 E[S], first split
point) the rule is one panel with quarter-length graded ends, whose four
rows _rule lays out directly, to the same bits; beyond x1 _outer_rule lays
out the rule.

Closed forms for M/M/1/1, M/D/1/1 and M/M/1/1-preemptive serve as oracles,
each with an analytic limit branch for lambda ~ mu.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import gauss_rule, graded_rule
from .errors import ConfigError, InversionError, check
from .model import ServiceDistribution

__all__ = [
    "StationaryModel",
    "m_infinity", "m_x_stationary", "aoi_lst",
    "aoi_cdf_stationary", "aoi_pdf_stationary",
    "closed_form_mm11", "closed_form_md11", "closed_form_mm11_preemptive",
]

# Euler-summation inversion constants (Abate-Whitt 1995): the Bromwich
# contour sits at Re(s) = A / (2x), the aliasing error is ~exp(-A) and the
# roundoff amplification ~exp(A/2) * eps; A = 18.4 balances both near 1e-8.
# A is the same at every x: letting it grow with x (say A = 2x) would
# multiply the roundoff by e^x and turn the tail into noise.
_EULER_A = 18.4
_EULER_TERMS = 40
_EULER_STAGES = 12
# series index and contour points times x
_EULER_K = np.arange(_EULER_TERMS + _EULER_STAGES + 1)
_EULER_S = (_EULER_A + 2j * np.pi * _EULER_K) / 2.0


def _euler_coefficients():
    """(terms, 2) weights of Re f(s_k) in the Euler estimates from the last
    _EULER_STAGES + 1 partial sums ending at _EULER_TERMS (column 0) and
    one before (column 1). The binomial average sum_j w_j sum_{k<=n+j} t_k
    is sum_k t_k sum_{j>=k-n} w_j, and t_k = 2 (-1)^k Re f(s_k), the first
    term halved."""
    stages, n = _EULER_STAGES, _EULER_TERMS
    w = np.array([math.comb(stages, j) for j in range(stages + 1)]) / 2.0 ** stages
    tail = np.append(np.cumsum(w[::-1])[::-1], 0.0)
    signs = 2.0 * (-1.0) ** _EULER_K
    signs[0] = 1.0
    return np.stack([signs * tail[np.clip(_EULER_K - m, 0, stages + 1)]
                     for m in (n, n - 1)], axis=1)


_EULER_C = _euler_coefficients()
# relative threshold for the lambda ~ mu limit branches
_EQ_RATE_DELTA = 1e-6
# M and the convolution integrand change on the scale E[S] + 1/lambda; 64
# nodes resolve them on panels up to _PANEL_SCALE times that long. At the
# ends S(v) and S(x - v) change on the scale E[S], so 32 nodes graded like
# t^4 resolve at most _END_SCALE E[S] there. After a service atom at b, D
# falls like e^{-lam (s - b)}; where 64 nodes cannot resolve that, a panel
# of _LAYER / lam starts at b.
_PANEL_SCALE = 16
_PANEL_NODES = 64
_END_NODES = 32
_END_SCALE = 4
_LAYER = 40


def _constant():
    """A value __post_init__ derives from the parameters: left out of the
    constructor, repr, == and hash."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class StationaryModel:
    """Constant-rate M/G/1/1 instance. Construction also derives what every
    CDF, PDF and M(x) call needs: M(inf), the LST constant c (theta > 0)
    and the outer rule's panel bound, end cap and split points (see
    _outer_rule), and _x1, the largest x whose rule is one panel (see
    _rule)."""

    lam: float
    service: ServiceDistribution
    theta: float
    _minf: float = _constant()
    _lst_c: float | None = _constant()
    _longest: float = _constant()
    _end_cap: float = _constant()
    _splits: tuple = _constant()
    _x1: float = _constant()

    def __post_init__(self):
        check(self.lam, "stationary rate lambda", 0, above=True)
        th = check(self.theta, "theta", 0, 1)
        svc = self.service
        if not isinstance(svc, ServiceDistribution):
            raise ConfigError(f"stationary service must be a ServiceDistribution, got {svc!r}")
        # M(inf): theta F~(lam theta) / (1 - (1-theta) F~(lam theta)), at
        # theta = 0 its L'Hospital limit 1 / (1 + lam E[S]); c as in aoi_lst
        if th == 0.0:
            minf, lst_c = 1.0 / (1.0 + self.lam * svc.mean), None
        else:
            fl = float(np.real(svc.lst(self.lam * th)))
            minf = th * fl / (1.0 - (1.0 - th) * fl)
            lst_c = self.lam * th / (1.0 - (1.0 - th) * fl)
        longest = _PANEL_SCALE * (svc.mean + 1.0 / self.lam)
        end_cap = _END_SCALE * svc.mean
        layer = _LAYER / self.lam
        splits = svc.breakpoints()
        if layer < longest / _PANEL_NODES:
            splits = (*splits, *(b + layer for b in splits))
        # one panel (x <= longest), no split point inside (0, x), and ends
        # of a quarter of x (x/4 <= end_cap)
        x1 = min(longest, 4.0 * end_cap, *(b for b in splits if b > 0.0))
        for name, value in (("_minf", minf), ("_lst_c", lst_c), ("_longest", longest),
                            ("_end_cap", end_cap), ("_splits", splits), ("_x1", x1)):
            object.__setattr__(self, name, value)


# ---------------------------------------------------------------------------
# M(inf) and M(x)
# ---------------------------------------------------------------------------

def m_infinity(model):
    """Stationary idle probability. theta > 0:
    theta*F~(lam*theta) / (1 - (1-theta)*F~(lam*theta)); theta = 0 is the
    L'Hospital limit 1 / (1 + lam * mean). Computed with the model."""
    return model._minf


@functools.cache
def _row_templates():
    """(nodes, weights) of the four unit templates of _END_NODES nodes
    each, nodes ascending: the graded end rule on [0, 1], the two halves of
    the panel rule on [-1, 1] and the end rule mirrored onto [-1, 0].
    Template 3 - t is the mirror image of template t (the Gauss rule is
    symmetric), with its weights reversed. Built on first use, so that
    importing the package runs no eigensolver."""
    end_t, end_w = graded_rule(_END_NODES)
    gauss_t, gauss_w = gauss_rule(_PANEL_NODES)
    return (np.vstack((end_t, *np.split(gauss_t, 2), -end_t[::-1])),
            np.vstack((end_w, *np.split(gauss_w, 2), end_w[::-1])))


def _outer_rule(model, x):
    """(nodes, weights) on [0, x], nodes ascending, mirror-symmetric: the
    right half is x - (left half) reversed with the reversed weights, so
    x - nodes[i] is nodes[-1 - i] (to roundoff in x). Panels of at most
    _PANEL_SCALE (E[S] + 1/lam), split at every service breakpoint b, at
    b + _LAYER / lam when _LAYER / lam is shorter than the node spacing of
    the longest panel (D falls like e^{-lam (s - b)} after an atom at b),
    and at the mirror images x - p of those points, carry _PANEL_NODES
    Gauss nodes each, except that the first and the last quarter of the end
    panels, capped at _END_SCALE E[S], carry _END_NODES nodes graded like
    t^4 toward 0 and toward x, where S(v) and S(x - v) may behave like v^k
    (Gamma shape k). Only the left half is laid out, from the split points
    below x/2 (each point p of the full rule as min(p, x - p)), and then
    mirrored. The panel bound, the end cap and the split points come from
    the model."""
    half_x = 0.5 * x
    n = math.ceil(x / model._longest)
    step = x / n
    # with an even number of even panels, or a split at x/2, the halves
    # meet at a panel edge; otherwise the middle panel straddles x/2
    middle = n % 2 == 0
    cuts = {k * step for k in range(1, (n + 1) // 2)}
    for b in model._splits:
        if 0.0 < b < x:
            p = min(b, x - b)
            if p == half_x:
                middle = True
            else:
                cuts.add(p)
    cuts = sorted(cuts)
    if middle:
        cuts.append(half_x)
    first = min(0.25 * (cuts[0] if cuts else x), model._end_cap)
    # rows of _END_NODES nodes as (offset, scale, template): the graded
    # end, both halves of each panel and the left half of a panel that
    # straddles x/2, then each row's mirror image in reverse order
    rows = [(0.0, first, 0)]
    for a, b in zip([first, *cuts], cuts):
        rows += [(0.5 * (a + b), 0.5 * (b - a), t) for t in (1, 2)]
    if not middle:
        rows.append((half_x, half_x - (cuts[-1] if cuts else first), 1))
    rows += [(x - a, c, 3 - t) for a, c, t in reversed(rows)]
    offset, scale, template = (np.array(v) for v in zip(*rows))
    scale = scale[:, None]
    row_t, row_w = _row_templates()
    nodes = offset[:, None] + scale * row_t.take(template, axis=0)
    return nodes.ravel(), (scale * row_w.take(template, axis=0)).ravel()


def _rule(model, x):
    """(nodes, weights) of _outer_rule, with x appended to the nodes for the
    S(x) test. Up to model._x1 the rule is one panel with quarter-length
    ends and no split point, whose four rows are laid out here directly,
    with the floating-point operations of _outer_rule: offsets 0, x/2,
    x - x/2, x and scales x/4, x/2 - x/4, x/2 - x/4, x/4."""
    if x > model._x1:
        nodes, weights = _outer_rule(model, x)
        return np.concatenate((nodes, (x,))), weights
    quarter, half = 0.25 * x, 0.5 * x
    inner = half - quarter
    scale = np.array((quarter, inner, inner, quarter))[:, None]
    row_t, row_w = _row_templates()
    s = np.empty(row_t.size + 1)
    s[-1] = x
    np.add(np.array((0.0, half, x - half, x))[:, None], scale * row_t,
           out=s[:-1].reshape(row_t.shape))
    return s, (scale * row_w).ravel()


def m_x_stationary(model, x):
    """Stationary M(x) = P(idle, AoI <= x) for every theta and service law.
    Integrating the density form by parts leaves only F:
        M(x) = c lam int_0^x F(v) e^{-lam theta v}
                             (theta + (1-theta) e^{-lam (x-v)}) dv,
    c = theta + (1-theta) M(inf): M(inf) (F(x) - exp_convolved(lam, x)) at
    theta = 0, one sum over the outer rule on [0, x] for theta > 0."""
    x = check(x, "AoI abscissa x")
    if x <= 0:
        return 0.0
    lam, th, svc = model.lam, model.theta, model.service
    if th == 0.0:
        val = model._minf * (svc.cdf(x) - svc.exp_convolved(lam, x))
    else:
        s, w = _rule(model, x)
        v = s[:-1]
        c = th + (1.0 - th) * model._minf
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
    analytically. Multiplying the last factor through by lam*theta + s
    leaves the form evaluated here, regular at s = 0:

        Phi~(s) = c F~ (lam + s - (1-theta) lam F~) /
                  ((lam + s) (s + theta lam F~)),  F~ = F~(lam*theta+s),

    with the constant c = lam theta / (1 - (1-theta) F~(lam*theta)).
    """
    if model.theta == 0.0:
        raise ConfigError(
            "theta = 0 has no LST route here; aoi_cdf_stationary uses the "
            "convolution path instead")
    out = _lst(np.asarray(s), model)
    return out if out.ndim else complex(out)


def _lst(s, model):
    """aoi_lst on an array s, theta > 0, with c from the model."""
    lam, th = model.lam, model.theta
    lp = lam + s
    ftl = model.service.lst(lam * th + s)
    a = lam * ftl
    return model._lst_c * ftl * (lp - (1.0 - th) * a) / (lp * (s + th * a))


def _lst_over_s(s, model):
    """Phi~(s) / s, the transform of the CDF."""
    return _lst(s, model) / s


def _euler_invert(fhat, x, *args):
    """Abate-Whitt Euler summation of the Bromwich series of fhat(s, *args)
    (an array on the array s) at time x."""
    a = _EULER_A
    with np.errstate(over="raise", invalid="raise"):
        try:
            s = _EULER_S / x
            vals = fhat(s, *args)
            # successive Euler-averaged estimates agree to ~1e-9 when the
            # series is healthy; a large gap means roundoff has taken over
            scale = math.exp(a / 2.0) / (2.0 * x)
            value, previous = (vals.real @ _EULER_C).tolist()
            value, previous = scale * value, scale * previous
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
    W(s) = P(S <= s < S + Y) in closed form; every term is >= 0. One S
    evaluation on (nodes, x) serves g and, reversed on the mirrored rule,
    S(x - s). None below the service's support (S(x) = 1), where the AoI
    cannot be <= x."""
    lam, svc, minf = model.lam, model.service, model._minf
    s, weights = _rule(model, x)
    sv = svc.sf(s)
    if sv[-1] == 1.0:
        return None
    w = svc.exp_convolved(lam, s)
    g = lam * minf * w if density else minf * (sv + w)
    return float(g[-1]) + lam * float((g[:-1] * sv[-2::-1]) @ weights)


def _survival(model, x):
    """1 - Phi(x) at theta = 0, T[D](x) + lam M(inf) int_x^inf S, to
    relative accuracy, also where Phi(x) rounds to 1; 1 below the
    service's support."""
    conv = _convolve(model, x, False)
    if conv is None:
        return 1.0
    return conv + model.lam * model._minf * model.service.tail(x)


def aoi_cdf_stationary(model, x):
    """P(AoI <= x) in steady state. theta = 0: the survival form
        1 - Phi(x) = T[D](x) + lam M(inf) int_x^inf S(z) dz,
    all terms >= 0, so the tail keeps its relative accuracy; theta > 0:
    the inversion of Phi~(s)/s."""
    x = check(x, "AoI abscissa x")
    if x <= 0:
        return 0.0
    if model.theta == 0.0:
        val = 1.0 - _survival(model, x)
    else:
        val = _euler_invert(_lst_over_s, x, model)
    return min(max(val, 0.0), 1.0)


def aoi_pdf_stationary(model, x):
    """AoI density in steady state: T[M'] at theta = 0, the inversion of
    Phi~(s) for theta > 0. The inversion is known to lose accuracy near
    x = 0 when the true density does not vanish there; the CDF route is the
    primary contract."""
    x = check(x, "AoI abscissa x")
    if x <= 0:
        return 0.0
    if model.theta == 0.0:
        conv = _convolve(model, x, True)
        return 0.0 if conv is None else conv
    return _euler_invert(_lst, x, model)


# ---------------------------------------------------------------------------
# Closed-form oracles
# ---------------------------------------------------------------------------

def _rates_close(lam, mu):
    return abs(lam - mu) < _EQ_RATE_DELTA * max(lam, mu)


def _closed_form_args(lam, mu, x):
    """(lam, mu, x) as floats, or ConfigError unless lam, mu > 0 and x is
    finite."""
    return check(lam, "lam", 0, above=True), check(mu, "mu", 0, above=True), check(x, "x")


def closed_form_mm11(lam, mu, x):
    """M/M/1/1 without preemption (theta = 0), exponential service rate mu."""
    lam, mu, x = _closed_form_args(lam, mu, x)
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
    lam, mu, x = _closed_form_args(lam, mu, x)
    if x < 1.0 / mu:
        return 0.0
    if x < 2.0 / mu:
        return lam * mu * x / (lam + mu) - lam / (lam + mu)
    return 1.0 - mu / (lam + mu) * math.exp(-lam * x + 2.0 * lam / mu)


def closed_form_mm11_preemptive(lam, mu, x):
    """M/M/1/1 with full preemption (theta = 1)."""
    lam, mu, x = _closed_form_args(lam, mu, x)
    if x <= 0:
        return 0.0
    if _rates_close(lam, mu):
        mx = mu * x
        return 1.0 - (1.0 + mx) * math.exp(-mx)
    return 1.0 - lam / (lam - mu) * math.exp(-mu * x) \
        + mu / (lam - mu) * math.exp(-lam * x)
