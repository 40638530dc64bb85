"""Domain types: arrival-rate profiles, service-time laws, system config.

Everything here is immutable after construction and safe to share between
threads; evaluators accept scalars or numpy arrays and are vectorized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check, check_all

__all__ = [
    "Constant", "Sinusoid", "PiecewiseConstant", "Tabulated",
    "Exponential", "Deterministic", "Uniform", "Gamma", "Erlang",
    "SystemConfig", "GridFunction",
    "rate_from_dict", "service_from_dict", "config_from_dict",
]


# ---------------------------------------------------------------------------
# Arrival-rate profiles
# ---------------------------------------------------------------------------

class RateProfile:
    """Time-varying Poisson arrival rate lambda(t) with an exact cumulative
    integral. Subclasses implement rate/integral/max_rate/breakpoints_in."""

    kind = "abstract"

    def rate(self, t):
        """lambda(t) >= 0; each profile's constructor rules out a negative
        rate and an unbounded max_rate, so no caller checks either."""
        raise NotImplementedError

    def integral(self, t0, t1):
        """Integral of lambda over [t0, t1]. Requires t0 <= t1; either end
        may be an array, and the ends broadcast to an array of integrals."""
        raise NotImplementedError

    def max_rate(self, t0, t1):
        """A finite upper bound for lambda on [t0, t1] (used by thinning);
        a step profile bounds [t0, t1), leaving out the piece that starts
        at t1."""
        raise NotImplementedError

    def breakpoints_in(self, t0, t1):
        """Interior points where the profile is not smooth, for quadrature
        splitting and per-piece thinning bounds."""
        return ()

    def _check_interval(self, t0, t1):
        if np.any(t0 > np.asarray(t1)):
            raise ValueError(f"rate integral needs t0 <= t1, got [{t0}, {t1}]")


@dataclass(frozen=True)
class Constant(RateProfile):
    a: float
    kind = "constant"

    def __post_init__(self):
        check(self.a, "constant rate a", 0)

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.a)
        return out if out.ndim else float(out)

    def integral(self, t0, t1):
        self._check_interval(t0, t1)
        return self.a * (t1 - t0)

    def max_rate(self, t0, t1):
        return self.a


@dataclass(frozen=True)
class Sinusoid(RateProfile):
    """lambda(t) = a + b*sin(omega*t). Requires a >= |b| so the rate stays
    nonnegative."""

    a: float
    b: float
    omega: float
    kind = "sinusoid"

    def __post_init__(self):
        check(self.a, "sinusoid a", abs(check(self.b, "sinusoid b")))
        if check(self.omega, "sinusoid omega") == 0:
            raise ConfigError("sinusoid omega must be nonzero; use a constant profile")

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        out = self.a + self.b * np.sin(self.omega * t)
        return out if out.ndim else float(out)

    def integral(self, t0, t1):
        self._check_interval(t0, t1)
        # closed antiderivative: a*t - (b/omega) cos(omega t)
        return self.a * (t1 - t0) + (self.b / self.omega) * (
            np.cos(self.omega * np.asarray(t0)) - np.cos(self.omega * np.asarray(t1)))

    def max_rate(self, t0, t1):
        return self.a + abs(self.b)


@dataclass(frozen=True)
class PiecewiseConstant(RateProfile):
    """rates[i] on [breakpoints[i], breakpoints[i+1]); the rate is 0 before
    the first breakpoint, and the last rate extends beyond the final
    breakpoint so closed horizons can be evaluated at their right endpoint."""

    breakpoints: tuple
    rates: tuple
    kind = "piecewise_constant"
    # 0, the rates, and the last rate again: indexed by the count of breakpoints <= t
    _levels: np.ndarray = field(default=None, compare=False, repr=False, init=False)

    def __post_init__(self):
        bp = check_all(self.breakpoints, "breakpoints", increasing=True)
        rt = check_all(self.rates, "rates", 0)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "rates", rt)
        if not rt or len(bp) != len(rt) + 1:
            raise ConfigError(
                f"piecewise profile needs len(breakpoints) == len(rates)+1 >= 2, "
                f"got {len(bp)} and {len(rt)}")
        object.__setattr__(self, "_levels", np.array((0.0,) + rt + (rt[-1],)))

    def rate(self, t):
        out = self._levels[np.searchsorted(self.breakpoints, t, side="right")]
        return out if out.ndim else float(out)

    def integral(self, t0, t1):
        self._check_interval(t0, t1)
        bp = np.asarray(self.breakpoints)
        rt = np.asarray(self.rates)
        # accumulate rate * overlap for every piece, last piece open-ended
        lo = np.concatenate([bp[:-1], [bp[-1]]])
        hi = np.concatenate([bp[1:], [np.inf]])
        r = np.concatenate([rt, [rt[-1]]])
        t0 = np.asarray(t0, dtype=float)[..., None]
        t1 = np.asarray(t1, dtype=float)[..., None]
        overlap = np.clip(np.minimum(hi, t1) - np.maximum(lo, t0), 0.0, None)
        out = np.sum(r * overlap, axis=-1)
        return out if out.ndim else float(out)

    def max_rate(self, t0, t1):
        bp = self.breakpoints
        rates = self.rates + (self.rates[-1],)
        m = 0.0
        for i, r in enumerate(rates):
            lo = bp[i]
            hi = bp[i + 1] if i + 1 < len(bp) else math.inf
            if lo < t1 and hi > t0:
                m = max(m, r)
        return m

    def breakpoints_in(self, t0, t1):
        return tuple(b for b in self.breakpoints if t0 < b < t1)


@dataclass(frozen=True)
class Tabulated(RateProfile):
    """Linear interpolation through (grid, values); cumulative integral is the
    trapezoid cumsum, which is exact for the interpolant. Evaluation outside
    the grid is an error."""

    grid: tuple
    values: tuple
    kind = "tabulated"
    _cum: tuple = field(default=(), compare=False, repr=False, init=False)

    def __post_init__(self):
        g = np.array(check_all(self.grid, "tabulated grid", increasing=True))
        v = np.array(check_all(self.values, "tabulated values", 0))
        object.__setattr__(self, "grid", tuple(g))
        object.__setattr__(self, "values", tuple(v))
        if g.size != v.size or g.size < 2:
            raise ConfigError("tabulated profile needs matching grid/values, len >= 2")
        cum = np.concatenate([[0.0], np.cumsum(np.diff(g) * (v[:-1] + v[1:]) / 2.0)])
        object.__setattr__(self, "_cum", tuple(cum))

    def _check_domain(self, t):
        g0, g1 = self.grid[0], self.grid[-1]
        if np.any(np.asarray(t) < g0) or np.any(np.asarray(t) > g1):
            raise ValueError(f"time outside tabulated domain [{g0}, {g1}]")

    def rate(self, t):
        self._check_domain(t)
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.grid, self.values)
        return out if out.ndim else float(out)

    def integral(self, t0, t1):
        self._check_interval(t0, t1)
        self._check_domain(np.append(t0, t1))
        g = np.asarray(self.grid)
        v = np.asarray(self.values)
        cum = np.asarray(self._cum)

        def cum_at(t):
            i = np.clip(np.searchsorted(g, t, side="right") - 1, 0, g.size - 2)
            # integrate the linear piece from g[i] to t exactly
            slope = (v[i + 1] - v[i]) / (g[i + 1] - g[i])
            dt = t - g[i]
            return cum[i] + v[i] * dt + 0.5 * slope * dt * dt

        out = cum_at(np.asarray(t1, dtype=float)) - cum_at(np.asarray(t0, dtype=float))
        return out if out.ndim else float(out)

    def max_rate(self, t0, t1):
        self._check_domain([t0, t1])
        g = np.asarray(self.grid)
        inside = (g >= t0) & (g <= t1)
        cands = [np.interp(t0, g, self.values), np.interp(t1, g, self.values)]
        if np.any(inside):
            cands.append(float(np.max(np.asarray(self.values)[inside])))
        return float(max(cands))

    def breakpoints_in(self, t0, t1):
        return tuple(g for g in self.grid if t0 < g < t1)


# ---------------------------------------------------------------------------
# Service-time distributions
# ---------------------------------------------------------------------------

class ServiceDistribution:
    """Processing-time law of S, with CDF F: survival function sf(z) =
    1 - F(z) = P(S > z), integrated tail int_x^inf sf(z) dz = E[(S - x)^+],
    LST F~(s) = E[e^{-sS}], exp_convolved(lam, s) = E[e^{-lam (s - S)};
    S <= s] = P(S <= s < S + Y) for Y ~ Exp(lam) independent of S (0 for
    s <= 0), mean, and a sampler. F is read as 1 - sf, which loses nothing
    a solver needs; no solver reads a density, and the laws define neither."""

    kind = "abstract"

    @property
    def mean(self):
        raise NotImplementedError

    def sf(self, z):
        raise NotImplementedError

    def tail(self, x):
        raise NotImplementedError

    def lst(self, s):
        raise NotImplementedError

    def exp_convolved(self, lam, s):
        raise NotImplementedError

    def sample(self, rng, size=None):
        raise NotImplementedError

    def breakpoints(self):
        """Points where sf is not smooth, for quadrature splitting."""
        return ()


@dataclass(frozen=True)
class Exponential(ServiceDistribution):
    mu: float
    kind = "exponential"

    def __post_init__(self):
        check(self.mu, "exponential rate mu", 0, above=True)

    @property
    def mean(self):
        return 1.0 / self.mu

    def sf(self, z):
        z = np.asarray(z, dtype=float)
        out = np.exp(-self.mu * np.maximum(z, 0.0))
        return out if out.ndim else float(out)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        out = np.exp(-self.mu * np.maximum(x, 0.0)) / self.mu + np.maximum(-x, 0.0)
        return out if out.ndim else float(out)

    def lst(self, s):
        return self.mu / (self.mu + s)

    def exp_convolved(self, lam, s):
        # mu int_0^s e^{-lam (s-v) - mu v} dv on the smaller rate; s at mu = lam
        s = np.maximum(np.asarray(s, dtype=float), 0.0)
        gap = abs(self.mu - lam)
        share = s if gap == 0.0 else -np.expm1(-gap * s) / gap
        out = self.mu * np.exp(-min(lam, self.mu) * s) * share
        return out if out.ndim else float(out)

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.mu, size)


@dataclass(frozen=True)
class Deterministic(ServiceDistribution):
    d: float
    kind = "deterministic"

    def __post_init__(self):
        check(self.d, "deterministic service time d", 0, above=True)

    @property
    def mean(self):
        return self.d

    def sf(self, z):
        z = np.asarray(z, dtype=float)
        out = np.where(z >= self.d, 0.0, 1.0)
        return out if out.ndim else float(out)

    def tail(self, x):
        out = np.maximum(self.d - np.asarray(x, dtype=float), 0.0)
        return out if out.ndim else float(out)

    def lst(self, s):
        return np.exp(-self.d * s)

    def exp_convolved(self, lam, s):
        s = np.asarray(s, dtype=float)
        out = np.where(s >= self.d, np.exp(-lam * np.maximum(s - self.d, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def sample(self, rng, size=None):
        if size is None:
            return self.d
        return np.full(size, self.d)

    def breakpoints(self):
        return (self.d,)


@dataclass(frozen=True)
class Uniform(ServiceDistribution):
    """Uniform on [low, high]. low defaults to 0."""

    low: float
    high: float
    kind = "uniform"

    def __init__(self, low=None, high=None):
        # a single value names the upper endpoint: Uniform(2) == Uniform(0, 2)
        if high is None:
            if low is None:
                raise ConfigError("uniform needs at least an upper endpoint")
            low, high = 0.0, low
        elif low is None:
            low = 0.0
        object.__setattr__(self, "low", check(low, "uniform low", 0))
        object.__setattr__(self, "high", check(high, "uniform high", self.low, above=True))

    @property
    def mean(self):
        return 0.5 * (self.low + self.high)

    def sf(self, z):
        z = np.asarray(z, dtype=float)
        out = np.clip((self.high - z) / (self.high - self.low), 0.0, 1.0)
        return out if out.ndim else float(out)

    def tail(self, x):
        # (high - x)^2 / (2 (high - low)) on the support, plus the whole
        # low - x below it, where the survival function is 1
        x = np.asarray(x, dtype=float)
        inside = self.high - np.clip(x, self.low, self.high)
        out = inside * inside / (2.0 * (self.high - self.low)) + np.maximum(self.low - x, 0.0)
        return out if out.ndim else float(out)

    def lst(self, s):
        # the two-term series where |s| w < 1e-8, which the exact form
        # would lose to cancellation; only evaluated where it is used
        s = np.asarray(s)
        lo, hi = self.low, self.high
        w = hi - lo
        small = np.abs(s) * w < 1e-8
        any_small = small.any()
        s_safe = np.where(small, 1.0, s) if any_small else s
        out = (np.exp(-s_safe * lo) - np.exp(-s_safe * hi)) / (s_safe * w)
        if any_small:
            series = 1.0 - s * (lo + hi) / 2.0 + s * s * (lo * lo + lo * hi + hi * hi) / 6.0
            out = np.where(small, series, out)
        return out if out.ndim else complex(out) if np.iscomplexobj(out) else float(out)

    def exp_convolved(self, lam, s):
        s = np.asarray(s, dtype=float)
        m = np.clip(s, self.low, self.high)
        out = (np.exp(-lam * np.maximum(s - m, 0.0)) * -np.expm1(-lam * (m - self.low))
               / (lam * (self.high - self.low)))
        return out if out.ndim else float(out)

    def sample(self, rng, size=None):
        return rng.uniform(self.low, self.high, size)

    def breakpoints(self):
        return (self.low, self.high) if self.low > 0 else (self.high,)


# Shape k < 1: scipy's P(k, z) and Q(k, z) take 1-5 us per value on
# z in (0.5, 1.1], against about 0.1 us at shape k + 1. Up to _SHIFT_Z the
# pair comes from shape k + 1 (DLMF §8.8):
#     P(k, z) = P(k+1, z) + t,  Q(k, z) = (1 - P(k+1, z)) - t,
#     t = z^k e^{-z} / Gamma(k + 1);
# above it Q is scipy's, fast there, and P = 1 - Q (P > 0.6 there). Either
# way P + Q = 1 within 1.1e-16. Against mpmath (shapes 0.2-0.95, z in
# [1e-12, 50]) P and Q are within 7.6e-15 and 1.8e-14 relative, as close
# as scipy's own. Q cancels where t is close to Q(k+1, z): more above 1.1
# (2.8e-14 at shape 0.3, z = 1.5), which sets _SHIFT_Z at the end of
# scipy's slow series, and below shape 0.2 like 1/k near z = 1 (2.7e-13
# at shape 0.01, 6e-16 absolute).
_SHIFT_Z = 1.1

# Integer shape k up to _INT_SHAPE_MAX: Q and the integrated tail are
# finite sums of positive terms, evaluated in numpy by Horner's rule, O(k)
# per value and with no SciPy. With z = x / scale,
#     Q(k, z) = e^{-z} sum_{j<k} z^j / j!,
#     tail / scale = e^{-z} sum_{i<k} (k - i) z^i / i!      (= int_z^inf Q),
# so each keeps its relative accuracy. e^{-z} is applied as two factors
# e^{-z/2}, which stay normal, with the sums finite, wherever the result is
# normal; z is clipped at _z_cap(k), past which both values are below the
# smallest subnormal float and z^k is still finite, so no z, up to inf,
# gives inf * 0. Against mpmath (z in [1e-12, 300]) Q and tail are within
# 1.1e-15 relative for k <= 20 and 1.6e-15 at k = 100. Above
# _INT_SHAPE_MAX, z^k would leave the float range near z = k; the O(k) sums
# already cost more than scipy's at k = 100 (1.4x for Q), but load no SciPy.
# P, which exp_convolved needs, stays scipy's for every shape.
_INT_SHAPE_MAX = 100


def _integer_shape(k):
    """k as an int if the numpy sums take it, else None."""
    return int(k) if float(k).is_integer() and k <= _INT_SHAPE_MAX else None


def _z_cap(k):
    """Past this z, e^{-z} z^k / k! < 2^-1074 for k <= _INT_SHAPE_MAX, and
    z^k stays below 2^1010."""
    return min(1500.0, math.exp(700.0 / k))


@functools.cache
def _finite_coefficients(k, tail):
    """Q's coefficients 1 / j! or, if tail, tail's (k - j) / j!, j < k,
    highest power first."""
    return tuple((k - j if tail else 1) / math.factorial(j) for j in range(k - 1, -1, -1))


def _finite_sum(k, z, tail):
    """Q(k, z), or int_z^inf Q(k, v) dv if tail, for integer k, by Horner's
    rule (which takes a scalar z at scalar cost)."""
    z = np.minimum(z, _z_cap(k))
    half = np.exp(-0.5 * z)
    coefficients = _finite_coefficients(k, tail)
    acc = coefficients[0]
    for c in coefficients[1:]:
        acc = acc * z + c
    return half * acc * half


@functools.cache
def _special():
    """scipy.special, imported when a Gamma law's P (exp_convolved), or its
    Q or tail at a non-integer shape or one above _INT_SHAPE_MAX, is first
    evaluated: it would double the start-up time and memory of `import
    aoiq`, and no other law needs it."""
    import scipy.special
    return scipy.special


def _regularized_gamma(k, z, upper):
    """Q(k, z) if upper else P(k, z), the regularized incomplete gamma
    functions, on an array z >= 0; Q at integer k up to _INT_SHAPE_MAX by
    the finite sum, shape k < 1 through shape k + 1 (see above), the rest
    straight from scipy."""
    n = _integer_shape(k) if upper else None
    if n is not None:
        return _finite_sum(n, z, False)
    sp = _special()
    if k >= 1.0:
        return sp.gammaincc(k, z) if upper else sp.gammainc(k, z)
    near = z <= _SHIFT_Z
    far = ~near
    zn = z[near]
    p1 = sp.gammainc(k + 1.0, zn)
    t = np.exp(sp.xlogy(k, zn) - zn - math.lgamma(k + 1.0))
    q = sp.gammaincc(k, z[far])
    out = np.empty_like(z)
    out[near] = (1.0 - p1) - t if upper else p1 + t
    out[far] = q if upper else 1.0 - q
    return out


@dataclass(frozen=True)
class Gamma(ServiceDistribution):
    shape: float
    scale: float
    kind = "gamma"

    def __post_init__(self):
        check(self.shape, "gamma shape", 0, above=True)
        check(self.scale, "gamma scale", 0, above=True)

    @property
    def mean(self):
        return self.shape * self.scale

    def sf(self, z):
        z = np.asarray(z, dtype=float)
        out = _regularized_gamma(self.shape, np.maximum(z, 0.0) / self.scale, True)
        return out if out.ndim else float(out)

    def tail(self, x):
        # E[(S - x)^+] = int_x^inf Q(shape, v/scale) dv for x >= 0: by the
        # finite sum for an integer shape, else shape scale Q(shape + 1,
        # x/scale) - x Q(shape, x/scale), Q the regularized upper incomplete
        # gamma function
        x = np.asarray(x, dtype=float)
        xp = np.maximum(x, 0.0)
        n = _integer_shape(self.shape)
        if n is not None:
            out = self.scale * _finite_sum(n, xp / self.scale, True)
        else:
            sp = _special()
            out = (self.mean * sp.gammaincc(self.shape + 1.0, xp / self.scale)
                   - xp * sp.gammaincc(self.shape, xp / self.scale))
        out = out + np.maximum(-x, 0.0)
        return out if out.ndim else float(out)

    def lst(self, s):
        # principal branch; 1 + scale*s stays in the right half-plane for Re(s) >= 0
        return (1.0 + self.scale * np.asarray(s)) ** (-self.shape)

    def exp_convolved(self, lam, s):
        # e^{-lam s} int_0^s v^{k-1} e^{-c v} dv / (Gamma(k) scale^k), c = 1/scale - lam.
        # c > 0: e^{-lam s} P(k, c s) / (scale c)^k, whose powers of a rounded c
        # cancel. c <= 0: z^k e^{-z} 1F1(1; k+1; c s) / Gamma(k+1), z = s/scale
        # (DLMF 8.5.1 with Kummer's transformation), as e^{-c s} would overflow
        s = np.maximum(np.asarray(s, dtype=float), 0.0)
        k, c = self.shape, 1.0 / self.scale - lam
        if c > 0.0:
            p = _regularized_gamma(k, c * s, False)
            out = np.exp(-lam * s) * (self.scale * c) ** -k * p
        else:
            z = s / self.scale
            sp = _special()
            out = (np.exp(sp.xlogy(k, z) - z - sp.gammaln(k + 1.0))
                   * sp.hyp1f1(1.0, k + 1.0, c * s))
        return out if out.ndim else float(out)

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, self.scale, size)


class Erlang(Gamma):
    """Gamma with integer shape n >= 1 (an integral float such as 5.0 is
    stored as the int 5). The parameter is named `shape`, after the field,
    so that dataclasses.replace and eval(repr(...)) work; config files call
    it `n`."""

    kind = "erlang"

    def __init__(self, shape, scale):
        check(shape, "erlang shape n", 1)
        if int(shape) != shape:
            raise ConfigError(f"erlang shape n must be an integer, got {shape!r}")
        super().__init__(shape=int(shape), scale=check(scale, "erlang scale", 0, above=True))


# ---------------------------------------------------------------------------
# System configuration and grid carrier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemConfig:
    """M_t/G/1/1 instance: arrival profile, service law, preemption
    probability theta. Initial condition is the empty system at t=0."""

    rate: RateProfile
    service: ServiceDistribution
    theta: float

    def __post_init__(self):
        if not isinstance(self.rate, RateProfile):
            raise ConfigError(f"arrival rate must be a RateProfile, got {self.rate!r}")
        if not isinstance(self.service, ServiceDistribution):
            raise ConfigError(f"service must be a ServiceDistribution, got {self.service!r}")
        check(self.theta, "theta", 0, 1)


class GridFunction:
    """Equally spaced grid with linear interpolation between nodes.
    Evaluation outside [t0, t0 + n*h] raises."""

    def __init__(self, t0, h, values):
        self.t0 = check(t0, "grid start t0")
        self.h = check(h, "grid step h", 0, above=True)
        self.values = np.array(check_all(values, "grid values"))
        if self.values.size < 2:
            raise ConfigError("grid values must be a 1-d array with >= 2 nodes")

    @property
    def t1(self):
        return self.t0 + (self.values.size - 1) * self.h

    @property
    def ts(self):
        return self.t0 + self.h * np.arange(self.values.size)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        tol = 1e-9 * max(1.0, abs(self.t1))
        if np.any(t_arr < self.t0 - tol) or np.any(t_arr > self.t1 + tol):
            raise ValueError(
                f"evaluation outside grid domain [{self.t0}, {self.t1}]")
        out = np.interp(np.clip(t_arr, self.t0, self.t1), self.ts, self.values)
        return out if out.ndim else float(out)

    def __len__(self):
        return self.values.size


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_RATE_KINDS = {
    "constant": (Constant, ("a",)),
    "sinusoid": (Sinusoid, ("a", "b", "omega")),
    "piecewise_constant": (PiecewiseConstant, ("breakpoints", "rates")),
    "tabulated": (Tabulated, ("grid", "values")),
}

_SERVICE_KINDS = {
    "exponential": (Exponential, ("mu",)),
    "deterministic": (Deterministic, ("d",)),
    "uniform": (Uniform, ("low", "high")),
    "gamma": (Gamma, ("shape", "scale")),
    "erlang": (lambda n, scale: Erlang(n, scale), ("n", "scale")),
}


def _build(table, section, what):
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError(f"{what} section needs a 'kind' key")
    kind = section["kind"]
    if kind not in table:
        raise ConfigError(f"unknown {what} kind {kind!r}; choices: {sorted(table)}")
    cls, fields = table[kind]
    if "params" in section:
        params = dict(section["params"])
    else:
        params = {k: v for k, v in section.items() if k != "kind"}
    unknown = set(params) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {what} params for {kind!r}: {sorted(unknown)}")
    # tuple-ify list params so the dataclasses stay hashable
    for k, v in params.items():
        if isinstance(v, list):
            params[k] = tuple(v)
    try:
        return cls(**params)
    except TypeError as exc:
        raise ConfigError(f"bad {what} params for {kind!r}: {exc}") from exc


def rate_from_dict(section):
    return _build(_RATE_KINDS, section, "rate")


def service_from_dict(section):
    return _build(_SERVICE_KINDS, section, "service")


def config_from_dict(doc):
    """Build a SystemConfig from the structured-config keys rate / service /
    theta; each sub-object holds 'kind' plus that kind's fields (either flat
    or under an explicit 'params' sub-object)."""
    if "rate" not in doc or "service" not in doc or "theta" not in doc:
        raise ConfigError("config needs 'rate', 'service' and 'theta' keys")
    return SystemConfig(rate=rate_from_dict(doc["rate"]),
                        service=service_from_dict(doc["service"]),
                        theta=check(doc["theta"], "theta", 0, 1))
