import dataclasses
import functools
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammainc, gammaincc

from aoiq import stationary
from aoiq import (Exponential, Deterministic, Uniform, Gamma, Erlang,
                  StationaryModel, m_infinity,
                  m_x_stationary, aoi_lst, aoi_cdf_stationary,
                  aoi_pdf_stationary, closed_form_mm11, closed_form_md11,
                  closed_form_mm11_preemptive,
                  ConfigError, InversionError)


def density(svc, z):
    """Closed-form service density at z > 0, for the laws that have one."""
    if svc.kind == "exponential":
        return svc.mu * math.exp(-svc.mu * z)
    if svc.kind == "uniform":
        return 1.0 / (svc.high - svc.low) if svc.low <= z <= svc.high else 0.0
    k, sc = svc.shape, svc.scale  # gamma and erlang
    return z ** (k - 1.0) * math.exp(-z / sc) / (math.gamma(k) * sc ** k)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_mm11_point_value():
    # lam=0.8, mu=1.2 at x=1
    assert closed_form_mm11(0.8, 1.2, 1.0) == pytest.approx(
        0.18802456961640646, abs=1e-14)


def test_mm11_zero_at_origin_and_one_at_infinity():
    assert closed_form_mm11(0.8, 1.2, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert closed_form_mm11(0.8, 1.2, 80.0) == pytest.approx(1.0, abs=1e-12)


def test_mm11_equal_rates_limit():
    mu = 1.3
    for x in (0.5, 1.0, 3.0):
        want = 1.0 - math.exp(-mu * x) * (1.0 + mu * x + (mu * x) ** 2 / 4.0)
        assert closed_form_mm11(mu, mu, x) == pytest.approx(want, abs=1e-14)


def test_mm11_continuous_across_equal_rates():
    mu = 1.3
    for x in (0.5, 2.0):
        lim = closed_form_mm11(mu, mu, x)
        near = closed_form_mm11(mu * (1 + 3e-7), mu, x)
        assert near == pytest.approx(lim, abs=1e-6)


def test_md11_piecewise_values():
    lam, mu = 0.8, 1.2
    d = 1.0 / mu
    assert closed_form_md11(lam, mu, 0.5 * d) == 0.0
    # linear band [1/mu, 2/mu)
    x = 1.5 * d
    assert closed_form_md11(lam, mu, x) == pytest.approx(
        lam * mu * x / (lam + mu) - lam / (lam + mu), abs=1e-14)
    # exponential tail
    x = 3.0 * d
    want = 1.0 - mu / (lam + mu) * math.exp(-lam * x + 2.0 * lam / mu)
    assert closed_form_md11(lam, mu, x) == pytest.approx(want, abs=1e-14)


def test_md11_continuous_at_seams():
    lam, mu = 0.8, 1.2
    for seam in (1.0 / mu, 2.0 / mu):
        lo = closed_form_md11(lam, mu, seam - 1e-10)
        hi = closed_form_md11(lam, mu, seam + 1e-10)
        assert hi == pytest.approx(lo, abs=1e-8)


def test_mm11_preemptive_point_value():
    # lam=2, mu=1: 1 - 2e^{-x} + e^{-2x} at x = ln 2
    x = math.log(2.0)
    assert closed_form_mm11_preemptive(2.0, 1.0, x) == pytest.approx(0.25, abs=1e-14)


def test_mm11_preemptive_equal_rates_limit():
    mu = 0.9
    for x in (0.5, 1.5, 4.0):
        want = 1.0 - (1.0 + mu * x) * math.exp(-mu * x)
        assert closed_form_mm11_preemptive(mu, mu, x) == pytest.approx(want, abs=1e-14)
        near = closed_form_mm11_preemptive(mu * (1 + 3e-7), mu, x)
        assert near == pytest.approx(want, abs=1e-6)


def test_preemptive_dominates_nonpreemptive():
    rng = np.random.default_rng(7)
    xs = np.linspace(0.01, 12.0, 120)
    for _ in range(10):
        lam, mu = rng.uniform(0.3, 4.0, 2)
        if abs(lam - mu) < 1e-3:
            continue
        assert all(closed_form_mm11_preemptive(lam, mu, x)
                   >= closed_form_mm11(lam, mu, x) - 1e-12 for x in xs)


# ---------------------------------------------------------------------------
# idle probabilities
# ---------------------------------------------------------------------------

def test_m_infinity_no_preemption_is_renewal_fraction():
    model = StationaryModel(0.8, Exponential(1.2), 0.0)
    assert m_infinity(model) == pytest.approx(1.0 / (1.0 + 0.8 / 1.2), abs=1e-15)


def test_m_infinity_with_preemption():
    model = StationaryModel(2.0, Erlang(5, 1 / 6), 0.5)
    assert m_infinity(model) == pytest.approx(0.3009520860747735, abs=1e-14)


def test_m_x_no_preemption_exponential_closed_form():
    lam, mu = 0.8, 1.2
    model = StationaryModel(lam, Exponential(mu), 0.0)
    minf = m_infinity(model)
    for x in (0.25, 1.0, 3.0):
        want = minf * lam * ((1.0 - math.exp(-lam * x)) / lam
                             - (math.exp(-mu * x) - math.exp(-lam * x)) / (lam - mu))
        assert m_x_stationary(model, x) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
def test_m_x_deterministic_closed_form(theta):
    # M(x) = c e^{-lam theta d} (1 - e^{-lam (x - d)}) past the service atom,
    # 0 before, c = theta + (1 - theta) M(inf): the march must place a knot at d
    lam, d = 0.8, 1 / 1.2
    model = StationaryModel(lam, Deterministic(d), theta)
    c = theta + (1.0 - theta) * m_infinity(model)
    for x in (0.4, d, 1.0, 1.5, 4.0, 20.0, 60.0, 100.0):
        want = (c * math.exp(-lam * theta * d) * -math.expm1(-lam * (x - d))
                if x > d else 0.0)
        assert m_x_stationary(model, x) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("svc", [Gamma(1.2, 1 / 1.44), Erlang(5, 1 / 6)],
                         ids=["gamma", "erlang"])
@pytest.mark.parametrize("theta", [0.3, 1.0])
@pytest.mark.parametrize("lam", [0.4, 1.6])
def test_m_x_with_preemption_matches_density_form(svc, theta, lam):
    # M(x) = c int_0^x f(z) (e^{-lam theta z} - e^{-lam theta z - lam (x-z)}) dz
    model = StationaryModel(lam, svc, theta)
    c = theta + (1.0 - theta) * m_infinity(model)
    for x in (0.5, 2.0, 20.0, 100.0):
        want, _ = integrate.quad(
            lambda z: c * density(svc, z) * (math.exp(-lam * theta * z)
                                            - math.exp(-lam * theta * z - lam * (x - z))),
            0.0, x, points=[min(1.0, x / 2)], limit=400, epsabs=1e-14, epsrel=1e-13)
        assert m_x_stationary(model, x) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("svc,tol", [
    (Exponential(1.2), 1e-6),
    (Uniform(0.0, 5 / 3), 1e-6),
    (Gamma(1.2, 1 / 1.44), 1e-4),
], ids=["exp", "uni", "gamma"])
def test_m_x_with_preemption_matches_direct_quadrature(svc, tol):
    lam, theta = 0.8, 0.3
    model = StationaryModel(lam, svc, theta)
    minf = m_infinity(model)
    c = lam * (theta + (1.0 - theta) * minf)

    kink = getattr(svc, "high", None)

    def gz(y):
        upper = y if kink is None else min(y, kink)
        val, _ = integrate.quad(
            lambda r: c * density(svc, r) * math.exp(-lam * theta * r),
            0.0, upper, limit=200)
        return val

    for x in (0.5, 1.0, 2.0):
        pts = [kink] if kink is not None and x > kink else None
        want, _ = integrate.quad(lambda r: gz(r) * math.exp(-lam * (x - r)),
                                 0.0, x, points=pts, limit=200)
        assert m_x_stationary(model, x) == pytest.approx(want, abs=tol)


def test_m_x_limits():
    model = StationaryModel(0.8, Exponential(1.2), 0.3)
    assert m_x_stationary(model, 0.0) == 0.0
    assert m_x_stationary(model, 60.0) == pytest.approx(m_infinity(model), abs=1e-9)


# ---------------------------------------------------------------------------
# transform and inversion
# ---------------------------------------------------------------------------

def test_lst_point_value():
    # lam=2, mu=1, theta=1 at s=1: (2/3)*(1/2)*(3/(2+1)) = 1/3
    model = StationaryModel(2.0, Exponential(1.0), 1.0)
    assert complex(aoi_lst(model, 1.0)).real == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_lst_is_a_distribution_transform():
    model = StationaryModel(0.8, Exponential(1.2), 0.4)
    assert complex(aoi_lst(model, 1e-9)).real == pytest.approx(1.0, abs=1e-7)
    s = np.linspace(0.05, 5.0, 30)
    vals = np.real(np.asarray([aoi_lst(model, si) for si in s]))
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)


def test_lst_rejects_zero_preemption():
    with pytest.raises(ConfigError):
        aoi_lst(StationaryModel(0.8, Exponential(1.2), 0.0), 1.0)


@pytest.mark.parametrize("lam,mu", [(2.0, 1.0), (0.8, 1.2), (3.5, 1.2)])
def test_inversion_recovers_full_preemption_cdf(lam, mu):
    model = StationaryModel(lam, Exponential(mu), 1.0)
    for x in np.linspace(0.1, 10.0, 23):
        want = closed_form_mm11_preemptive(lam, mu, x)
        assert aoi_cdf_stationary(model, x) == pytest.approx(want, abs=1e-5)


def test_inversion_recovers_full_preemption_pdf():
    lam, mu = 2.0, 1.0
    model = StationaryModel(lam, Exponential(mu), 1.0)
    for x in (0.3, 1.0, 2.7, 6.0):
        want = lam * mu / (lam - mu) * (math.exp(-mu * x) - math.exp(-lam * x))
        assert aoi_pdf_stationary(model, x) == pytest.approx(want, abs=1e-5)


@pytest.mark.parametrize("x", [30.0, 60.0, 100.0, 300.0])
def test_inversion_tail_full_preemption(x):
    for lam, mu in ((2.0, 1.0), (0.8, 1.2)):
        model = StationaryModel(lam, Exponential(mu), 1.0)
        want_cdf = closed_form_mm11_preemptive(lam, mu, x)
        want_pdf = lam * mu / (lam - mu) * (math.exp(-mu * x) - math.exp(-lam * x))
        assert aoi_cdf_stationary(model, x) == pytest.approx(want_cdf, abs=1e-7)
        assert aoi_pdf_stationary(model, x) == pytest.approx(want_pdf, abs=1e-10)


FIG7_SERVICES = {"exp": Exponential(1.2), "det": Deterministic(1 / 1.2),
                 "uni": Uniform(0.0, 2 / 1.2), "gam1": Gamma(1.2, 1 / 1.44),
                 "gam2": Gamma(1 / 1.2, 1.0), "erlang": Erlang(5, 1 / 6)}


@pytest.mark.parametrize("service", FIG7_SERVICES.values(), ids=FIG7_SERVICES.keys())
def test_inversion_tail_partial_preemption(service):
    xs = (20.0, 30.0, 40.0, 60.0, 100.0, 300.0)
    for lam in (0.4, 0.8, 1.6):
        model = StationaryModel(lam, service, 0.3)
        for x in xs:
            assert aoi_pdf_stationary(model, x) >= -1e-9
        cdfs = [aoi_cdf_stationary(model, x) for x in xs]
        assert np.all(np.diff(cdfs) >= 0.0)


def test_euler_coefficients_match_partial_sum_form():
    # the two Euler estimates as the binomial average of the last partial
    # sums of t_k = 2 (-1)^k Re f(s_k), first term halved
    n, stages = stationary._EULER_TERMS, stationary._EULER_STAGES
    k = np.arange(n + stages + 1)
    re_f = np.random.default_rng(7).standard_normal(k.size) / (1.0 + k)
    terms = 2.0 * (-1.0) ** k * re_f
    terms[0] = re_f[0]
    partial = np.cumsum(terms)
    w = np.array([math.comb(stages, j) for j in range(stages + 1)]) / 2.0 ** stages
    want = [w @ partial[n:], w @ partial[n - 1:-1]]
    np.testing.assert_allclose(re_f @ stationary._EULER_C, want, rtol=0, atol=1e-15)


def test_inversion_flags_roundoff_blowup(monkeypatch):
    monkeypatch.setattr(stationary, "_EULER_A", 2000.0)
    model = StationaryModel(2.0, Exponential(1.0), 1.0)
    with pytest.raises(InversionError):
        aoi_cdf_stationary(model, 10.0)


def test_inversion_overflow_at_a_subnormal_abscissa_is_an_inversion_error():
    # the contour A / (2x) itself overflows: a typed error, not a RuntimeWarning
    model = StationaryModel(0.8, Exponential(1.2), 0.3)
    for fn in (aoi_cdf_stationary, aoi_pdf_stationary):
        with pytest.raises(InversionError, match="overflowed"):
            fn(model, 1e-310)


def test_inversion_flags_drift_between_euler_estimates():
    # 1/(s(s+1)) inverts to 1 - e^{-x}; alternating noise growing with the
    # series index leaves the last two Euler estimates far apart
    def clean(s):
        return 1.0 / (s * (s + 1.0))

    def noisy(s):
        k = np.arange(s.size)
        return clean(s) + 1e-3 * (-1.0) ** k * (1.0 + k)

    assert stationary._euler_invert(clean, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)
    with pytest.raises(InversionError, match="disagree") as info:
        stationary._euler_invert(noisy, 1.0)
    assert info.value.diagnostics["drift"] > 0.1


# ---------------------------------------------------------------------------
# stationary CDF / PDF without preemption
# ---------------------------------------------------------------------------

def test_cdf_no_preemption_matches_closed_form():
    model = StationaryModel(0.8, Exponential(1.2), 0.0)
    for x in np.linspace(0.0, 10.0, 50):
        want = closed_form_mm11(0.8, 1.2, x)
        assert aoi_cdf_stationary(model, x) == pytest.approx(want, abs=1e-8)


def test_cdf_no_preemption_deterministic_service():
    model = StationaryModel(0.8, Deterministic(1 / 1.2), 0.0)
    for x in (0.3, 1.0, 1.2, 2.0, 4.0):
        want = closed_form_md11(0.8, 1.2, x)
        assert aoi_cdf_stationary(model, x) == pytest.approx(want, abs=1e-8)


def test_pdf_no_preemption_matches_cdf_derivative():
    model = StationaryModel(0.8, Exponential(1.2), 0.0)
    h = 1e-5
    for x in (0.4, 1.0, 2.5, 5.0):
        fd = (closed_form_mm11(0.8, 1.2, x + h)
              - closed_form_mm11(0.8, 1.2, x - h)) / (2 * h)
        assert aoi_pdf_stationary(model, x) == pytest.approx(fd, abs=1e-6)


def test_pdf_deterministic_service_atom_term():
    # density jumps where the service atom enters: for x > d it carries
    # a -lam*M(x-d) correction on top of lam*Minf
    lam, d = 0.8, 1.5
    model = StationaryModel(lam, Deterministic(d), 0.0)
    minf = m_infinity(model)
    h = 1e-6

    def cdf(x):
        return aoi_cdf_stationary(model, x)

    for x in (0.5, 1.0, 2.0, 3.5):
        fd = (cdf(x + h) - cdf(x - h)) / (2 * h)
        assert aoi_pdf_stationary(model, x) == pytest.approx(fd, abs=1e-5)
    # below the atom the pdf is exactly zero (no completed packet that young)
    assert aoi_pdf_stationary(model, 0.5) == 0.0
    assert minf == pytest.approx(1.0 / (1.0 + lam * d), abs=1e-15)


@pytest.mark.parametrize("svc", [Gamma(0.8, 1.0), Gamma(1.2, 1 / 1.44)],
                         ids=["shape0.8", "shape1.2"])
def test_pdf_heavy_tail_gamma_matches_quadrature(svc):
    # F(v) ~ v^shape at 0 is not smooth; the PDF T[M'] still has to come
    # out right. Reference: M' in closed form (lam < 1/scale),
    # M'(s) = lam M(inf) e^{-lam s} (1 - lam scale)^{-shape} P(shape, s (1/scale - lam)),
    # and the convolution by quad
    k, sc = svc.shape, svc.scale
    for lam in (0.4, 0.8):
        model = StationaryModel(lam, svc, 0.0)
        minf = m_infinity(model)

        def m_prime(s):
            return (lam * minf * math.exp(-lam * s) * (1.0 - lam * sc) ** -k
                    * gammainc(k, s * (1.0 / sc - lam)))

        for x in (0.5, 1.5, 10.0, 40.0):
            conv, _ = integrate.quad(
                lambda s: m_prime(s) * svc.sf(x - s), 0.0, x,
                points=[x - 1e-6, x - 1e-3, max(x - 1.0, x / 2)], limit=400,
                epsabs=1e-13, epsrel=1e-12)
            want = m_prime(x) + lam * conv
            assert aoi_pdf_stationary(model, x) == pytest.approx(want, abs=5e-8)


def test_pdf_gamma_tail_stays_nonnegative():
    model = StationaryModel(1.6, Gamma(1.2, 1 / 1.44), 0.0)
    for x in (10.0, 20.0, 40.0, 60.0, 100.0):
        assert aoi_pdf_stationary(model, x) >= -1e-9


@pytest.mark.parametrize("x", [100.0, 300.0, 1000.0])
@pytest.mark.parametrize("svc", [Exponential(1.2), Uniform(0.0, 2 / 1.2),
                                 Erlang(5, 1 / 6)], ids=["exp", "uni", "erlang"])
def test_no_preemption_far_tail(svc, x):
    # this far out 1 - Phi(x) and the density are below 1e-40 and M(x) has
    # reached M(inf); a 64-node panel spanning [0, x] is too coarse to see it
    model = StationaryModel(1.6, svc, 0.0)
    assert 1.0 - aoi_cdf_stationary(model, x) <= 1e-12
    assert abs(aoi_pdf_stationary(model, x)) <= 1e-12
    assert abs(m_x_stationary(model, x) - m_infinity(model)) <= 1e-12


def gamma_tail_form_reference(svc, lam, x):
    """(CDF, PDF) at theta = 0 for Gamma service by nested quad of the
    survival form, S(v) = Q(shape, v / scale):
    1 - Phi = D(x) + lam int_0^x D(s) S(x-s) ds + lam M(inf) int_x^inf S,
    PDF = M'(x) + lam int_0^x M'(s) S(x-s) ds, M' = lam (D - M(inf) S),
    D(s) = M(inf) [e^{-lam s} + lam int_0^s S(v) e^{-lam (s-v)} dv]."""
    minf = 1.0 / (1.0 + lam * svc.mean)
    kw = dict(limit=200, epsabs=1e-15, epsrel=1e-12)

    def sf(v):
        return gammaincc(svc.shape, max(v, 0.0) / svc.scale)

    @functools.cache
    def d(s):
        inner, _ = integrate.quad(lambda v: sf(v) * math.exp(-lam * (s - v)),
                                  0.0, s, **kw)
        return minf * (math.exp(-lam * s) + lam * inner)

    def m_prime(s):
        return lam * (d(s) - minf * sf(s))

    conv = [integrate.quad(lambda s: g(s) * sf(x - s), 0.0, x, **kw)[0]
            for g in (d, m_prime)]
    tail, _ = integrate.quad(sf, x, math.inf, **kw)
    cdf = 1.0 - (d(x) + lam * conv[0] + lam * minf * tail)
    return cdf, m_prime(x) + lam * conv[1]


@pytest.mark.parametrize("svc", [Gamma(1.2, 1 / 1.44), Gamma(1 / 1.2, 1.0)],
                         ids=["shape1.2", "shape0.83"])
@pytest.mark.parametrize("lam", [0.4, 1.6])
def test_no_preemption_gamma_matches_nested_quadrature(svc, lam):
    # F(v) ~ v^shape at 0 enters the convolution at both ends, through D at
    # s = 0 and through S(x - s) at s = x
    model = StationaryModel(lam, svc, 0.0)
    for x in (1.0, 10.0, 40.0):
        cdf, pdf = gamma_tail_form_reference(svc, lam, x)
        assert aoi_cdf_stationary(model, x) == pytest.approx(cdf, abs=1e-10)
        assert aoi_pdf_stationary(model, x) == pytest.approx(pdf, abs=1e-10)


def erlang_survival_reference(n, scale, lam, x):
    """1 - Phi(x) at theta = 0 for Erlang(n, scale) service to 30 digits:
    S(v) = e^{-mu v} sum_{k<n} (mu v)^k / k!, mu = 1/scale, so D has the
    closed form
    D(s) = M(inf) e^{-lam s} [1 + lam sum_k mu^k gamma(k+1, (mu-lam) s)
                                    / (k! (mu-lam)^(k+1))]
    and only the outer convolution is integrated, split near s = x where
    S(x - s) concentrates it."""
    with mpmath.workdps(30):
        mu, lam, x = 1 / mpmath.mpf(scale), mpmath.mpf(lam), mpmath.mpf(x)
        minf = 1 / (1 + lam * n / mu)
        fact = [mpmath.factorial(k) for k in range(n)]

        def sf(v):
            return mpmath.exp(-mu * v) * sum((mu * v) ** k / fact[k] for k in range(n))

        def d(s):
            inner = sum(mu ** k * mpmath.gammainc(k + 1, 0, (mu - lam) * s)
                        / (fact[k] * (mu - lam) ** (k + 1)) for k in range(n))
            return minf * mpmath.exp(-lam * s) * (1 + lam * inner)

        tail = sum(mpmath.gammainc(k + 1, mu * x) / fact[k] for k in range(n)) / mu
        cuts = [0, *(x - dx for dx in (20, 5, 1) if dx < x), x]
        conv = mpmath.quad(lambda s: d(s) * sf(x - s), cuts)
        return float(d(x) + lam * conv + lam * minf * tail)


@pytest.mark.parametrize("x", [40.0, 100.0])
def test_no_preemption_erlang_tail_keeps_relative_accuracy(x):
    # at lam = 0.4 the end panels are about 23 long, while S(x - s) decays
    # on the scale E[S] = 0.83: graded nodes spread over a quarter panel
    # left 1 - Phi(100) = 6.4e-18 only 4e-12 accurate
    model = StationaryModel(0.4, Erlang(5, 1 / 6), 0.0)
    want = erlang_survival_reference(5, 1 / 6, 0.4, x)
    assert stationary._survival(model, x) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("service", FIG7_SERVICES.values(), ids=FIG7_SERVICES.keys())
def test_no_preemption_tail_is_monotone(service):
    # 1 - Phi is computed from nonnegative terms, so Phi cannot fall by
    # roundoff where it is within 1e-14 of 1
    model = StationaryModel(1.6, service, 0.0)
    cdfs = [aoi_cdf_stationary(model, x) for x in np.linspace(20.0, 1000.0, 50)]
    assert np.all(np.diff(cdfs) >= 0.0)


@pytest.mark.parametrize("lam", [100.0, 1000.0])
def test_no_preemption_fast_arrivals_match_closed_forms(lam):
    # D has a boundary layer of width 1/lam; a quadrature for D over pieces
    # of the outer rule could not resolve e^{-lam (s - v)} there and read
    # the M/M/1/1 CDF 2.4e-3 off at lam = 1000, with PDF values near -2.3
    xs = np.linspace(0.0, 10.0, 61)[1:]
    for svc, closed in ((Exponential(1.2), closed_form_mm11),
                        (Deterministic(1 / 1.2), closed_form_md11)):
        model = StationaryModel(lam, svc, 0.0)
        for x in xs:
            assert aoi_cdf_stationary(model, x) == pytest.approx(
                closed(lam, 1.2, x), abs=1e-12, rel=0.0)
            assert aoi_pdf_stationary(model, x) >= 0.0


@pytest.mark.parametrize("lam", [2000.0, 1e4])
def test_no_preemption_atom_boundary_layer(lam):
    # after the atom at d, D falls like e^{-lam (s - d)}; one 64-node panel
    # over the 16 (E[S] + 1/lam) after d read the CDF 1.1e-8 (lam = 2000)
    # and 4.3e-5 (lam = 1e4) off the closed form
    model = StationaryModel(lam, Deterministic(1 / 1.2), 0.0)
    for x in np.linspace(0.0, 10.0, 158)[1:]:
        assert aoi_cdf_stationary(model, x) == pytest.approx(
            closed_form_md11(lam, 1.2, x), abs=1e-13, rel=0.0)
        assert aoi_pdf_stationary(model, x) >= 0.0


def mm11_pdf(lam, mu, x):
    """Derivative of the M/M/1/1 closed form (lam != mu), in mpmath."""
    d = lam - mu
    b = lam * mu / d
    a = (lam * lam - lam * mu - mu * mu) / (d * d)
    return (lam * mu ** 3 / ((lam + mu) * d * d) * mpmath.exp(-lam * x)
            + lam / (lam + mu) * (mu * (a + b * x) - b) * mpmath.exp(-mu * x))


@pytest.mark.parametrize("lam", [0.4, 0.8, 1.6])
def test_no_preemption_pdf_tail_keeps_relative_accuracy(lam):
    # the PDF is T[lam M(inf) W], a sum of nonnegative terms; derivatives of
    # the M/M/1/1 and M/D/1/1 closed forms, at the doubles the models hold
    with mpmath.workdps(30):
        mu, d, lm = mpmath.mpf(1.2), mpmath.mpf(1 / 1.2), mpmath.mpf(lam)
        for x in (20.0, 60.0, 100.0):
            want = float(mm11_pdf(lm, mu, x))
            got = aoi_pdf_stationary(StationaryModel(lam, Exponential(1.2), 0.0), x)
            assert got == pytest.approx(want, rel=5e-14, abs=0.0)
            want = float(lm / (1 + lm * d) * mpmath.exp(-lm * (x - 2 * d)))
            got = aoi_pdf_stationary(StationaryModel(lam, Deterministic(1 / 1.2), 0.0), x)
            assert got == pytest.approx(want, rel=5e-14, abs=0.0)


@pytest.mark.parametrize("lam", [0.4, 1.6])
def test_no_preemption_exactly_zero_below_support(lam):
    # no update is younger than the shortest service time
    for svc, x in ((Deterministic(1.5), 0.5), (Uniform(0.5, 1.5), 0.3)):
        model = StationaryModel(lam, svc, 0.0)
        assert aoi_cdf_stationary(model, x) == 0.0
        assert aoi_pdf_stationary(model, x) == 0.0


@pytest.mark.parametrize("svc,theta", [(Deterministic(1 / 1.2), 0.3),
                                       (Deterministic(1 / 1.2), 1.0),
                                       (Uniform(0.3, 1.2), 0.3)],
                         ids=["det-0.3", "det-1", "uniform-0.3"])
def test_preemption_exactly_zero_below_support(svc, theta):
    # the inversion does not know that the AoI is at least the least service
    # time d: below d it returned CDF values up to 3.1e-4 and PDF values down
    # to -2.55e-2 (Deterministic, theta = 0.3), 4.6e-8 and -2.4e-8 (Uniform)
    model = StationaryModel(1.6, svc, theta)
    d = svc.breakpoints()[0]
    assert model._least == d
    for x in np.linspace(0.05, d, 40, endpoint=False):
        assert aoi_cdf_stationary(model, x) == 0.0
        assert aoi_pdf_stationary(model, x) == 0.0
    # from d on, the inversion as before
    assert aoi_cdf_stationary(model, d) == stationary._euler_invert(
        stationary._lst_over_s, d, model)
    assert aoi_pdf_stationary(model, d) == stationary._euler_invert(stationary._lst, d, model)


# ---------------------------------------------------------------------------
# the outer rule on [0, x]
# ---------------------------------------------------------------------------

def rule_abscissae(svc):
    """b, 2b, b + 1e-9, b/2 (below the support of a law bounded below),
    10 and 100, with b the first breakpoint, or the mean for a law with
    none."""
    b = (*svc.breakpoints(), svc.mean)[0]
    return (b, 2 * b, b + 1e-9, 0.5 * b, 10.0, 100.0)


@pytest.mark.parametrize("lam", [0.4, 1.6, 1e4])
@pytest.mark.parametrize("svc", FIG7_SERVICES.values(), ids=FIG7_SERVICES.keys())
def test_outer_rule_is_mirror_symmetric(svc, lam):
    # one S evaluation at the nodes serves S(x - s) read backwards, which
    # needs x - nodes[::-1] == nodes and palindromic weights
    model = StationaryModel(lam, svc, 0.0)
    for x in rule_abscissae(svc):
        nodes, weights = stationary._outer_rule(model, x)
        assert np.all(np.diff(nodes) >= 0.0)
        assert 0.0 <= nodes[0] and nodes[-1] <= x
        assert np.max(np.abs(x - nodes[::-1] - nodes)) <= 4 * np.finfo(float).eps * x
        assert np.array_equal(weights, weights[::-1])
        assert weights.sum() == pytest.approx(x, rel=1e-14, abs=0.0)


# every x the stationary_curve benchmark can draw: 8 positions in each
# 0.25-wide cell around 0.25, ..., 10 (the tail points 20, ..., 100 aside)
BENCH_XS = [c - 0.125 + 0.25 * (k + 0.5) / 8 for c in 0.25 * np.arange(1, 41) for k in range(8)]


def outer_rule_size(model, x):
    """Node count of the outer rule as first defined: ceil(x / longest)
    equal panels, longest = 16 (E[S] + 1/lam), cut at every breakpoint b
    and x - b inside (0, x), 64 nodes per panel and 32 graded nodes at
    either end."""
    svc = model.service
    longest = 16 * (svc.mean + 1 / model.lam)
    cuts = set(np.linspace(0.0, x, math.ceil(x / longest) + 1))
    cuts |= {p for b in svc.breakpoints() if 0 < b < x for p in (b, x - b)}
    return 64 * (len(cuts) - 1) + 64


@pytest.mark.parametrize("svc", FIG7_SERVICES.values(), ids=FIG7_SERVICES.keys())
def test_outer_rule_size_is_unchanged_on_the_benchmark_grid(svc):
    for lam in (0.4, 0.8, 1.6):
        model = StationaryModel(lam, svc, 0.0)
        for x in (*BENCH_XS, 20.0, 30.0, 40.0, 60.0, 100.0):
            assert len(stationary._outer_rule(model, x)[0]) == outer_rule_size(model, x)


@pytest.mark.parametrize("lam", [0.4, 0.8, 1.6, 1e4])
@pytest.mark.parametrize("svc", FIG7_SERVICES.values(), ids=FIG7_SERVICES.keys())
def test_one_panel_rule_is_the_outer_rule(svc, lam):
    # up to model._x1 _rule lays out the four rows itself; nodes and
    # weights must be those of _outer_rule to the bit, with x appended
    model = StationaryModel(lam, svc, 0.0)
    x1 = model._x1
    longest = 16 * (svc.mean + 1 / lam)
    assert x1 == min(longest, 16 * svc.mean, *(b for b in model._splits if b > 0))
    special = [x1, math.nextafter(x1, 0.0), *svc.breakpoints(), 16 * svc.mean, longest]
    xs = [x for x in BENCH_XS if x <= x1] + special
    assert sum(x <= x1 for x in xs) >= 2
    for x in xs:
        nodes, weights = stationary._outer_rule(model, x)
        s, w = stationary._rule(model, x)
        assert np.array_equal(s, np.append(nodes, x)) and np.array_equal(w, weights)
    # and x1 is the largest such x: one ulp above it the layout is wrong
    above = math.nextafter(x1, math.inf)
    object.__setattr__(model, "_x1", above)
    nodes, weights = stationary._outer_rule(model, above)
    s, w = stationary._rule(model, above)
    assert not (np.array_equal(s[:-1], nodes) and np.array_equal(w, weights))


def test_model_constants_stay_out_of_repr_eq_and_hash():
    model = StationaryModel(0.8, Uniform(0.0, 2 / 1.2), 0.3)
    assert repr(model) == ("StationaryModel(lam=0.8, service=Uniform(low=0.0, "
                           "high=1.6666666666666667), theta=0.3)")
    twin = StationaryModel(0.8, Uniform(0.0, 2 / 1.2), 0.3)
    assert model == twin and hash(model) == hash(twin)
    assert {model: 1}[twin] == 1
    faster = dataclasses.replace(model, lam=1.6)
    want = StationaryModel(1.6, Uniform(0.0, 2 / 1.2), 0.3)
    for name in ("_minf", "_lst_c", "_least", "_longest", "_end_cap", "_splits", "_x1"):
        assert getattr(faster, name) == getattr(want, name)
    assert faster._minf != model._minf and faster._longest != model._longest
    assert m_infinity(faster) == m_infinity(want)
    assert aoi_cdf_stationary(faster, 2.0) == aoi_cdf_stationary(want, 2.0)
    # theta = 0 computes no LST and no least service time
    assert dataclasses.replace(model, theta=0.0)._lst_c is None
    assert dataclasses.replace(model, theta=0.0)._least is None


def integrated_tail(svc, x):
    """int_x^inf S(z) dz by quad, split where S is not smooth."""
    cuts = [x, *(b for b in (0.0, *svc.breakpoints()) if b > x)]
    kw = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    pieces = [integrate.quad(svc.sf, a, b, **kw)[0] for a, b in zip(cuts, cuts[1:])]
    return sum(pieces) + integrate.quad(svc.sf, cuts[-1], math.inf, **kw)[0]


@pytest.mark.parametrize("svc", [*FIG7_SERVICES.values(), Uniform(0.5, 1.5)],
                         ids=[*FIG7_SERVICES.keys(), "uni-shifted"])
def test_survival_function_and_integrated_tail(svc):
    for x in (-0.5, 0.0, 0.3, 1.0, 2.5, 10.0):
        assert svc.tail(x) == pytest.approx(integrated_tail(svc, x), abs=1e-12)
    assert svc.tail(0.0) == pytest.approx(svc.mean, abs=1e-15)


def exp_convolved_reference(svc, lam, s):
    """W(s) = E[e^{-lam (s-S)}; S <= s] = int_0^s f(v) e^{-lam (s-v)} dv by
    quad. For Gamma the substitution v = h u^(1/shape) on [0, h], h =
    min(s, scale), turns v^(shape-1) dv into (h^shape / shape) du, so the
    integrand is smooth there even for shape << 1."""
    if s <= 0:
        return 0.0
    kw = dict(epsabs=0.0, epsrel=2e-14, limit=400)
    if svc.kind == "deterministic":
        return math.exp(-lam * (s - svc.d)) if s >= svc.d else 0.0

    def term(v):
        return density(svc, v) * math.exp(-lam * (s - v))

    if svc.kind in ("gamma", "erlang"):
        k, sc = svc.shape, svc.scale
        h = min(s, sc)
        head, _ = integrate.quad(
            lambda u: math.exp(-h * u ** (1.0 / k) / sc - lam * (s - h * u ** (1.0 / k))),
            0.0, 1.0, **kw)
        rest = integrate.quad(term, h, s, **kw)[0] if h < s else 0.0
        return (h / sc) ** k / math.gamma(k + 1.0) * head + rest
    cuts = [0.0, *(b for b in svc.breakpoints() if b < s), s]
    return sum(integrate.quad(term, a, b, **kw)[0] for a, b in zip(cuts, cuts[1:]))


@pytest.mark.parametrize("svc", [*FIG7_SERVICES.values(), Uniform(0.5, 1.5)],
                         ids=[*FIG7_SERVICES.keys(), "uni-shifted"])
@pytest.mark.parametrize("lam", [0.4, 0.8, 1.6])
def test_exp_convolved_matches_quadrature(svc, lam):
    for s in (1e-6, 0.05, 0.3, 0.5, 1 / 1.2, 1.0, 1.5, 2.5, 7.0, 20.0):
        want = exp_convolved_reference(svc, lam, s)
        assert svc.exp_convolved(lam, s) == pytest.approx(want, abs=1e-13, rel=0.0)


def test_exp_convolved_edge_cases():
    s = np.array([0.01, 0.5, 2.0, 9.0])
    # mu = lam: mu s e^{-mu s}, and no jump either side of it
    exp = Exponential(1.2)
    np.testing.assert_allclose(exp.exp_convolved(1.2, s), 1.2 * s * np.exp(-1.2 * s),
                               rtol=1e-15, atol=0.0)
    for lam in (1.2 * (1 - 1e-9), 1.2 * (1 + 1e-9)):
        np.testing.assert_allclose(exp.exp_convolved(lam, s), exp.exp_convolved(1.2, s),
                                   rtol=2e-8, atol=0.0)
    # lam scale = 1 exactly (c = 0) and on either side of it, across the
    # switch between the incomplete-gamma and the 1F1 form
    gam = Gamma(1.2, 1 / 1.44)
    for lam in (1.44, 1.44 * (1 - 1e-9), 1.44 * (1 + 1e-9)):
        for si in s:
            want = exp_convolved_reference(gam, lam, si)
            assert gam.exp_convolved(lam, si) == pytest.approx(want, rel=1e-13, abs=0.0)
    # a small shape near s = 0, where W behaves like s^shape
    tiny = Gamma(0.05, 1.0)
    for lam in (0.4, 1.6):
        for si in (1e-12, 1e-6, 1e-3, 0.1):
            want = exp_convolved_reference(tiny, lam, si)
            assert tiny.exp_convolved(lam, si) == pytest.approx(want, rel=1e-13, abs=0.0)
    # an atom at d: the first update that young is the one that just ended
    assert Deterministic(1.5).exp_convolved(0.8, 1.5) == 1.0
    assert Deterministic(1.5).exp_convolved(0.8, 1.4) == 0.0
    assert Uniform(0.5, 1.5).exp_convolved(0.8, 0.5) == 0.0
    laws = [*FIG7_SERVICES.values(), Uniform(0.5, 1.5), tiny]
    for svc in laws:
        for lam in (0.4, 1.2, 1.44, 1.6):
            assert svc.exp_convolved(lam, 0.0) == 0.0
            with np.errstate(over="raise", invalid="raise"):
                far = svc.exp_convolved(lam, np.array([1e6]))
            assert np.isfinite(far).all() and (far >= 0.0).all()


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_abscissa_is_a_config_error(theta, x):
    model = StationaryModel(0.8, Gamma(1.2, 1 / 1.44), theta)
    for fn in (aoi_cdf_stationary, aoi_pdf_stationary, m_x_stationary):
        with pytest.raises(ConfigError):
            fn(model, x)


def test_model_validation():
    with pytest.raises(ConfigError):
        StationaryModel(0.0, Exponential(1.0), 0.5)
    with pytest.raises(ConfigError):
        StationaryModel(1.0, Exponential(1.0), 1.5)
