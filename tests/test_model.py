import dataclasses
import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammainc, gammaincc

from aoiq import (Constant, Sinusoid, PiecewiseConstant, Tabulated,
                  Exponential, Deterministic, Uniform, Gamma, Erlang,
                  SystemConfig, GridFunction, rate_at,
                  rate_from_dict, service_from_dict, config_from_dict,
                  ConfigError)

SQUARE = PiecewiseConstant((0.0, 3.0, 6.0, 9.0, 12.0),
                           (1.5, 0.5, 1.5, 0.5))

ALL_SERVICES = [Exponential(1.2), Deterministic(1 / 1.2), Uniform(0.0, 5 / 3),
                Gamma(1.2, 1 / 1.44), Erlang(5, 1 / 6)]


# ---------------------------------------------------------------------------
# rate profiles
# ---------------------------------------------------------------------------

def test_rate_at_constant():
    assert rate_at(Constant(1.8), 5.0) == 1.8


def test_rate_at_sinusoid_origin():
    assert rate_at(Sinusoid(1.7, 1.0, 1.8), 0.0) == pytest.approx(1.7, abs=1e-15)


def test_rate_at_square_wave():
    # alternating 1.5/0.5 every 3 units: t=4 falls in the second band
    assert rate_at(SQUARE, 4.0) == 0.5


def test_rate_at_vectorized():
    ts = np.array([0.0, 2.9, 3.0, 5.9, 6.0])
    np.testing.assert_allclose(rate_at(SQUARE, ts), [1.5, 1.5, 0.5, 0.5, 1.5])


def test_sinusoid_requires_nonnegative_rate():
    with pytest.raises(ConfigError):
        Sinusoid(1.0, 1.5, 1.0)


def test_piecewise_requires_increasing_breakpoints():
    with pytest.raises(ConfigError):
        PiecewiseConstant((0.0, 2.0, 2.0), (1.0, 1.0))


def test_rate_integral_constant():
    assert Constant(1.8).integral(0.0, 5.0) == pytest.approx(9.0, abs=1e-14)


def test_rate_integral_sinusoid_closed_form():
    a, b, w = 1.7, 1.0, 1.8
    prof = Sinusoid(a, b, w)
    for t in (0.3, 1.0, 4.7, 12.0):
        want = a * t + (b / w) * (1.0 - math.cos(w * t))
        assert prof.integral(0.0, t) == pytest.approx(want, abs=1e-12)
        # independent composite check
        grid = np.linspace(0.0, t, 20001)
        approx = np.trapezoid(rate_at(prof, grid), grid)
        assert prof.integral(0.0, t) == pytest.approx(approx, abs=1e-5)


def test_rate_integral_empty_interval():
    for prof in (Constant(2.0), SQUARE, Sinusoid(1.0, 0.5, 2.0)):
        assert prof.integral(1.3, 1.3) == 0.0


def test_rate_integral_rejects_reversed_interval():
    with pytest.raises(ValueError):
        Constant(1.0).integral(2.0, 1.0)


def test_rate_integral_additive():
    rng = np.random.default_rng(3)
    for prof in (Constant(1.1), Sinusoid(2.0, 1.5, 0.7), SQUARE):
        for _ in range(25):
            t0, t1, t2 = np.sort(rng.uniform(0.0, 11.0, 3))
            whole = prof.integral(t0, t2)
            split = prof.integral(t0, t1) + prof.integral(t1, t2)
            assert whole == pytest.approx(split, abs=1e-12)


def test_piecewise_integral_exact():
    # 3 units at 1.5, 1 unit at 0.5
    assert SQUARE.integral(0.0, 4.0) == pytest.approx(5.0, abs=1e-14)


def test_tabulated_interpolates_and_integrates():
    tab = Tabulated((0.0, 1.0, 2.0), (1.0, 2.0, 1.0))
    assert rate_at(tab, 0.5) == pytest.approx(1.5)
    assert tab.integral(0.0, 2.0) == pytest.approx(3.0, abs=1e-12)
    assert tab.integral(0.5, 1.5) == pytest.approx(1.75, abs=1e-12)
    with pytest.raises(ValueError):
        rate_at(tab, 3.0)


def test_rate_integral_accepts_array_of_upper_ends():
    tab = Tabulated((0.0, 2.0, 4.0, 11.0), (1.0, 3.0, 0.0, 2.0))
    ts = np.linspace(0.5, 11.0, 22)
    lows = ts - np.linspace(0.0, 0.5, 22)
    for prof in (Constant(1.1), Sinusoid(2.0, 1.5, 0.7), SQUARE, tab):
        got = prof.integral(0.5, ts)
        assert np.array_equal(got, [prof.integral(0.5, t) for t in ts])
        # array of lower ends, and both ends as arrays
        got = prof.integral(ts - 0.5, 11.0)
        assert np.array_equal(got, [prof.integral(t - 0.5, 11.0) for t in ts])
        got = prof.integral(lows, ts)
        assert np.array_equal(got, [prof.integral(lo, t) for lo, t in zip(lows, ts)])
    with pytest.raises(ValueError):
        Constant(1.0).integral(2.0, np.array([3.0, 1.0]))


def test_max_rate_bounds():
    assert Sinusoid(1.7, 1.0, 1.8).max_rate(0.0, 10.0) == pytest.approx(2.7)
    assert SQUARE.max_rate(3.0, 5.9) == pytest.approx(0.5)
    assert SQUARE.max_rate(0.0, 12.0) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# service distributions
# ---------------------------------------------------------------------------

def test_lst_examples():
    assert Exponential(1.2).lst(0.0) == pytest.approx(1.0, abs=1e-15)
    assert Exponential(1.2).lst(1.2) == pytest.approx(0.5, abs=1e-15)


def test_deterministic_cdf_below_atom():
    assert Deterministic(1 / 1.2).cdf(0.5) == 0.0
    assert Deterministic(1 / 1.2).cdf(1.0) == 1.0


def test_deterministic_survival_and_tail():
    svc = Deterministic(1.5)
    assert svc.sf(1.0) == 1.0 and svc.sf(1.5) == 0.0
    assert svc.tail(0.5) == 1.0 and svc.tail(2.0) == 0.0


@pytest.mark.parametrize("svc", ALL_SERVICES, ids=lambda s: s.kind)
def test_cdf_monotone_and_bounded(svc):
    z = np.linspace(0.0, 12.0, 1000)
    F = np.asarray(svc.cdf(z))
    assert np.all(F >= 0.0) and np.all(F <= 1.0)
    assert np.all(np.diff(F) >= -1e-15)


@pytest.mark.parametrize("svc", ALL_SERVICES, ids=lambda s: s.kind)
def test_lst_derivative_matches_mean(svc):
    # mean = -d/ds LST at s=0
    h = 1e-6
    fd = (float(np.real(svc.lst(h))) - 1.0) / h
    assert abs(fd + svc.mean) < 1e-4


@pytest.mark.parametrize("svc", ALL_SERVICES, ids=lambda s: s.kind)
def test_lst_strictly_decreasing_on_reals(svc):
    s = np.linspace(0.0, 6.0, 40)
    vals = np.real(np.asarray(svc.lst(s)))
    assert np.all(np.diff(vals) < 0)


def test_uniform_single_argument_form():
    u = Uniform(2.0)
    assert (u.low, u.high) == (0.0, 2.0)
    assert u.mean == pytest.approx(1.0)


def test_uniform_lst_small_argument_stable():
    u = Uniform(0.0, 5 / 3)
    # series branch vs exact, straddling the switch point
    for s in (1e-12, 1e-9, 1e-6, 1e-3):
        exact = -math.expm1(-s * u.high) / (s * u.high)
        assert complex(u.lst(s)).real == pytest.approx(exact, rel=1e-10)


def test_uniform_lst_mixes_series_and_exact_per_entry():
    # the series is taken only at the entries with |s| w < 1e-8
    u = Uniform(0.5, 1.5)
    s = np.array([1e-12, 0.3, 2.0 + 3.0j, 1e-10j])
    assert np.array_equal(u.lst(s), [complex(u.lst(v)) for v in s])
    assert u.lst(s[1:3]).tolist() == [complex(u.lst(v)) for v in s[1:3]]
    assert complex(u.lst(1e-12)).real == pytest.approx(1.0 - 1e-12, rel=1e-15)


GAMMA_SHAPES_BELOW_1 = (0.3, 0.5, 1 / 1.2, 0.95)
# geometric below 1, linear above
GAMMA_Z = np.concatenate([np.geomspace(1e-12, 1.0, 40, endpoint=False),
                          np.linspace(1.0, 50.0, 99)])


@functools.cache
def gamma_reference(k):
    """(P(k, z), Q(k, z)) on GAMMA_Z by mpmath."""
    mpmath.mp.dps = 30
    return (np.array([float(mpmath.gammainc(k, 0, z, regularized=True)) for z in GAMMA_Z]),
            np.array([float(mpmath.gammainc(k, z, mpmath.inf, regularized=True))
                      for z in GAMMA_Z]))


def exp_convolved_reference(k, lam):
    """exp_convolved(lam, z) of Gamma(k, 1) on GAMMA_Z by mpmath:
    e^{-lam z} c^{-k} P(k, c z), c = 1 - lam > 0."""
    mpmath.mp.dps = 30
    c = mpmath.mpf(1.0 - lam)
    return np.array([float(mpmath.exp(-lam * z) * c ** -k
                           * mpmath.gammainc(k, 0, c * z, regularized=True))
                     for z in map(mpmath.mpf, GAMMA_Z)])


@pytest.mark.parametrize("k", GAMMA_SHAPES_BELOW_1)
def test_gamma_below_shape_1_matches_mpmath(k):
    # shape < 1 takes P and Q from shape k + 1 near the origin
    svc = Gamma(k, 1.0)
    p, q = gamma_reference(k)
    sf, cdf = svc.sf(GAMMA_Z), svc.cdf(GAMMA_Z)
    np.testing.assert_allclose(cdf, p, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(sf, q, rtol=1e-14, atol=0.0)
    assert np.max(np.abs(sf + cdf - 1.0)) <= 2.2e-16
    assert svc.sf(0.0) == 1.0 and svc.cdf(0.0) == 0.0
    for lam in (0.4, 0.8):
        np.testing.assert_allclose(svc.exp_convolved(lam, GAMMA_Z),
                                   exp_convolved_reference(k, lam), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("svc", [Erlang(5, 1 / 6), Gamma(1.2, 1 / 1.44)],
                         ids=["erlang", "gamma1.2"])
def test_gamma_from_shape_1_calls_scipy_directly(svc):
    z = np.linspace(0.0, 20.0, 401)
    k, sc = svc.shape, svc.scale
    assert np.array_equal(svc.sf(z), gammaincc(k, z / sc))
    assert np.array_equal(svc.cdf(z), gammainc(k, z / sc))
    for lam in (0.4, 0.8):
        c = 1.0 / sc - lam
        want = np.exp(-lam * z) * (sc * c) ** -k * gammainc(k, c * z)
        assert np.array_equal(svc.exp_convolved(lam, z), want)


def test_erlang_mean():
    assert Erlang(5, 1 / 6).mean == pytest.approx(5 / 6)


def test_erlang_replace_and_repr_round_trip():
    # the parameter is named after the field, as dataclasses.replace and
    # the generated repr expect; the shape stays an integer
    e = Erlang(5, 0.2)
    assert dataclasses.replace(e, scale=0.3) == Erlang(5, 0.3)
    assert type(dataclasses.replace(e, scale=0.3)) is Erlang
    assert repr(e) == "Erlang(shape=5, scale=0.2)"
    assert eval(repr(e)) == e
    with pytest.raises(ConfigError, match="^erlang shape n must be an integer"):
        dataclasses.replace(e, shape=2.5)


def test_sampling_deterministic():
    rng = np.random.default_rng(0)
    assert Deterministic(0.7).sample(rng) == 0.7


def test_sampling_means():
    rng = np.random.default_rng(11)
    exp_draws = Exponential(1.2).sample(rng, 1_000_000)
    assert abs(np.mean(exp_draws) - 1 / 1.2) < 0.01 / 1.2
    erl_draws = Erlang(5, 1 / 6).sample(rng, 1_000_000)
    assert abs(np.mean(erl_draws) - 5 / 6) < 0.01 * 5 / 6


@pytest.mark.parametrize("svc", ALL_SERVICES, ids=lambda s: s.kind)
def test_sampling_matches_cdf(svc):
    rng = np.random.default_rng(29)
    draws = np.sort(np.atleast_1d(svc.sample(rng, 100_000)))
    z = np.linspace(0.0, 4.0 * svc.mean, 50)
    emp = np.searchsorted(draws, z, side="right") / draws.size
    F = np.asarray(svc.cdf(z))
    assert np.max(np.abs(emp - F)) < 0.01


# ---------------------------------------------------------------------------
# config objects
# ---------------------------------------------------------------------------

def test_system_config_validates_theta():
    with pytest.raises(ConfigError):
        SystemConfig(Constant(1.0), Exponential(1.0), 1.5)


def test_grid_function_interpolation_and_domain():
    g = GridFunction(0.0, 0.5, (0.0, 1.0, 4.0))
    assert g(0.25) == pytest.approx(0.5)
    np.testing.assert_allclose(g(np.array([0.0, 0.75, 1.0])), [0.0, 2.5, 4.0])
    with pytest.raises(ValueError):
        g(1.5)


def test_config_from_dict_nested_params():
    doc = {"rate": {"kind": "sinusoid",
                    "params": {"a": 1.7, "b": 1.0, "omega": 1.8}},
           "service": {"kind": "erlang", "params": {"n": 5, "scale": 1 / 6}},
           "theta": 0.6}
    cfg = config_from_dict(doc)
    assert isinstance(cfg.rate, Sinusoid)
    assert isinstance(cfg.service, Erlang)
    assert cfg.theta == 0.6


def test_config_from_dict_flat_params():
    cfg = config_from_dict({"rate": {"kind": "constant", "a": 2.0},
                            "service": {"kind": "exponential", "mu": 1.2},
                            "theta": 0.0})
    assert cfg.rate == Constant(2.0)
    assert cfg.service == Exponential(1.2)


def test_config_from_dict_list_params_become_tuples():
    prof = rate_from_dict({"kind": "piecewise_constant",
                           "breakpoints": [0.0, 3.0, 6.0], "rates": [1.5, 0.5]})
    assert prof == PiecewiseConstant((0.0, 3.0, 6.0), (1.5, 0.5))


def test_config_rejects_unknown_kind_and_params():
    with pytest.raises(ConfigError):
        rate_from_dict({"kind": "sawtooth", "a": 1.0})
    with pytest.raises(ConfigError):
        service_from_dict({"kind": "exponential", "mu": 1.0, "rate": 2.0})
    with pytest.raises(ConfigError):
        config_from_dict({"rate": {"kind": "constant", "a": 1.0},
                          "service": {"kind": "exponential", "mu": 1.0}})


def test_config_rejects_bool_theta():
    with pytest.raises(ConfigError):
        config_from_dict({"rate": {"kind": "constant", "a": 1.0},
                          "service": {"kind": "exponential", "mu": 1.0},
                          "theta": True})
