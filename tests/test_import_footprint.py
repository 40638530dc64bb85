"""SciPy loads only when a Gamma law needs one of its functions.

`import scipy.special` about doubles the start-up time and the resident
memory of a process that imports aoiq, and only `Gamma` and `Erlang` call
it: for `exp_convolved`, and for `sf` and `tail` at a non-integer shape
(an integer shape sums those in numpy). So `import aoiq`, and a call that
evaluates no such function, load no SciPy module at all: among them the
finite-time solver and the theta > 0 stationary routes with an Erlang
law. A call that does loads `scipy.special` and no further subpackage
(scipy.linalg alone costs about 5 MB) beyond what `import scipy.special`
loads by itself (older SciPy releases load scipy.linalg from it). Each
check runs in a fresh interpreter, so modules the test session has
already imported do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import aoiq

HEAVY = ("scipy.linalg", "scipy.integrate", "scipy.optimize",
         "scipy.interpolate", "scipy.sparse", "scipy.stats")


def modules_after(statement):
    """The top two levels of every module loaded after `statement` in a
    fresh interpreter that imports aoiq from this source tree."""
    src = str(Path(aoiq.__file__).resolve().parents[1])
    code = (f"import sys; {statement}; "
            "print(*sorted({'.'.join(m.split('.')[:2]) for m in sys.modules}))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "numpy" in out
    return set(out)


def scipy_modules(loaded):
    return sorted(m for m in loaded if m == "scipy" or m.startswith("scipy."))


def test_import_loads_no_scipy():
    assert scipy_modules(modules_after("import aoiq")) == []


def test_calls_without_a_gamma_law_load_no_scipy():
    stationary = ("from aoiq import StationaryModel, Uniform, aoi_cdf_stationary; "
                  "aoi_cdf_stationary(StationaryModel(0.8, Uniform(0.0, 1.0), 0.0), 1.0)")
    finite_time = ("from aoiq import SystemConfig, Sinusoid, Exponential, aoi_cdf_tv; "
                   "aoi_cdf_tv(SystemConfig(Sinusoid(1.7, 1.0, 1.8), Exponential(1.2), 0.6), "
                   "2.0, 0.5)")
    for statement in (stationary, finite_time):
        assert scipy_modules(modules_after(statement)) == [], statement


INTEGER_SHAPE_CALLS = {
    # the tv_sweep benchmark system
    "finite-time-erlang": (
        "from aoiq import SystemConfig, Sinusoid, Erlang, aoi_cdf_tv; "
        "aoi_cdf_tv(SystemConfig(Sinusoid(1.7, 1.0, 1.8), Erlang(5, 1 / 6), 0.6), 20.0, 1.0)"),
    # theta > 0 inverts the LST and reads sf (theta = 0 takes exp_convolved)
    "stationary-erlang-theta-0.3": (
        "from aoiq import StationaryModel, Erlang, aoi_cdf_stationary, aoi_pdf_stationary; "
        "[f(StationaryModel(0.4, Erlang(5, 1 / 6), 0.3), x) "
        "for f in (aoi_cdf_stationary, aoi_pdf_stationary) for x in (0.5, 3.0, 40.0)]"),
    "gamma-shape-2": "from aoiq import Gamma; Gamma(2.0, 0.5).sf(1.0)",
}


@pytest.mark.parametrize("statement", INTEGER_SHAPE_CALLS.values(), ids=INTEGER_SHAPE_CALLS)
def test_integer_shape_calls_load_no_scipy(statement):
    assert scipy_modules(modules_after(statement)) == []


def test_gamma_call_loads_only_what_scipy_special_loads():
    loaded = modules_after("from aoiq import Gamma; Gamma(1.2, 0.5).sf(1.0)")
    assert "scipy.special" in loaded
    baseline = modules_after("import scipy.special")
    heavy = {m for m in loaded if m in HEAVY}
    assert heavy <= baseline, f"a Gamma call loads {sorted(heavy - baseline)}"
