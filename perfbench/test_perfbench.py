"""Tests of the benchmark itself: its counts repeat, and its checks catch
planted wrong values. Run with `python3 -m pytest perfbench -q` (about two
minutes: the count test makes two traced passes of every workload)."""

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from aoiq import OptimizeResult, PiecewiseRatePlan


@pytest.fixture(scope="module")
def reference():
    return run.load_reference()


def traced_counts(name, reference):
    workload = workloads.WORKLOADS[name](run.DEFAULT_SEED, reference)
    tracer = tracing.Tracer()
    with tracing.traced_api(tracer) as api:
        result = workload.run(api)
    metrics = tracing.layer_metrics(tracer, name, result)
    return {key: metrics[key] for key in tracing.EXACT_COUNTS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_across_traced_runs(name, reference):
    first = traced_counts(name, reference)
    assert traced_counts(name, reference) == first
    assert all(isinstance(v, int) for v in first.values())


def test_traced_pass_restores_the_library():
    import aoiq.optimizer
    from aoiq import model
    before = dict(vars(aoiq.optimizer)), {c: c.integral for c in model.RateProfile.__subclasses__()}
    with tracing.traced_api(tracing.Tracer()):
        assert aoiq.optimizer.solve_idle_prob is not before[0]["solve_idle_prob"]
    assert dict(vars(aoiq.optimizer)) == before[0]
    assert {c: c.integral for c in model.RateProfile.__subclasses__()} == before[1]


def test_speed_probe_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    samples = []
    with run.speed_probe(samples):
        t_end = time.perf_counter() + 4 * run.PROBE_PERIOD_S
        while time.perf_counter() < t_end:
            pass
    assert len(samples) >= 2 and min(samples) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tv_check_catches_shifted_reference_and_out_of_range(reference):
    w = workloads.TvSweep(run.DEFAULT_SEED, reference)
    w.queries = w.queries[:6]
    good = w.run(tracing.direct_api())
    assert good.failures == [] and good.max_abs_err < 1e-4
    phis = [ref for _, _, ref in w.queries]
    idle = type("Idle", (), {"residual": 0.0})()
    shifted = [(t, x, ref + 0.1) for t, x, ref in w.queries]
    w.queries = shifted
    bad = w.check(idle, phis, 1.0, [])
    assert len(bad.failures) == 6 and bad.max_abs_err == pytest.approx(0.1)
    w.queries = [(t, x, 1.0) for t, x, _ in shifted]
    assert len(w.check(idle, [1.5] * 6, 1.0, []).failures) == 6


def test_stationary_checks_catch_planted_values(reference):
    w = workloads.StationaryCurve(run.DEFAULT_SEED, reference, xs=[0.5, 1.0, 2.0])
    w.models = [m for m in w.models if m[2] is not None][:2]
    good = w.run(tracing.direct_api())
    assert good.failures == [] and good.max_abs_err < 1e-6
    cdf = np.array([[0.2, 0.5, 0.4], [0.1, 0.2, 1.5]])   # decreases; above 1
    pdf = np.array([[0.1, -1e-6, 0.1], [0.1, 0.1, 0.1]])  # negative density
    bad = w.check(cdf, pdf, [], 1.0)
    assert len(bad.failures) == 3 and bad.unexpected == bad.failures
    exact = np.array([[oracle(model.lam, workloads.MU, x) for x in w.xs]
                      for _, model, oracle in w.models])
    assert w.check(exact, np.zeros_like(exact), [], 1.0).max_abs_err < 1e-15
    assert w.check(exact + 0.1, np.zeros_like(exact), [], 1.0).max_abs_err \
        == pytest.approx(0.1)


def test_stationary_known_failures_count_but_do_not_fail_the_run(reference):
    known = reference["stationary_curve"]["known_failures"]
    # the inversion raises at x=60 at the seed: a failure that needs no neighbours
    label, x, fn = next(k for k in known if "-th0.3-" in k[0] and k[1] == 60.0)
    w = workloads.StationaryCurve(run.DEFAULT_SEED, reference, xs=[x])
    w.models = [m for m in w.models if m[0] == label]
    result = w.run(tracing.direct_api())
    assert (label, x, fn) in [where for where, _ in result.failures]
    assert result.unexpected == []
    w.known = set()
    assert w.run(tracing.direct_api()).unexpected


def test_counts_do_not_depend_on_the_number_of_passes(reference):
    w = workloads.StationaryCurve(run.DEFAULT_SEED, reference, xs=[1.0, 60.0])
    w.models = w.models[:8]
    first = w.run(tracing.direct_api())
    attempted, failed = run.tally([first])
    assert attempted == 2 * 8 * 2 and failed >= 1
    assert run.tally([first, w.run(tracing.direct_api()), first]) == (attempted, failed)


def test_rate_check_catches_infeasible_and_costly_plans(reference):
    w = workloads.RateDesign(run.DEFAULT_SEED, reference)
    ref = reference["rate_design"]
    plan = PiecewiseRatePlan(workloads.split_windows(w.schedule), tuple(ref["rates"]))
    ok = OptimizeResult(True, plan, 0.0, ref["rounds"], (), ())
    assert w.check(ok, 1.0).failures == []
    assert w.check(replace(ok, feasible=False), 1.0).failures
    w.ref_cost = ref["cost"] - 0.1 * ref["cost"]
    assert w.check(ok, 1.0).failures


def test_sim_check_catches_shifted_reference(reference):
    w = workloads.SimSweep(run.DEFAULT_SEED, reference)
    w.requests = w.requests[:3]
    good = w.run(tracing.direct_api())
    assert good.failures == []
    w.requests = [(label, req, [p + 0.1 for p in ref]) for label, req, ref in w.requests]
    outs = [[p - 0.1 for p in ref] for _, _, ref in w.requests]
    bad = w.check(outs, 1.0, [])
    assert len(bad.failures) == 3 and bad.max_abs_err == pytest.approx(0.1)
    assert 0.1 > w.radius


def test_refuses_to_run_without_the_library(tmp_path):
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((root / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable if c == "python3" else c for c in command]
                          + ["--workload", "tv_sweep", "--seed", "1", "--seconds", "1",
                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
