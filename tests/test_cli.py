import csv
import io
import json
import math

import pytest

from aoiq import SolverSettings, cli


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


MM_DOC = {"rate": {"kind": "constant", "a": 0.8},
          "service": {"kind": "exponential", "mu": 1.2},
          "theta": 0.0}


def run(capsys, argv):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_solve_stationary_csv(tmp_path, capsys):
    doc = dict(MM_DOC, solve_stationary={"xs": [0.5, 1.0, 2.0]})
    cfg = write_cfg(tmp_path, doc)
    rc, out, err = run(capsys, ["solve-stationary", "--config", cfg])
    assert rc == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "cdf"]
    assert len(rows) == 4
    # 13 significant digits in scientific notation
    assert "e" in rows[1][1]
    got = float(rows[2][1])
    assert got == pytest.approx(0.18802456961640646, abs=1e-12)


def test_solve_stationary_with_pdf_column(tmp_path, capsys):
    doc = dict(MM_DOC, solve_stationary={"xs": [1.0], "pdf": True})
    cfg = write_cfg(tmp_path, doc)
    rc, out, _ = run(capsys, ["solve-stationary", "--config", cfg, "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["columns"] == ["x", "cdf", "pdf"]
    assert len(payload["rows"][0]) == 3


def test_solve_tv_json(tmp_path, capsys):
    doc = {"rate": {"kind": "sinusoid", "a": 1.7, "b": 1.0, "omega": 1.8},
           "service": {"kind": "erlang", "n": 5, "scale": 1 / 6},
           "theta": 0.6,
           "solve_tv": {"t": 6.0, "xs": [1.0, 3.0, 5.0]}}
    cfg = write_cfg(tmp_path, doc)
    rc, out, err = run(capsys, ["solve-tv", "--config", cfg, "--format", "json"])
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["command"] == "solve-tv"
    assert payload["columns"] == ["t", "x", "phi"]
    phis = [row[2] for row in payload["rows"]]
    assert all(0.0 <= p <= 1.0 for p in phis)
    assert phis == sorted(phis)


def test_simulate_deterministic(tmp_path, capsys):
    doc = dict(MM_DOC, simulate={"t": 6.0, "xs": [1.0, 2.0],
                                 "replications": 500, "seed": 3})
    cfg = write_cfg(tmp_path, doc)
    rc1, out1, _ = run(capsys, ["simulate", "--config", cfg])
    rc2, out2, _ = run(capsys, ["simulate", "--config", cfg])
    assert rc1 == rc2 == 0
    assert out1 == out2
    rows = list(csv.reader(io.StringIO(out1)))
    assert rows[0] == ["x", "empirical", "replications", "seed"]
    assert int(float(rows[1][2])) == 500


def test_simulate_flag_overrides_config_seed(tmp_path, capsys):
    doc = dict(MM_DOC, simulate={"t": 6.0, "xs": [1.0], "replications": 400,
                                 "seed": 3})
    cfg = write_cfg(tmp_path, doc)
    _, base, _ = run(capsys, ["simulate", "--config", cfg])
    _, other, _ = run(capsys, ["simulate", "--config", cfg, "--seed", "4"])
    assert base != other


def test_output_file(tmp_path, capsys):
    doc = dict(MM_DOC, solve_stationary={"xs": [1.0]})
    cfg = write_cfg(tmp_path, doc)
    out_path = tmp_path / "result.csv"
    rc, out, _ = run(capsys, ["solve-stationary", "--config", cfg,
                              "--out", str(out_path)])
    assert rc == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("x,cdf\n")


def test_optimize_feasible(tmp_path, capsys):
    doc = {"service": {"kind": "exponential", "mu": 1.0},
           "optimize": {"times": [0.0, 10.0], "thresholds": [1.0],
                        "probabilities": [0.5]}}
    cfg = write_cfg(tmp_path, doc)
    rc, out, err = run(capsys, ["optimize", "--config", cfg, "--format", "json"])
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["columns"] == ["plan", "t_start", "t_end", "rate", "cost"]
    assert payload["feasible"] is True
    assert payload["theta"] == 1.0
    assert payload["cost"] == pytest.approx(payload["rows"][0][3] * 10.0)


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------

def expect_error_record(err):
    record = json.loads(err.strip().splitlines()[-1])
    assert "error" in record
    return record


def test_missing_config_file(capsys):
    rc, _, err = run(capsys, ["solve-stationary", "--config", "/nonexistent.json"])
    assert rc == 2
    expect_error_record(err)


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, ["solve-tv", "--config", str(path)])
    assert rc == 2
    expect_error_record(err)


def test_stationary_rejects_time_varying_rate(tmp_path, capsys):
    doc = {"rate": {"kind": "sinusoid", "a": 1.7, "b": 1.0, "omega": 1.8},
           "service": {"kind": "exponential", "mu": 1.2}, "theta": 0.0,
           "solve_stationary": {"xs": [1.0]}}
    cfg = write_cfg(tmp_path, doc)
    rc, _, err = run(capsys, ["solve-stationary", "--config", cfg])
    assert rc == 2
    expect_error_record(err)


def test_unknown_service_kind(tmp_path, capsys):
    doc = {"rate": {"kind": "constant", "a": 1.0},
           "service": {"kind": "pareto", "alpha": 2.0}, "theta": 0.0,
           "solve_tv": {"t": 2.0, "xs": [1.0]}}
    cfg = write_cfg(tmp_path, doc)
    rc, _, err = run(capsys, ["solve-tv", "--config", cfg])
    assert rc == 2
    expect_error_record(err)


@pytest.mark.parametrize("grid_n", ["500", 500.5])
def test_non_integer_grid_n_is_a_config_error(tmp_path, capsys, grid_n):
    doc = dict(MM_DOC, solve_tv={"t": 2.0, "xs": [1.0], "grid_n": grid_n})
    cfg = write_cfg(tmp_path, doc)
    rc, out, err = run(capsys, ["solve-tv", "--config", cfg])
    assert rc == 2 and out == ""
    assert expect_error_record(err)["error"] == "ConfigError"


def test_bool_theta_is_a_config_error(tmp_path, capsys):
    doc = dict(MM_DOC, theta=True, solve_stationary={"xs": [1.0]})
    cfg = write_cfg(tmp_path, doc)
    rc, out, err = run(capsys, ["solve-stationary", "--config", cfg])
    assert rc == 2 and out == ""
    assert expect_error_record(err)["error"] == "ConfigError"


@pytest.mark.parametrize("x", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_non_finite_stationary_abscissa_is_a_config_error(tmp_path, capsys, theta, x):
    doc = dict(MM_DOC, theta=theta, solve_stationary={"xs": [1.0, x], "pdf": True})
    cfg = write_cfg(tmp_path, doc)
    rc, out, err = run(capsys, ["solve-stationary", "--config", cfg])
    assert rc == 2 and out == ""
    assert expect_error_record(err)["error"] == "ConfigError"


@pytest.mark.parametrize("key, value", [
    ("replications", True), ("replications", 20.0), ("seed", 3.7), ("seed", -1)])
def test_non_integer_simulation_counts_are_config_errors(tmp_path, capsys, key, value):
    sec = dict({"t": 2.0, "xs": [1.0], "replications": 10, "seed": 3}, **{key: value})
    cfg = write_cfg(tmp_path, dict(MM_DOC, simulate=sec))
    rc, out, err = run(capsys, ["simulate", "--config", cfg])
    assert rc == 2 and out == ""
    assert expect_error_record(err)["error"] == "ConfigError"


OPT_DOC = {"service": {"kind": "exponential", "mu": 1.0},
           "optimize": {"times": [0.0, 10.0], "thresholds": [1.0], "probabilities": [0.5]}}


def _with(doc, path, value):
    """A copy of doc with doc[path[0]]...[path[-1]] set to value."""
    doc = json.loads(json.dumps(doc))
    sec = doc
    for key in path[:-1]:
        sec = sec[key]
    sec[path[-1]] = value
    return doc


@pytest.mark.parametrize("command, doc, name", [
    ("solve-stationary", _with(MM_DOC, ("service", "mu"), True), "mu"),
    ("solve-tv", _with(MM_DOC, ("rate", "a"), math.nan), "rate a"),
    ("solve-stationary", _with(dict(MM_DOC, theta=0.5), ("rate", "a"), math.nan), "rate a"),
    ("solve-stationary", _with(MM_DOC, ("service", "mu"), math.nan), "mu"),
    ("simulate", dict(MM_DOC, simulate={"t": math.inf, "xs": [1.0], "replications": 10}),
     "simulate.t"),
    ("optimize", _with(OPT_DOC, ("optimize", "eps"), math.nan), "eps"),
    ("optimize", _with(OPT_DOC, ("optimize", "ite_max"), 2.7), "ite_max"),
    ("optimize", _with(OPT_DOC, ("optimize", "theta"), True), "theta"),
    ("solve-stationary", dict(MM_DOC, solve_stationary={"xs": [1.0], "pdf": "no"}),
     "solve_stationary.pdf"),
    ("solve-stationary", dict(MM_DOC, solve_stationary={"xs": [True]}),
     "solve_stationary.xs"),
], ids=["mu-true", "tv-rate-nan", "inversion-rate-nan", "theta0-mu-nan", "sim-t-inf",
        "eps-nan", "ite-max-2.7", "optimize-theta-true", "pdf-no", "xs-true"])
def test_raw_config_values_are_checked(tmp_path, capsys, command, doc, name):
    doc = dict({"solve_tv": {"t": 2.0, "xs": [1.0]},
                "solve_stationary": {"xs": [1.0]}}, **doc)
    cfg = write_cfg(tmp_path, doc)
    rc, out, err = run(capsys, [command, "--config", cfg])
    assert rc == 2 and out == ""
    record = expect_error_record(err)
    assert record["error"] == "ConfigError"
    assert name in record["message"]


def test_convergence_budget_maps_to_numeric_exit(tmp_path, capsys, monkeypatch):
    # a bound below the rounding floor: the residual certificate must fail
    monkeypatch.setattr(SolverSettings, "etol", 1e-20)
    doc = {"rate": {"kind": "constant", "a": 2.0},
           "service": {"kind": "exponential", "mu": 1.0}, "theta": 0.0,
           "solve_tv": {"t": 20.0, "xs": [1.0]}}
    cfg = write_cfg(tmp_path, doc)
    rc, _, err = run(capsys, ["solve-tv", "--config", cfg])
    assert rc == 3
    record = expect_error_record(err)
    assert "residual" in record


def test_infeasible_optimize_maps_to_exit_4(tmp_path, capsys):
    # Phi(0.8) under no preemption saturates near 0.28 for this service:
    # 0.95 is unreachable at any rate
    doc = {"service": {"kind": "uniform", "high": 4 / 3},
           "optimize": {"times": [0.0, 10.0], "thresholds": [0.8],
                        "probabilities": [0.95], "rate_grid": [0.5, 1.0],
                        "ite_max": 2}}
    cfg = write_cfg(tmp_path, doc)
    rc, out, err = run(capsys, ["optimize", "--config", cfg])
    assert rc == 4
    assert out == ""
    record = expect_error_record(err)
    assert "violations" in record
    # the stationary search finds no rate in the first round
    assert "within 1 round;" in record["message"]
    assert "no rate_grid entry" in record["message"]


@pytest.mark.parametrize("argv", [
    ["solve-stationary", "--seed", "3"],
    ["solve-stationary", "--grid-n", "100"],
    ["solve-tv", "--replications", "5"],
    ["simulate", "--etol", "1e-6"],
    ["optimize", "--seed", "3"],
    ["reproduce-figure", "--figure", "fig6", "--config", "CFG"],
    ["solve-tv", "--etol", "1e-6"],
    ["solve-stationary", "--etol", "1e-6"],
    ["optimize", "--etol", "1e-6"],
    ["reproduce-figure", "--figure", "fig8", "--etol", "1e-6"],
], ids=["solve-stationary-seed", "solve-stationary-grid-n",
        "solve-tv-replications", "simulate-etol", "optimize-seed",
        "reproduce-figure-config", "solve-tv-etol", "solve-stationary-etol",
        "optimize-etol", "reproduce-figure-etol"])
def test_flag_not_read_by_command_is_rejected(tmp_path, capsys, argv):
    doc = dict(MM_DOC, solve_stationary={"xs": [1.0]},
               solve_tv={"t": 2.0, "xs": [1.0]},
               simulate={"t": 2.0, "xs": [1.0], "replications": 10},
               optimize={"times": [0.0, 10.0], "thresholds": [1.0],
                         "probabilities": [0.5]})
    cfg = write_cfg(tmp_path, doc)
    argv = [cfg if a == "CFG" else a for a in argv]
    if "--config" not in argv:
        argv += ["--config", cfg]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--seed", "--replications"])
def test_fig8_rejects_simulation_flags(capsys, flag):
    # the fig8 preset only optimizes; a seed or replication count would
    # be silently ignored
    rc, out, err = run(capsys, ["reproduce-figure", "--figure", "fig8",
                                flag, "3"])
    assert rc == 2 and out == ""
    record = expect_error_record(err)
    assert record["error"] == "ConfigError" and flag in record["message"]


def test_unknown_figure_id_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce-figure", "--figure", "fig99"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def test_reproduce_fig2a(capsys):
    rc, out, err = run(capsys, ["reproduce-figure", "--figure", "fig2a",
                                "--replications", "50", "--format", "json"])
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["figure"] == "fig2a"
    assert payload["columns"] == ["series", "x", "analytic", "simulated"]
    series = {row[0] for row in payload["rows"]}
    assert len(series) == 4 and len(payload["rows"]) == 80
    for _, x, analytic, simulated in payload["rows"]:
        assert 0.0 <= analytic <= 1.0 and 0.0 <= simulated <= 1.0


@pytest.mark.parametrize("figure, columns, rows", [
    ("fig2b", ["series", "x", "analytic", "simulated"], 80),
    ("fig4a", ["series", "t", "analytic", "simulated"], 160),
    ("fig4b", ["series", "t", "analytic", "simulated"], 160),
    ("fig5", ["series", "t", "analytic", "simulated"], 640),
    ("fig7", ["series", "x", "cdf", "pdf", "simulated"], 480)],
    ids=["fig2b", "fig4a", "fig4b", "fig5", "fig7"])
def test_reproduce_preset_rows_are_finite(capsys, figure, columns, rows):
    rc, out, err = run(capsys, ["reproduce-figure", "--figure", figure,
                                "--replications", "20", "--format", "json"])
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["figure"] == figure and payload["columns"] == columns
    assert len(payload["rows"]) == rows
    for row in payload["rows"]:
        assert len(row) == len(columns) and isinstance(row[0], str)
        assert all(math.isfinite(v) for v in row[1:])


def test_reproduce_fig6_has_stationary_column(capsys):
    rc, out, err = run(capsys, ["reproduce-figure", "--figure", "fig6",
                                "--replications", "50", "--format", "json"])
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["columns"] == ["x", "analytic", "stationary", "simulated"]
    assert len(payload["rows"]) == 32
    # at t=50 the finite-time law has settled to the stationary one
    for _, analytic, stationary, _ in payload["rows"]:
        assert abs(analytic - stationary) <= 1e-3


def test_reproduce_fig8(capsys):
    rc, out, err = run(capsys, ["reproduce-figure", "--figure", "fig8",
                                "--format", "json"])
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["columns"] == ["plan", "t_start", "t_end", "rate", "cost"]
    plans = {row[0] for row in payload["rows"]}
    assert plans == {"heuristic", "benchmark"}
    assert payload["heuristic_cost"] < payload["benchmark_cost"]
    # heuristic spans the whole horizon contiguously
    heur = [r for r in payload["rows"] if r[0] == "heuristic"]
    assert heur[0][1] == 0.0 and heur[-1][2] == 56.0
    for a, b in zip(heur, heur[1:]):
        assert a[2] == b[1]
