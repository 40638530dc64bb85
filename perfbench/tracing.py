"""Spans around the calls between layers, for the benchmark's traced run.

A span is recorded at every call the harness makes into `tv_solver`,
`stationary`, `simulator` and `optimizer`, and at the calls `optimizer`
makes into the solvers (the names it imported are swapped for wrappers
while a traced pass runs). `RateProfile.integral` is called far too often
for spans, so it only accumulates a count and a time. Nothing inside the
library is changed; every swapped attribute is restored afterwards.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

import aoiq
import aoiq.optimizer
from aoiq import model, simulator, stationary, tv_solver

# optimizer-module names that point into another layer (or back into the
# optimizer), swapped for wrappers during a traced pass
OPTIMIZER_CALLS = {
    "solve_idle_prob": "tv_solver.solve_idle_prob",
    "aoi_cdf_tv": "tv_solver.aoi_cdf_tv",
    "aoi_cdf_stationary": "stationary.aoi_cdf_stationary",
    "evaluate_plan": "optimizer.evaluate_plan",
    "stationary_rate_search": "optimizer.stationary_rate_search",
}

# the public functions the harness calls directly, by layer
HARNESS_CALLS = {
    "solve_idle_prob": (tv_solver, "tv_solver.solve_idle_prob"),
    "aoi_cdf_tv": (tv_solver, "tv_solver.aoi_cdf_tv"),
    "aoi_cdf_stationary": (stationary, "stationary.aoi_cdf_stationary"),
    "aoi_pdf_stationary": (stationary, "stationary.aoi_pdf_stationary"),
    "empirical_cdf": (simulator, "simulator.empirical_cdf"),
    "optimize_rates": (aoiq.optimizer, "optimizer.optimize_rates"),
}


def direct_api():
    """The harness's untraced view of the library."""
    return SimpleNamespace(**{name: getattr(module, name)
                              for name, (module, _) in HARNESS_CALLS.items()})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def phi_nodes(args, kwargs):
    """Grid nodes m of one aoi_cdf_tv query, from its inputs (0 when the
    query is answered without a solve)."""
    t, x = _arg(args, kwargs, 1, "t"), _arg(args, kwargs, 2, "x")
    idle = _arg(args, kwargs, 4, "idle")
    if x >= t or x == 0 or idle is None:
        return 0
    return max(2, math.ceil(x / idle.grid.h - 1e-12))


def _note(name, args, kwargs, result):
    """What a span records about its call beyond the times (`result` is
    None when the call raised)."""
    if name.startswith("stationary."):
        return {"theta": args[0].theta}
    if result is None:
        return None
    if name == "tv_solver.solve_idle_prob":
        return {"sweeps": result.iterations, "residual": result.residual,
                "nodes": len(result.grid)}
    if name == "tv_solver.aoi_cdf_tv":
        return {"m": phi_nodes(args, kwargs)}
    if name == "simulator.empirical_cdf":
        return {"reps": args[0].replications}
    if name == "optimizer.optimize_rates":
        return {"rounds": result.rounds}
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "note", "error")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.note = self.error = None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Spans kept in memory for one traced pass. The operation id of a span
    is the index of the harness call it descends from."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: [0, 0.0])
        self._stack = []
        self._ops = 0

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if self._stack:
                parent = self._stack[-1]
                op = self.spans[parent].op
            else:
                parent, op = None, self._ops
                self._ops += 1
            span = Span(name, parent, op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                span.note = _note(name, args, kwargs, result)
            return result
        return traced

    def count(self, name, fn):
        counter = self.counters[name]

        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[0] += 1
                counter[1] += time.perf_counter() - t0
        return counted

    def self_seconds(self):
        """Per span: its duration minus the time its child spans cover."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def records(self):
        return [{"name": s.name, "start": s.start, "end": s.end, "self": own,
                 "parent": s.parent, "op": s.op, "note": s.note, "error": s.error}
                for s, own in zip(self.spans, self.self_seconds())]


@contextmanager
def traced_api(tracer):
    """Swap the cross-layer attributes for wrappers; yield the harness api."""
    saved = []

    def swap(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for attr, name in OPTIMIZER_CALLS.items():
        swap(aoiq.optimizer, attr, tracer.wrap(name, getattr(aoiq.optimizer, attr)))
    for cls in model.RateProfile.__subclasses__():
        swap(cls, "integral", tracer.count("model.rate_integral", cls.__dict__["integral"]))
    api = SimpleNamespace(**{name: tracer.wrap(span, getattr(module, name))
                             for name, (module, span) in HARNESS_CALLS.items()})
    try:
        yield api
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


PER_LAYER_UNITS = {
    "tv_solver.idle_s": "s", "tv_solver.idle_sweeps": "count",
    "tv_solver.idle_nodes": "count", "tv_solver.idle_residual": "prob",
    "tv_solver.phi_s": "s", "tv_solver.phi_calls": "count",
    "tv_solver.phi_nodes": "count", "tv_solver.phi_ns_per_term": "ns",
    "tv_solver.max_abs_err": "prob",
    "model.rate_integral_s": "s", "model.rate_integral_calls": "count",
    "stationary.theta0_s": "s", "stationary.theta0_calls": "count",
    "stationary.theta0_ms_per_100": "ms",
    "stationary.inv_s": "s", "stationary.inv_calls": "count",
    "stationary.inv_ms_per_100": "ms", "stationary.inversion_errors": "count",
    "stationary.max_abs_err": "prob",
    "simulator.sim_s": "s", "simulator.reps": "count",
    "simulator.reps_per_s": "1/s", "simulator.us_per_arrival": "us",
    "simulator.max_abs_err": "prob",
    "optimizer.rounds": "count", "optimizer.search_s": "s",
    "optimizer.stationary_evals": "count", "optimizer.audit_s": "s",
    "optimizer.audit_nodes": "count", "optimizer.audit_share": "frac",
    "optimizer.self_s": "s", "optimizer.plan_cost": "arrivals",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = (
    "tv_solver.idle_sweeps", "tv_solver.idle_nodes", "tv_solver.phi_calls",
    "tv_solver.phi_nodes", "optimizer.stationary_evals", "optimizer.rounds",
    "optimizer.audit_nodes", "simulator.reps", "stationary.inversion_errors",
)


# the layer whose outputs each workload's accuracy figure measures
ACCURACY_LAYER = {"tv_sweep": "tv_solver", "stationary_curve": "stationary",
                  "sim_sweep": "simulator"}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer, workload, result):
    """Per-layer figures of one traced pass (0 where a layer is not used)."""
    spans = tracer.spans
    own = tracer.self_seconds()

    def named(name):
        return [s for s in spans if s.name == name]

    def under(span, name):
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == name:
                return True
        return False

    idle = named("tv_solver.solve_idle_prob")
    phi = named("tv_solver.aoi_cdf_tv")
    stat = named("stationary.aoi_cdf_stationary") + named("stationary.aoi_pdf_stationary")
    theta0 = [s for s in stat if s.note["theta"] == 0.0]
    inv = [s for s in stat if s.note["theta"] != 0.0]
    sims = named("simulator.empirical_cdf")
    search = named("optimizer.stationary_rate_search")
    audit = named("optimizer.evaluate_plan")
    opt = [i for i, s in enumerate(spans) if s.name.startswith("optimizer.")]

    def total(group):
        return sum(s.seconds for s in group)

    ms = [s.note["m"] for s in phi]
    phi_s, sim_s = total(phi), total(sims)
    reps = sum(s.note["reps"] for s in sims)
    rounds = [s.note["rounds"] for s in named("optimizer.optimize_rates")]
    calls, integral_s = tracer.counters["model.rate_integral"]
    extra = result.extra
    out = {
        "tv_solver.idle_s": total(idle),
        "tv_solver.idle_sweeps": sum(s.note["sweeps"] for s in idle),
        "tv_solver.idle_nodes": sum(s.note["nodes"] for s in idle),
        "tv_solver.idle_residual": max((s.note["residual"] for s in idle), default=0.0),
        "tv_solver.phi_s": phi_s,
        "tv_solver.phi_calls": len(phi),
        "tv_solver.phi_nodes": sum(ms),
        "tv_solver.phi_ns_per_term": _ratio(phi_s, sum(m * (m + 1) // 2 for m in ms), 1e9),
        "model.rate_integral_s": integral_s,
        "model.rate_integral_calls": calls,
        "stationary.theta0_s": total(theta0),
        "stationary.theta0_calls": len(theta0),
        "stationary.theta0_ms_per_100": _ratio(total(theta0), len(theta0), 1e5),
        "stationary.inv_s": total(inv),
        "stationary.inv_calls": len(inv),
        "stationary.inv_ms_per_100": _ratio(total(inv), len(inv), 1e5),
        "stationary.inversion_errors": sum(s.error == "InversionError" for s in stat),
        "simulator.sim_s": sim_s,
        "simulator.reps": reps,
        "simulator.reps_per_s": _ratio(reps, sim_s),
        "simulator.us_per_arrival": _ratio(sim_s, extra.get("arrivals", 0.0), 1e6),
        "optimizer.rounds": sum(rounds),
        "optimizer.search_s": total(search),
        "optimizer.stationary_evals":
            sum(under(s, "optimizer.stationary_rate_search") for s in stat),
        "optimizer.audit_s": total(audit),
        "optimizer.audit_nodes": sum(under(s, "optimizer.evaluate_plan") for s in phi),
        "optimizer.audit_share": _ratio(total(audit), result.wall_s),
        "optimizer.self_s": sum(own[i] for i in opt),
        "optimizer.plan_cost": extra.get("plan_cost", 0.0),
    }
    for name, layer in ACCURACY_LAYER.items():
        out[f"{layer}.max_abs_err"] = result.max_abs_err if workload == name else 0.0
    return out
