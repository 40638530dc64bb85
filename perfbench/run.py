"""aoiq benchmark: four closed-loop, single-process workloads against the
public API, with every output checked.

    python3 perfbench/run.py --workload tv_sweep --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --reference      # regenerate perfbench/reference.json

Run from the root of a source tree: the library is imported from ./src,
never from an installed copy. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the gated end-to-end ones (END_TO_END), with --trace 1 the
per-layer ones. The lines before it list every figure with unit and sample
count. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 28  # run_seconds in BENCHMARK.json
SETUP_SAMPLES = 7
PROBE_PERIOD_S = 0.1

# The end-to-end figures that go into the JSON result: those defined and
# never 0 on every workload, except wall_s. On a shared machine the CPU's
# speed drifts by up to half over minutes, so wall_s spreads past any
# usable bound; wall_cal, the same passes timed against the speed probe,
# holds steady and still moves with every engine's cost.
END_TO_END = ("setup_s", "wall_cal", "pass_frac", "peak_rss_mb")


def _bootstrap():
    """Import aoiq from ./src with single-threaded numeric libraries."""
    if not (SRC / "aoiq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no aoiq sources at {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import aoiq
    if Path(aoiq.__file__).resolve().parent != SRC / "aoiq":
        sys.exit(f"perfbench: aoiq was imported from {aoiq.__file__}, not {SRC}")


_bootstrap()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def load_reference():
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        sys.exit(f"perfbench: missing {REFERENCE}; run with --reference")


def setup(name, seed):
    """Build the inputs, load the references and make one warm-up call."""
    workload = workloads.WORKLOADS[name](seed, load_reference())
    workload.warmup(tracing.direct_api())
    return workload


def setup_seconds(name, seed):
    """Time from process start to ready-to-measure, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: setup probe failed (exit {code})")
    return elapsed


_PROBE_X = np.arange(64.0)


def probe_kernel():
    """A fixed mix of small numpy calls and interpreted integer arithmetic,
    like the workloads' inner loops; about 0.6 ms."""
    for _ in range(40):
        y = np.cumsum(_PROBE_X * 0.5)
        float(np.exp(-y[::-1]).sum())
    acc = 0
    for i in range(2000):
        acc += i * 3 & 255
    return acc


@contextmanager
def speed_probe(samples):
    """Append the time of probe_kernel() to `samples` every PROBE_PERIOD_S
    of wall time. It runs from a SIGALRM handler, so between the workload's
    Python steps, and adds no thread or process."""
    def handler(signum, frame):
        t0 = time.perf_counter()
        probe_kernel()
        samples.append(time.perf_counter() - t0)

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def measure(workload, seconds, trace):
    """Whole untraced passes under the speed probe (and, with trace, one
    traced pass after each) until another round would run past `seconds`;
    at least one round. Returns the untraced and traced passes and the
    probe's samples."""
    api = tracing.direct_api()
    plain, traced, probes = [], [], []
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        start = time.perf_counter()
        with speed_probe(probes):
            plain.append(workload.run(api))
        if trace:
            tracer = tracing.Tracer()
            with tracing.traced_api(tracer) as timed_api:
                traced.append((tracer, workload.run(timed_api)))
        now = time.perf_counter()
        longest = max(longest, now - start)
        if now - t0 + longest > seconds:
            return plain, traced, probes


def tally(results):
    """(attempted, failed) over the run's distinct operations. Every pass
    repeats the same calls on the same inputs, so the run attempts one
    pass's operations, and an operation failed if it failed in any pass:
    the counts depend on the seed only, not on how many passes fit in the
    run."""
    attempted = {r.attempted for r in results}
    if len(attempted) != 1:
        sys.exit(f"perfbench: passes attempted different counts {sorted(attempted)}")
    failed = {where for r in results for where, _ in r.failures}
    return attempted.pop(), len(failed)


def end_to_end(name, plain, probes, setup_samples):
    """Every end-to-end figure of the untraced passes that the workload
    defines, as name -> (value, unit, sample count)."""
    ops = [dt for r in plain for dt in r.op_s]
    attempted, failed = tally(plain)
    # the mean, not the median, of the few passes: it averages the machine's
    # speed drift over the whole run, as the probe's mean does
    wall = statistics.fmean(r.wall_s for r in plain)
    values = {
        "wall_s": (wall, "s", len(plain)),
        "wall_cal": (wall / statistics.fmean(probes), "cal", len(probes)),
        "pass_frac": (1.0 - failed / attempted, "frac", attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
    }
    if ops:
        p50, p90 = np.quantile(ops, [0.5, 0.9])
        values["op_ms_p50"] = (1e3 * p50, "ms", len(ops))
        values["op_ms_p90"] = (1e3 * p90, "ms", len(ops))
    if name in tracing.ACCURACY_LAYER:
        values["max_abs_err"] = (max(r.max_abs_err for r in plain), "prob", attempted)
    if name == "rate_design":
        values["plan_cost"] = (plain[-1].extra["plan_cost"], "arrivals", len(plain))
    return values


def per_layer(name, plain, traced):
    runs = [tracing.layer_metrics(tracer, name, r) for tracer, r in traced]
    values = {}
    for key, unit in tracing.PER_LAYER_UNITS.items():
        if key.startswith("trace."):
            continue
        samples = [m[key] for m in runs]
        value = samples[-1] if unit == "count" else statistics.median(samples)
        values[key] = (value, unit, len(samples))
    # measure() runs each traced pass right after a plain one, so each pair
    # sees about the same machine speed
    overhead = [r.wall_s - p.wall_s for p, (_, r) in zip(plain, traced)]
    values["trace.wall_s"] = (statistics.median(r.wall_s for _, r in traced), "s", len(traced))
    values["trace.overhead_s"] = (statistics.median(overhead), "s", len(overhead))
    return values


def write_spans(name, seed, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": name, "seed": seed, "spans": tracer.records(),
        "counters": {k: {"calls": c, "seconds": s}
                     for k, (c, s) in tracer.counters.items()}}))
    return path


def report(values, results, keys):
    """Human-readable table of every figure, then the JSON result line with
    the figures named in `keys`."""
    for key, (value, unit, n) in values.items():
        print(f"{key:32s} {value:>16.6g} {unit:10s} n={n}")
    unexpected = [f for r in results for f in r.unexpected]
    for where, why in unexpected[:20]:
        print(f"FAILED {where}: {why}", file=sys.stderr)
    attempted, failed = tally(results)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k][0], "unit": values[k][1]} for k in keys},
    }))


def run(args):
    if args.trace:
        workload = setup(args.workload, args.seed)
        plain, traced, _ = measure(workload, args.seconds, True)
        values = per_layer(args.workload, plain, traced)
        keys = list(values)
        path = write_spans(args.workload, args.seed, traced[-1][0])
        print(f"spans: {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        samples = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
        workload = setup(args.workload, args.seed)
        plain, traced, probes = measure(workload, args.seconds, False)
        values = end_to_end(args.workload, plain, probes, samples)
        keys = END_TO_END
    report(values, plain + [r for _, r in traced], keys)
    return 0


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def make_reference(names):
    """Regenerate the stored references of the named workloads (all when
    none are named) from the current library."""
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names or workloads.WORKLOADS:
        t0 = time.perf_counter()
        ref[name] = workloads.WORKLOADS[name].reference()
        ref[name]["commit"] = git_commit()
        print(f"{name}: reference in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", nargs="*", metavar="WORKLOAD",
                        help="regenerate the stored references (of the named "
                             "workloads, default all) and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.reference is not None:
        return make_reference(args.reference)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
