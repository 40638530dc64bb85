"""Lockstep simulator for the single-buffer sampling system.

One replication produces one AoI sample Delta(t) = t - U(t): arrivals come
from a non-homogeneous Poisson process generated exactly by thinning, the
server holds at most one packet (no waiting room), and an arrival during
service preempts with probability theta, else is discarded.  U(t) is the
generation time of the freshest packet whose service completed by t; the
system starts empty with a virtual update at time 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import SystemConfig, rate_at

__all__ = ["SimRequest", "simulate_aoi_at", "empirical_cdf"]

# thinning candidates per block of empirical_cdf; bounds memory at any horizon
BLOCK_CANDIDATES = 2 ** 20


@dataclass(frozen=True)
class SimRequest:
    """One simulation experiment: measure Delta(t) across replications."""

    config: SystemConfig
    t: float
    replications: int
    seed: int

    def __post_init__(self):
        if self.t < 0:
            raise ConfigError(f"evaluation time must be >= 0, got {self.t}")
        for name, least in (("replications", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                    or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def _envelope(profile, t):
    """(a, b, lambda_max) per thinning segment of [0, t], split at the
    profile's breakpoints so each local bound is tight."""
    edges = sorted({0.0, t} | set(profile.breakpoints_in(0.0, t)))
    segments = [(a, b, profile.max_rate(a, b)) for a, b in zip(edges[:-1], edges[1:])]
    for a, b, lmax in segments:
        if not math.isfinite(lmax) or lmax < 0:
            raise ConfigError(f"rate profile is unbounded or negative on [{a}, {b}]")
    return segments


def _arrivals(profile, t, rng, reps):
    """Sorted arrival times on [0, t], one row per replication, padded with
    inf. Thinning is exact (no time-step bias) as long as each segment's
    bound dominates the rate there."""
    segments = _envelope(profile, t)
    n = rng.poisson([lmax * (b - a) for a, b, lmax in segments], (reps, len(segments)))
    width = int(n.sum(axis=1).max(initial=0))
    out = np.full((reps, width), np.inf)
    first = np.cumsum(n, axis=1) - n   # row r holds segment s from column first[r, s]
    for s, (a, b, lmax) in enumerate(segments):
        k = n[:, s]
        times = a + (b - a) * rng.random(k.sum())
        times[rng.random(times.size) * lmax >= rate_at(profile, times)] = np.inf
        pos = np.repeat(np.arange(reps) * width + first[:, s] - (np.cumsum(k) - k), k)
        pos += np.arange(pos.size)
        np.put(out, pos, times)
    out.sort(axis=1)
    return out[:, :int(np.isfinite(out).sum(axis=1).max(initial=0))]


def simulate_aoi_at(config, t, rng, reps):
    """`reps` replications advanced together: the AoI samples Delta(t), and
    the counts of busy_arrivals, preemptions, discards and completions
    summed over the replications."""
    u = np.zeros(reps)             # generation time of the freshest delivery
    gen = np.zeros(reps)           # generation time of the packet in service
    done = np.full(reps, np.inf)   # its completion time; inf while idle
    tally = np.zeros(4, dtype=np.int64)   # completions, busy, preempting, discarded
    for a in np.ascontiguousarray(_arrivals(config.rate, t, rng, reps).T):
        real = a <= t              # the inf padding is no arrival
        fin = real & (done <= a)   # completion happens first on a tie
        u[fin], done[fin] = gen[fin], np.inf
        busy = real & (done < np.inf)
        # one uniform per row keeps the stream aligned across theta
        pre = busy & (rng.random(reps) < config.theta)
        start = (real & ~busy) | pre
        gen[start] = a[start]
        done[start] = a[start] + config.service.sample(rng, int(np.count_nonzero(start)))
        tally += [np.count_nonzero(m) for m in (fin, busy, pre, busy & ~pre)]
    fin = done <= t
    u[fin] = gen[fin]
    completions, busy, pre, discards = tally.tolist()
    return t - u, {"busy_arrivals": busy, "preemptions": pre, "discards": discards,
                   "completions": completions + int(np.count_nonzero(fin))}


def empirical_cdf(request, xs):
    """Empirical P(Delta(t) <= x) for each x in xs.

    The replications run in blocks of about BLOCK_CANDIDATES thinning
    candidates, and block b uses the substream default_rng([seed, b]). The
    blocks follow from the request alone, so the same request gives the
    same bits; a different `replications` changes every sample.
    """
    config, t, reps = request.config, request.t, request.replications
    mass = sum(lmax * (b - a) for a, b, lmax in _envelope(config.rate, t))
    rows = max(1, int(BLOCK_CANDIDATES // (mass + 10.0 * math.sqrt(mass) + 10.0)))
    samples = np.sort(np.concatenate([
        simulate_aoi_at(config, t, np.random.default_rng([request.seed, b]),
                        min(rows, reps - start))[0]
        for b, start in enumerate(range(0, reps, rows))]))
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return np.searchsorted(samples, xs, side="right") / float(samples.size)
