"""Lockstep simulator for the single-buffer sampling system.

One replication produces one AoI sample Delta(t) = t - U(t): arrivals come
from a non-homogeneous Poisson process generated exactly by thinning, the
server holds at most one packet (no waiting room), and an arrival during
service preempts with probability theta, else is discarded.  U(t) is the
generation time of the freshest packet whose service completed by t; the
system starts empty with a virtual update at time 0.

The replications of a block advance together over the arrival index. They
are ordered by decreasing arrival count, so the ones that still have an
arrival at index c are the first k_c, and each index is one numpy step over
them: a service that completed by the arrival (a tie included) delivers its
packet, and the arrival starts service if the server was idle or its
preemption coin came up. The coins and the service times of the block are
drawn before the march, service times only for real arrivals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check, check_all
from .model import SystemConfig

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
        check(self.t, "evaluation time t", 0)
        check(self.replications, "replications", 1, integer=True)
        check(self.seed, "seed", 0, integer=True)


def _envelope(profile, t):
    """(a, b, lambda_max) per thinning segment of [0, t], split at the
    profile's breakpoints so each local bound is tight."""
    edges = sorted({0.0, t} | set(profile.breakpoints_in(0.0, t)))
    return [(a, b, profile.max_rate(a, b)) for a, b in zip(edges[:-1], edges[1:])]


def _arrivals(profile, t, rng, reps):
    """Sorted arrival times on [0, t] laid out (width, reps): row c holds
    the c-th arrival of every replication, and the replications are ordered
    by decreasing arrival count, so the first k[c] entries of row c are real
    and the rest is inf padding. Returns (times, order, k), where column i
    holds replication order[i]. Thinning is exact (no time-step bias) as
    long as each segment's bound dominates the rate there."""
    segments = _envelope(profile, t)
    n = rng.poisson([lmax * (b - a) for a, b, lmax in segments], (reps, len(segments)))
    width = int(n.sum(axis=1).max(initial=0))
    out = np.full((reps, width), np.inf)
    first = np.cumsum(n, axis=1) - n   # row r holds segment s from column first[r, s]
    for s, (a, b, lmax) in enumerate(segments):
        k = n[:, s]
        times = a + (b - a) * rng.random(k.sum())
        times[rng.random(times.size) * lmax >= profile.rate(times)] = np.inf
        pos = np.repeat(np.arange(reps) * width + first[:, s] - (np.cumsum(k) - k), k)
        pos += np.arange(pos.size)
        np.put(out, pos, times)
    out.sort(axis=1)
    count = np.isfinite(out).sum(axis=1)
    order = np.argsort(-count, kind="stable")
    width = int(count.max(initial=0))
    k = reps - np.cumsum(np.bincount(count, minlength=width + 1))[:width]
    return out[order, :width].T, order, k


def simulate_aoi_at(config, t, rng, reps):
    """`reps` replications advanced together: the AoI samples Delta(t), and
    the counts of busy_arrivals, preemptions, discards and completions
    summed over the replications."""
    t = check(t, "evaluation time t", 0)
    reps = check(reps, "reps", 1, integer=True)
    a, order, k = _arrivals(config.rate, t, rng, reps)
    # every random number of the block is drawn before the march; the coins
    # come first and one per cell, so the stream is the same for every theta
    coin = rng.random(a.shape) < config.theta
    plan = np.stack([a, a])    # (generation, completion) of a packet if it starts
    a = plan[0]                # frees the matrix _arrivals returned
    plan[1][a < np.inf] += config.service.sample(rng, int(k.sum()))
    # the packet in service, (generation, completion); the virtual update
    # at time 0 is a service that finished at 0
    state = np.zeros((2, reps))
    gen, done = state
    u = np.zeros(reps)         # generation time of the freshest delivery
    idle = np.zeros(a.shape, dtype=bool)
    start = np.zeros(a.shape, dtype=bool)
    for c, kc in enumerate(k.tolist()):
        # a completion comes before an arrival at the same instant
        fin = np.less_equal(done[:kc], a[c, :kc], out=idle[c, :kc])
        np.copyto(u[:kc], gen[:kc], where=fin)
        np.copyto(state[:, :kc], plan[:, c, :kc],
                  where=np.logical_or(fin, coin[c, :kc], out=start[c, :kc]))
    fin = done <= t
    np.copyto(u, gen, where=fin)
    samples = np.empty(reps)
    samples[order] = t - u
    # the first arrival of a replication finds the virtual update finished,
    # and only a replication with arrivals can complete a service by t
    first = int(k[0]) if k.size else 0
    n_idle, n_start = np.count_nonzero(idle), np.count_nonzero(start)
    busy, pre = int(k.sum() - n_idle), int(n_start - n_idle)
    return samples, {"busy_arrivals": busy, "preemptions": pre, "discards": busy - pre,
                     "completions": int(n_idle - first + np.count_nonzero(fin[:first]))}


def empirical_cdf(request, xs):
    """Empirical P(Delta(t) <= x) for each x in xs.

    The replications run in blocks of about BLOCK_CANDIDATES thinning
    candidates, and block b uses the substream default_rng([seed, b]). The
    blocks follow from the request alone, so the same request gives the
    same bits; a different `replications` changes every sample.
    """
    xs = np.array(check_all(xs if np.ndim(xs) else [xs], "xs"))
    config, t, reps = request.config, request.t, request.replications
    mass = sum(lmax * (b - a) for a, b, lmax in _envelope(config.rate, t))
    rows = max(1, int(BLOCK_CANDIDATES // (mass + 10.0 * math.sqrt(mass) + 10.0)))
    samples = np.sort(np.concatenate([
        simulate_aoi_at(config, t, np.random.default_rng([request.seed, b]),
                        min(rows, reps - start))[0]
        for b, start in enumerate(range(0, reps, rows))]))
    return np.searchsorted(samples, xs, side="right") / float(samples.size)
