"""Composite Gauss-Legendre quadrature with kink splitting.

One primitive, `gauss_panels`, integrates a vectorized f over every panel
of an edge list with a single call of f on the (panels x 64) node array;
`composite_gauss` sums it over the segments between breakpoints. Used by
the stationary convolution path and the negligible-processing mean. The
Volterra solvers march with the trapezoid rule on equally spaced grids and
do not go through here.
"""

import numpy as np

_NPTS = 64
# (nodes, weights) of the 64-node rule, built on the first integral
_RULE = None


def _rule():
    global _RULE
    if _RULE is None:
        _RULE = np.polynomial.legendre.leggauss(_NPTS)
    return _RULE


def split_points(a, b, breakpoints):
    """Sorted segment boundaries of [a, b] split at the interior breakpoints."""
    pts = [a, b]
    for p in breakpoints:
        if a < p < b:
            pts.append(float(p))
    return np.array(sorted(set(pts)))


def gauss_panels(f, edges):
    """Integrals of a vectorized f over each panel [edges[k], edges[k+1]],
    from one call of f on the (panels x 64) node array; row k of that
    array holds panel k's nodes."""
    x, w = _rule()
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    vals = np.asarray(f(mid[:, None] + half[:, None] * x), dtype=float)
    return half * (vals @ w)


def composite_gauss(f, a, b, breakpoints=()):
    """Integral of a vectorized f over [a, b], one Gauss panel per smooth
    segment between breakpoints."""
    if b <= a:
        return 0.0
    return float(np.sum(gauss_panels(f, split_points(a, b, breakpoints))))


def geometric_ladder(b):
    """Extra split points clustered toward 0 for integrable endpoint
    singularities (Gamma shape < 1)."""
    return tuple(b * u for u in (1e-8, 1e-6, 1e-4, 1e-2, 1e-1))
