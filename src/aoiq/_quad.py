"""Composite Gauss-Legendre quadrature with kink splitting.

One primitive, `gauss_panels`, integrates a vectorized f over every panel
of an edge list with a single call of f on the (panels x nodes) array that
`gauss_nodes` lays out; `composite_gauss` sums its 64-node form over the
segments between breakpoints. `graded_nodes` is the Gauss rule after the
substitution s = l t^4, for an end where the integrand behaves like s^k.
The stationary route uses 64 nodes per panel of [0, x] with 32 graded
nodes at either end; the negligible-processing mean uses 64, the Volterra
solvers' product weights 2 per grid cell.
"""

import numpy as np

# (nodes, weights) of the Gauss-Legendre rules, each built on first use
_RULES = {}


def _rule(npts):
    if npts not in _RULES:
        _RULES[npts] = np.polynomial.legendre.leggauss(npts)
    return _RULES[npts]


def split_points(a, b, breakpoints):
    """Sorted segment boundaries of [a, b] split at the interior breakpoints."""
    pts = [a, b]
    for p in breakpoints:
        if a < p < b:
            pts.append(float(p))
    return np.array(sorted(set(pts)))


def gauss_nodes(edges, npts):
    """(nodes, half, w) of the npts-node Gauss rule on each panel [edges[k],
    edges[k+1]]: row k of the (panels x npts) array `nodes` holds panel k's
    nodes, and half * (values @ w) are the panel integrals."""
    x, w = _rule(npts)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * x, half, w


def graded_nodes(length, npts):
    """(offsets, weights) of the npts-node Gauss rule on [0, length] after
    the substitution s = length t^4, t in [0, 1]: the offsets crowd toward
    0 like t^4 and the weights 4 length t^3 w carry the Jacobian, so an
    integrand that behaves like s^k at 0 becomes smooth in t."""
    x, w = _rule(npts)
    t = 0.5 * (x + 1.0)
    return length * t ** 4, 2.0 * length * t ** 3 * w


def gauss_panels(f, edges, npts):
    """npts-node integrals of a vectorized f over each panel [edges[k],
    edges[k+1]], from one call of f on the (panels x npts) node array whose
    row k holds panel k's nodes (f may stack integrands on leading axes)."""
    nodes, half, w = gauss_nodes(edges, npts)
    vals = np.asarray(f(nodes), dtype=float)
    return half * (vals @ w)


def composite_gauss(f, a, b, breakpoints=()):
    """Integral of a vectorized f over [a, b], one Gauss panel per smooth
    segment between breakpoints."""
    if b <= a:
        return 0.0
    return float(np.sum(gauss_panels(f, split_points(a, b, breakpoints), 64)))
