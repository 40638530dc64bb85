"""Composite Gauss-Legendre quadrature.

One primitive, `gauss_panels`, integrates a vectorized f over every panel
of an edge list with a single call of f on the (panels x nodes) array of
the panels' nodes; a caller splits the edges at the integrand's kinks.
`gauss_rule` is the rule itself on [-1, 1] and `graded_rule` the rule on
[0, 1] after the substitution s = t^4, for an end where the integrand
behaves like s^k: from these unit templates the stationary route builds
its mirrored rule on [0, x] (64 nodes per panel, 32 graded nodes at either
end). The negligible-processing mean uses 64 nodes per panel, the Volterra
solvers' product weights 2 per grid cell.
"""

import numpy as np

# (nodes, weights) of the Gauss-Legendre rules, each built on first use
_RULES = {}


def gauss_rule(npts):
    """(nodes, weights) of the npts-node Gauss-Legendre rule on [-1, 1],
    nodes ascending (and symmetric about 0)."""
    if npts not in _RULES:
        _RULES[npts] = np.polynomial.legendre.leggauss(npts)
    return _RULES[npts]


def graded_rule(npts):
    """(offsets, weights) of the npts-node Gauss rule on [0, 1] after the
    substitution s = t^4: the offsets crowd toward 0 like t^4 and the
    weights 4 t^3 w / 2 carry the Jacobian, so an integrand that behaves
    like s^k at 0 becomes smooth in t. Scale both by l for [0, l]."""
    x, w = gauss_rule(npts)
    t = 0.5 * (x + 1.0)
    return t ** 4, 2.0 * t ** 3 * w


def gauss_panels(f, edges, npts):
    """npts-node integrals of a vectorized f over each panel [edges[k],
    edges[k+1]], from one call of f on the (panels x npts) node array whose
    row k holds panel k's nodes (f may stack integrands on leading axes)."""
    x, w = gauss_rule(npts)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    vals = np.asarray(f(mid[:, None] + half[:, None] * x), dtype=float)
    return half * (vals @ w)

