"""History sums of the finite-time Volterra equations.

Every equation the solver discretises is built from product-integration
sums (Linz, Analytical and Numerical Methods for Volterra Equations, 1985)

    S_i(v) = rho[i] c[0] e_i0 v[0] + sum_{j=1..i} omega[i-j] c[j] e_ij v[j]

with e_ij = exp(-weight * (Lam[i] - Lam[j])) <= 1 on an equally spaced
grid, Lam the cumulative arrival rate at the nodes and S_0 = 0: the service
kernel is integrated exactly against each hat function of c e v.

Rows are handled in blocks of at most _BLOCK weights, so memory stays
bounded on long grids while each block is one vectorised numpy product.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._quad import gauss_panels

_BLOCK = 1 << 15


def moments(service, h, n):
    """Weights (omega, rho) of the kernels "F", "1-F", "dF" and "1" on n
    steps of h: omega[d] for lag d (omega[0] the diagonal), rho[i] for node
    0 of row i. From the cell integrals A_c of F and B_c of F (z - ch)/h
    (2-node Gauss, split at the breakpoints) and F at the nodes; dF by
    parts, int phi dF = [phi F] - int F phi', on cells (ch, (c+1)h]."""
    nodes = h * np.arange(n + 1)
    bps = [b for b in service.breakpoints() if 0.0 < b < nodes[-1]]
    edges = np.sort(np.append(nodes, bps))
    cell = np.searchsorted(nodes, edges[:-1], side="right") - 1
    left = nodes[cell][:, None]

    def integrand(z):
        Fz = np.asarray(service.cdf(z), dtype=float)
        return np.stack([Fz, Fz * (z - left) / h])

    A, B = (np.bincount(cell, p, n) for p in gauss_panels(integrand, edges, 2))
    Fn = np.asarray(service.cdf(nodes), dtype=float)

    a = np.array([A, h - A, np.diff(Fn), np.full(n, h)])
    b = np.array([B, 0.5 * h - B, Fn[1:] - A / h, np.full(n, 0.5 * h)])
    rho = np.zeros((4, n + 1))
    rho[:, 1:] = b
    omega = rho.copy()
    omega[:, :-1] += a - b
    return dict(zip(("F", "1-F", "dF", "1"), zip(omega, rho)))


def _row_blocks(c, weights, Lam, weight):
    """Yield (i0, i1, W) with W[r, j] the weight of v[j] in S_{i0+r}, for
    j < i1 (zero above the diagonal)."""
    omega, rho = weights
    n = Lam.size
    rows = max(1, _BLOCK // n)
    # u[n-1-d] = omega[d] for d >= 0 and 0 for d < 0: row i of the Toeplitz
    # weights omega[i-j] is window n-1-i of u
    u = np.concatenate([omega[n - 1::-1], np.zeros(n)])
    windows = sliding_window_view(u, n)
    for i0 in range(0, n, rows):
        i1 = min(n, i0 + rows)
        kern = windows[n - i1:n - i0][::-1, :i1]
        if weight:
            W = Lam[:i1] - Lam[i0:i1, None]
            # clamped above the diagonal, where the weights are zero anyway
            np.minimum(W, 0.0, out=W)
            W *= weight
            np.exp(W, out=W)
            first = W[:, 0] * rho[i0:i1]
            W *= kern
        else:
            W = kern.copy()
            first = rho[i0:i1]
        W[:, 0] = first
        W *= c[:i1]
        if i0 == 0:
            W[0] = 0.0
        yield i0, i1, W


def history(c, weights, Lam, weight):
    """S_i(1) for every node i."""
    out = np.empty(Lam.size)
    for i0, i1, W in _row_blocks(c, weights, Lam, weight):
        out[i0:i1] = W.sum(axis=1)
    return out


def march(base, c, weights, Lam, weight, alpha, beta):
    """Solve w_i = base_i + S_i(alpha * w + beta) by an implicit march.

    S_i depends on w_i only through its diagonal term, so each node is
    solved in closed form from the nodes before it,
    w_i = (base_i + known terms) / (1 - alpha * omega[0] * c[i]).
    The caller keeps that denominator away from 0.

    Returns (w, residual): the sup-norm of base + S(alpha * w + beta) - w,
    the discrete equation evaluated again at the solution.
    """
    n = Lam.size
    w = np.empty(n)
    a = np.empty(n)  # alpha * w + beta on the nodes solved so far
    residual = 0.0
    for i0, i1, W in _row_blocks(c, weights, Lam, weight):
        blk = slice(i0, i1)
        own = W[:, i0:i1]  # weights of the block's own nodes
        rhs = base[blk] + W[:, :i0] @ a[:i0] + own @ beta[blk]
        A = alpha * own
        wb = w[blk]
        for r in range(i1 - i0):
            wb[r] = (rhs[r] + A[r, :r] @ wb[:r]) / (1.0 - A[r, r])
        a[blk] = alpha * wb + beta[blk]
        # np.maximum keeps a NaN residual, so a blown-up solve cannot pass
        residual = np.maximum(residual,
                              np.max(np.abs(base[blk] + W @ a[:i1] - w[blk])))
    return w, float(residual)
