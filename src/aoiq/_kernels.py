"""History sums of the finite-time Volterra equations.

Every equation the solver discretises is built from composite-trapezoid sums

    S_i(v) = h * sum''_{j=0..i} c[j] * k[i-j] * exp(-weight * (Lam[i] - Lam[j])) * v[j]

on an equally spaced grid, where Lam holds the cumulative arrival rate at
the nodes and the double prime halves the first and last terms (S_0 = 0).
The exponent is never positive, so the factor is formed directly.

Rows are handled in blocks of at most _BLOCK weights, so memory stays
bounded on long grids while each block is one vectorised numpy product.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_BLOCK = 1 << 15


def _row_blocks(c, k, Lam, weight, h):
    """Yield (i0, i1, W) with W[r, j] the weight of v[j] in S_{i0+r}, for
    j < i1 (zero above the diagonal)."""
    n = Lam.size
    rows = max(1, _BLOCK // n)
    # u[n-1-d] = k[d] for d >= 0 and 0 for d < 0: row i of the Toeplitz
    # kernel k[i-j] is window n-1-i of u
    u = np.concatenate([k[::-1], np.zeros(n)])
    windows = sliding_window_view(u, n)
    for i0 in range(0, n, rows):
        i1 = min(n, i0 + rows)
        idx = np.arange(i0, i1)
        kern = windows[n - i1:n - i0][::-1, :i1]
        if weight:
            W = Lam[:i1] - Lam[i0:i1, None]
            # clamped above the diagonal, where the kernel is zero anyway
            np.minimum(W, 0.0, out=W)
            W *= weight
            np.exp(W, out=W)
            W *= kern
        else:
            W = kern.copy()
        W *= h * c[:i1]
        W[:, 0] *= 0.5
        W[idx - i0, idx] *= 0.5
        if i0 == 0:
            W[0] = 0.0
        yield i0, i1, W


def history(c, k, Lam, weight, h):
    """S_i(1) for every node i."""
    out = np.empty(Lam.size)
    for i0, i1, W in _row_blocks(c, k, Lam, weight, h):
        out[i0:i1] = W.sum(axis=1)
    return out


def march(base, c, k, Lam, weight, h, alpha, beta):
    """Solve w_i = base_i + S_i(alpha * w + beta) by the implicit trapezoid
    march.

    S_i depends on w_i only through its diagonal term, so each node is
    solved in closed form from the nodes before it,
    w_i = (base_i + known terms) / (1 - alpha * h/2 * c[i] * k[0]).
    The caller keeps that denominator away from 0.

    Returns (w, residual): the sup-norm of base + S(alpha * w + beta) - w,
    the discrete equation evaluated again at the solution.
    """
    n = Lam.size
    w = np.empty(n)
    a = np.empty(n)  # alpha * w + beta on the nodes solved so far
    residual = 0.0
    for i0, i1, W in _row_blocks(c, k, Lam, weight, h):
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
