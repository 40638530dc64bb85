"""History sums of the finite-time Volterra equations.

Every equation the solver discretises is built from product-integration
sums (Linz, Analytical and Numerical Methods for Volterra Equations, 1985)

    S_i(v) = rho[i] c[0] e_i0 v[0] + sum_{j=1..i} omega[i-j] c[j] e_ij v[j]

with e_ij = exp(-weight * (Lam[i] - Lam[j])) <= 1 on an equally spaced
grid, Lam the cumulative arrival rate at the nodes and S_0 = 0: the service
kernel is integrated exactly against each hat function of c e v.

The weight factors at an anchor row a (Hairer, Lubich & Schlichte, SIAM J.
Sci. Stat. Comput. 6(3), 1985),

    e_ij = exp(-weight (Lam[i] - Lam[a])) * exp(weight (Lam[j] - Lam[a])),

so over the rows i of a block anchored at its first row, S_i is the row
factor times a convolution of omega with c * col * v: one np.convolve per
block, O(m^2) multiply-adds in C, no m-by-block weight array and no exp per
weight. A block ends before weight * (Lam[i] - Lam[a]) passes _CAP, so no
factor overflows on any grid: the row factor is <= 1, the column factor
<= 1 before the block and <= e^_CAP inside it. The factors' rounding grows
like _CAP * 2^-52 relative, which keeps _CAP small; ending a block early
costs a Python step, not more arithmetic.

history takes blocks limited by the cap alone, so one block whenever
weight * (Lam[-1] - Lam[0]) <= _CAP. march returns an explicit equation
(alpha = 0) as one history sum; an implicit one it solves in blocks of at
most _ROWS rows, each directly: the nodes before the block enter through
the convolution, its own nodes through its lower-triangular weights.
"""

import numpy as np

from ._quad import gauss_panels

_CAP = 32.0
_ROWS = 32


def moments(service, h, n):
    """Weights (omega, rho) of the kernels "F", "1-F", "dF" and "1" on n
    steps of h: omega[d] for lag d (omega[0] the diagonal), rho[i] for node
    0 of row i. From the cell integrals A_c of S = 1 - F and B_c of
    S (z - ch)/h (2-node Gauss, split at the breakpoints) and S at the
    nodes, so "1-F" and "dF" decay with the service tail; dF by parts,
    int phi dF = int S phi' - [phi S], on cells (ch, (c+1)h]. A weight
    below the smallest normal float is 0."""
    nodes = h * np.arange(n + 1)
    bps = [b for b in service.breakpoints() if 0.0 < b < nodes[-1]]
    edges = np.sort(np.append(nodes, bps))
    cell = np.searchsorted(nodes, edges[:-1], side="right") - 1
    left = nodes[cell][:, None]

    def integrand(z):
        Sz = np.asarray(service.sf(z), dtype=float)
        return np.stack([Sz, Sz * (z - left) / h])

    A, B = (np.bincount(cell, p, n) for p in gauss_panels(integrand, edges, 2))
    Sn = np.asarray(service.sf(nodes), dtype=float)

    a = np.array([h - A, A, -np.diff(Sn), np.full(n, h)])
    b = np.array([0.5 * h - B, B, A / h - Sn[1:], np.full(n, 0.5 * h)])
    rho = np.zeros((4, n + 1))
    rho[:, 1:] = b
    omega = rho.copy()
    omega[:, :-1] += a - b
    # "1-F" and "dF" decay through the subnormals, which slow every product
    # they enter
    for w in (omega, rho):
        w[np.abs(w) < np.finfo(float).tiny] = 0.0
    return dict(zip(("F", "1-F", "dF", "1"), zip(omega, rho)))


def _blocks(Lam, weight, rows):
    """Yield (a, i1, row, col) for consecutive row blocks a..i1-1 of at most
    `rows` rows, each ending before weight * (Lam[i] - Lam[a]) passes _CAP,
    with the factors row[r] = exp(-weight (Lam[a+r] - Lam[a])) and
    col[j] = exp(weight (Lam[j] - Lam[a])) for j < i1."""
    n = Lam.size
    a = 0
    while a < n:
        end = np.searchsorted(Lam, Lam[a] + _CAP / weight, "right") if weight else n
        i1 = max(a + 1, min(a + rows, end))
        d = weight * (Lam[:i1] - Lam[a])
        yield a, i1, np.exp(-d[a:]), np.exp(d)
        a = i1


def history(c, weights, Lam, weight):
    """S_i(1) for every node i."""
    omega, rho = weights
    out = np.empty(Lam.size)
    for a, i1, row, col in _blocks(Lam, weight, Lam.size):
        g = c[:i1] * col
        # sum_{j <= i} omega[i-j] g[j] for the rows i of the block: the
        # zeros in front start the valid range at row a
        s = np.convolve(omega[:i1], np.concatenate((np.zeros(i1 - a - 1), g)),
                        "valid")
        out[a:i1] = row * (s + (rho[a:i1] - omega[a:i1]) * g[0])
    out[0] = 0.0
    return out


def march(base, c, weights, Lam, weight, alpha, beta):
    """Solve w_i = base_i + S_i(alpha * w + beta).

    At alpha = 0 the equation is explicit, w = base + S(beta): one history
    sum, which the residual would only repeat, so the residual is 0, or NaN
    when a value is not finite. Otherwise blocks of _ROWS nodes are solved in
    order: the nodes before a block enter through one convolution, and the
    block's own nodes through its lower-triangular weights, so each block
    is one linear solve, (I - alpha * own) w_blk = known + own @ beta_blk.
    The diagonal of I - alpha * own is 1 - alpha * omega[0] * c[i]; the
    caller keeps it away from 0.

    Returns (w, residual): the sup-norm of base + S(alpha * w + beta) - w,
    the discrete equation evaluated again at the solution.
    """
    if not alpha:
        w = base + history(c * beta, weights, Lam, weight)
        return w, 0.0 if np.isfinite(w).all() else np.nan
    omega, rho = weights
    n = Lam.size
    k = min(n, _ROWS)
    lag = np.arange(k)[:, None] - np.arange(k)
    toeplitz = np.tril(omega[np.abs(lag)])  # omega[r - s] on and below the diagonal
    eye = np.eye(k)
    edge = rho - omega  # node 0 carries rho in place of omega
    w = np.empty(n)
    v = np.empty(n)  # alpha * w + beta on the nodes solved so far
    err = np.empty(n)
    for a, i1, row, col in _blocks(Lam, weight, _ROWS):
        blk = slice(a, i1)
        r = i1 - a
        own = row[:, None] * toeplitz[:r, :r] * (c[blk] * col[a:])
        known = base[blk]
        if a:
            g = c[:a] * col[:a] * v[:a]
            known = known + row * (np.convolve(omega[1:i1], g, "valid")
                                   + edge[blk] * g[0])
        else:
            own[:, 0] += row * edge[:r] * c[0]
            own[0] = 0.0  # S_0 = 0
        rhs = known + own @ beta[blk]
        w[blk] = np.linalg.solve(eye[:r, :r] - alpha * own, rhs)
        v[blk] = alpha * w[blk] + beta[blk]
        err[blk] = known + own @ v[blk] - w[blk]
    # np.max keeps a NaN, so a blown-up solve cannot pass
    return w, float(np.max(np.abs(err)))
