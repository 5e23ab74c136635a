"""Closed-form wave solutions for piecewise data on a uniform grid.

Free waves phi_tt = phi_xx on (0,1) with phi = 0 at both ends split as
phi = F(x+t) + G(x-t) with F, G 2-periodic.  For initial data that are
piecewise affine (position) and piecewise constant (velocity) on the grid
x_k = k/n, both F and G are piecewise affine with breakpoints on the same
lattice, so the solution, its time derivative, and all the energy integrals
used elsewhere in the package have exact closed forms driven by one vector
per characteristic family: the slope data gamma.

Conventions.  alpha_i = n * (phi0(x_i) - phi0(x_{i-1})) is the slope of the
position datum on cell i, beta_i = n * integral of phi1 over cell i is the
cell average of the velocity datum, gamma_i = alpha_i + beta_i, and the
reflection rules gamma_{-i} = alpha_i - beta_i extend gamma to every nonzero
integer through the index folding map (2n-periodic, odd).
"""

from __future__ import annotations

import functools

import numpy as np

from .graph import build_graph
from .grid import table_positions

__all__ = [
    "PiecewiseInitialData",
    "gamma_table",
    "profile_tables",
    "project",
    "eval_phi",
    "l2_phit_on_squares",
    "check_discrete_observability",
    "time_cells",
    "leapfrog_solve",
    "terminal_velocity",
]

_GAUSS8_NODES, _GAUSS8_WEIGHTS = np.polynomial.legendre.leggauss(8)
_FORCING_BLOCK = 64  # time levels per forcing call: a whole-grid call is slower at m=512


class PiecewiseInitialData:
    """Wave initial data (phi0, phi1) resolved on the level-n uniform grid.

    phi0 is continuous piecewise affine with phi0(0) = phi0(1) = 0 and slope
    alpha_i on cell i; phi1 is piecewise constant with value beta_i on cell
    i.  The per-period node tables of the d'Alembert profiles F and G (and
    the node values of phi0) are built on first use by :meth:`F`, :meth:`G`
    or :meth:`phi0`, so data that only meet square covers never pay for them.
    """

    def __init__(self, level, alpha, beta):
        alpha = np.asarray(alpha, dtype=float)
        beta = np.asarray(beta, dtype=float)
        n = int(level)
        if n < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        if alpha.shape != (n,) or beta.shape != (n,):
            raise ValueError(
                f"alpha and beta must have shape ({n},), got {alpha.shape} and {beta.shape}"
            )
        # the rule is s > 1e-10 * max(1, max|alpha|); the max is only read when s > 1e-10
        s = abs(alpha.sum())
        if s > 1e-10 and s > 1e-10 * np.abs(alpha).max():
            raise ValueError(
                "slopes must sum to zero (phi0 vanishes at both ends); "
                f"got sum {alpha.sum():.3e}"
            )
        self.level = n
        self.alpha = alpha
        self.beta = beta
        self._gtab = gamma_table(alpha, beta)

    @functools.cached_property
    def _profiles(self):
        return profile_tables(self._gtab)

    @functools.cached_property
    def _p0node(self):
        return np.concatenate([[0.0], np.cumsum(self.alpha) / self.level])

    def gamma_of(self, e):
        """gamma at arbitrary nonzero extended indices (vectorized).

        Extended index e spans lattice cell lo(e) = e-1 (e > 0) or e (e < 0);
        gamma is 2n-periodic in the cell, so it is one lookup in the table
        of :func:`gamma_table`.
        """
        return self._gtab[table_positions(e, self.level)]

    def phi0(self, x):
        x = np.asarray(x, dtype=float)
        n = self.level
        c = np.clip(np.floor(x * n).astype(np.int64), 0, n - 1)
        return self._p0node[c] + self.alpha[c] * (x - c / n)

    def v_norm_sq(self):
        """Squared energy norm: L2 of phi0' plus L2 of phi1.

        Equals (1/(2n)) * sum of gamma^2 over the fundamental indices.
        ``ndarray.dot`` is the same BLAS call as ``@`` with less dispatch on
        these short vectors; the tests pin the float to the ``@`` form.
        """
        return float((self.alpha.dot(self.alpha) + self.beta.dot(self.beta)) / self.level)

    def _profile(self, w, nodes, slopes):
        n = self.level
        w = np.mod(np.asarray(w, dtype=float), 2.0)
        c = np.clip(np.floor(w * n).astype(np.int64), 0, 2 * n - 1)
        return nodes[c] + slopes[c] * (w - c / n)

    def F(self, u):
        """Right-moving profile, 2-periodic with F(0) = 0."""
        return self._profile(u, *self._profiles[0])

    def G(self, v):
        """Left-moving profile, 2-periodic with G(0) = 0."""
        return self._profile(v, *self._profiles[1])


def gamma_table(alpha, beta):
    """gamma on the fundamental indices in the (-n..-1, 1..n) order, along the last axis.

    gamma_i = alpha_i + beta_i and gamma_{-i} = alpha_i - beta_i for i = 1..n,
    so position k holds gamma of the lattice cell k - n.
    """
    return np.concatenate([(alpha - beta)[..., ::-1], alpha + beta], axis=-1)


def profile_tables(gtab):
    """Node values and slopes of the profiles F and G, along the last axis.

    On the 2n period cells e = 1..2n of u (or v) in [0, 2), F' = gamma_e / 2
    and G' = gamma_{-e} / 2, and the node value at the left end of a cell is
    the sum of gamma over the cells before it, over 2n.  ``gtab`` is a
    :func:`gamma_table`; the result has shape (..., 2, 2, 2n): (F, G) by
    (node values, slopes).
    """
    n2 = gtab.shape[-1]
    e = np.arange(1, n2 + 1)
    g = gtab[..., table_positions(np.stack([e, -e]), n2 // 2)]
    out = np.empty(g.shape[:-1] + (2, n2))  # filled in place: the basis tables are large
    out[..., 0, 0] = 0.0
    np.cumsum(g[..., :-1], axis=-1, out=out[..., 0, 1:])
    out[..., 0, :] /= n2
    np.divide(g, 2.0, out=out[..., 1, :])
    return out


def project(phi0, phi1, level, breakpoints=()):
    """Resolve callable data onto the level-n grid.

    alpha comes from exact node differences of phi0, which must vanish at
    both ends (to 1e-12); beta from Gauss quadrature of phi1 on the cells
    split at the breakpoints, so piecewise-smooth velocities integrate
    exactly.  Each callable is called once, on a 1-D array.
    """
    n = int(level)
    nodes = np.arange(n + 1) / n
    p0 = np.asarray(phi0(nodes), dtype=float)
    if abs(p0[0]) > 1e-12 or abs(p0[-1]) > 1e-12:
        raise ValueError(
            f"phi0 must vanish at x=0 and x=1, got {p0[0]:.3e} and {p0[-1]:.3e}"
        )
    alpha = n * np.diff(p0)

    xs, half, cell = _gauss8_pieces(n, breakpoints)
    dots = _pair_on_pieces(_GAUSS8_WEIGHTS, phi1, xs)
    beta = n * np.bincount(cell, half * dots, minlength=n)
    return PiecewiseInitialData(n, alpha, beta)


def _gauss8_pieces(n, breakpoints):
    """Gauss-8 rules of every piece of the n grid cells split at the breakpoints.

    Breakpoints outside (0, 1) or on a grid node split nothing.  Returns the
    (P, 8) nodes, the P half-lengths and the cell of each piece, in increasing x.
    """
    edges = np.arange(n + 1) / n
    cuts = [float(c) for c in breakpoints if 0.0 < float(c) < 1.0]
    pts = np.unique(np.concatenate([edges, cuts]))
    lo, hi = pts[:-1], pts[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    cell = np.searchsorted(edges, lo, side="right") - 1
    return mid[:, None] + half[:, None] * _GAUSS8_NODES, half, cell


def _pair_on_pieces(w, f, xs):
    """The float of ``w[p] @ f(xs[p])`` for every piece p (w broadcasts over
    the rows of xs); f is called once, on the flat 1-D array of all nodes."""
    fx = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    return np.matmul(w[..., None, :], fx[..., :, None])[..., 0, 0]


def eval_phi(data, x, t):
    """Solution value phi(x, t) = F(x+t) + G(x-t)."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return data.F(x + t) + data.G(x - t)


def l2_phit_on_squares(data, squares, n):
    """Integral of phi_t^2 over a union of level-n squares, for data at level n.

    It is the Laplacian form (d . (g g) - g^T W g) / (8 n^2) of the cover's
    graph (:func:`waveobs.graph.build_graph`, degrees d, weights W) in the
    gamma table g.  Data at a level p n take the refined cover
    ``squares_in_domain(domain, p n)``.  The float d and W are built once per
    (cover, n) and kept read-only in a one-slot cache, so a batch of checks
    should pass one cover object to every check: a hit on that object is an
    identity check, not a set comparison.  Products are
    ``ndarray.dot``, the BLAS call of ``@`` with less dispatch on these short
    vectors; the tests pin the float to ``@``.
    """
    if data.level != n:
        raise ValueError(f"data level {data.level} is not the square level {n}: give the "
                         "cover at the data's level")
    degrees, weights = _cover_graph(frozenset(squares), n)
    g = data._gtab
    return float(degrees.dot(g * g) - g.dot(weights.dot(g))) / (8.0 * n * n)


@functools.lru_cache(maxsize=1)
def _cover_graph(squares, n):
    weights = build_graph(squares, n)  # integers: the same floats in any square order
    tables = weights.sum(axis=1).astype(float), weights.astype(float)
    for table in tables:
        table.flags.writeable = False
    return tables


def check_discrete_observability(data, squares, n, c_obs):
    """Test the energy bound against the observed time-derivative energy.

    Returns a dict with the two sides and whether
    lhs <= rhs * (1 + 1e-10) holds.
    """
    lhs = data.v_norm_sq()
    rhs = c_obs * l2_phit_on_squares(data, squares, n)
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs * (1.0 + 1e-10))}


def time_cells(T, level):
    """The number T*level of lattice time cells; a ValueError unless it is a positive integer."""
    TLf = float(T) * int(level)
    M = round(TLf)
    if abs(TLf - M) > 1e-9 or M < 1:
        raise ValueError(f"T*level must be a positive integer, got {TLf}")
    return M


def leapfrog_solve(m, T, y0, beta=None, forcing=None):
    """Explicit three-level scheme for y_tt = y_xx + f at unit CFL.

    Space step and time step are both 1/m, so the stencil propagates along
    exact characteristics and homogeneous runs reproduce closed-form
    solutions at the nodes up to roundoff, provided the first step is exact.
    The first step uses the averaged initial velocity: beta[i] must hold
    m * integral of y1 over cell i (matching the projection convention).

    Parameters
    ----------
    m : int
        Number of space cells; nodes x_i = i/m.
    T : float
        Final time; m*T must be an integer number of steps.
    y0 : array_like
        Initial position at the nodes (length m+1, zero at both ends).
    beta : array_like, optional
        Cell averages of the initial velocity (length m); zero if omitted.
    forcing : callable, optional
        Elementwise f(x, t), called once per block of up to 64 time levels
        with the interior nodes x of shape (1, m-1) and the block's times t
        of shape (k, 1); the result must broadcast to shape (k, m-1).

    Returns
    -------
    ndarray of shape (m*T + 1, m + 1) with one row per time level.
    """
    m = int(m)
    M = time_cells(T, m)
    if M < 2:
        raise ValueError(f"m*T must be at least 2, got {M}")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (m + 1,):
        raise ValueError(f"y0 must have length {m + 1}, got {y0.shape}")
    if beta is None:
        beta = np.zeros(m)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (m,):
        raise ValueError(f"beta must have length {m}, got {beta.shape}")
    dt = 1.0 / m
    xin = np.arange(1, m) / m
    Y = np.zeros((M + 1, m + 1))
    Y[0] = y0
    Y[1, 1:m] = 0.5 * (y0[2:] + y0[:-2]) + (beta[:-1] + beta[1:]) / (2 * m)
    for k in range(M):
        if k > 0:
            Y[k + 1, 1:m] = Y[k, 2:] + Y[k, :-2] - Y[k - 1, 1:m]
        if forcing is not None:
            if k % _FORCING_BLOCK == 0:
                t = np.arange(k, min(k + _FORCING_BLOCK, M))[:, None] * dt
                f = forcing(xin[None, :], t)
                f = np.broadcast_to(np.asarray(f, dtype=float), (len(t), m - 1))
            Y[k + 1, 1:m] += (dt * dt if k > 0 else 0.5 * dt * dt) * f[k % _FORCING_BLOCK]
    return Y


def terminal_velocity(Y, dt):
    """Second-order one-sided time derivative at the final row."""
    return (3.0 * Y[-1] - 4.0 * Y[-2] + Y[-3]) / (2.0 * dt)
