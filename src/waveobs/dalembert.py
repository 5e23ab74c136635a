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

import math

import numpy as np

__all__ = [
    "PiecewiseInitialData",
    "project",
    "eval_phi",
    "eval_phi_t",
    "phi_t_on_square",
    "l2_phit_on_squares",
    "check_discrete_observability",
    "energy",
    "leapfrog_solve",
    "terminal_velocity",
]

_GAUSS8_NODES, _GAUSS8_WEIGHTS = np.polynomial.legendre.leggauss(8)
_FORCING_BLOCK = 64  # time levels per forcing call: a whole-grid call is slower at m=512


class PiecewiseInitialData:
    """Wave initial data (phi0, phi1) resolved on the level-n uniform grid.

    phi0 is continuous piecewise affine with phi0(0) = phi0(1) = 0 and slope
    alpha_i on cell i; phi1 is piecewise constant with value beta_i on cell
    i.  The class precomputes the per-period node tables of the d'Alembert
    profiles F and G.
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
        s = abs(alpha.sum())
        scale = max(1.0, np.abs(alpha).max(initial=0.0))
        if s > 1e-10 * scale:
            raise ValueError(
                "slopes must sum to zero (phi0 vanishes at both ends); "
                f"got sum {alpha.sum():.3e}"
            )
        self.level = n
        self.alpha = alpha
        self.beta = beta
        # gamma on the 2n fundamental cells, indexed by lattice cell + n
        self._gtab = np.concatenate([(alpha - beta)[::-1], alpha + beta])
        # node tables of F and G over one period u in [0, 2]:
        # F'(u) = gamma_e / 2 and G'(v) = gamma_{-e} / 2 on cell e.
        e = np.arange(1, 2 * n + 1)
        gf = self.gamma_of(e)
        gg = self.gamma_of(-e)
        self._fslope = gf / 2.0
        self._gslope = gg / 2.0
        self._fnode = np.concatenate([[0.0], np.cumsum(gf) / (2 * n)])
        self._gnode = np.concatenate([[0.0], np.cumsum(gg) / (2 * n)])
        self._p0node = np.concatenate([[0.0], np.cumsum(alpha) / n])

    def gamma_of(self, e):
        """gamma at arbitrary nonzero extended indices (vectorized).

        Extended index e spans lattice cell lo(e) = e-1 (e > 0) or e (e < 0);
        gamma is 2n-periodic in the cell, so it is one lookup in the table
        of :meth:`gamma_fundamental`.
        """
        e = np.asarray(e)
        if np.any(e == 0):
            raise ValueError("interval index 0 does not exist (indices are nonzero)")
        n = self.level
        return self._gtab[(np.where(e > 0, e - 1, e) + n) % (2 * n)]

    def gamma_fundamental(self):
        """gamma on the fundamental indices in (-n..-1, 1..n) order."""
        return self._gtab.copy()

    def phi0(self, x):
        x = np.asarray(x, dtype=float)
        n = self.level
        c = np.clip(np.floor(x * n).astype(np.int64), 0, n - 1)
        return self._p0node[c] + self.alpha[c] * (x - c / n)

    def phi1(self, x):
        x = np.asarray(x, dtype=float)
        c = np.clip(np.floor(x * self.level).astype(np.int64), 0, self.level - 1)
        return self.beta[c]

    def v_norm_sq(self):
        """Squared energy norm: L2 of phi0' plus L2 of phi1.

        Equals (1/(2n)) * sum of gamma^2 over the fundamental indices.
        """
        return float((self.alpha @ self.alpha + self.beta @ self.beta) / self.level)

    def _profile(self, w, nodes, slopes):
        n = self.level
        w = np.mod(np.asarray(w, dtype=float), 2.0)
        c = np.clip(np.floor(w * n).astype(np.int64), 0, 2 * n - 1)
        return nodes[c] + slopes[c] * (w - c / n)

    def F(self, u):
        """Right-moving profile, 2-periodic with F(0) = 0."""
        return self._profile(u, self._fnode, self._fslope)

    def G(self, v):
        """Left-moving profile, 2-periodic with G(0) = 0."""
        return self._profile(v, self._gnode, self._gslope)


def project(phi0, phi1, level, breakpoints=()):
    """Resolve callable data onto the level-n grid.

    alpha comes from exact node differences of phi0; beta from per-cell
    Gauss quadrature of phi1, with cells split at the given breakpoints so
    that piecewise-smooth velocities integrate exactly.  phi0 must vanish at
    both ends (|phi0(0)|, |phi0(1)| <= 1e-12).
    """
    n = int(level)
    nodes = np.arange(n + 1) / n
    p0 = np.asarray(phi0(nodes), dtype=float)
    if abs(p0[0]) > 1e-12 or abs(p0[-1]) > 1e-12:
        raise ValueError(
            f"phi0 must vanish at x=0 and x=1, got {p0[0]:.3e} and {p0[-1]:.3e}"
        )
    alpha = n * np.diff(p0)

    cuts = sorted(set(float(b) for b in breakpoints if 0.0 < float(b) < 1.0))
    beta = np.empty(n)
    for i in range(n):
        acc = 0.0
        for xs, half in _gauss8_segments(i / n, (i + 1) / n, cuts):
            acc += half * float(_GAUSS8_WEIGHTS @ np.asarray(phi1(xs), dtype=float))
        beta[i] = n * acc
    return PiecewiseInitialData(n, alpha, beta)


def _gauss8_segments(a, b, cuts):
    """Gauss-8 nodes and half-length of each piece of [a, b] split at the sorted cuts."""
    pts = [a] + [c for c in cuts if a < c < b] + [b]
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        yield mid + half * _GAUSS8_NODES, half


def eval_phi(data, x, t):
    """Solution value phi(x, t) = F(x+t) + G(x-t)."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return data.F(x + t) + data.G(x - t)


def _cell_of(w, n):
    """Extended cell index of coordinate w; lattice points go to the lower cell."""
    k = np.floor(w * n).astype(np.int64)
    on_node = (k == w * n)
    k = k - on_node
    return np.where(k >= 0, k + 1, k)


def eval_phi_t(data, x, t):
    """Time derivative phi_t = (gamma(u-cell) - gamma(-(v-cell))) / 2.

    Constant on each elementary square; points on the characteristic lattice
    lines report the value of the square with the smaller index pair.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    n = data.level
    i = _cell_of(x + t, n)
    j = _cell_of(x - t, n)
    return 0.5 * (data.gamma_of(i) - data.gamma_of(-j))


def phi_t_on_square(data, ij):
    """phi_t on the square (i, j) of the data's own grid."""
    i, j = ij[0], ij[1]
    return float(0.5 * (data.gamma_of(i) - data.gamma_of(-j)))


def l2_phit_on_squares(data, squares, n):
    """Integral of phi_t^2 over a union of level-n squares.

    The data's level L must be a multiple of n; each level-n square splits
    into (L/n)^2 subsquares on which phi_t is constant, and the integral is
    the exact area-weighted sum of squares.
    """
    L = data.level
    if L % n != 0:
        raise ValueError(
            f"data level {L} is not a multiple of the square level {n}"
        )
    p = L // n
    sq = np.asarray([(ij[0], ij[1]) for ij in squares], dtype=np.int64)
    if sq.size == 0:
        return 0.0
    iu = _refined_ranges(sq[:, 0], p)
    jv = _refined_ranges(sq[:, 1], p)
    gu = data.gamma_of(iu.ravel()).reshape(iu.shape)
    gv = data.gamma_of(-jv.ravel()).reshape(jv.shape)
    # per square, sum over all subsquare pairs of ((gu - gv)/2)^2
    per_square = (
        p * np.einsum("ij,ij->i", gu, gu)
        + p * np.einsum("ij,ij->i", gv, gv)
        - 2.0 * gu.sum(axis=1) * gv.sum(axis=1)
    )
    return float(per_square.sum()) / (8.0 * L * L)


def _refined_ranges(i, p):
    """Subinterval indices of each extended index, one row per entry."""
    i = np.asarray(i, dtype=np.int64)
    starts = np.where(i > 0, p * (i - 1) + 1, p * i)
    return starts[:, None] + np.arange(p, dtype=np.int64)[None, :]


def check_discrete_observability(data, squares, n, c_obs):
    """Test the energy bound against the observed time-derivative energy.

    Returns a dict with the two sides and whether
    lhs <= rhs * (1 + 1e-10) holds.
    """
    lhs = data.v_norm_sq()
    rhs = c_obs * l2_phit_on_squares(data, squares, n)
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs * (1.0 + 1e-10))}


def energy(data, t):
    """Exact wave energy (1/2) * integral of phi_t^2 + phi_x^2 at time t.

    Both derivatives are piecewise constant in x at fixed t, with breaks
    where x+t or x-t crosses a grid node; the integral is summed piece by
    piece.
    """
    n = data.level
    t = float(t)
    pts = {0.0, 1.0}
    for k in range(math.ceil(n * t) - 1, math.floor(n * (1 + t)) + 2):
        x = k / n - t
        if 0.0 < x < 1.0:
            pts.add(x)
    for k in range(math.ceil(n * (-t)) - 1, math.floor(n * (1 - t)) + 2):
        x = k / n + t
        if 0.0 < x < 1.0:
            pts.add(x)
    xs = np.array(sorted(pts))
    mids = 0.5 * (xs[:-1] + xs[1:])
    lens = np.diff(xs)
    gu = data.gamma_of(_cell_of(mids + t, n))
    gv = data.gamma_of(-_cell_of(mids - t, n))
    phit = 0.5 * (gu - gv)
    phix = 0.5 * (gu + gv)
    return float(0.5 * lens @ (phit**2 + phix**2))


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
    steps_f = float(T) * m
    M = round(steps_f)
    if abs(steps_f - M) > 1e-9 or M < 2:
        raise ValueError(f"m*T must be an integer >= 2, got {steps_f}")
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
