"""Observability constant of a domain by power iteration.

The constant is the operator norm of the map sending data (y0, y1) to the
energy-space representative of the minimal control's adjoint datum,

    C(q) = sup over y of  <R L_q y, y>_V / |y|_V^2,

with L_q the control map of the domain and R the duality map from L2 x H-1
back to the energy space.  The composition is self-adjoint and positive, so
Rayleigh quotients of a power iteration converge to the constant from below.

Discretely, one conjugate-system Gram per domain is assembled and inverted
once; each iteration applies the inverse to a new right-hand side, applies the
duality map (a tridiagonal Poisson solve for the first component, a sign flip
for the second), and renormalizes.  Iterates are stored as node values of
piecewise-affine pairs, for which every pairing used here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hum import IndicatorRegion, assemble_gram, datum_from_coefficients
from .hum import solve_hum, solve_tridiagonal

__all__ = ["StatePair", "poisson_solve", "power_iterate", "PowerResult"]


@dataclass
class StatePair:
    """Energy-space pair: node values of two piecewise-affine functions."""

    y0: np.ndarray  # length m+1, zero at both ends
    y1: np.ndarray  # length m+1

    @property
    def m(self):
        return self.y0.size - 1

    def norm_sq(self):
        """Exact |(y0, y1)|_V^2 for the piecewise-affine pair."""
        m = self.m
        grad = m * float(np.sum(np.diff(self.y0) ** 2))
        a, b = self.y1[:-1], self.y1[1:]
        mass = float(np.sum(a * a + a * b + b * b)) / (3 * m)
        return grad + mass

    def inner(self, other):
        m = self.m
        grad = m * float(np.diff(self.y0) @ np.diff(other.y0))
        a, b = self.y1[:-1], self.y1[1:]
        c, d = other.y1[:-1], other.y1[1:]
        mass = float(np.sum(2 * a * c + a * d + b * c + 2 * b * d)) / (6 * m)
        return grad + mass

    def scaled(self, factor):
        return StatePair(self.y0 * factor, self.y1 * factor)


def poisson_solve(rhs_node_integrals):
    """Dirichlet Poisson solve on the unit interval, P1 elements.

    Input: the load integrals against the interior hat functions (length
    m-1).  Output: interior node values of the solution, by elimination on
    the tridiagonal stiffness matrix.
    """
    f = np.asarray(rhs_node_integrals, dtype=float)
    m = f.size + 1
    return solve_tridiagonal([2.0 * m] * (m - 1), [-float(m)] * (m - 2), f)


def _rhs_from_pair(level, y):
    """Duality pairings of the basis data against a piecewise-affine pair.

    Cell entries are trapezoid-exact integrals of y0; hat entries are exact
    P1 mass pairings against y1 (with a sign flip).
    """
    L = level
    if y.m != L:
        raise ValueError(f"state grid {y.m} must match the control level {L}")
    b = np.empty(2 * L - 1)
    y1 = y.y1
    b[: L - 1] = -(y1[:-2] + 4.0 * y1[1:-1] + y1[2:]) / (6.0 * L)
    b[L - 1 :] = (y.y0[:-1] + y.y0[1:]) / (2.0 * L)
    return b


def _apply_duality(level, data):
    """Energy-space representative of a piecewise datum (phi0, phi1).

    First component solves -w'' = phi1 (hat loads of a piecewise-constant
    right side are exact); second component is -phi0 at the nodes.
    """
    L = level
    beta = data.beta
    loads = (beta[:-1] + beta[1:]) / (2.0 * L)
    w = np.zeros(L + 1)
    w[1:-1] = poisson_solve(loads)
    nodes = np.arange(L + 1) / L
    return StatePair(y0=w, y1=-data.phi0(nodes))


@dataclass
class PowerResult:
    constant: float
    estimates: np.ndarray
    iterations: int
    converged: bool
    vector: StatePair


def default_start(m):
    """Parabolic position, zero velocity, unit energy norm."""
    x = np.arange(m + 1) / m
    y = StatePair(y0=x * (1.0 - x), y1=np.zeros(m + 1))
    return y.scaled(1.0 / np.sqrt(y.norm_sq()))


def power_iterate(domain, level, start=None, tol=1e-4, max_iters=50):
    """Estimate the observability constant of a square-aligned domain.

    Assembles and inverts (``solve_hum`` on the identity) the level-L Gram of
    the domain's indicator weight once, then iterates y -> R L_q y with
    Rayleigh-quotient estimates.
    Stops when the relative change of the estimate drops below ``tol``.
    """
    L = int(level)
    G = assemble_gram(IndicatorRegion(domain), L)
    Ginv, _ = solve_hum(G, np.eye(G.shape[0]))
    y = default_start(L) if start is None else start.scaled(1.0)
    nrm = np.sqrt(y.norm_sq())
    if nrm == 0:
        raise ValueError("initial datum orthogonal to dominant eigenspace")
    y = y.scaled(1.0 / nrm)
    estimates = []
    converged = False
    for it in range(int(max_iters)):
        b = _rhs_from_pair(L, y)
        z = Ginv @ b
        w = _apply_duality(L, datum_from_coefficients(L, z))
        wn = float(np.sqrt(w.norm_sq()))
        if wn == 0:
            raise ValueError("initial datum orthogonal to dominant eigenspace")
        est = wn  # |R L y| at unit |y|
        estimates.append(est)
        y = w.scaled(1.0 / wn)
        # fix the sign: first nonzero component positive
        flat = np.concatenate([y.y0, y.y1])
        nz = flat[np.abs(flat) > 0]
        if nz.size and nz[0] < 0:
            y = y.scaled(-1.0)
        if len(estimates) >= 2:
            prev = estimates[-2]
            if abs(est - prev) / abs(est) < tol:
                converged = True
                break
    return PowerResult(
        constant=estimates[-1],
        estimates=np.asarray(estimates),
        iterations=len(estimates),
        converged=converged,
        vector=y,
    )
