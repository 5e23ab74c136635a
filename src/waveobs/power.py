"""Observability constant of a domain by power iteration.

The constant is the operator norm of the map sending data (y0, y1) to the
energy-space representative of the minimal control's adjoint datum,

    C(q) = sup over y of  <R L_q y, y>_V / |y|_V^2,

with L_q the control map of the domain and R the duality map from L2 x H-1
back to the energy space.  The composition is self-adjoint and positive, so
Rayleigh quotients of a power iteration converge to the constant from below.

Discretely the map is linear on the node values of piecewise-affine pairs,
for which every pairing used here is exact, so it is built once per run as
one dense matrix (see :func:`_operator`) and each iteration is a product, a
norm and a sign fix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hum import IndicatorRegion, assemble_gram, solve_hum

__all__ = ["energy_norm_sq", "power_iterate", "PowerResult"]


def energy_norm_sq(y):
    """Exact |(y0, y1)|_V^2 of a piecewise-affine pair, y its stacked node values (y0, y1)."""
    y0, y1 = np.split(y, 2)
    m = y0.size - 1
    grad = m * float(np.sum(np.diff(y0) ** 2))
    a, b = y1[:-1], y1[1:]
    mass = float(np.sum(a * a + a * b + b * b)) / (3 * m)
    return grad + mass


def _operator(G, L):
    """Matrix K of y -> R L_q y on the stacked node values (y0, y1), each of length L+1.

    P pairs the basis data with y: hat rows -(1, 4, 1)/(6L) on y1 (exact P1
    mass), cell rows (1, 1)/(2L) on y0 (exact cell integrals).  Z = G^-1 P
    maps y to the coefficients of the adjoint datum (phi0 at the interior
    nodes, then the cell velocities phi1).  R sends it to (w, -phi0), where
    -w'' = phi1: the hat loads of phi1 times the Green matrix
    min(i, j)(L - max(i, j))/L^2, the exact inverse of the stiffness
    L tridiag(-1, 2, -1).
    """
    n = L + 1
    hats, cells = np.arange(L - 1), np.arange(L)
    P = np.zeros((2 * L - 1, 2 * n))
    for shift, weight in enumerate((1.0, 4.0, 1.0)):
        P[hats, n + hats + shift] = -weight / (6.0 * L)
    P[L - 1 + cells, cells] = P[L - 1 + cells, cells + 1] = 1.0 / (2.0 * L)
    Z, _ = solve_hum(G, P)
    i = hats + 1
    green = np.minimum.outer(i, i) * (L - np.maximum.outer(i, i)) / L**2
    K = np.zeros((2 * n, 2 * n))
    K[1:L] = green @ (Z[L - 1 : -1] + Z[L:]) / (2.0 * L)
    K[n + 1 : n + L] = -Z[: L - 1]
    return K


@dataclass
class PowerResult:
    constant: float
    estimates: np.ndarray
    iterations: int
    converged: bool
    vector: np.ndarray  # stacked node values (y0, y1)


def default_start(m):
    """Parabolic position, zero velocity, unit energy norm: stacked node values (y0, y1)."""
    x = np.arange(m + 1) / m
    y = np.concatenate([x * (1.0 - x), np.zeros(m + 1)])
    return y * (1.0 / np.sqrt(energy_norm_sq(y)))


def power_iterate(domain, level, start=None, tol=1e-4, max_iters=50):
    """Estimate the observability constant of a square-aligned domain.

    Assembles the level-L Gram of the domain's indicator weight and builds
    the operator matrix once, then iterates y -> R L_q y with
    Rayleigh-quotient estimates.
    Stops when the relative change of the estimate drops below ``tol``.
    """
    L = int(level)
    if L < 2:
        raise ValueError(f"power iteration needs level >= 2, got {level}: at level 1 no "
                         "interior node exists, so the parabolic start and the operator are zero")
    if int(max_iters) != max_iters or max_iters < 1:
        raise ValueError(f"max_iters must be a positive integer, got {max_iters!r}")
    y = default_start(L) if start is None else np.asarray(start, dtype=float)
    if y.size != 2 * (L + 1):
        raise ValueError(f"state grid {y.size // 2 - 1} must match the control level {L}")
    nrm = np.sqrt(energy_norm_sq(y))
    if nrm == 0:
        raise ValueError("initial datum orthogonal to dominant eigenspace")
    K = _operator(assemble_gram(IndicatorRegion(domain), L), L)
    v = y * (1.0 / nrm)
    estimates = []
    converged = False
    for _ in range(int(max_iters)):
        w = K @ v
        est = float(np.sqrt(energy_norm_sq(w)))  # |R L y| at unit |y|
        if est == 0:
            raise ValueError("initial datum orthogonal to dominant eigenspace")
        estimates.append(est)
        v = w * (1.0 / est)
        # fix the sign: first nonzero component positive
        nz = v[v != 0]
        if nz.size and nz[0] < 0:
            v = -v
        if len(estimates) >= 2 and abs(est - estimates[-2]) / est < tol:
            converged = True
            break
    return PowerResult(
        constant=estimates[-1],
        estimates=np.asarray(estimates),
        iterations=len(estimates),
        converged=converged,
        vector=v,
    )
