"""Projected gradient descent on the control-support curve.

The cost of the minimal control depends on the curve gamma carrying the
weight's tube.  Its directional derivative has a closed form through the
envelope theorem: only the explicit gamma-dependence of the weight
contributes, giving the density

    j(t) = integral over x of phi^2(x, t) * d/dx[chi](x - gamma(t)),

supported in the two ramp bands of the profile.  The regularized cost adds
(eps/2) * integral of gamma'^2, whose gradient enters through a lumped-free
P1 smoothing solve: (M + eps K) j_eps = M j + eps K gamma.  Each step moves
the curve nodes down the smoothed gradient and projects onto the admissible
band [delta0, 1 - delta0].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dalembert import eval_phi
from .hum import SmoothedTube, WeightProfile, hum_control, hum_rhs, lattice_plan, solve_tridiagonal

__all__ = [
    "shape_derivative_density",
    "curve_mass_matrix",
    "pair_with_density",
    "h1_smooth",
    "descent_step",
    "optimize",
    "DescentTrace",
    "cylindrical_sweep",
    "SweepResult",
    "performance_index",
]

_G16_NODES, _G16_WEIGHTS = np.polynomial.legendre.leggauss(16)


def shape_derivative_density(solution):
    """Gradient density j at the curve nodes of the solution's tube.

    Sixteen-point Gauss on each of the two ramp bands; the profile's
    derivative is a fixed polynomial of the Gauss abscissae, so only the
    wave values vary along the curve.
    """
    region = solution.region
    prof = region.profile
    d0, d = prof.delta0, prof.delta
    times = region.curve.times
    gam = region.curve.values
    tau = (_G16_NODES + 1.0) / 2.0
    mag = -30.0 * tau**2 * (1.0 - tau) ** 2 / d  # eta' magnitude at the nodes
    offs = d0 - d + d * tau
    w = _G16_WEIGHTS * (d / 2.0)
    j = np.zeros_like(gam)
    for side in (-1.0, 1.0):
        xg = gam[:, None] + side * offs[None, :]
        phi = eval_phi(solution.data, xg, times[:, None])
        j += (phi**2 * (side * mag)) @ w
    return j


def _p1_tridiagonal(curve, end, off):
    """A P1 matrix on the curve's nodes as (diagonal, off-diagonal): 2*end inside, end at the ends."""
    diag = np.full(curve.times.size, 2.0 * end)
    diag[0] = diag[-1] = end
    return diag, np.full(curve.times.size - 1, off)


def curve_mass_matrix(curve):
    """P1 mass matrix on the curve's nodes as (diagonal, off-diagonal)."""
    return _p1_tridiagonal(curve, curve.dt / 3.0, curve.dt / 6.0)


def _tridiagonal_matvec(diag, off, x):
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def pair_with_density(curve, j, direction):
    """Discrete pairing integral of j * direction along the curve (P1 mass)."""
    return float(direction @ _tridiagonal_matvec(*curve_mass_matrix(curve), j))


def h1_smooth(curve, j, eps):
    """Smoothed gradient of the regularized cost.

    Solves the tridiagonal (M + eps K) j_eps = M j + eps K gamma on the curve
    nodes with natural boundary conditions; eps = 0 returns j unchanged.
    """
    if eps == 0:
        return np.array(j, dtype=float, copy=True)
    M, K = curve_mass_matrix(curve), _p1_tridiagonal(curve, 1.0 / curve.dt, -1.0 / curve.dt)
    rhs = _tridiagonal_matvec(*M, j) + eps * _tridiagonal_matvec(*K, curve.values)
    return solve_tridiagonal(M[0] + eps * K[0], M[1] + eps * K[1], rhs)


def descent_step(curve, grad, rho, delta0):
    """One projected step: gamma - rho * grad clipped to [delta0, 1-delta0]."""
    vals = np.clip(curve.values - rho * grad, delta0, 1.0 - delta0)
    return curve.with_values(vals)


@dataclass
class DescentTrace:
    """History of one optimization run (one record per evaluated curve)."""

    costs: np.ndarray  # regularized costs, length iterations + 1
    raw_costs: np.ndarray  # control costs without the curve penalty
    curves: list
    converged: bool

    @property
    def iterations(self):
        return len(self.costs) - 1

    @property
    def curve(self):
        return self.curves[-1]


def optimize(
    y0,
    curve0,
    delta0,
    level,
    y1=None,
    breakpoints=(),
    delta=None,
    rho=1e-4,
    eps=1e-2,
    max_iters=500,
    patience=10,
    tol=1e-3,
    callback=None,
):
    """Minimize the control cost over the tube's support curve.

    Runs projected gradient descent with the envelope-theorem gradient and
    H1 smoothing.  Stops when the relative change between the means of the
    last two blocks of ``patience`` regularized costs drops below ``tol``
    (requires 2*patience history), or at ``max_iters``.  A zero initial
    cost (zero data on a constant curve) is already optimal and returns
    at once, converged.
    """
    profile = WeightProfile(delta0, delta)
    plan = lattice_plan(level, curve0.T)  # every step's Gram lives on this lattice
    b = hum_rhs(level, y0, y1, breakpoints)  # and pairs with the same datum
    curve = curve0
    costs, raw, curves = [], [], [curve]
    converged = False
    p = int(patience)
    for it in range(int(max_iters) + 1):
        sol = hum_control(SmoothedTube(curve, profile), b, plan=plan)
        jeps_cost = sol.cost + 0.5 * eps * curve.h1_seminorm_sq()
        costs.append(jeps_cost)
        raw.append(sol.cost)
        if callback is not None:
            callback(it, curve, sol, jeps_cost)
        if costs[0] == 0.0:  # J_eps >= 0, so a zero start is optimal
            converged = True
            break
        if len(costs) >= 2 * p:
            recent = np.mean(costs[-p:])
            previous = np.mean(costs[-2 * p : -p])
            if abs(recent - previous) / costs[0] < tol:
                converged = True
                break
        if it == max_iters:
            break
        j = shape_derivative_density(sol)
        grad = h1_smooth(curve, j, eps)
        curve = descent_step(curve, grad, rho, delta0)
        curves.append(curve)
    return DescentTrace(
        costs=np.asarray(costs),
        raw_costs=np.asarray(raw),
        curves=curves,
        converged=converged,
    )


@dataclass
class SweepResult:
    x0s: np.ndarray
    costs: np.ndarray

    @property
    def best_x0(self):
        best = float(np.min(self.costs))
        tied = self.costs <= best * (1.0 + 1e-12) + 1e-300
        return float(np.min(self.x0s[tied]))

    @property
    def best_cost(self):
        return float(np.min(self.costs))

    @property
    def worst_x0(self):
        return float(self.x0s[int(np.argmax(self.costs))])

    @property
    def worst_cost(self):
        return float(np.max(self.costs))


def cylindrical_sweep(
    y0,
    delta0,
    level,
    T,
    y1=None,
    breakpoints=(),
    delta=None,
    x0s=None,
):
    """Control cost over a family of fixed-center tubes.

    Default centers are the 13 equispaced points of [0.2, 0.8]; ties on the
    minimum resolve to the smaller center.
    """
    if x0s is None:
        x0s = np.linspace(0.2, 0.8, 13)
    x0s = np.asarray(x0s, dtype=float)
    costs = np.empty_like(x0s)
    plan, b = lattice_plan(level, T), hum_rhs(level, y0, y1, breakpoints)
    for k, x0 in enumerate(x0s):
        costs[k] = hum_control(SmoothedTube.around(x0, T, delta0, delta), b, plan=plan).cost
    return SweepResult(x0s=x0s, costs=costs)


def performance_index(optimal_cost, cylinder_cost):
    """Relative cost saving (percent) of the optimized curve over the best tube."""
    return 100.0 * (1.0 - optimal_cost / cylinder_cost)
