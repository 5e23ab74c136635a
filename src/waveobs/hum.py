"""Null controls of minimal weighted norm by duality.

The control problem: steer y_tt = y_xx + f to rest at time T from data
(y0, y1), with f = v * chi supported in a moving region described by the
weight chi(x, t).  The minimal-cost control is f = phi * chi where phi is
the free wave whose initial datum minimizes the conjugate functional

    (1/2) * integral of phi^2 chi  -  <phi1, y0>  +  <phi0, y1>.

Restricted to piecewise data at level L (hat positions, cell-indicator
velocities) this is a finite quadratic minimization G z = b with Gram matrix
G_kl = integral of phi_k phi_l chi over the space-time strip.  Basis waves
are affine on every characteristic lattice cell, so six weight moments per
cell (tensor Gauss rules, collapsed on the strip boundary's half-square
cells) fill a moment table whose F-F and G-G blocks are diagonal per cell.
The strip's cells and the basis tables depend only on (L, T): a descent builds
their :func:`lattice_plan` once.  A tube's weight is evaluated in one call on
every cell that can meet its ramp, its moments in one product per category.

The weight is either a smoothed tube around a curve (quintic ramp of width
delta from 1 to 0, reaching 0 at distance delta0) or the sharp indicator of
a square-aligned domain, in which case the quadrature is exact.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dalembert import (
    _GAUSS8_WEIGHTS,
    PiecewiseInitialData,
    _gauss8_pieces,
    _pair_on_pieces,
    eval_phi,
    gamma_table,
    leapfrog_solve,
    profile_tables,
    project,
    terminal_velocity,
    time_cells,
)
from .grid import Curve, SquareUnion, _slab_cells, cover_cells

__all__ = [
    "WeightProfile",
    "SmoothedTube",
    "IndicatorRegion",
    "basis_tables",
    "lattice_plan",
    "assemble_gram",
    "hum_rhs",
    "solve_hum",
    "solve_tridiagonal",
    "hum_control",
    "HumSolution",
    "control_density",
    "forward_verify",
]


class WeightProfile:
    """Even cutoff profile: 1 up to delta0-delta, quintic ramp to 0 at delta0.

    The ramp p(tau) = 1 - 10 tau^3 + 15 tau^4 - 6 tau^5 has two vanishing
    derivatives at both ends, so the weight is C^2 in space.
    """

    def __init__(self, delta0, delta=None):
        delta0 = float(delta0)
        if delta is None:
            delta = delta0 / 4.0
        delta = float(delta)
        if not 0 < delta0:
            raise ValueError(f"delta0 must be positive, got {delta0}")
        if not 0 < delta < delta0:
            raise ValueError(
                f"ramp width must satisfy 0 < delta < delta0, got delta={delta}, delta0={delta0}"
            )
        self.delta0 = delta0
        self.delta = delta

    def eta(self, s):
        s = np.abs(np.asarray(s, dtype=float))
        tau = np.clip((s - (self.delta0 - self.delta)) / self.delta, 0.0, 1.0)
        return 1.0 + tau**3 * (-10.0 + tau * (15.0 - 6.0 * tau))

    def eta_prime(self, s):
        s = np.asarray(s, dtype=float)
        a = np.abs(s)
        tau = (a - (self.delta0 - self.delta)) / self.delta
        band = (tau > 0.0) & (tau < 1.0)
        tau = np.clip(tau, 0.0, 1.0)
        mag = -30.0 * tau**2 * (1.0 - tau) ** 2 / self.delta
        return np.where(band, np.sign(s) * mag, 0.0)


@dataclass
class SmoothedTube:
    """Weight chi(x, t) = eta(x - gamma(t)) around a piecewise-affine curve."""

    curve: Curve
    profile: WeightProfile

    @classmethod
    def around(cls, x0, T, delta0, delta=None):
        """Cylindrical tube at fixed center x0 (a constant curve on 128 nodes)."""
        return cls(Curve.constant(x0, T, 128), WeightProfile(delta0, delta))

    @property
    def T(self):
        return self.curve.T

    def chi(self, x, t):
        return self.profile.eta(np.asarray(x, dtype=float) - self.curve(t))

    def chi_x(self, x, t):
        """Spatial derivative of the weight; no caller until ROADMAP item 2's covector."""
        return self.profile.eta_prime(np.asarray(x, dtype=float) - self.curve(t))


@dataclass
class IndicatorRegion:
    """Sharp weight: the indicator of a square-aligned domain."""

    domain: SquareUnion

    @property
    def T(self):
        return float(self.domain.T)

    def chi(self, x, t):
        return self.domain.contains(x, t).astype(float)


def basis_tables(level):
    """Stacked per-period profile tables Phi of the 2L-1 basis waves.

    Basis wave k is the datum of the unit coefficient vector e_k (see
    :func:`datum_from_coefficients`): L-1 unit hats (position data), then L
    cell indicators (velocity data).  Each row holds, on the 2L period cells,
    the node values of F at the cells' left ends, the slopes of F, then the
    same for G.
    """
    L = int(level)
    gtab = gamma_table(*_coefficient_slopes(L, np.eye(2 * L - 1)))
    return profile_tables(gtab).reshape(2 * L - 1, 8 * L)


@functools.lru_cache(maxsize=16)
def _cell_rules(h, q=4):
    """Quadrature offsets/weights on one lattice cell and its cut triangles.

    Returns (du, dv, w, powers): du, dv and w are (5, q^2) tables, row 0 the
    full-cell tensor rule, rows 1-4 the half-cell triangle rules of the strip
    boundary cuts at x=0, x=1, t=0, t=T (the category order of
    :class:`LatticePlan`).  Weights include the cell Jacobian but not the
    (u,v)->(x,t) factor 1/2.  powers[c] is the (q^2, 6) table (1, du, dv, du^2,
    dv^2, du dv) of rule c, so ``0.5 * w @ powers[c]`` gives the six moments of
    each row of weights w on it.  The tables are cached per (h, q), so they are
    read-only.
    """
    g, w = np.polynomial.legendre.leggauss(q)
    x1, w1 = (g + 1.0) * h / 2.0, w * h / 2.0
    s01, ws = (g + 1.0) / 2.0, w / 2.0
    S, R = np.repeat(s01, q), np.tile(s01, q)
    W = np.repeat(ws, q) * np.tile(ws, q) * (h * h * S)
    # x0 keeps du+dv >= h, x1 du+dv <= h, t0 du >= dv, tT du <= dv
    du = np.stack([np.repeat(x1, q), h * (1.0 - S * R), h * S * R, h * S, h * S * R])
    dv = np.stack([np.tile(x1, q), h * (1.0 - S * (1.0 - R)), h * S * (1.0 - R), h * S * R, h * S])
    w = np.stack([np.repeat(w1, q) * np.tile(w1, q), W, W, W, W])
    powers = np.stack([np.ones_like(du), du, dv, du * du, dv * dv, du * dv], axis=-1)
    for arr in (du, dv, w, powers):
        arr.flags.writeable = False
    return du, dv, w, powers


LatticePlan = namedtuple("LatticePlan", "level M A B offsets phi")


def lattice_plan(level, T, tables=True):
    """What every Gram at level L on (0,1) x (0,T) shares, as a read-only :class:`LatticePlan`.

    It holds L, the M = T*L time cells, the cells (A, B) meeting the strip and, if
    ``tables``, the basis tables phi (else None).  The cells form five slabs, each in (a, b)
    order: full cells (1 <= a-b <= 2M-1, 0 <= a+b <= 2L-2), then those cut by x=0 (a+b = -1),
    x=1 (a+b = 2L-1), t=0 (a-b = 0) and t=T (a-b = 2M); slab c is A[offsets[c]:offsets[c+1]].
    """
    L = int(level)
    M = time_cells(T, L)
    n, m = 2 * L - 1, 2 * M
    slabs = ((1, m - 1, 0, n - 1), (0, m, -1, -1), (0, m, n, n), (0, 0, -1, n), (m, m, -1, n))
    cells = [_slab_cells(*slab) for slab in slabs]
    A, B = (np.concatenate(c) for c in zip(*cells))
    offsets = np.cumsum([0] + [a.size for a, _ in cells])
    phi = basis_tables(L) if tables else None
    for arr in (A, B, offsets) + ((phi,) if tables else ()):
        arr.flags.writeable = False
    return LatticePlan(L, M, A, B, offsets, phi)


def _tube_bands(region, A, B, h):
    """Masks of the cells (A, B) that can meet the tube's weight or its ramp."""
    xc = (A + B + 1) * (h / 2.0)
    tc = (A - B) * (h / 2.0)
    dist = np.abs(xc - region.curve(np.clip(tc, 0.0, region.T)))
    # |x - xc| + |t - tc| <= h/2 on a cell, so |x - gamma(t)| moves by <= max(1, Lip) h/2
    slack = max(1.0, region.curve.lipschitz_estimate()) * h / 2.0 + 1e-6 * h
    delta0, delta = region.profile.delta0, region.profile.delta
    return dist <= delta0 + slack, dist > delta0 - delta - slack


def _gram_cells(region, L, plan, quad):
    """Period cells (a, b) of the cells the weight meets and their moments (q x q Gauss rule).

    A smoothed tube keeps the plan's cells where its weight can be nonzero and
    evaluates it, in one call, only on those that can meet its ramp (elsewhere
    it is 1); the moments come from one product per category, since a row's
    rounding depends on its product's row count.  An indicator region keeps
    the level-L cells of its domain's cover (time window included), where the
    weight is 1 and the result is exact.
    """
    h = 1.0 / L
    du, dv, w, powers = _cell_rules(h, quad)
    if isinstance(region, IndicatorRegion):
        dom = region.domain
        if L % dom.level != 0:
            raise ValueError(
                f"level {L} must be a multiple of the domain level {dom.level}"
            )
        A, B = cover_cells(dom, L)
        mom = 0.5 * w[:1] @ powers[0]  # one row: the weight is 1
        return A % (2 * L), B % (2 * L), np.broadcast_to(mom, (A.size, 6))
    if not isinstance(region, SmoothedTube):
        raise TypeError(f"unsupported region type {type(region).__name__}")
    near, ramp = _tube_bands(region, plan.A, plan.B, h)
    cat = np.repeat(np.arange(5), np.diff(plan.offsets))[near]
    A, B, r = plan.A[near], plan.B[near], ramp[near]
    u, v = A[r][:, None] * h + du[cat[r]], B[r][:, None] * h + dv[cat[r]]
    chi = region.chi((u + v) / 2.0, (u - v) / 2.0)  # before wchi, which would raise the peak
    wchi = w[cat]  # rule weights times chi; the plateau rows keep chi = 1
    wchi[r] *= chi
    off = np.searchsorted(cat, np.arange(6))
    mom = [0.5 * wchi[off[c] : off[c + 1]] @ powers[c] for c in range(5)]
    return A % (2 * L), B % (2 * L), np.concatenate(mom)


def assemble_gram(region, level, quad=4, plan=None):
    """Gram matrix of the basis waves under the region's weight.

    ``plan`` is the :func:`lattice_plan` of (level, region.T); a caller that
    assembles many Grams at one level passes one.  Without it (or its tables)
    the basis tables are built once the cell moments are freed, which keeps
    them out of the peak; a tube builds the plan's cells first.

    A basis wave is fn + fs du + gn + gs dv on a cell whose u and v fold onto the
    period cells a and b, so a product of two waves pairs F's node value and
    slope on a (moments w, w du, w du^2 of :func:`_gram_cells`), G's on b (w,
    w dv, w dv^2), and F's with G's (w, w dv, w du, w du dv).  Summed over the
    cells, the F-F and G-G blocks of the moment table are four diagonals each
    (D_F, D_G) and the cross block M_FG is 4L x 4L; with Phi = [Phi_F | Phi_G]
    the basis tables, G is the symmetric part of [Phi_F D_F | Phi_G D_G + 2 Phi_F M_FG] Phi^T.
    """
    L = int(level)
    if plan is None and isinstance(region, SmoothedTube):
        plan = lattice_plan(L, region.T, tables=False)
    elif plan is not None and (plan.level, plan.M) != (L, time_cells(region.T, L)):
        raise ValueError(f"the lattice plan is for level {plan.level} and T = "
                         f"{plan.M / plan.level}, not level {L} and T = {region.T}")
    n = 2 * L
    a, b, mom = _gram_cells(region, L, plan, quad)
    f0, f1, f3 = (np.bincount(a, mom[:, k], minlength=n) for k in (0, 1, 3))
    g0, g1, g4 = (np.bincount(b, mom[:, k], minlength=n) for k in (0, 2, 4))
    ab = a * n + b
    fg = [np.bincount(ab, mom[:, k], minlength=n * n).reshape(n, n) for k in (0, 2, 1, 5)]
    m_fg = np.block([fg[:2], fg[2:]])  # rows: F nodes, F slopes; columns: G nodes, G slopes
    phi = basis_tables(L) if plan is None or plan.phi is None else plan.phi
    del a, b, ab, mom, fg, plan  # freed before the products (so is a plan built here)
    nf, sf, ng, sg = np.split(phi, 4, axis=1)
    x = np.hstack([nf * f0 + sf * f1, nf * f1 + sf * f3, ng * g0 + sg * g1, ng * g1 + sg * g4])
    x[:, 2 * n :] += 2.0 * (phi[:, : 2 * n] @ m_fg)
    G = x @ phi.T
    return 0.5 * (G + G.T)


def hum_rhs(level, y0, y1=None, breakpoints=()):
    """Duality pairings of the basis data against the control data.

    Hat entries are -integral(hat_k * y1); cell entries are the cell
    integrals of y0.  Quadrature splits cells at the given breakpoints; y0
    and y1 are each called once, on the 1-D array of all Gauss nodes.
    """
    L = int(level)
    xs, half, cell = _gauss8_pieces(L, breakpoints)
    hw = half[:, None] * _GAUSS8_WEIGHTS
    b = np.zeros(2 * L - 1)
    b[L - 1 :] = np.bincount(cell, _pair_on_pieces(hw, y0, xs), minlength=L)
    if y1 is not None:
        k = np.stack([cell + 1, cell])  # cell m: hat m+1 rises, hat m falls
        hat = 1.0 - L * np.abs(xs - (k / L)[:, :, None])
        dots = _pair_on_pieces(hw * hat, y1, xs)  # rising sides first: each hat sums left to right
        b[: L - 1] = -np.bincount(k.ravel(), dots.ravel(), minlength=L + 1)[1:L]
    return b


def _coefficient_slopes(L, z):
    """Slopes (alpha, beta) of node values z[..., :L-1] and cell velocities z[..., L-1:]."""
    z = np.asarray(z, dtype=float)
    return L * np.diff(z[..., : L - 1], axis=-1, prepend=0.0, append=0.0), z[..., L - 1 :]


def datum_from_coefficients(level, z):
    """Piecewise datum with node values z[:L-1] and cell velocities z[L-1:]."""
    L = int(level)
    return PiecewiseInitialData(L, *_coefficient_slopes(L, z))


@dataclass
class HumSolution:
    """Minimizer of the conjugate functional and derived quantities."""

    z: np.ndarray
    cost: float
    residual: float
    data: PiecewiseInitialData
    region: object
    level: int


def solve_hum(G, b):
    """Solve G z = b for a vector or matrix b: (z, relative residual).

    Cholesky only checks definiteness and LU solves; either failing is an error,
    and so is a relative residual above 1e-6 (a singular G with roundoff pivots).
    """
    try:
        np.linalg.cholesky(G)
        z = np.linalg.solve(G, b)
        res = float(np.linalg.norm(G @ z - b) / (np.linalg.norm(b) or 1.0))
        if not res <= 1e-6:
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise RuntimeError(
            "ill-conditioned conjugate system - the region may fail to "
            "observe every characteristic or the level is too coarse"
        ) from None
    return z, res


def solve_tridiagonal(diag, off, rhs):
    """Solve the SPD tridiagonal system (n ``diag``, n-1 ``off``) by elimination on floats."""
    d, e, x = (np.asarray(v, dtype=float).tolist() for v in (diag, off, rhs))
    for k in range(1, len(d)):
        m = e[k - 1] / d[k - 1]
        d[k] -= m * e[k - 1]
        x[k] -= m * x[k - 1]
    if d:
        x[-1] /= d[-1]
    for k in range(len(d) - 2, -1, -1):
        x[k] = (x[k] - e[k] * x[k + 1]) / d[k]
    return np.array(x, dtype=float)


def hum_control(region, b, quad=4, plan=None):
    """Solve the conjugate system G z = b (``plan`` as in :func:`assemble_gram`).

    ``b`` is a :func:`hum_rhs` vector, so the level is (len(b) + 1) // 2.
    """
    if len(b) % 2 == 0:
        raise ValueError(f"a right-hand side has 2L - 1 entries, got {len(b)}")
    L = (len(b) + 1) // 2
    z, res = solve_hum(assemble_gram(region, L, quad=quad, plan=plan), b)
    return HumSolution(
        z=z,
        cost=float(b @ z),
        residual=res,
        data=datum_from_coefficients(L, z),
        region=region,
        level=L,
    )


def control_density(solution, x, t):
    """The control's space-time density f = phi * chi."""
    return eval_phi(solution.data, x, t) * solution.region.chi(x, t)


def forward_verify(solution, y0, y1=None, breakpoints=(), grid_m=None):
    """Drive the controlled wave on a fine grid and measure the residual.

    Solves y_tt = y_xx + phi*chi with the unit-CFL scheme on grid_m cells
    (a multiple of the control level; default four times) and reports the
    terminal-to-initial energy ratio sqrt(E(T)/E(0)).  Zero data gives
    ratio 0 by convention.

    The forcing is the control density at the grid nodes, built once per
    block of time levels (see :func:`leapfrog_solve`).  Every node
    (i/m, k/m) lies on the level-m characteristic lattice, so phi there is
    F((i+k)/m) + G((i-k)/m): each block gathers its rows from windows of the
    2m node values of F and G.  A smoothed tube evaluates its weight only on
    the columns within delta0 + 1/m of the curve over the block; elsewhere
    the weight is exactly 0.  At power-of-two m the forcing is bitwise
    :func:`control_density`; otherwise i/m + k/m may differ from (i+k)/m in
    the last bit.
    """
    L = solution.level
    m = int(grid_m) if grid_m is not None else 4 * L
    if m % L != 0:
        raise ValueError(f"grid_m must be a multiple of the control level {L}")
    region = solution.region
    T = region.T
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    data = project(y0, y1 if y1 is not None else zero, m, breakpoints)

    j = np.arange(2 * m) / m
    # row s holds the profile at the lattice nodes s .. s+m-2 (mod 2m); at time level k
    # the interior nodes i = 1 .. m-1 sit at u-node i+k and v-node i-k
    F_rows, G_rows = (
        sliding_window_view(np.tile(tab, 2), m - 1)
        for tab in (solution.data.F(j), solution.data.G(j))
    )

    def forcing(x, t):
        k = np.rint(t[:, 0] * m).astype(np.int64)
        phi = F_rows[(k + 1) % (2 * m)] + G_rows[(1 - k) % (2 * m)]
        if not isinstance(region, SmoothedTube):
            return phi * region.chi(x, t)
        chi = np.zeros_like(phi)
        g = region.curve(t)
        reach = region.profile.delta0 + 1.0 / m
        lo, hi = np.searchsorted(x[0], [g.min() - reach, g.max() + reach])
        chi[:, lo:hi] = region.chi(x[:, lo:hi], t)
        return phi * chi

    nodes = np.arange(m + 1) / m
    Y = leapfrog_solve(m, T, data.phi0(nodes), data.beta, forcing)
    vT = terminal_velocity(Y, 1.0 / m)
    e0 = 0.5 * (m * float(np.sum(np.diff(Y[0]) ** 2)) + float(data.beta @ data.beta) / m)
    eT = 0.5 * (
        m * float(np.sum(np.diff(Y[-1]) ** 2))
        + float(np.trapezoid(vT**2, dx=1.0 / m))
    )
    ratio = float(np.sqrt(eT / e0)) if e0 > 0 else 0.0
    return {"ratio": ratio, "energy_initial": e0, "energy_terminal": eT}
