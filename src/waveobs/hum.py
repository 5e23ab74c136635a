"""Null controls of minimal weighted norm by duality.

The control problem: steer y_tt = y_xx + f to rest at time T from data
(y0, y1), with f = v * chi supported in a moving region described by the
weight chi(x, t).  The minimal-cost control is f = phi * chi where phi is
the free wave whose initial datum minimizes the conjugate functional

    (1/2) * integral of phi^2 chi  -  <phi1, y0>  +  <phi0, y1>.

Restricted to piecewise data at level L (hat positions, cell-indicator
velocities) this is a finite quadratic minimization G z = b with Gram matrix
G_kl = integral of phi_k phi_l chi over the space-time strip.  Basis waves
are affine on every characteristic lattice cell, so the Gram is assembled
cell by cell in characteristic coordinates with tensor Gauss rules; cells
cut by the strip boundary are exact half-square triangles handled by a
collapsed (Duffy) tensor rule.

The weight is either a smoothed tube around a curve (quintic ramp of width
delta from 1 to 0, reaching 0 at distance delta0) or the sharp indicator of
a square-aligned domain, in which case the quadrature is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .dalembert import (
    PiecewiseInitialData,
    eval_phi,
    leapfrog_solve,
    project,
    terminal_velocity,
)
from .grid import Curve, SquareUnion, fold_indices

__all__ = [
    "WeightProfile",
    "SmoothedTube",
    "IndicatorRegion",
    "BasisTables",
    "basis_tables",
    "assemble_gram",
    "hum_rhs",
    "solve_hum",
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
    def around(cls, x0, T, delta0, delta=None, n_nodes=128):
        """Cylindrical tube at fixed center x0."""
        return cls(Curve.constant(x0, T, n_nodes), WeightProfile(delta0, delta))

    @property
    def T(self):
        return self.curve.T

    def gamma(self, t):
        return np.interp(t, self.curve.times, self.curve.values)

    def chi(self, x, t):
        return self.profile.eta(np.asarray(x, dtype=float) - self.gamma(t))

    def chi_x(self, x, t):
        """Spatial derivative of the weight (used by the shape gradient)."""
        return self.profile.eta_prime(np.asarray(x, dtype=float) - self.gamma(t))


@dataclass
class IndicatorRegion:
    """Sharp weight: the indicator of a square-aligned domain."""

    domain: SquareUnion

    @property
    def T(self):
        return float(self.domain.T)

    def chi(self, x, t):
        return self.domain.contains(x, t).astype(float)


@dataclass
class BasisTables:
    """Per-period profile tables of the 2L-1 basis waves.

    Basis order: L-1 unit hats (position data), then L cell indicators
    (velocity data).  Rows of ``fs``/``gs`` hold the slopes of F and G on
    the 2L period cells, ``fn``/``gn`` the cumulative node values.
    """

    level: int
    fn: np.ndarray
    fs: np.ndarray
    gn: np.ndarray
    gs: np.ndarray


def basis_tables(level):
    L = int(level)
    nb = 2 * L - 1
    alpha = np.zeros((nb, L))
    beta = np.zeros((nb, L))
    for k in range(1, L):  # hat at node k
        alpha[k - 1, k - 1] = L
        alpha[k - 1, k] = -L
    for m in range(L):  # indicator of cell m+1
        beta[L - 1 + m, m] = 1.0
    gpos = alpha + beta  # gamma_i, i = 1..L
    gneg = alpha - beta  # gamma_{-i}
    per = fold_indices(np.arange(1, 2 * L + 1), L)
    col = np.where(per > 0, per - 1, -per - 1)
    fs = np.where(per > 0, gpos[:, col], gneg[:, col]) / 2.0
    gs = np.where(per > 0, gneg[:, col], gpos[:, col]) / 2.0
    h = 1.0 / L
    fn = np.concatenate([np.zeros((nb, 1)), np.cumsum(fs, axis=1) * h], axis=1)
    gn = np.concatenate([np.zeros((nb, 1)), np.cumsum(gs, axis=1) * h], axis=1)
    return BasisTables(level=L, fn=fn, fs=fs, gn=gn, gs=gs)


def _cell_rules(h, q=4):
    """Quadrature offsets/weights on one lattice cell and its cut triangles.

    Returns the full-cell tensor rule and the four half-cell triangle rules
    (strip boundary cuts at x=0, x=1, t=0, t=T), each as (du, dv, w) with
    weights including the cell Jacobian but not the (u,v)->(x,t) factor 1/2.
    """
    g, w = np.polynomial.legendre.leggauss(q)
    x1 = (g + 1.0) * h / 2.0
    w1 = w * h / 2.0
    full = (
        np.repeat(x1, q),
        np.tile(x1, q),
        np.repeat(w1, q) * np.tile(w1, q),
    )
    s01 = (g + 1.0) / 2.0
    ws = w / 2.0
    S = np.repeat(s01, q)
    R = np.tile(s01, q)
    W = np.repeat(ws, q) * np.tile(ws, q) * (h * h * S)
    tri = {
        "x0": (h * (1.0 - S * R), h * (1.0 - S * (1.0 - R)), W),  # keep du+dv >= h
        "x1": (h * S * R, h * S * (1.0 - R), W),  # keep du+dv <= h
        "t0": (h * S, h * S * R, W),  # keep du >= dv
        "tT": (h * S * R, h * S, W),  # keep du <= dv
    }
    return full, tri


def _strip_cells(level, T):
    """All (a, b) lattice cells meeting the strip, split by boundary cut."""
    L = int(level)
    TLf = float(T) * L
    M = round(TLf)
    if abs(TLf - M) > 1e-9 or M < 1:
        raise ValueError(f"T*level must be a positive integer, got {TLf}")
    a = np.arange(0, L + M)
    b = np.arange(-M, L)
    A, B = np.meshgrid(a, b, indexing="ij")
    A, B = A.ravel(), B.ravel()
    s = A + B
    d = A - B
    keep = (s >= -1) & (s <= 2 * L - 1) & (d >= 0) & (d <= 2 * M)
    A, B, s, d = A[keep], B[keep], s[keep], d[keep]
    cats = {
        "full": (s >= 0) & (s <= 2 * L - 2) & (d >= 1) & (d <= 2 * M - 1),
        "x0": s == -1,
        "x1": s == 2 * L - 1,
        "t0": d == 0,
        "tT": d == 2 * M,
    }
    return A, B, cats


# On a cell a basis wave is fn + fs du + gn + gs dv, so a product of two
# waves pairs the cell factors (1, du, 1, dv) of (fn, fs, gn, gs).  Entry
# [i, j] indexes the weight moment (w, w du, w dv, w du^2, w dv^2, w du dv)
# that multiplies factors i and j.
_PAIR_MOMENT = np.array([[0, 1, 0, 2], [1, 3, 1, 5], [0, 1, 0, 2], [2, 5, 2, 4]])


def assemble_gram(region, level, quad=4):
    """Gram matrix of the basis waves under the region's weight.

    Every basis wave is F(u) + G(v) with F and G affine on each lattice
    cell, so the Gram needs only six moments of the weight per cell, taken
    with a q x q Gauss rule (collapsed rule on boundary triangles).  A
    smoothed tube keeps the cells where its weight can be nonzero; an
    indicator region keeps the cells of its squares refined to the level,
    where the weight is 1 and the result is exact.  The moments, folded
    onto the 2L period cells of u and v, form one 8L x 8L table M over the
    node values and slopes of F and G, and G = Phi M Phi^T with Phi the
    stacked basis tables.
    """
    L = int(level)
    h = 1.0 / L
    n = 2 * L
    full_rule, tri_rules = _cell_rules(h, quad)
    cells = []  # (A, B, rule, weight at the rule points of each cell)
    if isinstance(region, IndicatorRegion):
        dom = region.domain
        if L % dom.level != 0:
            raise ValueError(
                f"level {L} must be a multiple of the domain level {dom.level}"
            )
        p = L // dom.level
        lo = p * np.array(
            [(i - 1 if i > 0 else i, j - 1 if j > 0 else j) for i, j in dom.squares],
            dtype=np.int64,
        ).reshape(-1, 2)
        da, db = np.divmod(np.arange(p * p), p)
        A, B = (lo[:, :1] + da).ravel(), (lo[:, 1:] + db).ravel()
        cells.append((A, B, full_rule, full_rule[2][None, :]))
    elif isinstance(region, SmoothedTube):
        A, B, cats = _strip_cells(L, region.T)
        # restrict to cells whose center can meet the weight's support
        xc = (A + B + 1) * (h / 2.0)
        tc = (A - B) * (h / 2.0)
        lip = region.curve.lipschitz_estimate()
        margin = region.profile.delta0 + (1.0 + lip) * h
        near = np.abs(xc - region.gamma(np.clip(tc, 0.0, region.T))) <= margin
        for name, mask in cats.items():
            sel = mask & near
            rule = full_rule if name == "full" else tri_rules[name]
            u = A[sel][:, None] * h + rule[0]
            v = B[sel][:, None] * h + rule[1]
            chi = region.chi((u + v) / 2.0, (u - v) / 2.0)
            cells.append((A[sel], B[sel], rule, rule[2] * chi))
    else:
        raise TypeError(f"unsupported region type {type(region).__name__}")

    idx, val = [], []
    for A, B, (du, dv, _), w in cells:
        powers = np.column_stack([np.ones_like(du), du, dv, du * du, dv * dv, du * dv])
        mom = 0.5 * w @ powers  # 1/2: Jacobian of (u, v) -> (x, t)
        slots = np.stack([A % n, A % n + n, B % n + 2 * n, B % n + 3 * n], axis=1)
        idx.append((slots[:, :, None] * (4 * n) + slots[:, None, :]).ravel())
        val.append(np.broadcast_to(mom[:, _PAIR_MOMENT], (A.size, 4, 4)).ravel())
    M = np.bincount(np.concatenate(idx), np.concatenate(val), minlength=(4 * n) ** 2)
    t = basis_tables(L)
    phi = np.hstack([t.fn[:, :n], t.fs, t.gn[:, :n], t.gs])
    G = phi @ M.reshape(4 * n, 4 * n) @ phi.T
    return 0.5 * (G + G.T)


_G8_NODES, _G8_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _segment_quads(a, b, cuts):
    pts = [a] + [c for c in cuts if a < c < b] + [b]
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        yield mid + half * _G8_NODES, half * _G8_WEIGHTS


def hum_rhs(level, y0, y1=None, breakpoints=()):
    """Duality pairings of the basis data against the control data.

    Hat entries are -integral(hat_k * y1); cell entries are the cell
    integrals of y0.  Quadrature splits cells at the given breakpoints.
    """
    L = int(level)
    cuts = sorted(set(float(c) for c in breakpoints if 0.0 < float(c) < 1.0))
    b = np.zeros(2 * L - 1)
    for m in range(L):
        acc = 0.0
        for xs, ws in _segment_quads(m / L, (m + 1) / L, cuts):
            acc += float(ws @ np.asarray(y0(xs), dtype=float))
        b[L - 1 + m] = acc
    if y1 is not None:
        for k in range(1, L):
            acc = 0.0
            for lo, hi in (((k - 1) / L, k / L), (k / L, (k + 1) / L)):
                for xs, ws in _segment_quads(lo, hi, cuts):
                    hat = 1.0 - L * np.abs(xs - k / L)
                    acc += float((ws * hat) @ np.asarray(y1(xs), dtype=float))
            b[k - 1] = -acc
    return b


def datum_from_coefficients(level, z):
    """Piecewise datum with node values z[:L-1] and cell velocities z[L-1:]."""
    L = int(level)
    nodes = np.concatenate([[0.0], z[: L - 1], [0.0]])
    return PiecewiseInitialData(L, L * np.diff(nodes), np.asarray(z[L - 1 :], dtype=float))


@dataclass
class HumSolution:
    """Minimizer of the conjugate functional and derived quantities."""

    z: np.ndarray
    cost: float
    residual: float
    data: PiecewiseInitialData
    region: object
    level: int

    def control(self, x, t):
        return control_density(self, x, t)


def solve_hum(G, b):
    """Cholesky solve of the Gram system: (z, relative residual)."""
    try:
        z = cho_solve(cho_factor(G), b)
    except LinAlgError:
        raise RuntimeError(
            "ill-conditioned conjugate system - the region may fail to "
            "observe every characteristic or the level is too coarse"
        ) from None
    bn = float(np.linalg.norm(b))
    res = float(np.linalg.norm(G @ z - b)) / bn if bn > 0 else 0.0
    return z, res


def hum_control(region, level, y0, y1=None, breakpoints=(), quad=4):
    """Assemble and solve the conjugate system; return the full solution."""
    L = int(level)
    G = assemble_gram(region, L, quad=quad)
    b = hum_rhs(L, y0, y1, breakpoints)
    z, res = solve_hum(G, b)
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
    ratio 0 by convention.  The forcing is the control density, evaluated
    once per block of time levels (see :func:`leapfrog_solve`).
    """
    L = solution.level
    m = int(grid_m) if grid_m is not None else 4 * L
    if m % L != 0:
        raise ValueError(f"grid_m must be a multiple of the control level {L}")
    T = solution.region.T
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    data = project(y0, y1 if y1 is not None else zero, m, breakpoints)

    def forcing(x, t):
        return control_density(solution, x, t)

    nodes = np.arange(m + 1) / m
    Y = leapfrog_solve(m, T, data.phi0(nodes), data.beta, forcing)
    vT = terminal_velocity(Y, 1.0 / m)
    e0 = 0.5 * (m * float(np.sum(np.diff(Y[0]) ** 2)) + float(data.beta @ data.beta) / m)
    eT = 0.5 * (
        m * float(np.sum(np.diff(Y[-1]) ** 2))
        + float(np.trapezoid(vT**2, dx=1.0 / m))
    )
    ratio = float(np.sqrt(eT / e0)) if e0 > 0 else 0.0
    return {
        "ratio": ratio,
        "energy_initial": e0,
        "energy_terminal": eT,
        "terminal_position": Y[-1],
        "terminal_velocity": vT,
    }
