"""Characteristic lattice geometry for the 1D wave equation on (0, 1).

The solution of the wave equation is transported along the characteristic
coordinates u = x + t and v = x - t.  A uniform subdivision of [0, 1] into
``n`` intervals induces a lattice of *elementary squares* in the (u, v)
plane; each square is addressed by a pair of nonzero integers (i, j) where
u runs over the i-th extended interval and v over the j-th.  Extended
interval indices are reduced to the fundamental index set

    I_n = {-n, ..., -1, 1, ..., n}

by the folding map induced by the odd 2-periodic extension of the initial
data (see :func:`fold_index`).

Grid coordinates are kept as exact rationals (`fractions.Fraction`) so that
square covers and inclusion tests are exact set operations; floating point
enters only at quadrature time.

The module also defines the three supported space-time observation-domain
variants (axis square unions, tubes around a moving curve, and cylinders),
their square covers, epsilon-interiors and a sampled geometric-optics check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "fold_index",
    "fold_indices",
    "interval_bounds",
    "interval_midpoint",
    "square_center",
    "square_corners",
    "square_area",
    "subsquare_indices",
    "Curve",
    "SquareUnion",
    "CurveTube",
    "Cylinder",
    "ErodedDomain",
    "squares_in_time_slab",
    "squares_in_domain",
    "epsilon_interior",
    "goc_check",
    "domain_from_json",
    "domain_to_json",
]


def _as_fraction(x):
    """Exact rational from ints, Fractions, floats and numeric strings.

    Strings and integers convert exactly; floats are taken at their exact
    binary value (deterministic, no decimal guessing).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(float(x))


def fold_index(i, n):
    """Reduce an extended interval index to the fundamental set I_n.

    The odd 2-periodic extension of data on (0, 1) maps every extended
    interval onto one of the 2n fundamental intervals; this returns that
    index in {-n..-1, 1..n}.  For 1 <= i <= n it is the identity, and
    fold_index(-i, n) == -fold_index(i, n).

    Parameters
    ----------
    i : int
        Nonzero extended interval index.
    n : int
        Subdivision level.

    Returns
    -------
    int
        Folded index in {-n, ..., -1, 1, ..., n}.
    """
    if i == 0:
        raise ValueError("interval index 0 does not exist (indices are nonzero)")
    if n < 1:
        raise ValueError(f"subdivision level must be >= 1, got {n}")
    sign = 1 if i > 0 else -1
    r = (abs(i) - 1) % (2 * n)
    folded = r + 1 if r < n else r - 2 * n
    return sign * folded


def fold_indices(idx, n):
    """Vectorized :func:`fold_index` for integer arrays (no zero entries)."""
    idx = np.asarray(idx)
    if np.any(idx == 0):
        raise ValueError("interval index 0 does not exist (indices are nonzero)")
    sign = np.sign(idx)
    r = (np.abs(idx) - 1) % (2 * n)
    return sign * np.where(r < n, r + 1, r - 2 * n)


def interval_bounds(e, n):
    """Endpoints of the extended interval I_e as exact rationals.

    I_e = [x_{e-1}, x_e] for e > 0 and [x_e, x_{e+1}] for e < 0, so that
    I_{-e} is the mirror image of I_e.
    """
    if e == 0:
        raise ValueError("interval index 0 does not exist (indices are nonzero)")
    if e > 0:
        return Fraction(e - 1, n), Fraction(e, n)
    return Fraction(e, n), Fraction(e + 1, n)


def interval_midpoint(e, n):
    """Midpoint m_e of the extended interval I_e."""
    lo, hi = interval_bounds(e, n)
    return (lo + hi) / 2


def square_center(ij, n):
    """Center (x, t) of the elementary square with u in I_i, v in I_j.

    Returns exact rationals: x = (m_i + m_j)/2, t = (m_i - m_j)/2.
    """
    i, j = ij
    mi, mj = interval_midpoint(i, n), interval_midpoint(j, n)
    return (mi + mj) / 2, (mi - mj) / 2


def square_corners(ij, n):
    """The four (x, t) corners of an elementary square, exact rationals.

    Order: (u_lo,v_lo), (u_hi,v_lo), (u_lo,v_hi), (u_hi,v_hi) mapped through
    x = (u+v)/2, t = (u-v)/2.
    """
    i, j = ij
    ulo, uhi = interval_bounds(i, n)
    vlo, vhi = interval_bounds(j, n)
    return [
        ((u + v) / 2, (u - v) / 2)
        for v in (vlo, vhi)
        for u in (ulo, uhi)
    ]


def square_area(n):
    """Area 1/(2 n^2) of every elementary square at level n."""
    return Fraction(1, 2 * n * n)


def _index_range(e, p):
    """Subinterval indices of I_e under a p-fold refinement."""
    if e > 0:
        return range(p * (e - 1) + 1, p * e + 1)
    return range(p * e, p * (e + 1))


def subsquare_indices(ij, p):
    """The p^2 level-(p n) squares whose union is the level-n square ``ij``."""
    if p < 1:
        raise ValueError(f"refinement factor must be >= 1, got {p}")
    i, j = ij
    return {(ii, jj) for ii in _index_range(i, p) for jj in _index_range(j, p)}


# ---------------------------------------------------------------------------
# observation domains
# ---------------------------------------------------------------------------


class Curve:
    """Piecewise-affine curve t -> gamma(t) on uniform nodes over [0, T].

    Parameters
    ----------
    times : array_like
        Strictly increasing, uniformly spaced node times t_i = i*T/N.
    values : array_like
        Node values gamma(t_i).
    """

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("times and values must be 1d arrays of equal length >= 2")
        dt = np.diff(times)
        if np.any(dt <= 0):
            raise ValueError("curve times must be strictly increasing")
        if not np.allclose(dt, dt[0], rtol=1e-12, atol=1e-12 * max(1.0, times[-1])):
            raise ValueError("curve times must be uniformly spaced")
        if times[0] != 0.0:
            raise ValueError("curve must start at t = 0")
        self.times = times
        self.values = values

    @classmethod
    def constant(cls, x0, T, n_nodes=128):
        """Constant curve gamma == x0 on n_nodes+1 uniform nodes."""
        times = np.linspace(0.0, T, n_nodes + 1)
        return cls(times, np.full(n_nodes + 1, float(x0)))

    @property
    def T(self):
        return float(self.times[-1])

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])

    def __call__(self, t):
        """Piecewise-affine evaluation, clamped to [0, T]."""
        return np.interp(t, self.times, self.values)

    def lipschitz_estimate(self):
        """max |gamma_i - gamma_{i-1}| / dt over the nodes."""
        return float(np.max(np.abs(np.diff(self.values))) / self.dt)

    def h1_seminorm_sq(self):
        """Exact integral of gamma'(t)^2 for the piecewise-affine curve."""
        return float(np.sum(np.diff(self.values) ** 2) / self.dt)

    def with_values(self, values):
        return Curve(self.times, values)


@dataclass
class SquareUnion:
    """Observation domain given as the interior of a union of closed squares."""

    level: int
    squares: frozenset
    T: Fraction
    t_lo: Fraction = field(default=Fraction(0))
    t_hi: Fraction = None  # defaults to T

    def __post_init__(self):
        self.squares = frozenset((int(i), int(j)) for i, j in self.squares)
        self.T = _as_fraction(self.T)
        self.t_lo = _as_fraction(self.t_lo)
        self.t_hi = self.T if self.t_hi is None else _as_fraction(self.t_hi)
        for ij in self.squares:
            if not square_in_time_slab(ij, self.level, self.T):
                raise ValueError(
                    f"square {ij} at level {self.level} lies outside the "
                    f"space-time strip (0,1) x (0,{self.T})"
                )

    def is_empty(self):
        return not self.squares

    def contains(self, x, t):
        """Vectorized membership, up to the measure-zero square boundaries."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        n = self.level
        u, v = x + t, x - t
        iu = np.floor(u * n).astype(np.int64)
        iv = np.floor(v * n).astype(np.int64)
        # cell [k/n, (k+1)/n] has extended index k+1 for k >= 0, k for k < 0
        ii = np.where(iu >= 0, iu + 1, iu)
        jj = np.where(iv >= 0, iv + 1, iv)
        keys = _pack_keys(ii, jj)
        inside = np.isin(keys, self._key_array())
        win = (t > float(self.t_lo)) & (t < float(self.t_hi))
        return inside & win

    def _key_array(self):
        if not hasattr(self, "_keys"):
            if self.squares:
                arr = np.array(sorted(self.squares), dtype=np.int64)
                self._keys = _pack_keys(arr[:, 0], arr[:, 1])
            else:
                self._keys = np.empty(0, dtype=np.int64)
        return self._keys

    def uv_rects(self):
        """The squares as exact closed rectangles [ulo,uhi]x[vlo,vhi] in (u,v)."""
        n = self.level
        return [
            (interval_bounds(i, n), interval_bounds(j, n)) for i, j in sorted(self.squares)
        ]


@dataclass
class Cylinder:
    """Cylindrical domain (x0 - delta0, x0 + delta0) x (t_lo, t_hi)."""

    x0: Fraction
    delta0: Fraction
    T: Fraction
    t_lo: Fraction = field(default=Fraction(0))
    t_hi: Fraction = None

    def __post_init__(self):
        self.x0 = _as_fraction(self.x0)
        self.delta0 = _as_fraction(self.delta0)
        self.T = _as_fraction(self.T)
        self.t_lo = _as_fraction(self.t_lo)
        self.t_hi = self.T if self.t_hi is None else _as_fraction(self.t_hi)
        if not (self.delta0 <= self.x0 <= 1 - self.delta0):
            raise ValueError(
                f"cylinder must satisfy delta0 <= x0 <= 1 - delta0, "
                f"got x0={float(self.x0)}, delta0={float(self.delta0)}"
            )

    def is_empty(self):
        return self.delta0 <= 0 or self.t_hi <= self.t_lo

    def contains(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return (
            (np.abs(x - float(self.x0)) < float(self.delta0))
            & (t > float(self.t_lo))
            & (t < float(self.t_hi))
        )


@dataclass
class CurveTube:
    """Moving domain {(x, t) : |x - gamma(t)| < delta0, 0 < t < T}."""

    curve: Curve
    delta0: Fraction

    def __post_init__(self):
        self.delta0 = _as_fraction(self.delta0)
        d0 = float(self.delta0)
        vals = self.curve.values
        if np.any(vals < d0 - 1e-12) or np.any(vals > 1 - d0 + 1e-12):
            raise ValueError("tube centerline must satisfy delta0 <= gamma <= 1 - delta0")

    @property
    def T(self):
        return _as_fraction(self.curve.times[-1])

    t_lo = property(lambda self: Fraction(0))
    t_hi = property(lambda self: self.T)

    def is_empty(self):
        return self.delta0 <= 0

    def contains(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return (
            (np.abs(x - self.curve(t)) < float(self.delta0))
            & (t > 0.0)
            & (t < float(self.T))
        )


class ErodedDomain:
    """Points of a base domain at distance > eps from its boundary.

    Generic inner set used by :func:`epsilon_interior` for square unions;
    supports membership queries only (no square covers).
    """

    def __init__(self, base, eps):
        self.base = base
        self.eps = float(eps)
        self.T = base.T
        self._segments = _boundary_segments(base)

    def is_empty(self):
        return self._segments is None or self.base.is_empty()

    def contains(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        inside = self.base.contains(x, t)
        if self._segments is None:
            return np.zeros_like(inside, dtype=bool)
        d = _distance_to_segments(x, t, self._segments)
        return inside & (d > self.eps)


def _pack_keys(i, j):
    """Injective int64 key for index pairs (|i|,|j| < 2**31)."""
    return (np.asarray(i, dtype=np.int64) << 32) ^ (np.asarray(j, dtype=np.int64) & 0xFFFFFFFF)


def _boundary_segments(domain):
    """Boundary of a square-union domain as float (x, t) segments."""
    if not isinstance(domain, SquareUnion) or domain.is_empty():
        return None
    # a square side is on the boundary iff it is shared with no other square
    counts = {}
    for i, j in domain.squares:
        # sides keyed by (fixed axis, fixed index, cross-axis index)
        for key in (
            ("u", i - 1 if i > 0 else i, j),
            ("u", i if i > 0 else i + 1, j),
            ("v", j - 1 if j > 0 else j, i),
            ("v", j if j > 0 else j + 1, i),
        ):
            counts[key] = counts.get(key, 0) + 1
    n = domain.level
    a, b = [], []
    for (axis, fixed, cross), count in counts.items():
        if count != 1:
            continue
        f = Fraction(fixed, n)
        clo, chi = interval_bounds(cross, n)
        (u0, v0), (u1, v1) = ((f, clo), (f, chi)) if axis == "u" else ((clo, f), (chi, f))
        a.append((float(u0 + v0) / 2, float(u0 - v0) / 2))
        b.append((float(u1 + v1) / 2, float(u1 - v1) / 2))
    return np.array(a, dtype=float), np.array(b, dtype=float)


def _distance_to_segments(x, t, segments):
    """Euclidean (x, t) distance from points to the nearest segment."""
    a, b = segments
    p = np.stack([np.broadcast_arrays(x, t)[0], np.broadcast_arrays(x, t)[1]], axis=-1)
    p = p.reshape(-1, 1, 2)
    ab = (b - a)[None, :, :]
    ap = p - a[None, :, :]
    denom = np.sum(ab * ab, axis=-1)
    s = np.clip(np.sum(ap * ab, axis=-1) / denom, 0.0, 1.0)
    closest = a[None, :, :] + s[..., None] * ab
    d = np.sqrt(np.sum((p - closest) ** 2, axis=-1)).min(axis=1)
    return d.reshape(np.broadcast_arrays(x, t)[0].shape)


# ---------------------------------------------------------------------------
# square covers
# ---------------------------------------------------------------------------


def square_in_time_slab(ij, n, T):
    """Whether a level-n square's interior lies inside (0,1) x (0,T).

    Exact integer test on the characteristic corners: with lo/hi the integer
    interval endpoints (in units of 1/n), the interior lies in the slab iff
    lo(i)+lo(j) >= 0, hi(i)+hi(j) <= 2n, lo(i) >= hi(j) and
    hi(i) - lo(j) <= 2nT.
    """
    i, j = ij[0], ij[1]
    if i == 0 or j == 0:
        raise ValueError(f"square index {tuple(ij)} contains a zero component")
    ilo, ihi = (i - 1, i) if i > 0 else (i, i + 1)
    jlo, jhi = (j - 1, j) if j > 0 else (j, j + 1)
    if ilo + jlo < 0 or ihi + jhi > 2 * n:
        return False
    if ilo < jhi or Fraction(ihi - jlo) > 2 * n * _as_fraction(T):
        return False
    return True


def squares_in_time_slab(n, T):
    """All elementary squares at level n with interior inside (0,1) x (0,T)."""
    T = _as_fraction(T)
    squares = set()
    imax = math.ceil((1 + T) * n)
    for i in range(1, imax + 1):
        for j in range(-imax, n + 1):
            if j != 0 and square_in_time_slab((i, j), n, T):
                squares.add((i, j))
    return squares


def _curve_abs_dev_max(curve, x_of_t, t0, t1):
    """Max of |x(t) - gamma(t)| on [t0, t1] with x affine, gamma pw-affine.

    The maximum of a piecewise-affine function is attained at the endpoints
    or at the curve's interior nodes.
    """
    ts = [t0, t1]
    k0 = math.ceil(float(t0) / curve.dt)
    k1 = math.floor(float(t1) / curve.dt)
    for k in range(max(k0, 0), min(k1, len(curve.times) - 1) + 1):
        tk = float(curve.times[k])
        if float(t0) < tk < float(t1):
            ts.append(tk)
    return max(abs(x_of_t(tt) - float(curve(tt))) for tt in map(float, ts))


def _square_in_moving_domain(ij, n, domain):
    """Interior-inclusion test for cylinder / tube domains (edge-exact)."""
    i, j = ij
    ulo, uhi = interval_bounds(i, n)
    vlo, vhi = interval_bounds(j, n)
    t_min, t_max = (ulo - vhi) / 2, (uhi - vlo) / 2
    if t_min < domain.t_lo or t_max > domain.t_hi:
        return False
    d0 = domain.delta0
    if isinstance(domain, Cylinder):
        # |x - x0| <= delta0 at the four corners suffices (x0 constant)
        for v in (vlo, vhi):
            for u in (ulo, uhi):
                if abs((u + v) / 2 - domain.x0) > d0:
                    return False
        return True
    # tube: check the four edges; along each edge x(t) is affine in t
    curve, d0f = domain.curve, float(d0)
    edges = (
        (vlo, (ulo - vlo) / 2, (uhi - vlo) / 2),  # v fixed at vlo
        (vhi, (ulo - vhi) / 2, (uhi - vhi) / 2),  # v fixed at vhi
    )
    for v, ta, tb in edges:
        xf = lambda tt, vv=float(v): vv + tt  # x = v + t along constant-v edges
        if _curve_abs_dev_max(curve, xf, ta, tb) > d0f + 1e-14:
            return False
    edges_u = (
        (ulo, (ulo - vhi) / 2, (ulo - vlo) / 2),
        (uhi, (uhi - vhi) / 2, (uhi - vlo) / 2),
    )
    for u, ta, tb in edges_u:
        xf = lambda tt, uu=float(u): uu - tt  # x = u - t along constant-u edges
        if _curve_abs_dev_max(curve, xf, ta, tb) > d0f + 1e-14:
            return False
    return True


def _rect_covered(urange, vrange, rects):
    """Exact test: is [ulo,uhi]x[vlo,vhi] covered by the closed rectangles?

    Overlays the candidates' breakpoints and checks every elementary subcell
    midpoint for membership; all arithmetic is rational, hence exact.
    """
    ulo, uhi = urange
    vlo, vhi = vrange
    ubreaks = sorted({ulo, uhi} | {b for (ur, _) in rects for b in ur if ulo < b < uhi})
    vbreaks = sorted({vlo, vhi} | {b for (_, vr) in rects for b in vr if vlo < b < vhi})
    for ua, ub in zip(ubreaks[:-1], ubreaks[1:]):
        um = (ua + ub) / 2
        for va, vb in zip(vbreaks[:-1], vbreaks[1:]):
            vm = (va + vb) / 2
            if not any(ur[0] <= um <= ur[1] and vr[0] <= vm <= vr[1] for ur, vr in rects):
                return False
    return True


def squares_in_domain(domain, n):
    """Elementary squares at level n whose open interior lies in the domain.

    For a :class:`SquareUnion` at its own level this is the stored set; at
    other levels the inclusion is decided by an exact rational rectangle
    cover in characteristic coordinates.  For cylinders and tubes the test
    is corner/edge-exact for the piecewise-affine centerline.

    Returns a set of (i, j) index pairs (possibly empty).
    """
    if n < 1:
        raise ValueError(f"subdivision level must be >= 1, got {n}")
    if isinstance(domain, ErodedDomain):
        raise ValueError("square covers of eroded domains are not supported")
    if domain.is_empty():
        return set()
    if isinstance(domain, SquareUnion):
        if n == domain.level and domain.t_lo == 0 and domain.t_hi == domain.T:
            return set(domain.squares)
        rects = domain.uv_rects()
        # clip to the time window if one was set
        tw = (domain.t_lo, domain.t_hi)
        umin = min(r[0][0] for r in rects)
        umax = max(r[0][1] for r in rects)
        vmin = min(r[1][0] for r in rects)
        vmax = max(r[1][1] for r in rects)
        out = set()
        for ku in range(math.floor(umin * n), math.ceil(umax * n)):
            i = ku + 1 if ku >= 0 else ku
            ur = interval_bounds(i, n)
            for kv in range(math.floor(vmin * n), math.ceil(vmax * n)):
                j = kv + 1 if kv >= 0 else kv
                vr = interval_bounds(j, n)
                t_min, t_max = (ur[0] - vr[1]) / 2, (ur[1] - vr[0]) / 2
                if t_min < tw[0] or t_max > tw[1]:
                    continue
                if _rect_covered(ur, vr, rects):
                    out.add((i, j))
        return out
    # moving domains: enumerate candidates inside the slab, then test
    T = domain.T
    out = set()
    for ij in squares_in_time_slab(n, T):
        if _square_in_moving_domain(ij, n, domain):
            out.add(ij)
    return out


def epsilon_interior(domain, eps):
    """The subset of the domain at distance > eps from its boundary.

    Cylinders shrink exactly; tubes use the analytic inner approximation
    (half-width delta0/2 tube restricted to eps < t < T - eps, valid for
    eps below delta0 / (2 sqrt(M^2 + 1)) with M the Lipschitz estimate);
    square unions return a generic eroded-membership wrapper.  An empty
    result is returned as an empty :class:`SquareUnion`, not an error.
    """
    eps = _as_fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {float(eps)}")
    T = _as_fraction(domain.T)
    empty = SquareUnion(level=1, squares=frozenset(), T=T)
    if domain.is_empty():
        return empty
    if isinstance(domain, Cylinder):
        if domain.delta0 - eps <= 0 or T - 2 * eps <= 0:
            return empty
        inner = Cylinder(domain.x0, domain.delta0 - eps, T, t_lo=eps, t_hi=T - eps)
        return empty if inner.is_empty() else inner
    if isinstance(domain, CurveTube):
        M = domain.curve.lipschitz_estimate()
        margin = float(domain.delta0) / (2.0 * math.sqrt(M * M + 1.0))
        if float(eps) > margin or T - 2 * eps <= 0:
            return empty
        half = domain.delta0 / 2
        inner = CurveTube(domain.curve, half)
        return _TimeWindowed(inner, eps, T - eps)
    if isinstance(domain, SquareUnion):
        return ErodedDomain(domain, eps)
    raise TypeError(f"unsupported domain type {type(domain).__name__}")


class _TimeWindowed:
    """A domain restricted to a time window (used by tube interiors)."""

    def __init__(self, base, t_lo, t_hi):
        self.base = base
        self.t_lo = _as_fraction(t_lo)
        self.t_hi = _as_fraction(t_hi)
        self.T = base.T

    def is_empty(self):
        return self.base.is_empty() or self.t_hi <= self.t_lo

    def contains(self, x, t):
        t = np.asarray(t, dtype=float)
        return self.base.contains(x, t) & (t > float(self.t_lo)) & (t < float(self.t_hi))


def goc_check(domain, starts=1024, step=None):
    """Sampled geometric-optics check (a semi-decision).

    Traces both characteristic families from ``starts`` equidistant points of
    [0, 1] x {0}, reflecting at x = 0 and x = 1, and reports whether every
    ray meets the domain strictly before time T at the sampling resolution.
    A False result may be a resolution artifact; graph connectivity is the
    exact criterion for square-aligned domains.
    """
    if starts < 2:
        raise ValueError(f"need at least 2 ray starts, got {starts}")
    T = float(domain.T)
    if step is None:
        step = T / 4096.0
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if domain.is_empty():
        return False
    x0 = np.linspace(0.0, 1.0, starts)
    nt = int(math.floor(T / step)) + 1
    t = np.arange(nt) * step
    t = t[t < T]
    hit = np.zeros(starts, dtype=bool)
    for direction in (1.0, -1.0):
        w = x0[:, None] + direction * t[None, :]
        pos = np.abs(np.mod(w + 1.0, 2.0) - 1.0)  # reflect at 0 and 1
        inside = domain.contains(pos.ravel(), np.broadcast_to(t, w.shape).ravel())
        hit |= inside.reshape(w.shape).any(axis=1)
    return bool(hit.all())


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------


def domain_to_json(domain):
    """Serialize a domain to the documented JSON dict."""
    if isinstance(domain, SquareUnion):
        return {
            "type": "square_union",
            "T": _num(domain.T),
            "level": domain.level,
            "squares": [list(ij) for ij in sorted(domain.squares)],
        }
    if isinstance(domain, Cylinder):
        return {
            "type": "cylinder",
            "T": _num(domain.T),
            "x0": _num(domain.x0),
            "delta0": _num(domain.delta0),
        }
    if isinstance(domain, CurveTube):
        return {
            "type": "curve_tube",
            "T": domain.curve.T,
            "delta0": _num(domain.delta0),
            "curve": {
                "times": [float(t) for t in domain.curve.times],
                "values": [float(v) for v in domain.curve.values],
            },
        }
    raise TypeError(f"unsupported domain type {type(domain).__name__}")


def _num(fr):
    """Fraction to int when exact, else float (for JSON round-trips)."""
    return int(fr) if fr.denominator == 1 else float(fr)


def domain_from_json(doc):
    """Build a domain from its JSON dict (see :func:`domain_to_json`)."""
    try:
        kind = doc["type"]
    except (TypeError, KeyError):
        raise ValueError("domain document must be an object with a 'type' key")
    if kind == "square_union":
        return SquareUnion(
            level=int(doc["level"]),
            squares=frozenset(tuple(ij) for ij in doc["squares"]),
            T=_as_fraction(doc["T"]),
        )
    if kind == "cylinder":
        return Cylinder(
            x0=_as_fraction(doc["x0"]),
            delta0=_as_fraction(doc["delta0"]),
            T=_as_fraction(doc["T"]),
        )
    if kind == "curve_tube":
        curve = Curve(doc["curve"]["times"], doc["curve"]["values"])
        return CurveTube(curve=curve, delta0=_as_fraction(doc["delta0"]))
    raise ValueError(f"unknown domain type {kind!r}")
