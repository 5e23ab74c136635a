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

Square covers run in integer lattice units: level-n cell k spans
[k/n, (k+1)/n] in u or v, and square (i, j) is the cell pair (lo(i), lo(j)).
Domain parameters stay exact rationals (`fractions.Fraction`), but they enter
a cover only as integer thresholds computed once per call, so every
per-square test is integer arithmetic (the tube's centerline test alone is
in floats).

The module also defines the three supported space-time observation-domain
variants (axis square unions, tubes around a moving curve, and cylinders),
their square covers and the epsilon-interiors of cylinders and tubes.
Whether a square-aligned domain observes is decided exactly by the
connectivity of its observation graph (see :mod:`waveobs.graph`).
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
    "squares_in_time_slab",
    "squares_in_domain",
    "epsilon_interior",
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
        ii = _index(np.floor(u * n).astype(np.int64))
        jj = _index(np.floor(v * n).astype(np.int64))
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
    """Moving domain {(x, t) : |x - gamma(t)| < delta0, t_lo < t < t_hi}."""

    curve: Curve
    delta0: Fraction
    t_lo: Fraction = field(default=Fraction(0))
    t_hi: Fraction = None  # defaults to T

    def __post_init__(self):
        self.delta0 = _as_fraction(self.delta0)
        self.t_lo = _as_fraction(self.t_lo)
        self.t_hi = self.T if self.t_hi is None else _as_fraction(self.t_hi)
        d0 = float(self.delta0)
        vals = self.curve.values
        if np.any(vals < d0 - 1e-12) or np.any(vals > 1 - d0 + 1e-12):
            raise ValueError("tube centerline must satisfy delta0 <= gamma <= 1 - delta0")

    @property
    def T(self):
        return _as_fraction(self.curve.times[-1])

    def is_empty(self):
        return self.delta0 <= 0 or self.t_hi <= self.t_lo

    def contains(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return (
            (np.abs(x - self.curve(t)) < float(self.delta0))
            & (t > float(self.t_lo))
            & (t < float(self.t_hi))
        )


def _pack_keys(i, j):
    """Injective int64 key for index pairs (|i|,|j| < 2**31)."""
    return (np.asarray(i, dtype=np.int64) << 32) ^ (np.asarray(j, dtype=np.int64) & 0xFFFFFFFF)


# ---------------------------------------------------------------------------
# square covers
# ---------------------------------------------------------------------------


def _cell(i):
    """Lattice cell k of the extended index i, so that I_i = [k/n, (k+1)/n]."""
    return i - 1 if i > 0 else i


def _index(k):
    """Extended indices of lattice cells (inverse of :func:`_cell`, vectorized)."""
    return np.where(k >= 0, k + 1, k)


def _index_pairs(a, b):
    """Set of (i, j) index pairs of the lattice cells (a, b)."""
    return set(zip(_index(a).tolist(), _index(b).tolist()))


def square_in_time_slab(ij, n, T):
    """Whether a level-n square's interior lies inside (0,1) x (0,T).

    Exact integer test on the lattice cells a = lo(i), b = lo(j) (in units
    of 1/n): the interior lies in the slab iff a+b >= 0, a+b+2 <= 2n, a > b
    and a-b+1 <= floor(2nT).
    """
    i, j = ij[0], ij[1]
    if i == 0 or j == 0:
        raise ValueError(f"square index {tuple(ij)} contains a zero component")
    a, b = _cell(i), _cell(j)
    return 0 <= a + b <= 2 * n - 2 and b < a <= b - 1 + math.floor(2 * n * _as_fraction(T))


def _slab_cells(d_lo, d_hi, s_lo, s_hi):
    """Lattice cells (a, b) with d_lo <= a-b <= d_hi and s_lo <= a+b <= s_hi.

    The time of a square's center is (a-b)/(2n) and its position
    (a+b+1)/(2n); a+b and a-b have equal parity.
    """
    d, s = np.meshgrid(np.arange(d_lo, d_hi + 1), np.arange(s_lo, s_hi + 1), indexing="ij")
    keep = (d - s) % 2 == 0
    return (s + d)[keep] // 2, (s - d)[keep] // 2


def squares_in_time_slab(n, T):
    """All elementary squares at level n with interior inside (0,1) x (0,T)."""
    return _index_pairs(*_slab_cells(1, math.floor(2 * n * _as_fraction(T)) - 1, 0, 2 * n - 2))


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


def _square_in_tube(a, b, n, tube):
    """Edge test of the square on cells (a, b) against a tube.

    Along each edge x is affine in t (x = v + t on constant-v edges, x = u - t
    on constant-u edges), so the edge lies within delta0 of the
    piecewise-affine centerline iff its endpoints and the curve nodes
    between them do.  Edge times are the floats k/(2n).
    """
    t_min, t_mid, t_max = ((a - b + k) / (2 * n) for k in (-1, 0, 1))
    edges = (
        (lambda tt, v=b / n: v + tt, t_mid, t_max),
        (lambda tt, v=(b + 1) / n: v + tt, t_min, t_mid),
        (lambda tt, u=a / n: u - tt, t_min, t_mid),
        (lambda tt, u=(a + 1) / n: u - tt, t_mid, t_max),
    )
    d0 = float(tube.delta0) + 1e-14
    return all(_curve_abs_dev_max(tube.curve, xf, ta, tb) <= d0 for xf, ta, tb in edges)


def _union_cover(domain, n, d_lo, d_hi):
    """Level-n cells covered by a square union stored at level m.

    A level-n cell (a, b) lies in the closed union iff every level-m cell
    whose interior meets it is stored: in u those are the cells
    c in [floor(a m/n), ceil((a+1) m/n)), and likewise in v.  The stored
    cells are counted over such a block with a summed-area table of the
    union's bounding box.
    """
    m = domain.level
    cells = np.array([(_cell(i), _cell(j)) for i, j in domain.squares], dtype=np.int64)
    base = cells.min(axis=0)
    size = cells.max(axis=0) - base + 1
    table = np.zeros(size + 1, dtype=np.int64)
    table[1 + cells[:, 0] - base[0], 1 + cells[:, 1] - base[1]] = 1
    table = table.cumsum(axis=0).cumsum(axis=1)
    axes = []
    for lo, width in zip(base, size):
        k = np.arange(lo * n // m, -(-(lo + width) * n // m))
        c0 = k * m // n - lo
        c1 = -(-(k + 1) * m // n) - lo
        axes.append((k, c0, c1, np.clip(c0, 0, width), np.clip(c1, 0, width)))
    (a, u0, u1, cu0, cu1), (b, v0, v1, cv0, cv1) = axes
    stored = (
        table[np.ix_(cu1, cv1)] - table[np.ix_(cu0, cv1)]
        - table[np.ix_(cu1, cv0)] + table[np.ix_(cu0, cv0)]
    )
    d = a[:, None] - b[None, :]
    keep = (stored == np.outer(u1 - u0, v1 - v0)) & (d >= d_lo) & (d <= d_hi)
    ka, kb = np.nonzero(keep)
    return _index_pairs(a[ka], b[kb])


def squares_in_domain(domain, n):
    """Elementary squares at level n whose open interior lies in the domain.

    Covers run in integer lattice units: the domain's time window, slab
    height and cylinder edges become integer thresholds once per call
    (``Fraction`` appears only there), and every per-square test is
    integer arithmetic.  For a :class:`SquareUnion` at its own level this
    is the stored set; at other levels a square is kept when the stored
    squares cover it.  For cylinders the test is the exact corner test; for
    tubes it is edge-exact for the piecewise-affine centerline.

    Returns a set of (i, j) index pairs (possibly empty).
    """
    if n < 1:
        raise ValueError(f"subdivision level must be >= 1, got {n}")
    if domain.is_empty():
        return set()
    # time window on d = a - b: t_min = (d-1)/(2n) >= t_lo, t_max = (d+1)/(2n) <= t_hi
    d_lo = math.ceil(2 * n * domain.t_lo) + 1
    d_hi = math.floor(2 * n * domain.t_hi) - 1
    if isinstance(domain, SquareUnion):
        if n == domain.level and domain.t_lo == 0 and domain.t_hi == domain.T:
            return set(domain.squares)
        return _union_cover(domain, n, d_lo, d_hi)
    # moving domains: cells inside the slab and the time window
    d_lo = max(d_lo, 1)
    d_hi = min(d_hi, math.floor(2 * n * domain.T) - 1)
    if isinstance(domain, Cylinder):
        # all four corners within delta0 of x0: the extreme ones sit at x = s/(2n), (s+2)/(2n)
        s_lo = math.ceil(2 * n * (domain.x0 - domain.delta0))
        s_hi = math.floor(2 * n * (domain.x0 + domain.delta0)) - 2
        return _index_pairs(*_slab_cells(d_lo, d_hi, s_lo, s_hi))
    a, b = _slab_cells(d_lo, d_hi, 0, 2 * n - 2)
    keep = np.array(
        [_square_in_tube(ka, kb, n, domain) for ka, kb in zip(a.tolist(), b.tolist())], dtype=bool
    )
    return _index_pairs(a[keep], b[keep])


def epsilon_interior(domain, eps):
    """The subset of the domain at distance > eps from its boundary.

    Cylinders shrink exactly; tubes use the analytic inner approximation
    (half-width delta0/2 tube restricted to eps < t < T - eps, valid for
    eps below delta0 / (2 sqrt(M^2 + 1)) with M the Lipschitz estimate).
    Square unions are unsupported (``TypeError``) unless empty.  An empty
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
        return CurveTube(domain.curve, domain.delta0 / 2, t_lo=eps, t_hi=T - eps)
    raise TypeError(f"unsupported domain type {type(domain).__name__}")


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------


def domain_to_json(domain):
    """Serialize a domain to the documented JSON dict.

    The time window is written as ``t_lo``/``t_hi`` only where it differs from
    (0, T), so full-window documents carry no window keys.
    """
    if isinstance(domain, SquareUnion):
        doc = {
            "type": "square_union",
            "T": _num(domain.T),
            "level": domain.level,
            "squares": [list(ij) for ij in sorted(domain.squares)],
        }
    elif isinstance(domain, Cylinder):
        doc = {
            "type": "cylinder",
            "T": _num(domain.T),
            "x0": _num(domain.x0),
            "delta0": _num(domain.delta0),
        }
    elif isinstance(domain, CurveTube):
        doc = {
            "type": "curve_tube",
            "T": domain.curve.T,
            "delta0": _num(domain.delta0),
            "curve": {
                "times": [float(t) for t in domain.curve.times],
                "values": [float(v) for v in domain.curve.values],
            },
        }
    else:
        raise TypeError(f"unsupported domain type {type(domain).__name__}")
    if domain.t_lo != 0:
        doc["t_lo"] = _num(domain.t_lo)
    if domain.t_hi != domain.T:
        doc["t_hi"] = _num(domain.t_hi)
    return doc


def _num(fr):
    """Fraction to int when exact, else float (for JSON round-trips)."""
    return int(fr) if fr.denominator == 1 else float(fr)


def domain_from_json(doc):
    """Build a domain from its JSON dict (see :func:`domain_to_json`).

    The optional ``t_lo``/``t_hi`` keys give the time window (default (0, T)).
    """
    try:
        kind = doc["type"]
    except (TypeError, KeyError):
        raise ValueError("domain document must be an object with a 'type' key")
    window = {key: doc[key] for key in ("t_lo", "t_hi") if key in doc}
    if kind == "square_union":
        return SquareUnion(
            level=int(doc["level"]),
            squares=frozenset(tuple(ij) for ij in doc["squares"]),
            T=_as_fraction(doc["T"]),
            **window,
        )
    if kind == "cylinder":
        return Cylinder(
            x0=_as_fraction(doc["x0"]),
            delta0=_as_fraction(doc["delta0"]),
            T=_as_fraction(doc["T"]),
            **window,
        )
    if kind == "curve_tube":
        curve = Curve(doc["curve"]["times"], doc["curve"]["values"])
        return CurveTube(curve=curve, delta0=_as_fraction(doc["delta0"]), **window)
    raise ValueError(f"unknown domain type {kind!r}")
