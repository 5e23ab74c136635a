"""Characteristic lattice geometry for the 1D wave equation on (0, 1).

The solution of the wave equation is transported along the characteristic
coordinates u = x + t and v = x - t.  A uniform subdivision of [0, 1] into
``n`` intervals induces a lattice of *elementary squares* in the (u, v)
plane; each square is addressed by a pair of nonzero integers (i, j) where
u runs over the i-th extended interval and v over the j-th.  Extended
interval indices are reduced to the fundamental index set

    I_n = {-n, ..., -1, 1, ..., n}

by the folding map induced by the odd 2-periodic extension of the initial
data.  The package reaches this convention only through
:func:`lattice_cells` and :func:`table_positions`.

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
    "lattice_cells",
    "table_positions",
    "Curve",
    "SquareUnion",
    "CurveTube",
    "Cylinder",
    "squares_in_time_slab",
    "cover_cells",
    "squares_in_domain",
    "epsilon_interior",
    "domain_from_json",
    "domain_to_json",
]


def _level(value):
    """A subdivision level: an integer >= 1, or an integral float such as 4.0."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"level must be an integer >= 1, got {value!r}")
    return int(value)


def _fraction(x):
    """``Fraction(x)``, with a numpy scalar taken at its Python value (an int numerator)."""
    return Fraction(x.item() if isinstance(x, np.generic) else x)


def lattice_cells(idx):
    """Lattice cells k of nonzero extended indices (vectorized): I_i = [k/n, (k+1)/n].

    The cell is i - 1 for i > 0 and i for i < 0, at every level.
    """
    idx = np.asarray(idx)
    if np.any(idx == 0):
        raise ValueError("interval index 0 does not exist (indices are nonzero)")
    return idx - (idx > 0)


def table_positions(idx, n):
    """Positions of the folds of nonzero extended indices in the level-n (-n..-1, 1..n) order.

    The folding map is odd and 2n-periodic in the lattice cell, so the
    position is the cell shifted by n, mod 2n.  Under a p-fold refinement the
    level-(p n) positions of index i are ``p * table_positions(i, n) + arange(p)``.
    """
    return (lattice_cells(idx) + n) % (2 * n)


def _square_array(squares):
    """The (i, j) index pairs of a collection of squares as an (S, 2) int64 array."""
    sq = np.array(list(squares), dtype=np.int64)
    if sq.size == 0:
        return sq.reshape(0, 2)
    if sq.shape[1:] != (2,):
        raise ValueError(f"squares must be (i, j) index pairs, got an array of shape {sq.shape}")
    return sq


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
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise ValueError("curve times and values must be finite")
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
        self.level = _level(self.level)
        sq = _square_array(self.squares)
        self.squares = frozenset(zip(*sq.T.tolist()))
        self._keys = _pack_keys(sq[:, 0], sq[:, 1])  # for contains
        self.T = _fraction(self.T)
        self.t_lo = _fraction(self.t_lo)
        self.t_hi = self.T if self.t_hi is None else _fraction(self.t_hi)
        # every square at once, on its lattice cells: the slab test of squares_in_time_slab
        a, b = lattice_cells(sq).T
        d_lo, d_hi, s_lo, s_hi = _slab_bounds(self.level, self.T)
        outside = (a - b < d_lo) | (a - b > d_hi) | (a + b < s_lo) | (a + b > s_hi)
        if outside.any():
            raise ValueError(
                f"square {min(zip(*sq[outside].T.tolist()))} at level {self.level} lies "
                f"outside the space-time strip (0,1) x (0,{self.T})"
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
        inside = np.isin(keys, self._keys)
        win = (t > float(self.t_lo)) & (t < float(self.t_hi))
        return inside & win


@dataclass
class Cylinder:
    """Cylindrical domain (x0 - delta0, x0 + delta0) x (t_lo, t_hi)."""

    x0: Fraction
    delta0: Fraction
    T: Fraction
    t_lo: Fraction = field(default=Fraction(0))
    t_hi: Fraction = None

    def __post_init__(self):
        self.x0 = _fraction(self.x0)
        self.delta0 = _fraction(self.delta0)
        self.T = _fraction(self.T)
        self.t_lo = _fraction(self.t_lo)
        self.t_hi = self.T if self.t_hi is None else _fraction(self.t_hi)
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
        self.delta0 = _fraction(self.delta0)
        self.t_lo = _fraction(self.t_lo)
        self.t_hi = self.T if self.t_hi is None else _fraction(self.t_hi)
        d0 = float(self.delta0)
        vals = self.curve.values
        if np.any(vals < d0 - 1e-12) or np.any(vals > 1 - d0 + 1e-12):
            raise ValueError("tube centerline must satisfy delta0 <= gamma <= 1 - delta0")

    @property
    def T(self):
        return _fraction(self.curve.times[-1])

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


def _index(k):
    """Extended indices of lattice cells (inverse of :func:`lattice_cells`)."""
    return np.where(k >= 0, k + 1, k)


def _index_pairs(a, b):
    """Frozenset of (i, j) index pairs of the lattice cells (a, b)."""
    return frozenset(zip(_index(a).tolist(), _index(b).tolist()))


def _slab_cells(d_lo, d_hi, s_lo, s_hi):
    """Lattice cells (a, b) with d_lo <= a-b <= d_hi and s_lo <= a+b <= s_hi.

    The time of a square's center is (a-b)/(2n) and its position
    (a+b+1)/(2n).  Row a holds b from max(a-d_hi, s_lo-a) to min(a-d_lo, s_hi-a),
    so the cells are emitted in (a, b) order, each row at its offset.
    """
    a = np.arange(-(-(s_lo + d_lo) // 2), (s_hi + d_hi) // 2 + 1)
    lo = np.maximum(a - d_hi, s_lo - a)
    count = np.maximum(np.minimum(a - d_lo, s_hi - a) - lo + 1, 0)
    offset = np.cumsum(count) - count
    return np.repeat(a, count), np.repeat(lo - offset, count) + np.arange(count.sum())


def _slab_bounds(n, T):
    """Bounds (d_lo, d_hi, s_lo, s_hi) on a-b and a+b of the level-n cells (a, b)
    whose square's interior lies inside (0,1) x (0,T)."""
    return 1, math.floor(2 * n * Fraction(T)) - 1, 0, 2 * n - 2


def squares_in_time_slab(n, T):
    """All elementary squares at level n with interior inside (0,1) x (0,T)."""
    return _index_pairs(*_slab_cells(*_slab_bounds(n, T)))


def _curve_abs_dev_max(curve, w, sign, t0, t1):
    """Max of |w + sign*t - gamma(t)| over each edge [t0, t1] (arrays), gamma pw-affine.

    The maximum of a piecewise-affine function is attained at the endpoints
    or at the curve's interior nodes.  An edge holds a few nodes, so node
    k0 + j is taken on every edge at once, for j up to the largest count.
    """
    def dev(t):
        return np.abs(w + sign * t - curve(t))

    last = len(curve.times) - 1
    k0 = np.maximum(np.ceil(t0 / curve.dt), 0).astype(np.int64)
    k1 = np.minimum(np.floor(t1 / curve.dt), last).astype(np.int64)
    out = np.maximum(dev(t0), dev(t1))
    for j in range(int((k1 - k0).max(initial=-1)) + 1):
        tk = curve.times[np.minimum(k0 + j, last)]
        inside = (k0 + j <= k1) & (t0 < tk) & (tk < t1)
        out = np.maximum(out, np.where(inside, dev(tk), 0.0))
    return out


def _square_in_tube(a, b, n, tube):
    """Edge test of the squares on cells (a, b) (arrays) against a tube.

    Along each edge x is affine in t (x = v + t on constant-v edges, x = u - t
    on constant-u edges), so the edge lies within delta0 of the
    piecewise-affine centerline iff its endpoints and the curve nodes
    between them do.  Edge times are the floats k/(2n).
    """
    t_min, t_mid, t_max = ((a - b + k) / (2 * n) for k in (-1, 0, 1))
    edges = (
        (b / n, 1.0, t_mid, t_max),
        ((b + 1) / n, 1.0, t_min, t_mid),
        (a / n, -1.0, t_min, t_mid),
        ((a + 1) / n, -1.0, t_mid, t_max),
    )
    d0 = float(tube.delta0) + 1e-14
    return np.all([_curve_abs_dev_max(tube.curve, *edge) <= d0 for edge in edges], axis=0)


def _union_cover(domain, n, d_lo, d_hi):
    """Level-n cells covered by a square union stored at level m.

    A level-n cell (a, b) lies in the closed union iff every level-m cell
    whose interior meets it is stored: in u those are the cells
    c in [floor(a m/n), ceil((a+1) m/n)), and likewise in v.  The stored
    cells are counted over such a block with a summed-area table of the
    union's bounding box.
    """
    m = domain.level
    cells = lattice_cells(_square_array(domain.squares))
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
    return a[ka], b[kb]


def cover_cells(domain, n):
    """Lattice cells (a, b) of the level-n squares whose open interior lies in the domain.

    Covers run in integer lattice units: the domain's time window, slab
    height and cylinder edges become integer thresholds once per call
    (``Fraction`` appears only there), and every per-square test is
    integer arithmetic.  For a :class:`SquareUnion` a square is kept when
    the stored squares cover it; for cylinders the test is the exact corner
    test; for tubes it is edge-exact for the piecewise-affine centerline.
    Every domain honours its ``t_lo``/``t_hi`` window.  Returns two int64
    arrays (empty for an empty cover), in no particular order.
    """
    if n < 1:
        raise ValueError(f"subdivision level must be >= 1, got {n}")
    if domain.is_empty():
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # time window on d = a - b: t_min = (d-1)/(2n) >= t_lo, t_max = (d+1)/(2n) <= t_hi
    d_lo = math.ceil(2 * n * domain.t_lo) + 1
    d_hi = math.floor(2 * n * domain.t_hi) - 1
    if isinstance(domain, SquareUnion):
        return _union_cover(domain, n, d_lo, d_hi)
    # moving domains: cells inside the slab and the time window
    slab = _slab_bounds(n, domain.T)
    d_lo, d_hi = max(d_lo, slab[0]), min(d_hi, slab[1])
    if isinstance(domain, Cylinder):
        # all four corners within delta0 of x0: the extreme ones sit at x = s/(2n), (s+2)/(2n)
        s_lo = math.ceil(2 * n * (domain.x0 - domain.delta0))
        s_hi = math.floor(2 * n * (domain.x0 + domain.delta0)) - 2
        return _slab_cells(d_lo, d_hi, s_lo, s_hi)
    a, b = _slab_cells(d_lo, d_hi, *slab[2:])
    keep = _square_in_tube(a, b, n, domain)
    return a[keep], b[keep]


def squares_in_domain(domain, n):
    """Elementary squares at level n whose open interior lies in the domain.

    The frozenset of (i, j) index pairs of :func:`cover_cells` (possibly
    empty), so that per-cover caches such as
    :func:`waveobs.dalembert.l2_phit_on_squares` can key on it; a square
    union at its own level and full time window returns its stored set.
    """
    own_level = isinstance(domain, SquareUnion) and n == domain.level
    if own_level and (domain.t_lo, domain.t_hi) == (0, domain.T):
        return domain.squares
    return _index_pairs(*cover_cells(domain, n))


def epsilon_interior(domain, eps):
    """The subset of the domain at distance > eps from its boundary.

    Cylinders shrink exactly; tubes use the analytic inner approximation
    (half-width delta0/2 tube restricted to eps < t < T - eps, valid for
    eps below delta0 / (2 sqrt(M^2 + 1)) with M the Lipschitz estimate).
    Square unions are unsupported (``TypeError``) unless empty.  An empty
    result is returned as an empty :class:`SquareUnion`, not an error.
    """
    eps = _fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {float(eps)}")
    T = _fraction(domain.T)
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
            level=doc["level"],
            squares=frozenset(tuple(ij) for ij in doc["squares"]),
            T=doc["T"],
            **window,
        )
    if kind == "cylinder":
        return Cylinder(x0=doc["x0"], delta0=doc["delta0"], T=doc["T"], **window)
    if kind == "curve_tube":
        curve = Curve(doc["curve"]["times"], doc["curve"]["values"])
        return CurveTube(curve=curve, delta0=doc["delta0"], **window)
    raise ValueError(f"unknown domain type {kind!r}")
