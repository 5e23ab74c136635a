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
Domain parameters stay exact rationals (`fractions.Fraction`, a float read at
the decimal it prints as), but they enter a cover only as integer thresholds
computed once per call, so every per-square test of a square union is
integer arithmetic; a tube's per-row bounds are computed in floats.

The module also defines the two supported space-time observation-domain
variants, axis square unions and tubes around a moving curve (a cylinder is
the tube around a constant curve), their square covers and their JSON
parsing.  Only a square union carries a time window,
0 <= ``t_lo`` < ``t_hi`` <= T; tubes span (0, T) with a half-width
delta0 >= 0 and carry the smoothed weight of the control problems.
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
    "ramp_widths",
    "CurveTube",
    "check_band",
    "squares_in_time_slab",
    "cover_cells",
    "squares_in_domain",
    "domain_from_json",
]


def _level(value):
    """A subdivision level: an integer >= 1, or an integral float such as 4.0."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"level must be an integer >= 1, got {value!r}")
    return int(value)


def _fraction(x):
    """``Fraction(x)``, with a numpy scalar taken at its Python value (an int numerator)
    and a float at the decimal it prints as (``repr``), so that 0.3 is 3/10."""
    x = x.item() if isinstance(x, np.generic) else x
    return Fraction(repr(x)) if isinstance(x, float) else Fraction(x)


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
        times = self.times = np.asarray(times, dtype=float)
        self.values = self._checked(values)
        if not np.isfinite(times).all():
            raise ValueError("curve times and values must be finite")
        dt = np.diff(times)
        if np.any(dt <= 0):
            raise ValueError("curve times must be strictly increasing")
        if not np.allclose(dt, dt[0], rtol=1e-12, atol=1e-12 * max(1.0, times[-1])):
            raise ValueError("curve times must be uniformly spaced")
        if times[0] != 0.0:
            raise ValueError("curve must start at t = 0")

    def _checked(self, values):  # the values, as floats, if they fit the times and are finite
        values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != values.shape or self.times.size < 2:
            raise ValueError("times and values must be 1d arrays of equal length >= 2")
        if not np.isfinite(values).all():
            raise ValueError("curve times and values must be finite")
        return values

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
        curve = object.__new__(Curve)  # the times are validated
        curve.times, curve.values = self.times, self._checked(values)
        return curve


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
        self.T = _fraction(self.T)
        self.t_lo = _fraction(self.t_lo)
        self.t_hi = self.T if self.t_hi is None else _fraction(self.t_hi)
        if not 0 <= self.t_lo < self.t_hi <= self.T:
            raise ValueError(f"time window needs 0 <= t_lo < t_hi <= T, got t_lo="
                             f"{float(self.t_lo)}, t_hi={float(self.t_hi)}, T={float(self.T)}")
        # every square at once, on its lattice cells: the slab test of squares_in_time_slab
        cells = lattice_cells(sq)
        a, b = cells.T
        d_lo, d_hi, s_lo, s_hi = _slab_bounds(self.level, self.T)
        outside = (a - b < d_lo) | (a - b > d_hi) | (a + b < s_lo) | (a + b > s_hi)
        if outside.any():
            raise ValueError(
                f"square {min(zip(*sq[outside].T.tolist()))} at level {self.level} lies "
                f"outside the space-time strip (0,1) x (0,{self.T})"
            )
        # occupancy of the cells over their bounding box (0 x 0 when empty), from _origin
        self._origin = cells.min(axis=0) if sq.size else np.zeros(2, dtype=np.int64)
        cells = cells - self._origin
        self._occupied = np.zeros(cells.max(axis=0, initial=-1) + 1, dtype=bool)
        self._occupied[tuple(cells.T)] = True
        self._occupied.flags.writeable = False

    def contains(self, x, t):
        """Vectorized membership, up to the measure-zero square boundaries."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        n = self.level
        a = np.floor((x + t) * n).astype(np.int64) - self._origin[0]
        b = np.floor((x - t) * n).astype(np.int64) - self._origin[1]
        rows, cols = self._occupied.shape
        box = (a >= 0) & (a < rows) & (b >= 0) & (b < cols)
        inside = np.zeros(np.shape(box), dtype=bool)
        inside[box] = self._occupied[a[box], b[box]]
        return inside & (t > float(self.t_lo)) & (t < float(self.t_hi))


def ramp_widths(delta0, delta=None):
    """A tube weight's (delta0, delta) as floats, delta defaulting to delta0/4.

    A ValueError unless 0 < delta < delta0.
    """
    delta0 = float(delta0)
    delta = float(delta0 / 4.0 if delta is None else delta)
    if not 0 < delta0:
        raise ValueError(f"delta0 must be positive, got {delta0}")
    if not 0 < delta < delta0:
        raise ValueError(
            f"ramp width must satisfy 0 < delta < delta0, got delta={delta}, delta0={delta0}"
        )
    return delta0, delta


@dataclass
class CurveTube:
    """Moving domain {(x, t) : |x - gamma(t)| < delta0, 0 < t < T} and its weight chi.

    chi(x, t) = eta(x - gamma(t)): the even profile eta is 1 up to delta0 - delta and falls
    to 0 at delta0 by the quintic ramp p(tau) = 1 - 10 tau^3 + 15 tau^4 - 6 tau^5, whose
    first two derivatives vanish at both ends, so chi is C^2 in space.  delta defaults to
    delta0/4 (see :func:`ramp_widths`); delta0 = 0 is the empty domain, with no weight.
    """

    curve: Curve
    delta0: Fraction
    delta: float = None

    def __post_init__(self):
        self.delta0 = _fraction(self.delta0)
        if self.delta0 < 0:
            raise ValueError(f"tube needs 0 <= delta0, got delta0={float(self.delta0)}")
        if float(self.delta0) > 0 or self.delta is not None:
            self.delta = ramp_widths(self.delta0, self.delta)[1]
        self.d0, self.horizon = float(self.delta0), self.curve.T  # the weight's floats of delta0, T

    @classmethod
    def around(cls, x0, T, delta0, delta=None):
        """Cylindrical tube at fixed center x0 (a constant curve on 128 intervals)."""
        return cls(Curve.constant(x0, T, 128), delta0, delta)

    @property
    def T(self):
        return _fraction(self.curve.times[-1])

    def chi(self, x, t):
        s = np.abs(np.asarray(x, dtype=float) - self.curve(t))
        tau = np.clip((s - (self.d0 - self.delta)) / self.delta, 0.0, 1.0)
        return 1.0 + tau**3 * (-10.0 + tau * (15.0 - 6.0 * tau))


def check_band(gamma, delta0):
    """A ValueError unless 0 <= delta0 <= gamma <= 1 - delta0 (to 1e-12) for all values gamma:
    the rule of tube documents and descent starts, not of a :class:`CurveTube`."""
    delta0 = _fraction(delta0)
    d0 = float(delta0)
    if delta0 < 0 or np.any(gamma < d0 - 1e-12) or np.any(gamma > 1 - d0 + 1e-12):
        raise ValueError(f"tube needs 0 <= delta0 <= gamma <= 1 - delta0, got delta0={d0}")


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
    return 1, math.floor(2 * n * _fraction(T)) - 1, 0, 2 * n - 2


def squares_in_time_slab(n, T):
    """All elementary squares at level n with interior inside (0,1) x (0,T)."""
    return _index_pairs(*_slab_cells(*_slab_bounds(n, T)))


def _tube_cover(tube, n):
    """Level-n cells (a, b) of the squares inside a tube, one row of time at a time.

    Row d = a - b holds the squares centred at t_c = d/(2n), of half-diagonal
    r = 1/(2n); s = a + b, of d's parity, puts the centre at x_c = (s+1)/(2n).
    The square lies in the tube iff for every t in [t_c - r, t_c + r]
    gamma(t) - delta0 + r - |t - t_c| <= x_c <= gamma(t) + delta0 - r + |t - t_c|.
    Both sides are piecewise affine in t, so their extremes sit at the row's
    end times, its centre time and the curve nodes between them, and each
    row keeps one interval of s.  The test is in floats, with a 1e-14 slack
    on delta0.
    """
    d_lo, d_hi, s_lo, s_hi = _slab_bounds(n, tube.T)
    d = np.arange(d_lo, d_hi + 1)
    t_min, t_c, t_max = ((d[:, None] + k) / (2 * n) for k in (-1, 0, 1))
    curve, last = tube.curve, len(tube.curve.times) - 1
    # every node strictly inside a row's span, the others replaced by its centre time
    span = int(min(1 / (n * curve.dt), last)) + 3
    k = np.floor(t_min / curve.dt).astype(np.int64) + np.arange(span)
    nodes = curve.times[np.clip(k, 0, last)]
    nodes = np.where((t_min < nodes) & (nodes < t_max), nodes, t_c)
    t = np.hstack([t_min, t_c, t_max, nodes])
    gamma, reach = curve(t), float(tube.delta0) + 1e-14 + np.abs(t - t_c)
    # the square's left and right vertices, s/(2n) and (s+2)/(2n), bound s in each row
    lo = np.maximum(np.ceil(2 * n * (gamma - reach).max(axis=1)).astype(np.int64), s_lo)
    hi = np.minimum(np.floor(2 * n * (gamma + reach).min(axis=1)).astype(np.int64) - 2, s_hi)
    lo += (lo - d) % 2
    count = np.maximum((hi - lo) // 2 + 1, 0)
    offset = np.cumsum(count) - count
    s = np.repeat(lo - 2 * offset, count) + 2 * np.arange(count.sum())
    d = np.repeat(d, count)
    return (s + d) // 2, (s - d) // 2


def _union_cover(domain, n, d_lo, d_hi):
    """Level-n cells covered by a square union stored at level m.

    A level-n cell (a, b) lies in the closed union iff every level-m cell
    whose interior meets it is stored: in u those are the cells
    c in [floor(a m/n), ceil((a+1) m/n)), and likewise in v.  The stored
    cells are counted over such a block with a summed-area table of the
    union's occupancy table.
    """
    m, base, size = domain.level, domain._origin, domain._occupied.shape
    table = np.zeros(np.add(size, 1), dtype=np.int64)
    table[1:, 1:] = domain._occupied.cumsum(axis=0).cumsum(axis=1)
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

    A :class:`SquareUnion` runs in integer lattice units: its time window and
    the slab height become integer thresholds once per call (``Fraction``
    appears only there), and a square is kept when the stored squares cover
    it and it lies in the ``t_lo``/``t_hi`` window.  A :class:`CurveTube`
    keeps, in each time row, the interval of squares that lie within delta0
    of its piecewise-affine centerline (see :func:`_tube_cover`).  Returns
    two int64 arrays (empty for an empty cover), in no particular order.
    """
    if n < 1:
        raise ValueError(f"subdivision level must be >= 1, got {n}")
    if isinstance(domain, SquareUnion):
        # time window on d = a - b: t_min = (d-1)/(2n) >= t_lo, t_max = (d+1)/(2n) <= t_hi
        d_lo = math.ceil(2 * n * domain.t_lo) + 1
        d_hi = math.floor(2 * n * domain.t_hi) - 1
        return _union_cover(domain, n, d_lo, d_hi)
    return _tube_cover(domain, n)


def squares_in_domain(domain, n):
    """Elementary squares at level n whose open interior lies in the domain.

    The frozenset of (i, j) index pairs of :func:`cover_cells` (possibly
    empty), so that per-cover caches can key on it; a square union at its own
    level and full window returns its stored set.
    """
    own_level = isinstance(domain, SquareUnion) and n == domain.level
    if own_level and (domain.t_lo, domain.t_hi) == (0, domain.T):
        return domain.squares
    return _index_pairs(*cover_cells(domain, n))


# ---------------------------------------------------------------------------
# JSON parsing
# ---------------------------------------------------------------------------


def domain_from_json(doc):
    """Build a domain from its JSON dict (the documents in the README).

    Only a ``square_union`` takes the optional ``t_lo``/``t_hi`` keys (its
    time window, default (0, T)); on the other types they raise.  A
    ``curve_tube``'s optional ``T`` must be its curve's horizon.  A
    ``cylinder`` is the tube around the constant curve x0 on 128 intervals.
    A tube document keeps to the band of :func:`check_band`.
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
    if kind in ("cylinder", "curve_tube") and window:
        raise ValueError(f"a {kind} has no time window: drop 't_lo'/'t_hi' "
                         "or give a square_union domain")
    if kind == "cylinder":
        T = _fraction(doc["T"])
        if T <= 0:
            raise ValueError(f"cylinder needs T > 0, got T={float(T)}")
        x0 = _fraction(doc["x0"])
        check_band(float(x0), doc["delta0"])
        return CurveTube.around(x0, float(T), doc["delta0"])
    if kind == "curve_tube":
        curve = Curve(doc["curve"]["times"], doc["curve"]["values"])
        T = float(_fraction(doc.get("T", curve.T)))
        if abs(T - curve.T) > 1e-12:
            raise ValueError(f"curve_tube T={T} does not match its curve's horizon {curve.T}")
        check_band(curve.values, doc["delta0"])
        return CurveTube(curve=curve, delta0=doc["delta0"])
    raise ValueError(f"unknown domain type {kind!r}")
