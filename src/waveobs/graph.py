"""Weighted observation graph of a space-time domain and its Laplacian.

Every elementary square (i, j) of a domain's square cover links the folded
indices fold(i) and -fold(j): the square carries the interaction between the
two characteristic families it straddles.  Collecting these links over the
cover yields a weighted graph on the 2n fundamental indices whose Laplacian
quadratic form reproduces the squared L2 norm of the solution's time
derivative over the cover (up to the factor 1/(8 n^2)).

The algebraic connectivity (second-smallest Laplacian eigenvalue) of this
graph controls the observability constant: the graph is connected exactly
when observation on the domain sees every mode, and the constant
4 n / min(lambda, min degree) bounds the initial energy by the observed
energy at every refinement level of the data.

Matrix index order is (-n, ..., -1, 1, ..., n) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import fold_index, squares_in_domain

__all__ = [
    "ObsGraph",
    "GraphDisconnectedError",
    "vertex_position",
    "build_graph",
    "laplacian",
    "quadratic_form",
    "is_connected",
    "spectrum",
    "algebraic_connectivity",
    "refined_laplacian",
    "observability_constant_graph",
    "GraphConstant",
]


class GraphDisconnectedError(ValueError):
    """Raised when an operation requires a connected observation graph."""


def vertex_position(i, n):
    """Row/column of folded index i in the (-n..-1, 1..n) matrix order."""
    if i == 0 or abs(i) > n:
        raise ValueError(f"index {i} outside the fundamental set for level {n}")
    return i + n if i < 0 else n + i - 1


@dataclass
class ObsGraph:
    """Weighted graph on the 2n folded indices.

    Attributes
    ----------
    n : int
        Subdivision level (2n vertices).
    weights : ndarray
        Symmetric (2n, 2n) integer matrix of edge weights, zero diagonal.
    """

    n: int
    weights: np.ndarray

    @property
    def degrees(self):
        """Vertex degrees d_i = sum_j w_ij, in matrix index order."""
        return self.weights.sum(axis=1)

    def weight(self, i, j):
        """Edge weight between folded indices i and j."""
        return int(self.weights[vertex_position(i, self.n), vertex_position(j, self.n)])

    def degree(self, i):
        return int(self.degrees[vertex_position(i, self.n)])


def _square_edge(ij, n):
    """Folded endpoint pair (fold(i), -fold(j)) of a square's edge."""
    i, j = ij[0], ij[1]
    return fold_index(i, n), -fold_index(j, n)


def build_graph(squares, n):
    """Accumulate the observation graph of a set of level-n squares.

    Each square (i, j) adds one unit of weight between fold(i) and -fold(j).
    Square tuples may carry an explicit third component (their level), which
    must equal n.

    Raises
    ------
    ValueError
        On zero indices, mixed levels, or a square that would create a
        self-loop (such squares lie outside the space-time strip).
    """
    if n < 1:
        raise ValueError(f"subdivision level must be >= 1, got {n}")
    w = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for sq in squares:
        if len(sq) == 3 and sq[2] != n:
            raise ValueError(f"square {sq} has level {sq[2]}, expected {n}")
        a, b = _square_edge(sq, n)
        if a == b:
            raise ValueError(
                f"square {tuple(sq[:2])} folds onto a self-loop; "
                "its interior cannot lie inside the space-time strip"
            )
        pa, pb = vertex_position(a, n), vertex_position(b, n)
        w[pa, pb] += 1
        w[pb, pa] += 1
    return ObsGraph(n=n, weights=w)


def laplacian(graph):
    """Dense Laplacian: degrees on the diagonal, minus weights elsewhere."""
    return np.diag(graph.degrees).astype(float) - graph.weights.astype(float)


def quadratic_form(squares, n, eta):
    """Direct evaluation of eta^T A eta as a sum over squares.

    ``eta`` is indexed in the (-n..-1, 1..n) matrix order.  Equals the
    Laplacian quadratic form of :func:`build_graph`'s output.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (2 * n,):
        raise ValueError(f"eta must have length {2 * n}, got {eta.shape}")
    total = 0.0
    for sq in squares:
        a, b = _square_edge(sq, n)
        diff = eta[vertex_position(a, n)] - eta[vertex_position(b, n)]
        total += diff * diff
    return total


def _connected(adjacency):
    """Whether a symmetric boolean adjacency matrix is connected.

    Breadth-first search one level at a time: each pass adds every vertex
    adjacent to the ones reached so far.  The diagonal is ignored.
    """
    seen = np.zeros(len(adjacency), dtype=bool)
    seen[0] = True
    while True:
        grown = seen | adjacency[seen].any(axis=0)
        if np.array_equal(grown, seen):
            return bool(seen.all())
        seen = grown


def is_connected(graph):
    """Connectivity over the positive-weight edges."""
    return _connected(graph.weights > 0)


def spectrum(lap):
    """All eigenvalues of a symmetric matrix, ascending."""
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {lap.shape}")
    return np.linalg.eigvalsh(lap)


def algebraic_connectivity(lap):
    """Second-smallest Laplacian eigenvalue (positive iff connected).

    Raises
    ------
    GraphDisconnectedError
        If the underlying graph is disconnected.
    """
    lap = np.asarray(lap, dtype=float)
    if not _connected(np.abs(lap) > 1e-12):
        raise GraphDisconnectedError("graph disconnected (GOC violated)")
    return float(spectrum(lap)[1])


def refined_laplacian(graph, p):
    """Laplacian of the p-fold refined cover, of order 2 p n.

    Block form in the refined index order: diagonal blocks d_i * p * I_p and
    off-diagonal blocks -w_ij * J_p (J_p the all-ones matrix); each parent
    square splits into p^2 subsquares pairing all refined vertices of its
    two endpoints.
    """
    if p < 1:
        raise ValueError(f"refinement factor must be >= 1, got {p}")
    d = graph.degrees.astype(float)
    w = graph.weights.astype(float)
    return np.kron(np.diag(d * p), np.eye(p)) - np.kron(w, np.ones((p, p)))


@dataclass
class GraphConstant:
    """Observability constant of a domain derived from its graph.

    ``c_obs`` = 4n / min(lambda, min degree) is the constant valid for data
    at every refinement level p of the cover; ``c_obs_bound`` = max(4n,
    4n/lambda) is the coarser closed-form bound.
    """

    c_obs: float
    n: int
    lam: float
    min_degree: int
    c_obs_bound: float
    graph: ObsGraph
    squares: frozenset


def level_for_eps(eps):
    """Smallest integer strictly greater than 1/eps (exact for rationals)."""
    if isinstance(eps, Fraction):
        inv = 1 / eps
    else:
        inv = 1 / Fraction(float(eps))
    return math.floor(inv) + 1


def observability_constant_graph(domain, eps=None, level=None):
    """Graph-derived observability constant of a domain.

    The level n is taken from ``level`` if given, else as the smallest
    integer strictly greater than 1/eps, else (for square unions) as the
    stored level.  Builds the level-n cover and its graph and returns a
    :class:`GraphConstant`.

    Raises
    ------
    GraphDisconnectedError
        If the cover's graph is disconnected ("GOC violated at this
        resolution").
    """
    if level is not None:
        n = int(level)
        if n < 1:
            raise ValueError(f"subdivision level must be >= 1, got {n}")
    elif eps is not None:
        if not float(eps) > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        n = level_for_eps(eps)
    elif hasattr(domain, "level"):
        n = domain.level
    else:
        raise ValueError("either eps or level must be provided for this domain")
    squares = frozenset(squares_in_domain(domain, n))
    graph = build_graph(squares, n)
    try:
        lam = algebraic_connectivity(laplacian(graph))
    except GraphDisconnectedError:
        raise GraphDisconnectedError("GOC violated at this resolution") from None
    min_degree = int(graph.degrees.min())
    lam_hat = min(lam, float(min_degree))
    return GraphConstant(
        c_obs=4.0 * n / lam_hat,
        n=n,
        lam=lam,
        min_degree=min_degree,
        c_obs_bound=max(4.0 * n, 4.0 * n / lam),
        graph=graph,
        squares=squares,
    )
