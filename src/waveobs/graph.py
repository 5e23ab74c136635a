"""Weighted observation graph of a space-time domain and its Laplacian.

Every elementary square (i, j) of a domain's square cover links the folded
indices fold(i) and -fold(j): the square carries the interaction between the
two characteristic families it straddles.  Collecting these links over the
cover yields a weighted graph on the 2n fundamental indices whose Laplacian
quadratic form reproduces the squared L2 norm of the solution's time
derivative over the cover (up to the factor 1/(8 n^2)).
:func:`waveobs.dalembert.l2_phit_on_squares` computes that norm as this form.

The algebraic connectivity (second-smallest Laplacian eigenvalue) of this
graph controls the observability constant: the graph is connected exactly
when observation on the domain sees every mode, and the constant
4 n / min(lambda, min degree) bounds the initial energy by the observed
energy at every refinement level of the data.

Matrix index order is (-n, ..., -1, 1, ..., n) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import _square_array, squares_in_domain, table_positions

__all__ = [
    "GraphDisconnectedError",
    "build_graph",
    "laplacian",
    "is_connected",
    "spectrum",
    "algebraic_connectivity",
    "observability_constant_graph",
    "GraphConstant",
]


class GraphDisconnectedError(ValueError):
    """Raised when an operation requires a connected observation graph."""


def build_graph(squares, n):
    """The observation graph of a set of level-n squares, as its weight matrix.

    Each square (i, j) adds one unit of weight between fold(i) and -fold(j),
    whose matrix positions are those of the indices i and -j.  The result is
    the symmetric (2n, 2n) integer matrix of edge weights, with zero
    diagonal; its row sums are the vertex degrees.

    Raises
    ------
    ValueError
        On zero indices, or a square that would create a self-loop (such
        squares lie outside the space-time strip).
    """
    if n < 1:
        raise ValueError(f"subdivision level must be >= 1, got {n}")
    sq = _square_array(squares)
    pa, pb = table_positions(sq * [1, -1], n).T
    loop = pa == pb
    if loop.any():
        raise ValueError(
            f"square {min(zip(*sq[loop].T.tolist()))} folds onto a self-loop; "
            "its interior cannot lie inside the space-time strip"
        )
    m = 2 * n
    edges = np.concatenate([pa * m + pb, pb * m + pa])
    return np.bincount(edges, minlength=m * m).reshape(m, m)


def laplacian(weights, p=1):
    """Dense Laplacian of the p-fold refined cover, of order 2 p n (p = 1: the graph's own).

    ``weights`` is the (2n, 2n) matrix of :func:`build_graph`.  Block form in
    the refined index order: diagonal blocks d_i * p * I_p (d_i the row sums)
    and off-diagonal blocks -w_ij * J_p (J_p the all-ones matrix); each parent
    square splits into p^2 subsquares pairing all refined vertices of its
    two endpoints.
    """
    if p < 1:
        raise ValueError(f"refinement factor must be >= 1, got {p}")
    w = weights.astype(float)
    d = w.sum(axis=1)
    return np.diag(np.repeat(d * p, p)) - np.repeat(np.repeat(w, p, axis=0), p, axis=1)


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


def is_connected(weights):
    """Connectivity of a weight matrix over its positive-weight edges."""
    return _connected(weights > 0)


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
    weights: np.ndarray
    squares: frozenset


def observability_constant_graph(domain, level=None):
    """Graph-derived observability constant of a domain.

    The level n is ``level`` if given, else the square union's own level (a
    curve tube, a cylinder included, has none: ValueError).  Builds the level-n cover
    and its graph and returns a :class:`GraphConstant`.

    Raises
    ------
    GraphDisconnectedError
        If the cover's graph is disconnected ("GOC violated at this
        resolution").
    """
    if level is None and not hasattr(domain, "level"):
        raise ValueError(f"a {type(domain).__name__} has no level of its own: give 'level'")
    n = int(domain.level if level is None else level)
    if n < 1:
        raise ValueError(f"subdivision level must be >= 1, got {n}")
    squares = squares_in_domain(domain, n)
    weights = build_graph(squares, n)
    try:
        lam = algebraic_connectivity(laplacian(weights))
    except GraphDisconnectedError:
        raise GraphDisconnectedError("GOC violated at this resolution") from None
    min_degree = int(weights.sum(axis=1).min())
    lam_hat = min(lam, float(min_degree))
    return GraphConstant(
        c_obs=4.0 * n / lam_hat,
        n=n,
        lam=lam,
        min_degree=min_degree,
        c_obs_bound=max(4.0 * n, 4.0 * n / lam),
        weights=weights,
        squares=squares,
    )
