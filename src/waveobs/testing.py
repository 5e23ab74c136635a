"""Random generators used by the test suite and for quick experiments."""

from __future__ import annotations

from .dalembert import PiecewiseInitialData
from .graph import build_graph, is_connected
from .grid import SquareUnion, squares_in_time_slab

__all__ = ["random_initial_data", "random_connected_square_domain"]


def random_initial_data(rng, level):
    """Gaussian piecewise data at the given level (slopes re-centered)."""
    a = rng.standard_normal(level)
    a -= a.mean()
    return PiecewiseInitialData(level, a, rng.standard_normal(level))


def random_connected_square_domain(rng, level, T=2, max_extra=None):
    """Grow a random square-aligned domain whose graph is connected.

    Starting from one random square of the time slab, repeatedly adds a
    random unused square adjacent to the current set (sharing a side in the
    characteristic lattice) until the observation graph becomes connected.
    The full slab at T >= 2 has a connected graph, so the growth always
    terminates.
    """
    slab = sorted(squares_in_time_slab(level, T))
    if not slab:
        raise ValueError(f"no squares at level {level} for T={T}")
    slab_set = set(slab)
    start = slab[rng.integers(len(slab))]
    picked = {start}

    def neighbors(ij):
        i, j = ij
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if ni == 0:
                ni += di
            if nj == 0:
                nj += dj
            if (ni, nj) in slab_set:
                yield (ni, nj)

    frontier = set(neighbors(start)) - picked
    extra = 0
    while True:
        g = build_graph(picked, level)
        if is_connected(g):
            if max_extra is None or extra >= max_extra:
                break
            extra += 1
        if not frontier:
            break
        cand = sorted(frontier)
        nxt = cand[rng.integers(len(cand))]
        picked.add(nxt)
        frontier |= set(neighbors(nxt))
        frontier -= picked
    return SquareUnion(level=level, squares=frozenset(picked), T=T)
