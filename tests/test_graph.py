"""Observation graph: Laplacians, spectra, connectivity, refinement."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveobs.graph import (
    GraphDisconnectedError,
    algebraic_connectivity,
    build_graph,
    is_connected,
    laplacian,
    observability_constant_graph,
    spectrum,
)
from waveobs.grid import SquareUnion, domain_from_json, squares_in_domain, squares_in_time_slab
from waveobs.testing import random_connected_square_domain

from oracles import graph_weights, quadratic_form, vertex_position

# Laplacian of the chevron graph in the fixed vertex order (-4..-1, 1..4)
A4 = np.array(
    [
        [4, 0, 0, -2, -2, 0, 0, 0],
        [0, 4, 0, -2, -2, 0, 0, 0],
        [0, 0, 4, -2, -2, 0, 0, 0],
        [-2, -2, -2, 13, -1, -2, -2, -2],
        [-2, -2, -2, -1, 13, -2, -2, -2],
        [0, 0, 0, -2, -2, 4, 0, 0],
        [0, 0, 0, -2, -2, 0, 4, 0],
        [0, 0, 0, -2, -2, 0, 0, 4],
    ],
    dtype=float,
)


def test_vertex_order():
    assert [vertex_position(i, 4) for i in (-4, -3, -2, -1, 1, 2, 3, 4)] == list(
        range(8)
    )


def test_chevron_laplacian_exact(chevron):
    g = build_graph(chevron.squares, chevron.level)
    L = laplacian(g)
    assert L.dtype == float
    assert np.array_equal(L, A4)
    assert np.array_equal(np.diag(L), [4, 4, 4, 13, 13, 4, 4, 4])


def test_single_square_graph():
    w = build_graph({(2, 1)}, 4)
    p2, pm1 = vertex_position(2, 4), vertex_position(-1, 4)
    assert w[p2, pm1] == 1 and w[pm1, p2] == 1
    degrees = w.sum(axis=1)
    assert degrees[p2] == 1 and degrees[pm1] == 1 and degrees.sum() == 2
    assert not is_connected(w)


def test_empty_graph_is_zero_and_disconnected():
    g = build_graph(set(), 3)
    assert np.array_equal(laplacian(g), np.zeros((6, 6)))
    assert not is_connected(g)
    with pytest.raises(GraphDisconnectedError, match="graph disconnected"):
        algebraic_connectivity(laplacian(g))


def test_build_graph_rejects_self_loop_and_mixed_levels():
    # the square (1, -1) would connect interval 1 to itself
    with pytest.raises(ValueError):
        build_graph({(1, -1)}, 4)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_build_graph_is_the_scalar_square_loop(level, seed):
    # random unions and their refined covers: the int64 weights of the
    # one-call array map equal the per-square fold/position loop exactly
    rng = np.random.default_rng(seed)
    slab = sorted(squares_in_time_slab(level, 2))
    pick = rng.choice(len(slab), int(rng.integers(1, len(slab) + 1)), replace=False)
    union = SquareUnion(level=level, squares=frozenset(slab[k] for k in pick), T=2)
    for p in (1, 2, 3):
        cover = squares_in_domain(union, p * level)
        w = build_graph(cover, p * level)
        assert w.dtype == np.int64 and np.array_equal(w, w.T) and not w.diagonal().any()
        assert np.array_equal(w, graph_weights(cover, p * level))
    # a square whose -j lies on i's lattice cell mod 2n folds onto a self-loop, and is named
    i = int(rng.choice([k for k in range(-3 * level, 3 * level + 1) if k]))
    c = i - (i > 0) + 2 * level * int(rng.integers(-2, 3))
    loop = (i, -(c + 1 if c >= 0 else c))
    with pytest.raises(ValueError, match="folds onto a self-loop"):
        graph_weights([loop], level)
    with pytest.raises(ValueError, match=re.escape(f"square {loop} folds onto a self-loop")):
        build_graph(union.squares | {loop}, level)


def test_quadratic_form_examples(chevron, rng):
    n = chevron.level
    const = np.ones(2 * n)
    assert quadratic_form(chevron.squares, n, const) == pytest.approx(0.0, abs=1e-12)
    indicator = np.zeros(2 * n)
    indicator[vertex_position(1, n)] = 1.0
    assert quadratic_form(chevron.squares, n, indicator) == pytest.approx(13.0)
    L = laplacian(build_graph(chevron.squares, n))
    for _ in range(100):
        eta = rng.standard_normal(2 * n)
        assert quadratic_form(chevron.squares, n, eta) == pytest.approx(
            eta @ L @ eta, abs=1e-12 * max(1.0, abs(eta @ L @ eta))
        )


def test_spectrum_examples(chevron):
    L = laplacian(build_graph(chevron.squares, chevron.level))
    assert np.allclose(
        spectrum(L), [0, 4, 4, 4, 4, 4, 14, 16], atol=1e-10, rtol=0
    )
    assert np.allclose(spectrum(np.zeros((3, 3))), 0.0)
    assert np.allclose(spectrum(np.array([[1.0, -1.0], [-1.0, 1.0]])), [0.0, 2.0])


def test_algebraic_connectivity_examples(chevron):
    L = laplacian(build_graph(chevron.squares, chevron.level))
    assert algebraic_connectivity(L) == pytest.approx(4.0, abs=1e-10)
    K2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert algebraic_connectivity(K2) == pytest.approx(2.0)
    disconnected = np.zeros((4, 4))
    disconnected[:2, :2] = K2
    disconnected[2:, 2:] = K2
    with pytest.raises(GraphDisconnectedError, match="GOC violated"):
        algebraic_connectivity(disconnected)


def _bfs_diameter(weights):
    n = weights.shape[0]
    adj = weights > 0
    worst = 0
    for s in range(n):
        dist = np.full(n, -1)
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in np.nonzero(adj[u])[0]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        worst = max(worst, dist.max())
    return worst


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_connectivity_spectrum_mohar_and_cobs_bound(seed, level):
    rng = np.random.default_rng(seed)
    domain = random_connected_square_domain(rng, level)
    g = build_graph(domain.squares, level)
    L = laplacian(g)
    ev = spectrum(L)
    # row sums vanish and the matrix is PSD
    assert np.allclose(L.sum(axis=1), 0.0, atol=1e-12)
    assert ev[0] >= -1e-10
    # connected <=> exactly one (near-)zero eigenvalue
    assert is_connected(g)
    assert int(np.sum(np.abs(ev) < 1e-8)) == 1
    lam = algebraic_connectivity(L)
    # Fiedler value lower bound via vertex count and diameter
    nv = L.shape[0]
    diam = _bfs_diameter(g)
    assert lam >= 4.0 / (nv * diam) - 1e-12
    # worst-case observability constant bound
    gc = observability_constant_graph(domain)
    assert gc.c_obs <= 4.0 * level**3 + 1e-9


def test_refined_p1_is_plain_laplacian(chevron):
    # p = 1 is the graph's own D - W, to the bit
    g = build_graph(chevron.squares, chevron.level)
    want = np.diag(g.sum(axis=1)).astype(float) - g.astype(float)
    for got in (laplacian(g), laplacian(g, 1)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_refined_matches_subsquare_graph(chevron):
    # the kron-structured refinement equals the honest graph of the
    # subdivided squares (after the block reordering of vertices)
    g = build_graph(chevron.squares, chevron.level)
    n = chevron.level
    for p in (2, 3):
        refined = laplacian(g, p)
        fine_squares = squares_in_domain(chevron, p * n)
        gp = build_graph(fine_squares, p * n)
        Lp = laplacian(gp)
        # vertex (i, s) of the block matrix is fine interval sign(i)*(p(|i|-1)+s+1)
        perm = np.empty(2 * n * p, dtype=int)
        for i in list(range(-n, 0)) + list(range(1, n + 1)):
            for s in range(p):
                fine = int(np.sign(i)) * (p * (abs(i) - 1) + s + 1)
                perm[vertex_position(i, n) * p + s] = vertex_position(fine, p * n)
        assert np.array_equal(refined, Lp[np.ix_(perm, perm)])


@pytest.mark.parametrize("p", [2, 3])
def test_refined_spectrum_identity_chevron(chevron, p):
    g = build_graph(chevron.squares, chevron.level)
    got = spectrum(laplacian(g, p) / p)
    expected = np.sort(
        np.concatenate([spectrum(laplacian(g))] + [g.sum(axis=1).astype(float)] * (p - 1))
    )
    assert np.allclose(got, expected, atol=1e-8, rtol=0)
    # kernel stays one-dimensional
    assert int(np.sum(np.abs(got) < 1e-8)) == 1
    # refined Fiedler value collapses to min(lambda, min degree)
    lam = algebraic_connectivity(laplacian(g))
    assert algebraic_connectivity(laplacian(g, p) / p) == pytest.approx(
        min(lam, g.sum(axis=1).min()), abs=1e-8
    )


def test_observability_constant_golden(chevron):
    gc = observability_constant_graph(chevron)
    assert gc.n == 4
    assert gc.lam == pytest.approx(4.0, abs=1e-10)
    assert gc.min_degree == 4
    assert gc.c_obs == pytest.approx(4.0, abs=1e-9)
    assert gc.c_obs_bound == pytest.approx(16.0, abs=1e-9)


def test_observability_constant_disconnected_domain():
    domain = SquareUnion(level=4, squares=frozenset([(2, 1)]), T=2)
    with pytest.raises(GraphDisconnectedError, match="GOC violated at this resolution"):
        observability_constant_graph(domain)


def test_observability_constant_levels():
    wide = domain_from_json({"type": "cylinder", "x0": 0.5, "delta0": 0.25, "T": 2})
    gc = observability_constant_graph(wide, level=4)
    assert gc.n == 4
    # a cylinder has no intrinsic level: level is mandatory
    with pytest.raises(ValueError, match="no level of its own"):
        observability_constant_graph(wide)
