"""Adjoint wave solutions: projection, evaluation, energies, leapfrog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveobs import dalembert
from waveobs.dalembert import (
    PiecewiseInitialData,
    check_discrete_observability,
    eval_phi,
    l2_phit_on_squares,
    leapfrog_solve,
    project,
    terminal_velocity,
)
from waveobs.graph import build_graph, laplacian, observability_constant_graph
from waveobs.grid import SquareUnion, squares_in_domain, squares_in_time_slab
from waveobs.presets import get_preset
from waveobs.testing import random_connected_square_domain, random_initial_data

from oracles import (
    energy,
    eval_phi_t,
    fold_index,
    gamma_fundamental,
    l2_phit_blocks,
    phi_t_on_square,
    quadratic_form,
    square_area,
    square_center,
    v_norm_sq_matmul,
)


# ---------------------------------------------------------------- projection


def test_project_parabola_level2():
    data = project(lambda x: x * (1 - x), lambda x: np.zeros_like(x), 2)
    assert data.alpha == pytest.approx([0.5, -0.5])
    assert data.beta == pytest.approx([0.0, 0.0])


def test_project_constant_velocity():
    c = 0.37
    data = project(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x: np.full_like(np.asarray(x, dtype=float), c),
        8,
    )
    assert data.beta == pytest.approx(np.full(8, c))


def test_project_sine_slopes_match_node_differences():
    level = 16
    f = lambda x: np.sin(2 * np.pi * np.asarray(x, dtype=float))
    data = project(f, lambda x: np.zeros_like(np.asarray(x, dtype=float)), level)
    nodes = np.arange(level + 1) / level
    assert data.alpha == pytest.approx(level * np.diff(f(nodes)), abs=1e-15)


def _per_piece_beta(phi1, n, breakpoints):
    """The per-cell, per-piece projection loop: beta_i = n * sum of half * (W @ f)."""
    W = dalembert._GAUSS8_WEIGHTS
    cuts = sorted(set(float(b) for b in breakpoints if 0.0 < float(b) < 1.0))
    beta = np.empty(n)
    for i in range(n):
        a, b = i / n, (i + 1) / n
        pts = [a] + [c for c in cuts if a < c < b] + [b]
        acc = 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            xs = mid + half * dalembert._GAUSS8_NODES
            acc += half * float(W @ np.asarray(phi1(xs), dtype=float))
        beta[i] = n * acc
    return beta


def _counted(f, calls):
    def g(x):
        calls.append(np.ndim(x))
        return f(x)

    return g


# a cut on a cell edge (0.5 at even levels), two cuts in one cell, a
# duplicate, and cuts at or outside the ends of the interval
CUT_CASES = [(), (0.4, 0.6), (0.5, 0.3, 0.3001, 0.3, -0.25, 0.0, 1.0, 1.5)]


@pytest.mark.parametrize("n", [1, 2, 7, 32, 129])
@pytest.mark.parametrize("breakpoints", CUT_CASES)
@pytest.mark.parametrize("preset", ["ex1", "ex2", "ex3", "ex4"])
def test_project_is_bitwise_the_per_piece_loop(preset, breakpoints, n):
    p = get_preset(preset)
    smooth = lambda x: np.cos(3.0 * np.asarray(x, dtype=float)) + np.asarray(x, dtype=float) ** 2
    phi1 = p.y1 or smooth
    calls0, calls1 = [], []
    data = project(_counted(p.y0, calls0), _counted(phi1, calls1), n, breakpoints)
    assert np.array_equal(data.beta, _per_piece_beta(phi1, n, breakpoints))
    nodes = np.arange(n + 1) / n
    assert np.array_equal(data.alpha, n * np.diff(p.y0(nodes)))
    assert calls0 == [1] and calls1 == [1]


def test_project_rejects_nonzero_boundary():
    with pytest.raises(ValueError):
        project(lambda x: np.asarray(x, dtype=float), lambda x: np.zeros_like(x), 4)


def test_data_validation(rng):
    with pytest.raises(ValueError):
        PiecewiseInitialData(4, np.ones(4), np.zeros(4))  # slopes must sum to 0
    with pytest.raises(ValueError):
        PiecewiseInitialData(4, np.zeros(3), np.zeros(4))


def _scaled_slope_rule_rejects(alpha):
    """The slope-sum rule in one expression: |sum alpha| > 1e-10 * max(1, max|alpha|)."""
    return abs(alpha.sum()) > 1e-10 * max(1.0, np.abs(alpha).max(initial=0.0))


# (alpha, rejected): the sum m - m + e is e exactly, just below, at and just above
# 1e-10 * max(1, m) for m below, at and above 1; non-finite slopes are accepted
SLOPE_SUM_ROWS = [
    *[([m, -m, sign * np.nextafter(1e-10 * max(1.0, m), toward)], toward > 0)
      for m in (0.5, 1.0, 3.0, 1e6) for sign in (1.0, -1.0) for toward in (0.0, 1.0)],
    *[([m, -m, sign * 1e-10 * max(1.0, m)], False) for m in (0.5, 3.0) for sign in (1.0, -1.0)],
    ([0.5, -0.5, 2e-10], True),
    ([float("nan"), 0.0, 0.0], False),
    ([0.5, float("nan"), -0.5], False),
    ([float("inf"), 0.0, 0.0], False),
    ([-float("inf"), 1.0, 0.0], False),
    ([float("inf"), -float("inf"), 0.0], False),
]


@pytest.mark.parametrize("alpha,rejected", SLOPE_SUM_ROWS)
@np.errstate(invalid="ignore")  # inf - inf sums to NaN with an invalid-value warning
def test_slope_sum_rule_is_the_scaled_threshold(alpha, rejected):
    alpha = np.array(alpha)
    assert _scaled_slope_rule_rejects(alpha) == rejected
    if rejected:
        with pytest.raises(ValueError, match="slopes must sum to zero"):
            PiecewiseInitialData(alpha.size, alpha, np.zeros(alpha.size))
    else:
        PiecewiseInitialData(alpha.size, alpha, np.zeros(alpha.size))


# ---------------------------------------------------------------- evaluation


def test_eval_phi_at_time_zero_and_dirichlet(rng):
    data = random_initial_data(rng, 8)
    x = rng.uniform(0, 1, 200)
    assert eval_phi(data, x, np.zeros_like(x)) == pytest.approx(
        data.phi0(x), abs=1e-14
    )
    t = rng.uniform(0, 2, 200)
    assert np.max(np.abs(eval_phi(data, np.zeros_like(t), t))) <= 1e-14
    assert np.max(np.abs(eval_phi(data, np.ones_like(t), t))) <= 1e-14


def test_eval_phi_matches_leapfrog_at_nodes(rng):
    m = 16
    data = random_initial_data(rng, m)
    Y = leapfrog_solve(m, 2.0, data.phi0(np.arange(m + 1) / m), data.beta)
    xs = np.arange(m + 1) / m
    for k, t in enumerate(np.arange(2 * m + 1) / m):
        assert eval_phi(data, xs, np.full_like(xs, t)) == pytest.approx(
            Y[k], abs=1e-12
        )


def test_phi_t_constant_velocity_first_row():
    c = 0.8
    data = PiecewiseInitialData(4, np.zeros(4), np.full(4, c))
    for ij in [(1, 1), (2, 1), (3, 2), (4, 4)]:
        assert phi_t_on_square(data, ij) == pytest.approx(c)
    zero = PiecewiseInitialData(4, np.zeros(4), np.zeros(4))
    assert phi_t_on_square(zero, (3, -2)) == 0.0


def test_phi_t_constant_on_each_square(rng):
    data = random_initial_data(rng, 4)
    for ij in [(2, 1), (5, -3), (7, -7), (3, 2)]:
        cx, ct = square_center(ij, 4)
        cx, ct = float(cx), float(ct)
        ref = phi_t_on_square(data, ij)
        h = 1.0 / (2 * 4)
        for dx, dt in [(0, 0), (0.3, 0.2), (-0.25, 0.31), (0.4, -0.4), (-0.17, -0.33)]:
            val = eval_phi_t(data, cx + dx * h, ct + dt * h)
            assert val == pytest.approx(ref, abs=1e-14)


def test_gamma_folding_identity(rng):
    # gamma of an extended index equals gamma of its fold, over a wide range
    data = random_initial_data(rng, 5)
    gam = gamma_fundamental(data)

    def fundamental(e):
        return gam[5 + e] if e < 0 else gam[5 + e - 1]

    for e in [i for i in range(-4 * 5, 4 * 5 + 1) if i != 0]:
        assert data.gamma_of(np.array([e]))[0] == pytest.approx(
            fundamental(fold_index(e, 5)), abs=1e-15
        )


@given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.data())
def test_gamma_of_equals_fold_definition_bitwise(n, seed, draw):
    # gamma_e = alpha_pos + beta_pos on a positive fold, alpha_pos - beta_pos
    # on a negative one, with pos = |fold(e)| - 1
    data = random_initial_data(np.random.default_rng(seed), n)
    e = np.array(draw.draw(st.lists(st.integers(-7 * n, 7 * n).filter(bool), min_size=1)))
    k = np.array([fold_index(i, n) for i in e.tolist()])
    pos = np.abs(k) - 1
    want = np.where(k > 0, data.alpha[pos] + data.beta[pos], data.alpha[pos] - data.beta[pos])
    assert np.array_equal(data.gamma_of(e), want)


def test_profiles_equal_the_eager_node_tables_bitwise(rng):
    # F and G build their tables on first use; they must be the tables the
    # constructor used to build: nodes cumsum(gamma)/(2n), slopes gamma/2
    for n in (1, 4, 9):
        data = random_initial_data(rng, n)
        e = np.arange(1, 2 * n + 1)
        w = rng.uniform(-3.0, 3.0, 400)
        for profile, g in ((data.F, data.gamma_of(e)), (data.G, data.gamma_of(-e))):
            nodes = np.concatenate([[0.0], np.cumsum(g) / (2 * n)])
            m = np.mod(w, 2.0)
            c = np.clip(np.floor(m * n).astype(np.int64), 0, 2 * n - 1)
            assert np.array_equal(profile(w), nodes[c] + (g / 2.0)[c] * (m - c / n))
        x = rng.uniform(0.0, 1.0, 100)
        c = np.clip(np.floor(x * n).astype(np.int64), 0, n - 1)
        p0 = np.concatenate([[0.0], np.cumsum(data.alpha) / n])
        assert np.array_equal(data.phi0(x), p0[c] + data.alpha[c] * (x - c / n))


def test_gamma_of_rejects_index_zero(rng):
    data = random_initial_data(rng, 4)
    for e in (0, [3, 0, -2]):
        with pytest.raises(ValueError, match="index 0"):
            data.gamma_of(e)


# ------------------------------------------------------------------ energies


def test_v_norm_examples(rng):
    zero = PiecewiseInitialData(2, np.zeros(2), np.zeros(2))
    assert zero.v_norm_sq() == 0.0
    assert PiecewiseInitialData(2, np.array([1.0, -1.0]), np.zeros(2)).v_norm_sq() == (
        pytest.approx(1.0)
    )
    # quadrature oracle: phi0' and phi1 are cellwise constant
    data = random_initial_data(rng, 8)
    direct = (np.sum(data.alpha**2) + np.sum(data.beta**2)) / 8
    assert data.v_norm_sq() == pytest.approx(direct, rel=1e-12)
    gam = gamma_fundamental(data)
    assert data.v_norm_sq() == pytest.approx(np.sum(gam**2) / 16, rel=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 64), st.booleans(), st.integers(0, 2**32 - 1))
def test_v_norm_sq_is_the_matmul_form_bitwise(level, zero, seed):
    rng = np.random.default_rng(seed)
    data = (PiecewiseInitialData(level, np.zeros(level), np.zeros(level)) if zero
            else random_initial_data(rng, level))
    assert data.v_norm_sq() == v_norm_sq_matmul(data)


def test_energy_conserved(rng):
    data = random_initial_data(rng, 8)
    e0 = energy(data, 0.0)
    assert e0 == pytest.approx(0.5 * data.v_norm_sq(), rel=1e-12)
    for t in (0.3, 1.0, 1.7, 2.0, 3.21):
        assert energy(data, t) == pytest.approx(e0, rel=1e-10)


def test_energy_matches_midpoint_quadrature(rng):
    data = random_initial_data(rng, 4)
    t = 0.37
    xs = np.linspace(0, 1, 20001)
    mids = 0.5 * (xs[:-1] + xs[1:])
    pt = eval_phi_t(data, mids, np.full_like(mids, t))
    h = 1e-7
    px = (
        eval_phi(data, mids + h, np.full_like(mids, t))
        - eval_phi(data, mids - h, np.full_like(mids, t))
    ) / (2 * h)
    quad = 0.5 * np.mean(pt**2 + px**2)
    assert quad == pytest.approx(energy(data, t), rel=1e-3)


# ------------------------------------------------------- square-wise L2 norm


def test_l2_phit_single_square_formula(rng):
    data = random_initial_data(rng, 4)
    for ij in [(2, 1), (8, -5), (6, -1)]:
        val = l2_phit_on_squares(data, [ij], 4)
        assert val == pytest.approx(
            float(square_area(4)) * phi_t_on_square(data, ij) ** 2, rel=1e-12
        )


def test_l2_phit_full_strip_matches_center_quadrature(rng):
    data = random_initial_data(rng, 4)
    squares = squares_in_time_slab(4, 2)
    total = l2_phit_on_squares(data, squares, 4)
    oracle = sum(
        float(square_area(4)) * phi_t_on_square(data, ij) ** 2 for ij in squares
    )
    assert total == pytest.approx(oracle, rel=1e-12)
    assert l2_phit_on_squares(
        PiecewiseInitialData(4, np.zeros(4), np.zeros(4)), squares, 4
    ) == 0.0


def test_l2_phit_refined_data(chevron, rng):
    # refined data on the subdivided cover: same machinery at level p*n
    for p in (2, 3):
        data = random_initial_data(rng, 4 * p)
        fine = squares_in_domain(chevron, 4 * p)
        val = l2_phit_on_squares(data, fine, 4 * p)
        oracle = sum(
            float(square_area(4 * p)) * phi_t_on_square(data, ij) ** 2 for ij in fine
        )
        assert val == pytest.approx(oracle, rel=1e-12)


def _refined_cover(squares, level, p):
    """The level-(p * level) cover of the union of the given level-``level`` squares."""
    return squares_in_domain(SquareUnion(level, frozenset(squares), T=2), p * level)


@pytest.mark.parametrize("level", [3, 4, 5])
def test_l2_phit_is_the_cover_graph_quadratic_form(level):
    # the observed phi_t energy is the Laplacian form in gamma of the cover's
    # graph; for data at level p * n the cover refined to level p * n is the
    # union's, and its graph's Laplacian is the p-fold refined one of level n
    rng = np.random.default_rng(level)
    for _ in range(3):
        union = random_connected_square_domain(rng, level)
        graph = build_graph(union.squares, level)
        for p in (1, 2, 3):
            L = p * level
            data = random_initial_data(rng, L)
            gamma = gamma_fundamental(data)
            want = gamma @ laplacian(graph, p) @ gamma
            if p == 1:
                assert want == pytest.approx(quadratic_form(union.squares, level, gamma), rel=1e-12)
            got = l2_phit_on_squares(data, squares_in_domain(union, L), L)
            assert got == pytest.approx(want / (8.0 * L * L), rel=1e-12), (sorted(union.squares), p)


def test_l2_phit_is_the_same_float_for_any_container(chevron, rng):
    data = random_initial_data(rng, 12)
    squares = sorted(squares_in_domain(chevron, 12))
    values = []
    for cover in (set(squares), frozenset(squares), squares, squares[::-1]):
        dalembert._cover_graph.cache_clear()  # each container builds the graph
        values.append(l2_phit_on_squares(data, cover, 12))
        values.append(l2_phit_on_squares(data, cover, 12))  # cache hit
    assert values == [values[0]] * len(values)


def test_l2_phit_rejects_zero_indices_and_foreign_levels(rng):
    data = random_initial_data(rng, 4)
    for squares in ([(0, 1)], [(2, 1), (3, 0)]):
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(ValueError, match="index 0"):
                l2_phit_on_squares(data, squares, 4)
    # the check takes data at its cover's level only: refined data need the refined cover
    fine = random_initial_data(rng, 8)
    for level in (2, 3, 4, 16):
        for squares in ([(2, 1)], []):
            with pytest.raises(ValueError, match=f"data level 8 is not the square level {level}"):
                l2_phit_on_squares(fine, squares, level)
    assert l2_phit_on_squares(data, [], 4) == 0.0
    assert l2_phit_on_squares(fine, frozenset(), 8) == 0.0


def test_l2_phit_rejects_a_self_loop_square(rng):
    # (1, -1) links fold(1) to itself: no such square lies in the strip
    data = random_initial_data(rng, 4)
    for squares in ([(1, -1)], [(2, 1), (1, -1)]):
        with pytest.raises(ValueError, match="self-loop"):
            l2_phit_on_squares(data, squares, 4)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 6), st.sampled_from([1, 2, 3]), st.integers(0, 2**32 - 1))
def test_l2_phit_is_additive_over_disjoint_covers_and_monotone(level, p, seed):
    # two disjoint level-n parts, each refined to the data's level p * n
    rng = np.random.default_rng(seed)
    squares = sorted(random_connected_square_domain(rng, level).squares)
    L = p * level
    data = random_initial_data(rng, L)
    keep = rng.random(len(squares)) < 0.5
    part = [ij for ij, k in zip(squares, keep) if k]
    rest = [ij for ij, k in zip(squares, keep) if not k]
    whole = l2_phit_on_squares(data, _refined_cover(squares, level, p), L)
    a = l2_phit_on_squares(data, _refined_cover(part, level, p), L)
    b = l2_phit_on_squares(data, _refined_cover(rest, level, p), L)
    assert a + b == pytest.approx(whole, rel=1e-12)
    assert 0.0 <= a <= whole * (1 + 1e-12) and 0.0 <= b <= whole * (1 + 1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.sampled_from([1, 2, 3, 4]), st.integers(0, 2**32 - 1))
def test_l2_phit_is_the_block_form_bitwise(level, p, seed):
    # on the cover refined to the data's level p * n the package reads the gamma
    # table itself, the float of its (2 p n, 1) blocks; the level-n blocks of
    # the unrefined cover give the same value
    rng = np.random.default_rng(seed)
    squares = random_connected_square_domain(rng, level).squares
    L = p * level
    data = random_initial_data(rng, L)
    fine = _refined_cover(squares, level, p)
    got = l2_phit_on_squares(data, fine, L)
    assert got == l2_phit_blocks(data, fine, L)
    assert got == pytest.approx(l2_phit_blocks(data, squares, level), rel=1e-12)


def test_discrete_observability_random_smoke(chevron, rng):
    gc = observability_constant_graph(chevron)
    for _ in range(50):
        data = random_initial_data(rng, 4)
        out = check_discrete_observability(data, chevron.squares, 4, gc.c_obs)
        assert out["holds"], out
    zero = PiecewiseInitialData(4, np.zeros(4), np.zeros(4))
    assert check_discrete_observability(zero, chevron.squares, 4, gc.c_obs)["holds"]


# ------------------------------------------------------------------ leapfrog


def test_leapfrog_forced_manufactured_solution():
    # y = t^4 x (1 - x) solves y_tt = y_xx + f with f = 12t^2 x(1-x) + 2t^4,
    # zero initial data; the scheme is second-order accurate (quadratics in t
    # are differenced exactly, so a quartic is the simplest probe)
    errs = []
    for m in (16, 32, 64):
        xs = np.arange(m + 1) / m
        Y = leapfrog_solve(
            m,
            1.0,
            np.zeros(m + 1),
            beta=None,
            forcing=lambda x, t: 12 * t**2 * x * (1 - x) + 2 * t**4,
        )
        exact = xs * (1 - xs)
        errs.append(np.max(np.abs(Y[-1] - exact)))
    assert errs[0] > 0
    assert errs[1] == pytest.approx(errs[0] / 4, rel=0.2)
    assert errs[2] == pytest.approx(errs[1] / 4, rel=0.2)


def test_leapfrog_validation():
    with pytest.raises(ValueError):
        leapfrog_solve(8, 0.3, np.zeros(9))  # m*T not an integer
    with pytest.raises(ValueError, match="m\\*T must be at least 2, got 1"):
        leapfrog_solve(4, 0.25, np.zeros(5))  # one time step
    with pytest.raises(ValueError):
        leapfrog_solve(8, 2.0, np.zeros(7))


def test_terminal_velocity_second_order():
    # smooth standing wave: y = cos(pi t) sin(pi x), y_t(T) known analytically
    errs = []
    T = 0.75
    for m in (32, 64, 128):
        xs = np.arange(m + 1) / m
        y0 = np.sin(np.pi * xs)
        data = project(
            lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            m,
        )
        Y = leapfrog_solve(m, T, y0, data.beta)
        vT = terminal_velocity(Y, 1.0 / m)
        exact = -np.pi * np.sin(np.pi * T) * np.sin(np.pi * xs)
        errs.append(np.max(np.abs(vT - exact)))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] == pytest.approx(errs[1] / 4, rel=0.5)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_eval_phi_lattice_identity(seed):
    # d'Alembert form F(x+t) + G(x-t): shifting t by 2/level translates the
    # the solution's periodic structure exactly
    rng = np.random.default_rng(seed)
    data = random_initial_data(rng, 4)
    x = rng.uniform(0, 1, 50)
    t = rng.uniform(0, 1, 50)
    assert eval_phi(data, x, t + 2.0) == pytest.approx(
        eval_phi(data, x, t), abs=1e-12
    )
