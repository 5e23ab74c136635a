"""Adjoint wave solutions: projection, evaluation, energies, leapfrog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveobs.dalembert import (
    PiecewiseInitialData,
    check_discrete_observability,
    energy,
    eval_phi,
    eval_phi_t,
    l2_phit_on_squares,
    leapfrog_solve,
    phi_t_on_square,
    project,
    terminal_velocity,
)
from waveobs.graph import observability_constant_graph
from waveobs.grid import (
    fold_index,
    fold_indices,
    square_area,
    square_center,
    squares_in_time_slab,
)
from waveobs.testing import random_initial_data


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


def test_project_rejects_nonzero_boundary():
    with pytest.raises(ValueError):
        project(lambda x: np.asarray(x, dtype=float), lambda x: np.zeros_like(x), 4)


def test_data_validation(rng):
    with pytest.raises(ValueError):
        PiecewiseInitialData(4, np.ones(4), np.zeros(4))  # slopes must sum to 0
    with pytest.raises(ValueError):
        PiecewiseInitialData(4, np.zeros(3), np.zeros(4))


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
    gam = data.gamma_fundamental()

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
    k = fold_indices(e, n)
    pos = np.abs(k) - 1
    want = np.where(k > 0, data.alpha[pos] + data.beta[pos], data.alpha[pos] - data.beta[pos])
    assert np.array_equal(data.gamma_of(e), want)


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
    gam = data.gamma_fundamental()
    assert data.v_norm_sq() == pytest.approx(np.sum(gam**2) / 16, rel=1e-12)


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
    from waveobs.grid import squares_in_domain

    for p in (2, 3):
        data = random_initial_data(rng, 4 * p)
        fine = squares_in_domain(chevron, 4 * p)
        val = l2_phit_on_squares(data, fine, 4 * p)
        oracle = sum(
            float(square_area(4 * p)) * phi_t_on_square(data, ij) ** 2 for ij in fine
        )
        assert val == pytest.approx(oracle, rel=1e-12)


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
