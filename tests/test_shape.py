"""Support-curve optimization: gradient density, smoothing, descent, sweeps."""

import warnings

import numpy as np
import pytest

from waveobs.grid import Curve
from waveobs.hum import (
    HumSolution,
    SmoothedTube,
    datum_from_coefficients,
    hum_control,
    hum_rhs,
)
from waveobs.presets import get_preset
from waveobs.shape import (
    SweepResult,
    curve_mass_matrix,
    cylindrical_sweep,
    descent_step,
    h1_smooth,
    optimize,
    pair_with_density,
    performance_index,
    shape_derivative_density,
    sweep_centres,
)

EX1 = get_preset("ex1")
EX2 = get_preset("ex2")
EX3 = get_preset("ex3")
EX4 = get_preset("ex4")


def _smooth_random_curve(rng, n_nodes, T=2.0, modes=3, amp=0.08):
    """Band-limited random admissible curve (Lipschitz by construction)."""
    times = np.linspace(0.0, T, n_nodes + 1)
    vals = np.full(n_nodes + 1, 0.5)
    for k in range(1, modes + 1):
        vals += (amp / k) * rng.standard_normal() * np.sin(np.pi * k * times / T)
        vals += (amp / k) * rng.standard_normal() * np.cos(np.pi * k * times / T)
    return Curve(times, np.clip(vals, 0.2, 0.8))


# ------------------------------------------------------------------ the cost


def test_constant_curve_has_no_penalty():
    c = Curve.constant(0.3, 2.0, 16)
    assert c.h1_seminorm_sq() == 0.0
    tube = SmoothedTube(c, 0.15)
    sol = hum_control(tube, hum_rhs(8, EX1.y0))
    for eps in (0.0, 1e-2):
        assert sol.cost + 0.5 * eps * c.h1_seminorm_sq() == sol.cost


def test_sawtooth_regularizer():
    N, T = 16, 2.0
    times = np.linspace(0, T, N + 1)
    vals = 0.5 + (T / N) * (1 - (-1.0) ** np.arange(N + 1)) / 2  # slope +-1
    c = Curve(times, vals)
    assert c.h1_seminorm_sq() == pytest.approx(T)
    eps = 1e-2
    assert 0.5 * eps * c.h1_seminorm_sq() == pytest.approx(0.5 * eps * T)


# ----------------------------------------------------------- gradient density


def test_zero_adjoint_gives_zero_density():
    L = 8
    tube = SmoothedTube.around(0.25, 2.0, 0.15)
    idle = HumSolution(
        z=np.zeros(2 * L - 1),
        cost=0.0,
        residual=0.0,
        data=datum_from_coefficients(L, np.zeros(2 * L - 1)),
        region=tube,
        level=L,
    )
    assert np.all(shape_derivative_density(idle) == 0.0)


def test_symmetric_state_gives_zero_density():
    # the sawtooth datum is odd about x = 1/2, so phi^2 is even about the
    # centered tube's axis and the odd weight derivative integrates to zero
    tube = SmoothedTube.around(0.5, 2.0, 0.15)
    sol = hum_control(tube, hum_rhs(32, EX4.y0, breakpoints=EX4.data_breakpoints()))
    j = shape_derivative_density(sol)
    # the density's natural magnitude is ~cost/delta; the leftover asymmetry
    # is roundoff in the Gram and its solve, orders of magnitude below it
    scale = sol.cost / tube.delta
    assert np.max(np.abs(j)) <= 1e-7 * scale


def test_directional_derivative_matches_finite_differences():
    rng = np.random.default_rng(3)
    N, L = 128, 32
    curve = _smooth_random_curve(rng, N)
    bar = np.zeros(N + 1)
    times = curve.times
    for k in range(1, 4):
        bar += rng.standard_normal() / k * np.sin(np.pi * k * times / 2.0)
        bar += rng.standard_normal() / k * np.cos(np.pi * k * times / 2.0)
    bar /= np.max(np.abs(bar))
    b = hum_rhs(L, EX1.y0)
    sol = hum_control(SmoothedTube(curve, 0.15), b)
    pairing = pair_with_density(curve, shape_derivative_density(sol), bar)
    for eta in (1e-3, 1e-4):
        up = hum_control(SmoothedTube(curve.with_values(curve.values + eta * bar), 0.15), b).cost
        dn = hum_control(SmoothedTube(curve.with_values(curve.values - eta * bar), 0.15), b).cost
        fd = (up - dn) / (2 * eta)
        assert abs(fd - pairing) <= 1e-2 * abs(fd)


# ------------------------------------------------------------------ smoothing


def test_h1_smooth_identity_without_regularization(rng):
    c = Curve.constant(0.5, 2.0, 32)
    j = rng.standard_normal(33)
    assert h1_smooth(c, j, 0.0) == pytest.approx(j)


def _dense_mass_stiffness(curve):
    N = curve.times.size - 1
    dt = curve.dt
    M = np.zeros((N + 1, N + 1))
    K = np.zeros((N + 1, N + 1))
    for e in range(N):
        M[e : e + 2, e : e + 2] += dt / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        K[e : e + 2, e : e + 2] += (1.0 / dt) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return M, K


def test_h1_smooth_matches_dense_solve(rng):
    c = _smooth_random_curve(rng, 24)
    j = rng.standard_normal(25)
    eps = 0.03
    M, K = _dense_mass_stiffness(c)
    expect = np.linalg.solve(M + eps * K, M @ j + eps * K @ c.values)
    assert h1_smooth(c, j, eps) == pytest.approx(expect, abs=1e-12)
    # j = 0, linear curve: the right side is the pure regularizer gradient
    lin = Curve(c.times, 0.3 + 0.1 * c.times)
    Ml, Kl = _dense_mass_stiffness(lin)
    expect_lin = np.linalg.solve(Ml + eps * Kl, eps * Kl @ lin.values)
    assert h1_smooth(lin, np.zeros(25), eps) == pytest.approx(expect_lin, abs=1e-12)


def test_descent_direction_guarantee(rng):
    # taking the test function equal to the smoothed direction in the
    # variational identity shows the directional derivative is a square
    for eps in (1e-3, 1e-2, 0.1):
        c = _smooth_random_curve(rng, 40)
        j = rng.standard_normal(41)
        g = h1_smooth(c, j, eps)
        M, K = _dense_mass_stiffness(c)
        pairing = float(g @ (M @ j) + eps * g @ (K @ c.values))
        norm = float(g @ (M @ g) + eps * g @ (K @ g))
        assert norm >= 0.0
        assert pairing == pytest.approx(norm, abs=1e-10 * max(1.0, norm))


# --------------------------------------------------------------- descent step


def test_descent_step_examples():
    c = Curve(np.array([0.0, 1.0, 2.0]), np.array([0.4, 0.5, 0.6]))
    same = descent_step(c, np.zeros(3), 0.1, 0.15)
    assert same.values == pytest.approx(c.values)
    clamped = descent_step(c, np.array([1e3, -1e3, 1e3]), 1.0, 0.15)
    assert clamped.values == pytest.approx([0.15, 0.85, 0.15])
    # generic three-node step by hand: values - rho*grad, then clip
    step = descent_step(c, np.array([3.0, -2.0, 0.5]), 0.1, 0.15)
    assert step.values == pytest.approx([0.15, 0.7, 0.55])
    assert step.times == pytest.approx(c.times)


# ----------------------------------------------------------------- optimizing


def test_reference_descent_run():
    trace = optimize(
        EX1.y0,
        Curve.constant(0.4, 2.0, 128),
        0.15,
        32,
        rho=EX1.rho,
        eps=EX1.eps,
    )
    assert trace.converged
    assert trace.costs[-1] == pytest.approx(47.09, rel=0.10)
    assert trace.costs[-1] <= trace.costs[0]
    assert len(trace.costs) == len(trace.curves) == trace.iterations + 1
    for c in trace.curves:
        assert np.all(c.values >= 0.15 - 1e-15)
        assert np.all(c.values <= 0.85 + 1e-15)


def test_standing_bump_descent_run():
    # even datum with zero velocity: start off the symmetric critical point
    trace = optimize(
        EX3.y0,
        Curve.constant(EX3.x0_init, 2.0, 128),
        0.15,
        32,
        breakpoints=EX3.data_breakpoints(),
        rho=EX3.rho,
        eps=EX3.eps,
    )
    assert trace.converged
    assert trace.costs[-1] == pytest.approx(41.02, rel=0.15)


def test_smoothing_halves_lipschitz_and_beats_cylinders():
    # corner-heavy sawtooth datum: without curve smoothing the descent
    # produces a ragged support curve that underperforms the best cylinder
    kw = dict(
        breakpoints=EX4.data_breakpoints(),
        rho=EX4.rho,
        max_iters=500,
    )
    start = Curve.constant(EX4.x0_init, 2.0, 128)
    rough = optimize(EX4.y0, start, 0.15, 32, eps=0.0, **kw)
    smooth = optimize(EX4.y0, start, 0.15, 32, eps=1e-2, **kw)
    assert smooth.curve.lipschitz_estimate() <= 0.5 * rough.curve.lipschitz_estimate()
    sweep = cylindrical_sweep(
        EX4.y0, 0.15, 32, 2.0, breakpoints=EX4.data_breakpoints()
    )
    pi_rough = performance_index(rough.costs[-1], sweep.best_cost)
    pi_smooth = performance_index(smooth.costs[-1], sweep.best_cost)
    assert pi_smooth > pi_rough
    assert pi_smooth > 0.0


def test_descent_stops_quickly_when_stationary():
    trace = optimize(EX1.y0, Curve.constant(0.25, 2.0, 64), 0.15, 16, rho=1e-12)
    assert trace.converged
    assert trace.iterations <= 2 * 10
    assert abs(trace.costs[-1] - trace.costs[0]) <= 1e-8 * trace.costs[0]


def test_zero_data_stops_at_once_without_warnings():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = optimize(
            zero, Curve.constant(0.25, 2.0, 16), 0.15, 8, max_iters=30, patience=2
        )
    assert trace.converged
    assert trace.iterations == 0
    assert trace.costs[0] == 0.0


def test_smoothed_directions_stay_bounded_along_run():
    norms = []

    def track(it, curve, sol, jeps):
        j = shape_derivative_density(sol)
        g = h1_smooth(curve, j, 1e-2)
        M, K = _dense_mass_stiffness(curve)
        norms.append(float(g @ (M @ g) + g @ (K @ g)))

    optimize(
        EX1.y0,
        Curve.constant(0.4, 2.0, 64),
        0.15,
        16,
        rho=EX1.rho,
        eps=1e-2,
        callback=track,
    )
    assert max(norms) <= 1e3 * max(norms[0], 1e-12)


# --------------------------------------------------------------------- sweeps


def _count_plans(monkeypatch):
    """Count the lattice plans that shape builds, and fail if the Gram builds its own."""
    import waveobs.hum
    import waveobs.shape

    built, build = [], waveobs.hum.lattice_plan

    def counting(level, T):
        built.append((level, T))
        return build(level, T)

    def refused(*args, **kwargs):
        raise AssertionError("assemble_gram built a plan of its own")

    monkeypatch.setattr(waveobs.shape, "lattice_plan", counting)
    monkeypatch.setattr(waveobs.hum, "lattice_plan", refused)
    return built


@pytest.mark.parametrize("T", [2.0, 3.0])
def test_optimize_builds_one_lattice_plan(monkeypatch, T):
    built = _count_plans(monkeypatch)
    curve0 = Curve.constant(0.4, T, 32)
    trace = optimize(EX1.y0, curve0, 0.15, 8, rho=1e-3, max_iters=4, patience=100)
    assert trace.iterations == 4
    assert built == [(8, T)]


@pytest.mark.parametrize("T", [1.5, 2.0])
def test_cylindrical_sweep_builds_one_lattice_plan(monkeypatch, T):
    built = _count_plans(monkeypatch)
    sw = cylindrical_sweep(EX1.y0, 0.15, 8, T)
    assert sw.costs.size == 13
    assert built == [(8, T)]


def _count_rhs(monkeypatch):
    """Count the right-hand sides built through either module's binding of hum_rhs."""
    import waveobs.hum
    import waveobs.shape

    built, build = [], waveobs.hum.hum_rhs

    def counting(level, *args, **kwargs):
        built.append(level)
        return build(level, *args, **kwargs)

    monkeypatch.setattr(waveobs.hum, "hum_rhs", counting)
    monkeypatch.setattr(waveobs.shape, "hum_rhs", counting, raising=False)
    return built


def test_optimize_and_cylindrical_sweep_each_build_one_right_hand_side(monkeypatch):
    built = _count_rhs(monkeypatch)
    args = dict(y1=EX2.y1, breakpoints=EX2.data_breakpoints())
    trace = optimize(EX2.y0, Curve.constant(0.4, 2.0, 32), 0.15, 8, rho=1e-3, max_iters=4,
                     patience=100, **args)
    assert trace.iterations == 4 and built == [8]
    sw = cylindrical_sweep(EX2.y0, 0.15, 8, 2.0, **args)
    assert sw.costs.size == 13 and built == [8, 8]


def test_sweep_centres_are_the_decimals_and_mirror_pairs_sum_to_one():
    # each centre is computed once from the decimal ends, not stepped in binary
    x0s = cylindrical_sweep(EX1.y0, 0.15, 8, 2.0).x0s
    assert [repr(float(x)) for x in x0s] == [repr(k / 100) for k in range(20, 81, 5)]
    assert all(a + b == 1.0 for a, b in zip(x0s, x0s[::-1]))
    assert sweep_centres(0.35, 0.8, 1).tolist() == [0.35]


def test_sweep_single_point():
    sw = cylindrical_sweep(EX1.y0, 0.15, 8, 2.0, x0s=[0.3])
    assert sw.best_x0 == 0.3
    assert sw.worst_x0 == 0.3
    assert sw.best_cost == sw.worst_cost


def test_sweep_finds_quarter_points():
    sw = cylindrical_sweep(EX1.y0, 0.15, 16, 2.0, x0s=[0.25, 0.5, 0.75])
    assert sw.best_x0 == 0.25  # tie with 0.75 resolves to the smaller center
    assert sw.worst_x0 == 0.5
    assert sw.best_cost == pytest.approx(46.94, rel=0.10)
    reversed_sw = cylindrical_sweep(EX1.y0, 0.15, 16, 2.0, x0s=[0.75, 0.5, 0.25])
    assert reversed_sw.best_x0 == sw.best_x0


def test_sweep_traveling_bump_reference_value():
    sw = cylindrical_sweep(
        EX2.y0, 0.15, 32, 2.0, y1=EX2.y1, breakpoints=EX2.data_breakpoints()
    )
    assert sw.best_cost == pytest.approx(179.22, rel=0.15)
    # the datum's mirror is its time reversal, so mirrored centres tie and the smaller one is reported
    assert np.allclose(sw.costs, sw.costs[::-1], rtol=1e-12, atol=0)
    assert sw.best_x0 == 0.2


def test_sweep_tie_break_is_order_invariant():
    sw = SweepResult(x0s=np.array([0.2, 0.5, 0.8]), costs=np.array([1.0, 2.0, 1.0]))
    rev = SweepResult(x0s=np.array([0.8, 0.5, 0.2]), costs=np.array([1.0, 2.0, 1.0]))
    assert sw.best_x0 == rev.best_x0 == 0.2
    assert sw.worst_x0 == rev.worst_x0 == 0.5


# --------------------------------------------------------- performance index


def test_performance_index_examples():
    assert performance_index(5.0, 5.0) == 0.0
    assert performance_index(1.0, 4.0) == 75.0
    assert performance_index(48.70, 179.22) == pytest.approx(72.83, abs=0.01)
    assert performance_index(1.2651, 1.0) == pytest.approx(-26.51, abs=0.01)
    # zero data: every cost is 0 and the ratio is undefined
    assert performance_index(0.0, 0.0) is None
