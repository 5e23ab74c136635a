"""Null-control solver: weights, Gram system, duality, forward verification."""

from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import eval_phi_forcing

from waveobs.dalembert import _GAUSS8_NODES, _GAUSS8_WEIGHTS, eval_phi, leapfrog_solve
from waveobs.grid import Curve, Cylinder, SquareUnion, squares_in_domain, squares_in_time_slab
from waveobs.hum import (
    HumSolution,
    IndicatorRegion,
    SmoothedTube,
    WeightProfile,
    assemble_gram,
    basis_tables,
    control_density,
    datum_from_coefficients,
    forward_verify,
    hum_control,
    hum_rhs,
    solve_hum,
    solve_tridiagonal,
)
from waveobs.presets import get_preset
from waveobs.testing import random_connected_square_domain

EX1 = get_preset("ex1")


# ------------------------------------------------------------ weight profile


def test_weight_plateau_and_support():
    w = WeightProfile(0.15)
    assert w.delta == pytest.approx(0.15 / 4)
    assert w.eta(0.0) == 1.0
    assert w.eta(w.delta0 - w.delta) == pytest.approx(1.0)
    assert w.eta(w.delta0) == 0.0
    assert w.eta(0.3) == 0.0
    s = np.linspace(-0.4, 0.4, 801)
    vals = w.eta(s)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.allclose(vals, w.eta(-s))  # even


def test_weight_smooth_to_second_order_at_ends():
    w = WeightProfile(0.15, 0.05)
    for s in (w.delta0, w.delta0 - w.delta):
        assert w.eta_prime(s) == pytest.approx(0.0, abs=1e-15)
        # the third derivative jumps at the junction, so the central second
        # difference decays only linearly; C^2 means it decays to zero
        d2 = [
            abs((w.eta(s + h) - 2 * w.eta(s) + w.eta(s - h)) / h**2)
            for h in (1e-4, 1e-5, 1e-6)
        ]
        assert d2[2] < 0.15 * d2[1] < 0.15**2 * d2[0] * 1.5
        assert d2[2] <= 0.1
    # derivative consistent with the profile itself
    s = np.linspace(-0.2, 0.2, 101)
    h = 1e-7
    fd = (w.eta(s + h) - w.eta(s - h)) / (2 * h)
    assert np.allclose(fd, w.eta_prime(s), atol=1e-5)


def test_weight_midpoint_slope():
    for delta0, delta in ((0.15, 0.0375), (0.2, 0.1), (0.3, 0.02)):
        w = WeightProfile(delta0, delta)
        mid = delta0 - delta / 2
        assert w.eta_prime(mid) == pytest.approx(-15.0 / (8.0 * delta), rel=1e-12)


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightProfile(0.15, 0.15)
    with pytest.raises(ValueError):
        WeightProfile(0.15, 0.2)
    with pytest.raises(ValueError):
        WeightProfile(-0.1)
    with pytest.raises(ValueError):
        WeightProfile(0.15, 0.0)


def test_smoothed_tube_weight_geometry():
    tube = SmoothedTube.around(0.25, 2.0, 0.15)
    t = np.array([0.1, 0.5, 1.9])
    assert tube.chi(np.full(3, 0.25), t) == pytest.approx(np.ones(3))
    assert tube.chi(np.full(3, 0.25 + 0.15), t) == pytest.approx(np.zeros(3))
    x = np.linspace(0, 1, 41)
    assert tube.chi_x(x, np.full_like(x, 0.7)) == pytest.approx(
        tube.profile.eta_prime(x - 0.25)
    )


# -------------------------------------------------------------- gram assembly


def test_rhs_zero_target():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    assert np.all(hum_rhs(8, zero, zero) == 0.0)


def test_rhs_linearity_and_constant_oracle(rng):
    L = 8
    ya = lambda x: np.sin(np.pi * np.asarray(x, dtype=float))
    yb = lambda x: np.asarray(x, dtype=float) * (1 - np.asarray(x, dtype=float))
    both = lambda x: ya(x) + yb(x)
    assert hum_rhs(L, both) == pytest.approx(hum_rhs(L, ya) + hum_rhs(L, yb))
    # constant velocity: hat entries are -c * (hat area) = -c/L
    c = 0.7
    b = hum_rhs(L, lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                lambda x: np.full_like(np.asarray(x, dtype=float), c))
    assert b[: L - 1] == pytest.approx(np.full(L - 1, -c / L))
    # constant position: cell entries are the cell integrals, 1/L each
    b2 = hum_rhs(L, lambda x: np.ones_like(np.asarray(x, dtype=float)))
    assert b2[L - 1 :] == pytest.approx(np.full(L, 1.0 / L))


def _per_piece_rhs(L, y0, y1, breakpoints):
    """The per-cell, per-piece pairing loop: one data call and one dot per piece."""
    cuts = sorted(set(float(c) for c in breakpoints if 0.0 < float(c) < 1.0))

    def pieces(a, b):
        pts = [a] + [c for c in cuts if a < c < b] + [b]
        for lo, hi in zip(pts[:-1], pts[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            yield mid + half * _GAUSS8_NODES, half

    b = np.zeros(2 * L - 1)
    for m in range(L):
        acc = 0.0
        for xs, half in pieces(m / L, (m + 1) / L):
            acc += float((half * _GAUSS8_WEIGHTS) @ np.asarray(y0(xs), dtype=float))
        b[L - 1 + m] = acc
    if y1 is not None:
        for k in range(1, L):
            acc = 0.0
            for lo, hi in (((k - 1) / L, k / L), (k / L, (k + 1) / L)):
                for xs, half in pieces(lo, hi):
                    w = half * _GAUSS8_WEIGHTS * (1.0 - L * np.abs(xs - k / L))
                    acc += float(w @ np.asarray(y1(xs), dtype=float))
            b[k - 1] = -acc
    return b


def _counted(f, calls):
    def g(x):
        calls.append(np.ndim(x))
        return f(x)

    return g


@pytest.mark.parametrize("L", [1, 2, 7, 32, 129])
@pytest.mark.parametrize(
    # a cut on a cell edge (0.5 at even levels), two cuts in one cell, a
    # duplicate, and cuts at or outside the ends of the interval
    "breakpoints", [(), (0.4, 0.6), (0.5, 0.3, 0.3001, 0.3, -0.25, 0.0, 1.0, 1.5)]
)
@pytest.mark.parametrize("with_y1", [False, True])
@pytest.mark.parametrize("preset", ["ex1", "ex2", "ex3", "ex4"])
def test_rhs_is_bitwise_the_per_piece_loop(preset, with_y1, breakpoints, L):
    p = get_preset(preset)
    smooth = lambda x: np.cos(3.0 * np.asarray(x, dtype=float)) + np.asarray(x, dtype=float) ** 2
    y1 = (p.y1 or smooth) if with_y1 else None
    calls0, calls1 = [], []
    b = hum_rhs(L, _counted(p.y0, calls0), y1 and _counted(y1, calls1), breakpoints)
    assert np.array_equal(b, _per_piece_rhs(L, p.y0, y1, breakpoints))
    assert calls0 == [1] and calls1 == ([1] if with_y1 else [])


def _closed_form_cell_integral(data, a_idx, b_idx, h):
    """Exact integral of phi^2 over one characteristic lattice cell.

    phi = F(u) + G(v) with F, G affine on the cell, so the integral follows
    from the four corner values alone (split off the additive constant).
    """
    u0, v0 = a_idx * h, b_idx * h
    xs = np.array([(u0 + v0) / 2, (u0 + h + v0) / 2, (u0 + v0 + h) / 2])
    ts = np.array([(u0 - v0) / 2, (u0 + h - v0) / 2, (u0 - v0 - h) / 2])
    p00, p10, p01 = eval_phi(data, xs, ts)
    a, b, d = p00, p10, p01 - p00
    i2f = h * (a * a + a * b + b * b) / 3.0
    i1f = h * (a + b) / 2.0
    i2g = h * d * d / 3.0
    i1g = h * d / 2.0
    return 0.5 * (h * i2f + 2.0 * i1f * i1g + h * i2g)


@pytest.mark.parametrize("L", [*range(1, 10), 16, 64])
def test_basis_rows_are_the_profile_tables_of_unit_coefficients(L):
    # basis wave k is the datum of the k-th unit coefficient vector
    phi = basis_tables(L)
    assert phi.shape == (2 * L - 1, 8 * L)
    for k, z in enumerate(np.eye(2 * L - 1)):
        data = datum_from_coefficients(L, z)
        assert np.array_equal(phi[k], data._profiles.ravel()), k
        u = np.arange(2 * L) / L  # F and G at the left ends of the period cells
        assert np.array_equal(data.F(u), phi[k, : 2 * L])
        assert np.array_equal(data.G(u), phi[k, 4 * L : 6 * L])


def test_indicator_gram_matches_closed_form(chevron):
    L = 8
    G = assemble_gram(IndicatorRegion(chevron), L)
    assert np.allclose(G, G.T)
    h = 1.0 / L
    p = L // chevron.level

    def closed_total(data):
        tot = 0.0
        for i, j in chevron.squares:
            ilo = (i - 1) if i > 0 else i
            jlo = (j - 1) if j > 0 else j
            for da in range(p):
                for db in range(p):
                    tot += _closed_form_cell_integral(
                        data, ilo * p + da, jlo * p + db, h
                    )
        return tot

    # every velocity-basis diagonal entry
    for m in range(L):
        z = np.zeros(2 * L - 1)
        z[L - 1 + m] = 1.0
        val = closed_total(datum_from_coefficients(L, z))
        assert G[L - 1 + m, L - 1 + m] == pytest.approx(val, abs=1e-10)
    # a couple of off-diagonal entries by polarization
    for k, l in ((2, 5), (3, L - 1 + 4)):
        zk = np.zeros(2 * L - 1)
        zl = np.zeros(2 * L - 1)
        zk[k] = 1.0
        zl[l] = 1.0
        pair = 0.5 * (
            closed_total(datum_from_coefficients(L, zk + zl))
            - closed_total(datum_from_coefficients(L, zk))
            - closed_total(datum_from_coefficients(L, zl))
        )
        assert G[k, l] == pytest.approx(pair, abs=1e-10)


def test_indicator_gram_honours_the_time_window(chevron):
    # the windowed chevron's Gram is the Gram of its level-L cover
    L = 16
    window = SquareUnion(chevron.level, chevron.squares, chevron.T, t_lo=Fraction(1, 2))
    cover = SquareUnion(L, squares_in_domain(window, L), chevron.T)
    G = assemble_gram(IndicatorRegion(window), L)
    assert np.array_equal(G, assemble_gram(IndicatorRegion(cover), L))
    assert not np.array_equal(G, assemble_gram(IndicatorRegion(chevron), L))


def test_gram_psd_on_random_tubes(rng):
    from waveobs.grid import Curve

    for _ in range(3):
        vals = np.clip(0.5 + 0.2 * rng.standard_normal(9), 0.2, 0.8)
        tube = SmoothedTube(Curve(np.linspace(0, 2, 9), vals), WeightProfile(0.15))
        G = assemble_gram(tube, 8)
        assert np.allclose(G, G.T)
        assert np.linalg.eigvalsh(G).min() >= -1e-10


def test_tube_gram_matches_pointwise_quadrature(rng):
    from waveobs.grid import Curve
    from waveobs.hum import _cell_rules, lattice_plan

    # the tube reaches past both ends of the interval, so it weights the cut
    # triangles at x = 0 and x = 1 as well as those at t = 0 and t = T
    vals = [0.1, 0.4, 0.9, 0.6, 0.2, 0.5, 0.9, 0.3, 0.1]
    tube = SmoothedTube(Curve(np.linspace(0, 2, 9), vals), WeightProfile(0.15))
    for L in (8, 16):
        h = 1.0 / L
        G = assemble_gram(tube, L)
        rules = _cell_rules(h)
        plan = lattice_plan(L, tube.T)
        xs, ts, ws = [], [], []
        for c in range(5):
            du, dv, wq, _ = (r[c] for r in rules)
            A, B = (X[plan.offsets[c] : plan.offsets[c + 1]] for X in (plan.A, plan.B))
            u = (A[:, None] * h + du).ravel()
            v = (B[:, None] * h + dv).ravel()
            xs.append((u + v) / 2)
            ts.append((u - v) / 2)
            ws.append(np.tile(0.5 * wq, A.size) * tube.chi(xs[-1], ts[-1]))
            assert np.any(ws[-1] > 0), c
        x, t, wts = np.concatenate(xs), np.concatenate(ts), np.concatenate(ws)
        for _ in range(3):
            z = rng.standard_normal(2 * L - 1)
            phi = eval_phi(datum_from_coefficients(L, z), x, t)
            assert float(z @ G @ z) == pytest.approx(float(wts @ phi**2), rel=1e-12)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=33),
    st.floats(0.05, 0.4),
    st.floats(0.05, 0.95),
    st.sampled_from([2, 4, 8, 16, 32, 64]),
)
def test_plateau_cells_have_weight_one(values, delta0, frac, L):
    # random curves, steep ones included (33 nodes over T = 2 reach slope 16)
    from waveobs.grid import Curve
    from waveobs.hum import _cell_rules, _tube_bands, lattice_plan

    tube = SmoothedTube(
        Curve(np.linspace(0.0, 2.0, len(values)), values), WeightProfile(delta0, frac * delta0)
    )
    h = 1.0 / L
    du, dv, _, _ = _cell_rules(h)
    plan = lattice_plan(L, tube.T)
    A, B = plan.A, plan.B
    near, ramp = _tube_bands(tube, A, B, h)
    plateau = near & ~ramp
    prof = tube.profile
    if prof.delta0 - prof.delta < max(1.0, tube.curve.lipschitz_estimate()) * h / 2 + 1e-6 * h:
        assert not plateau.any()
    for c in range(5):
        mask = np.zeros(A.size, dtype=bool)
        mask[plan.offsets[c] : plan.offsets[c + 1]] = True
        for cells, value in ((mask & plateau, 1.0), (mask & ~near, 0.0)):
            u = A[cells][:, None] * h + du[c]
            v = B[cells][:, None] * h + dv[c]
            assert np.all(tube.chi((u + v) / 2, (u - v) / 2) == value)
    # evaluating the weight on every kept cell gives the same Gram, bitwise
    def all_ramp(*args):
        near, ramp = _tube_bands(*args)
        return near, np.ones_like(ramp)

    G = assemble_gram(tube, L)
    with patch("waveobs.hum._tube_bands", all_ramp):
        assert np.array_equal(G, assemble_gram(tube, L))


@settings(deadline=None, max_examples=80)
@given(st.data(), st.sampled_from([*range(1, 10), 16, 64]))
def test_block_gram_matches_the_dense_moment_table(chevron, data, L):
    # steep random tubes (33 nodes over T = 2 reach slope 16), the chevron, the
    # chevron windowed in time, and random unions at levels 1 and 2
    from oracles import gram_dense

    kind = data.draw(st.sampled_from(["tube", "chevron", "window", "union"]))
    if kind == "tube":
        values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=33))
        delta0 = data.draw(st.floats(0.05, 0.4))
        frac = data.draw(st.floats(0.01, 0.99))
        curve = Curve(np.linspace(0.0, 2.0, len(values)), values)
        region = SmoothedTube(curve, WeightProfile(delta0, frac * delta0))
    else:
        if kind == "union":
            seed = data.draw(st.integers(0, 2**32 - 1))
            level = data.draw(st.sampled_from([1, 2]))
            dom = random_connected_square_domain(np.random.default_rng(seed), level)
        elif kind == "window":
            t_lo = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]))
            dom = SquareUnion(chevron.level, chevron.squares, chevron.T, t_lo=t_lo)
        else:
            dom = chevron
        if L % dom.level:
            return
        region = IndicatorRegion(dom)
    G = assemble_gram(region, L)
    ref, size = gram_dense(region, L)
    assert np.array_equal(G, G.T)
    # relative to the summed terms, not to G: at L = 1 a tube along x = 0 cancels 65-fold
    assert np.all(np.abs(G - ref) <= 2e-15 * size)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=33),
    st.floats(0.05, 0.4),
    st.floats(0.01, 0.99),
    st.sampled_from([*range(1, 10), 16, 64]),
    st.sampled_from([2, 4]),
)
def test_tube_cells_match_the_per_category_reference_bitwise(values, delta0, frac, L, quad):
    # one weight call over every ramp cell and one moment product per category
    # slice: a moment row's rounding depends on its product's row count
    from oracles import tube_cells_per_category
    from waveobs.hum import _gram_cells, lattice_plan

    curve = Curve(np.linspace(0.0, 2.0, len(values)), values)
    tube = SmoothedTube(curve, WeightProfile(delta0, frac * delta0))
    got = _gram_cells(tube, L, lattice_plan(L, tube.T), quad)
    ref = tube_cells_per_category(tube, L, quad)
    assert all(np.array_equal(x, y) for x, y in zip(got, ref))


@settings(deadline=None, max_examples=80)
@given(st.data(), st.sampled_from([*range(1, 10), 16, 64]))
def test_hum_control_is_bitwise_the_same_with_a_lattice_plan(chevron, data, L):
    # steep random tubes (33 nodes over T = 2 reach slope 16), the cylinder and the chevron
    from waveobs.hum import lattice_plan

    kind = data.draw(st.sampled_from(["tube", "cylinder", "chevron"]))
    if kind == "tube":
        values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=33))
        delta0 = data.draw(st.floats(0.05, 0.4))
        frac = data.draw(st.floats(0.01, 0.99))
        curve = Curve(np.linspace(0.0, 2.0, len(values)), values)
        region = SmoothedTube(curve, WeightProfile(delta0, frac * delta0))
    elif kind == "cylinder":
        region = SmoothedTube.around(0.25, 2.0, 0.15)
    else:
        if L % chevron.level:
            return
        region = IndicatorRegion(chevron)
    plan, cells = lattice_plan(L, region.T), lattice_plan(L, region.T, tables=False)
    assert cells.phi is None and all(np.array_equal(x, y) for x, y in zip(cells[:5], plan[:5]))
    assert np.array_equal(assemble_gram(region, L, plan=plan), assemble_gram(region, L))
    assert np.array_equal(assemble_gram(region, L, plan=cells), assemble_gram(region, L))
    try:
        ref = hum_control(region, hum_rhs(L, EX1.y0, EX1.y1))
    except RuntimeError:  # a singular Gram: the planned solve must fail the same way
        with pytest.raises(RuntimeError, match="ill-conditioned"):
            hum_control(region, hum_rhs(L, EX1.y0, EX1.y1), plan=plan)
        return
    sol = hum_control(region, hum_rhs(L, EX1.y0, EX1.y1), plan=plan)
    assert np.array_equal(sol.z, ref.z)
    assert (sol.cost, sol.residual) == (ref.cost, ref.residual)


@pytest.mark.parametrize("L", [4, 8, 32])
def test_hum_control_solves_the_gram_against_its_right_hand_side(chevron, L):
    from waveobs.hum import lattice_plan

    data = get_preset("ex2")  # a velocity datum with breakpoints
    b, plan = hum_rhs(L, data.y0, data.y1, data.data_breakpoints()), lattice_plan(L, 2.0)
    for region in (SmoothedTube.around(0.25, 2.0, 0.15), IndicatorRegion(chevron)):
        sol = hum_control(region, b, plan=plan)
        z, res = solve_hum(assemble_gram(region, L, plan=plan), b)
        assert sol.level == (len(b) + 1) // 2 == L
        assert np.array_equal(sol.z, z) and (sol.residual, sol.cost) == (res, float(b @ z))
        ref = datum_from_coefficients(L, z)
        assert np.array_equal(sol.data.alpha, ref.alpha) and np.array_equal(sol.data.beta, ref.beta)


def test_hum_control_refuses_a_right_hand_side_of_even_length():
    tube = SmoothedTube.around(0.25, 2.0, 0.15)
    for b in (np.zeros(0), np.ones(16), hum_rhs(8, EX1.y0)[1:]):
        with pytest.raises(ValueError, match="2L - 1 entries"):
            hum_control(tube, b)


@pytest.mark.parametrize("kind", ["tube", "indicator"])
def test_a_lattice_plan_for_another_level_or_horizon_is_refused(chevron, kind):
    from waveobs.hum import lattice_plan

    region = SmoothedTube.around(0.25, 2.0, 0.15) if kind == "tube" else IndicatorRegion(chevron)
    assert region.T == 2.0
    for plan in (lattice_plan(16, 2.0), lattice_plan(8, 3.0), lattice_plan(8, 1.5)):
        with pytest.raises(ValueError, match="lattice plan"):
            assemble_gram(region, 8, plan=plan)
        with pytest.raises(ValueError, match="lattice plan"):
            hum_control(region, hum_rhs(8, EX1.y0), plan=plan)


@pytest.mark.parametrize("L", [1, 2, 3, 5, 8, 32, 64, 128])
@pytest.mark.parametrize("T", [0.5, 1, 2, 3])
def test_strip_cells_are_the_bounding_box_cells_bitwise(L, T):
    # the tube Gram's bincount sums in this order (category by category, each
    # in (a, b) order), so it must not change
    from oracles import strip_cells_meshgrid
    from waveobs.hum import lattice_plan

    if (T * L) % 1:
        with pytest.raises(ValueError, match="T\\*level must be a positive integer"):
            lattice_plan(L, T)
        return
    plan = lattice_plan(L, T)
    rA, rB, rcats = strip_cells_meshgrid(L, T)
    assert plan.offsets[0] == 0 and plan.offsets[-1] == plan.A.size == plan.B.size
    assert np.all(np.diff(plan.offsets) >= 0) and len(plan.offsets) == len(rcats) + 1
    for c, name in enumerate(rcats):
        A, B = (X[plan.offsets[c] : plan.offsets[c + 1]] for X in (plan.A, plan.B))
        rA_c, rB_c = rA[rcats[name]], rB[rcats[name]]
        assert A.dtype == rA_c.dtype and B.dtype == rB_c.dtype, name
        assert np.array_equal(A, rA_c) and np.array_equal(B, rB_c), name
    assert (plan.level, plan.M) == (L, round(T * L))
    assert np.array_equal(plan.phi, basis_tables(L))


def test_a_single_gram_builds_its_basis_tables_after_the_cell_moments(monkeypatch, chevron):
    # the tables then stay out of the cell moments' peak memory
    import waveobs.hum as hum

    events, gram_cells, tables = [], hum._gram_cells, hum.basis_tables
    monkeypatch.setattr(hum, "_gram_cells", lambda *a: events.append("cells") or gram_cells(*a))
    monkeypatch.setattr(hum, "basis_tables", lambda L: events.append("tables") or tables(L))
    for region in (SmoothedTube.around(0.25, 2.0, 0.15), IndicatorRegion(chevron)):
        events.clear()
        hum.assemble_gram(region, 8)
        assert events == ["cells", "tables"]


def test_lattice_plan_is_read_only():
    from waveobs.hum import lattice_plan

    plan = lattice_plan(4, 2.0)
    for arr in (plan.A, plan.B, plan.offsets, plan.phi):
        with pytest.raises(ValueError):
            arr[0] = 1
    with pytest.raises(AttributeError):
        plan.level = 8


def test_plateau_cells_exist_on_the_reference_cylinder():
    from waveobs.hum import _tube_bands, lattice_plan

    tube = SmoothedTube.around(0.25, 2.0, 0.15)
    plan = lattice_plan(32, 2.0)
    near, ramp = _tube_bands(tube, plan.A, plan.B, 1.0 / 32)
    assert 0 < np.sum(near & ~ramp) < np.sum(near)


def test_cell_rules_are_cached_and_read_only():
    from waveobs.hum import _cell_rules

    h = 1.0 / 8
    rules = _cell_rules(h)
    assert _cell_rules(h) is rules
    for arr, shape in zip(rules, [(5, 16)] * 3 + [(5, 16, 6)]):
        assert arr.shape == shape
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    with pytest.raises(TypeError):
        rules[0] = rules[1]
    # row 0 is the full cell, rows 1-4 the half-cell triangles
    du, dv, w, powers = rules
    for c in range(5):  # each moment table is bitwise, and laid out as, the one built per call
        u, v = du[c], dv[c]
        ref = np.column_stack([np.ones_like(u), u, v, u * u, v * v, u * v])
        assert np.array_equal(powers[c], ref) and powers[c].flags.c_contiguous
    assert w.sum(axis=1) == pytest.approx([h * h] + [h * h / 2] * 4, rel=1e-14)
    assert np.all((du[1] + dv[1] >= h) & (du[2] + dv[2] <= h) & (du[3] >= dv[3]) & (du[4] <= dv[4]))


def test_gram_level_must_refine_indicator_domain(chevron):
    with pytest.raises(ValueError):
        assemble_gram(IndicatorRegion(chevron), 6)


@pytest.mark.parametrize("L", [1, 3])
def test_indicator_gram_needs_no_integer_time_cells(L):
    # an indicator Gram uses no strip cells, so T*level = 5/2 or 15/2 is no error
    from oracles import gram_dense

    T = Fraction(5, 2)
    region = IndicatorRegion(SquareUnion(1, squares_in_time_slab(1, T), T))
    G = assemble_gram(region, L)
    ref, size = gram_dense(region, L)
    assert np.all(np.abs(G - ref) <= 2e-15 * size) and np.linalg.eigvalsh(G).min() > 0


def test_gram_requires_integer_time_cells():
    tube = SmoothedTube.around(0.5, 0.3, 0.15)
    with pytest.raises(ValueError):
        assemble_gram(tube, 8)


# ------------------------------------------------------------------- solving


def test_zero_data_gives_zero_control():
    tube = SmoothedTube.around(0.25, 2.0, 0.15)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    sol = hum_control(tube, hum_rhs(8, zero))
    assert np.all(sol.z == 0.0)
    assert sol.cost == 0.0
    assert forward_verify(sol, zero)["ratio"] == 0.0


def test_reference_cylinder_cost():
    tube = SmoothedTube.around(0.25, 2.0, 0.15)
    sol = hum_control(tube, hum_rhs(32, EX1.y0))
    assert sol.cost == pytest.approx(46.94, rel=0.10)
    assert sol.residual <= 1e-10
    assert sol.cost >= 0.0


def test_duality_identity():
    tube = SmoothedTube.around(0.25, 2.0, 0.15)
    G = assemble_gram(tube, 16)
    b = hum_rhs(16, EX1.y0)
    z, _ = solve_hum(G, b)
    bz = float(b @ z)
    assert abs(bz - float(z @ G @ z)) <= 1e-8 * abs(bz)


def test_optimality_against_random_test_data(rng):
    tube = SmoothedTube.around(0.25, 2.0, 0.15)
    L = 16
    G = assemble_gram(tube, L)
    b = hum_rhs(L, EX1.y0)
    z, _ = solve_hum(G, b)
    scale = float(np.linalg.norm(b))
    for _ in range(20):
        psi = rng.standard_normal(2 * L - 1)
        psi /= np.linalg.norm(psi)
        # <psi, G z> is the weighted pairing of the test wave with the
        # optimal adjoint state; optimality makes it equal <psi, b>
        assert abs(float(psi @ (G @ z - b))) <= 1e-8 * scale


def test_control_density_is_weighted_basis_sum(rng):
    tube = SmoothedTube.around(0.25, 2.0, 0.15)
    L = 8
    sol = hum_control(tube, hum_rhs(L, EX1.y0))
    x = rng.uniform(0, 1, 100)
    t = rng.uniform(0, 2, 100)
    direct = np.zeros(100)
    for k in range(2 * L - 1):
        e = np.zeros(2 * L - 1)
        e[k] = 1.0
        direct += sol.z[k] * eval_phi(datum_from_coefficients(L, e), x, t)
    direct *= tube.chi(x, t)
    assert control_density(sol, x, t) == pytest.approx(direct, abs=1e-12)


def test_solver_reports_ill_conditioned_system():
    G = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([1.0, 1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="ill-conditioned"):
            solve_hum(G, b)


def test_singular_gram_that_passes_the_cholesky_check_is_reported():
    # two level-2 squares at level 4: one eigenvalue of G is ~1e-19, the last
    # Cholesky pivot is roundoff-positive, and the LU solve either meets an exact
    # zero or returns a z whose residual is far above roundoff
    dom = SquareUnion(level=2, squares=frozenset([(2, -1), (4, -1)]), T=2)
    G = assemble_gram(IndicatorRegion(dom), 4)
    with pytest.raises(RuntimeError, match="ill-conditioned"):
        solve_hum(G, np.ones(G.shape[0]))


def test_solve_with_a_matrix_right_side_is_the_column_solves(rng):
    G = assemble_gram(SmoothedTube.around(0.25, 2.0, 0.15), 16)
    n = G.shape[0]
    for B in (rng.standard_normal((n, 5)), np.eye(n)):
        Z, res = solve_hum(G, B)
        assert Z.shape == B.shape and res <= 1e-12
        for k in range(B.shape[1]):
            z, _ = solve_hum(G, B[:, k])
            assert np.max(np.abs(Z[:, k] - z)) <= 1e-12 * np.max(np.abs(z))


@pytest.mark.parametrize("n", [0, 1, 2, 200])
def test_tridiagonal_solve_matches_a_dense_solve(rng, n):
    diag = rng.uniform(2.5, 4.0, n)
    off = rng.uniform(-1.0, 1.0, max(n - 1, 0))
    rhs = rng.standard_normal(n)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    x = solve_tridiagonal(diag, off, rhs)
    assert x.shape == (n,) and x.dtype == np.float64
    assert np.allclose(x, np.linalg.solve(dense, rhs), rtol=1e-12, atol=0)


# ------------------------------------------------------------------- forward


def test_uncontrolled_run_conserves_energy():
    tube = SmoothedTube.around(0.25, 2.0, 0.15)
    L = 16
    idle = HumSolution(
        z=np.zeros(2 * L - 1),
        cost=0.0,
        residual=0.0,
        data=datum_from_coefficients(L, np.zeros(2 * L - 1)),
        region=tube,
        level=L,
    )
    out = forward_verify(idle, EX1.y0)
    assert out["ratio"] == pytest.approx(1.0, abs=1e-6)


def test_terminal_ratio_decreases_with_level():
    tube = SmoothedTube.around(0.25, 2.0, 0.15)
    ratios = []
    for L in (8, 16, 32):
        sol = hum_control(tube, hum_rhs(L, EX1.y0))
        ratios.append(forward_verify(sol, EX1.y0)["ratio"])
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 0.1


def _per_step_leapfrog(m, T, y0, beta, forcing):
    """Reference scheme: the forcing evaluated once per time step."""
    M = round(T * m)
    dt = 1.0 / m
    xin = np.arange(1, m) / m
    Y = np.zeros((M + 1, m + 1))
    Y[0] = y0
    Y[1, 1:m] = 0.5 * (y0[2:] + y0[:-2]) + (beta[:-1] + beta[1:]) / (2 * m)
    Y[1, 1:m] += 0.5 * dt * dt * np.asarray(forcing(xin, 0.0), dtype=float)
    for k in range(1, M):
        Y[k + 1, 1:m] = Y[k, 2:] + Y[k, :-2] - Y[k - 1, 1:m]
        Y[k + 1, 1:m] += dt * dt * np.asarray(forcing(xin, k * dt), dtype=float)
    return Y


def test_blocked_forcing_is_bitwise_per_step_forcing(chevron, rng):
    tube = hum_control(SmoothedTube.around(0.25, 2.0, 0.15), hum_rhs(8, EX1.y0))
    sharp = hum_control(IndicatorRegion(chevron), hum_rhs(8, EX1.y0))
    forcings = {
        "tube": lambda x, t: control_density(tube, x, t),
        "chevron": lambda x, t: control_density(sharp, x, t),
        "scalar": lambda x, t: 0.75,
    }
    # M = 2m time steps: below the 64-step block, not a multiple of it, two blocks
    for m in (16, 40, 64):
        y0 = np.r_[0.0, rng.standard_normal(m - 1), 0.0]
        beta = rng.standard_normal(m)
        for name, forcing in forcings.items():
            Y = leapfrog_solve(m, 2.0, y0, beta, forcing)
            assert np.array_equal(Y, _per_step_leapfrog(m, 2.0, y0, beta, forcing)), (name, m)
            assert np.any(Y != leapfrog_solve(m, 2.0, y0, beta)), (name, m)


def _verify_run(solution, preset, m):
    """forward_verify's leapfrog arguments, forcing callback and Y, captured from its call."""
    seen = {}

    def spy(*args):
        seen["args"], seen["Y"] = args, leapfrog_solve(*args)
        return seen["Y"]

    with patch("waveobs.hum.leapfrog_solve", spy):
        forward_verify(solution, preset.y0, preset.y1, preset.data_breakpoints(), m)
    return seen


def _wavy_tube():
    times = np.linspace(0.0, 2.0, 33)
    return SmoothedTube(Curve(times, 0.5 + 0.4 * np.sin(np.pi * times)), WeightProfile(0.15))


def _forcing_regions(chevron):
    return {
        "cylinder": SmoothedTube.around(0.25, 2.0, 0.15),
        "wavy_tube": _wavy_tube(),  # its band reaches both walls
        "chevron": IndicatorRegion(chevron),
    }


def _node_forcing(seen, m):
    """The captured forcing on the whole leapfrog grid, with the interior nodes x and times t."""
    M = seen["Y"].shape[0] - 1
    x = (np.arange(1, m) / m)[None, :]
    t = np.arange(M)[:, None] * (1.0 / m)  # the times the scheme passes
    return seen["args"][-1](x, t), x, t


@pytest.mark.parametrize("preset", ["ex1", "ex2"])  # ex2 has a velocity datum
@pytest.mark.parametrize("L,m", [(8, 32), (16, 16), (16, 128)])
def test_forcing_is_bitwise_the_control_density_at_power_of_two_grids(chevron, preset, L, m):
    data = get_preset(preset)
    for name, region in _forcing_regions(chevron).items():
        sol = hum_control(region, hum_rhs(L, data.y0, data.y1, data.data_breakpoints()))
        f, x, t = _node_forcing(_verify_run(sol, data, m), m)
        want = control_density(sol, x, t)
        assert np.array_equal(f.view(np.int64), want.view(np.int64)), (name, preset, L, m)
        assert np.any(f != 0.0) and np.any(f == 0.0), (name, preset, L, m)


@pytest.mark.parametrize("preset", ["ex1", "ex2"])
@pytest.mark.parametrize("L,m", [(4, 12), (12, 72), (24, 96)])
def test_forcing_is_the_control_density_to_roundoff_off_powers_of_two(chevron, preset, L, m):
    data = get_preset(preset)
    for name, region in _forcing_regions(chevron).items():
        sol = hum_control(region, hum_rhs(L, data.y0, data.y1, data.data_breakpoints()))
        f, x, t = _node_forcing(_verify_run(sol, data, m), m)
        scale = np.max(np.abs(eval_phi(sol.data, x, t)))
        assert np.max(np.abs(f - control_density(sol, x, t))) <= 1e-14 * scale, (name, L, m)


@pytest.mark.parametrize("L", [8, 32, 64])
def test_forward_run_is_the_eval_phi_forcing_run(chevron, L):
    for preset in ("ex1", "ex2"):
        data = get_preset(preset)
        for name, region in _forcing_regions(chevron).items():
            sol = hum_control(region, hum_rhs(L, data.y0, data.y1, data.data_breakpoints()))
            seen = _verify_run(sol, data, 4 * L)
            Y = leapfrog_solve(*seen["args"][:-1], eval_phi_forcing(sol))
            assert np.array_equal(seen["Y"], Y), (name, preset, L)


def test_forward_grid_validation():
    tube = SmoothedTube.around(0.25, 2.0, 0.15)
    sol = hum_control(tube, hum_rhs(8, EX1.y0))
    with pytest.raises(ValueError):
        forward_verify(sol, EX1.y0, grid_m=12)


def test_cost_never_increases_when_domain_grows():
    chev = sorted(
        {(2, 1), (2, -1), (3, 1), (3, -1), (4, 1), (4, -1), (5, 1), (5, -1),
         (6, 1), (6, -1), (7, 1), (7, -1), (8, -1), (8, -2), (9, -2), (8, -3),
         (9, -3), (8, -4), (9, -4), (8, -5), (9, -5), (8, -6), (9, -6),
         (8, -7), (9, -7)}
    )
    slab = sorted(map(tuple, squares_in_time_slab(4, 2)))
    mid = sorted(set(chev) | set(sorted(set(slab) - set(chev))[:4]))
    costs = []
    for squares in (chev, mid, slab):
        region = IndicatorRegion(SquareUnion(4, squares, 2))
        costs.append(hum_control(region, hum_rhs(8, EX1.y0)).cost)
    assert costs[0] >= costs[1] >= costs[2]


# ------------------------------------------------- properties of the cost J

# polynomial data with dyadic coefficients: y0 = x(1-x)(a0 + a1 x + a2 x^2),
# y1 = b0 + b1 x + b2 x^2; Gauss-8 integrates them exactly in hum_rhs
_COEFS = st.lists(st.integers(-8, 8), min_size=6, max_size=6)


def _poly_datum(coefs, scale=1.0, mirror=False):
    a, b = scale * np.asarray(coefs[:3]) / 4, scale * np.asarray(coefs[3:]) / 4

    def at(x):
        x = np.asarray(x, dtype=float)
        return 1.0 - x if mirror else x

    def y0(x):
        x = at(x)
        return x * (1.0 - x) * (a[0] + x * (a[1] + x * a[2]))

    def y1(x):
        x = at(x)
        return b[0] + x * (b[1] + x * b[2])

    return y0, y1


@settings(deadline=None, max_examples=10)
@given(
    _COEFS,
    st.floats(0.125, 8.0) | st.floats(-8.0, -0.125),
    st.sampled_from([0.25, 0.4, 0.6]),
    st.sampled_from([4, 8, 16]),
)
def test_cost_is_quadratic_in_the_data(coefs, c, x0, L):
    region = SmoothedTube.around(x0, 2.0, 0.15)
    J = hum_control(region, hum_rhs(L, *_poly_datum(coefs))).cost
    Jc = hum_control(region, hum_rhs(L, *_poly_datum(coefs, scale=c))).cost
    assert Jc == pytest.approx(c * c * J, rel=1e-9)


@settings(deadline=None, max_examples=10)
@given(
    _COEFS,
    st.sampled_from([Fraction(1, 4), Fraction(5, 16), Fraction(3, 8), Fraction(1, 2)]),
    st.sampled_from([(4, 1), (4, 2), (4, 4), (8, 1), (8, 2)]),
)
def test_cost_is_invariant_under_the_mirror(coefs, x0, levels):
    # the sharp cylinder: its Gram is exact, so x -> 1 - x maps the discrete
    # problem onto itself (the smoothed tube's collapsed triangle rule at
    # t = 0 and t = T is not mirror-symmetric, so its cost is only
    # symmetric up to quadrature error)
    n, p = levels

    def cylinder(x):
        cover = squares_in_domain(Cylinder(x0=x, delta0=Fraction(1, 4), T=2), n)
        return IndicatorRegion(SquareUnion(level=n, squares=cover, T=2))

    J = hum_control(cylinder(x0), hum_rhs(n * p, *_poly_datum(coefs))).cost
    Jm = hum_control(cylinder(1 - x0), hum_rhs(n * p, *_poly_datum(coefs, mirror=True))).cost
    assert Jm == pytest.approx(J, rel=1e-9)


@settings(deadline=None, max_examples=20)
@given(
    st.lists(st.integers(-8, 8), min_size=14, max_size=14),
    st.integers(0, 2**32 - 1),
    st.sampled_from([(2, 1), (2, 2), (2, 4), (4, 1), (4, 2)]),
)
def test_cost_does_not_decrease_from_level_to_twice_the_level(coefs, seed, levels):
    # the level-L data space lies in the level-2L one, and for an indicator
    # weight the Gram is exact, as are the pairings with data of degree <= 7
    # (Gauss-8), so the conjugate minimum can only go down: J(2L) >= J(L)
    n, p = levels
    region = IndicatorRegion(random_connected_square_domain(np.random.default_rng(seed), n))
    a, c = np.asarray(coefs[:6]) / 4, np.asarray(coefs[6:]) / 4

    def y0(x):
        x = np.asarray(x, dtype=float)
        return x * (1.0 - x) * np.polynomial.polynomial.polyval(x, a)

    def y1(x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c)

    J = hum_control(region, hum_rhs(n * p, y0, y1)).cost
    J2 = hum_control(region, hum_rhs(2 * n * p, y0, y1)).cost
    assert J2 >= J * (1.0 - 1e-12)
