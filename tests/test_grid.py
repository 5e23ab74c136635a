"""Characteristic lattice: folding, squares, domains, covers, interiors."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveobs.grid import (
    Curve,
    Cylinder,
    CurveTube,
    SquareUnion,
    cover_cells,
    domain_from_json,
    domain_to_json,
    epsilon_interior,
    squares_in_domain,
    squares_in_time_slab,
    table_positions,
)
from waveobs.testing import random_connected_square_domain

from oracles import (
    as_fraction,
    fold_index,
    interval_bounds,
    interval_midpoint,
    slab_cells_meshgrid,
    square_area,
    square_center,
    square_corners,
    subsquare_indices,
    vertex_position,
)

nonzero_ints = st.integers(-200, 200).filter(lambda i: i != 0)
levels = st.integers(1, 12)


# ---------------------------------------------------------------------- fold


def test_fold_examples():
    assert fold_index(2, 4) == 2
    assert fold_index(5, 4) == -4
    assert fold_index(9, 4) == 1


def test_fold_identity_branch():
    for n in (1, 2, 4, 7):
        for i in range(1, n + 1):
            assert fold_index(i, n) == i


def test_fold_zero_rejected():
    with pytest.raises(ValueError):
        fold_index(0, 4)
    with pytest.raises(ValueError):
        table_positions(np.array([1, 0, 2]), 4)


@given(nonzero_ints, levels)
def test_fold_antisymmetric(i, n):
    assert fold_index(-i, n) == -fold_index(i, n)


def _index_at(y, n):
    """Extended interval index containing the non-node point y."""
    k = int(np.floor(y * n))
    return k + 1 if y > 0 else k


@given(nonzero_ints, levels)
def test_fold_two_periodic(i, n):
    # shifting an interval by one period (length 2) must not change the fold
    m = float(interval_midpoint(i, n))
    assert fold_index(_index_at(m + 2.0, n), n) == fold_index(i, n)


@given(nonzero_ints, levels)
def test_fold_lands_in_fundamental_set(i, n):
    f = fold_index(i, n)
    assert f != 0 and -n <= f <= n


@given(st.lists(nonzero_ints, min_size=1, max_size=30), levels, st.integers(1, 5))
def test_table_positions_are_the_folded_vertex_positions(idx, n, p):
    out = table_positions(np.array(idx), n)
    assert out.tolist() == [vertex_position(fold_index(i, n), n) for i in idx]
    # refinement: the p level-(p n) subintervals of I_i sit at p * position + (0..p-1)
    for i, pos in zip(idx, out.tolist()):
        fine = sorted({ii for ii, _ in subsquare_indices((i, 1), p)})
        assert table_positions(np.array(fine), p * n).tolist() == [p * pos + s for s in range(p)]


def test_fold_respects_odd_periodic_extension():
    # the fold reproduces which fundamental interval the extension maps onto:
    # midpoint of I_e reduced mod 2 into [-1, 1] lies in I_fold(e)
    for n in (2, 4, 5):
        for e in list(range(-6 * n, 0)) + list(range(1, 6 * n + 1)):
            m = interval_midpoint(e, n)
            r = (m + 1) % 2 - 1
            lo, hi = interval_bounds(fold_index(e, n), n)
            assert lo < r < hi


# ------------------------------------------------------------------- squares


def test_interval_bounds_mirror():
    for n in (1, 3, 4):
        for e in range(1, 3 * n):
            lo, hi = interval_bounds(e, n)
            mlo, mhi = interval_bounds(-e, n)
            assert (mlo, mhi) == (-hi, -lo)
    with pytest.raises(ValueError):
        interval_bounds(0, 4)


def test_square_center_examples():
    assert square_center((4, 1), 4) == (Fraction(1, 2), Fraction(3, 8))
    assert square_center((7, -3), 4) == (Fraction(1, 2), Fraction(9, 8))
    assert square_center((1, 1), 4) == (Fraction(1, 8), 0)


def test_square_corners_consistent_with_center_and_area():
    for ij in [(4, 1), (7, -3), (-2, 5), (1, 1)]:
        corners = square_corners(ij, 4)
        cx = sum(c[0] for c in corners) / 4
        ct = sum(c[1] for c in corners) / 4
        assert (cx, ct) == square_center(ij, 4)
        # side length of the (u,v) cell is 1/4, so the (x,t) area is 1/32
        xs = sorted(set(c[0] for c in corners))
        assert square_area(4) == Fraction(1, 32)
        assert xs[-1] - xs[0] == Fraction(1, 4)  # diamond width


def test_subsquare_examples():
    assert subsquare_indices((3, -2), 1) == {(3, -2)}
    assert subsquare_indices((1, 1), 2) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert subsquare_indices((-1, 2), 2) == {(-2, 3), (-2, 4), (-1, 3), (-1, 4)}
    with pytest.raises(ValueError):
        subsquare_indices((1, 1), 0)


@given(nonzero_ints, nonzero_ints, st.integers(1, 4), st.integers(1, 6))
def test_subsquares_tile_the_parent(i, j, p, n):
    subs = subsquare_indices((i, j), p)
    assert len(subs) == p * p
    # geometric union: corners of the parent square equal the extreme
    # corners of the refined squares at level p*n
    parents = square_corners((i, j), n)
    child_corners = [c for ij2 in subs for c in square_corners(ij2, p * n)]
    for fn in (min, max):
        assert fn(c[0] for c in parents) == fn(c[0] for c in child_corners)
        assert fn(c[1] for c in parents) == fn(c[1] for c in child_corners)


# ------------------------------------------------------------- strip / cover


def _in_closed_strip(ij, n, T):
    return all(
        0 <= x <= 1 and 0 <= t <= T for x, t in square_corners(ij, n)
    )


def test_squares_in_time_slab_matches_brute_force():
    n, T = 4, 2
    brute = {
        (i, j)
        for i in range(-3 * n, 3 * n + 1)
        for j in range(-3 * n, 3 * n + 1)
        if i != 0 and j != 0 and _in_closed_strip((i, j), n, T)
    }
    assert set(squares_in_time_slab(n, T)) == brute
    # the strip boundary cuts the first and last diamond rows, so the count
    # of whole squares is below the area ratio 2*n*n*T = 64
    assert len(brute) == 52


def test_square_in_time_slab_validation():
    with pytest.raises(ValueError, match="index 0"):
        SquareUnion(level=4, squares=frozenset([(0, 1)]), T=2)
    slab = squares_in_time_slab(4, 2)
    assert (2, 1) in slab
    assert (1, 2) not in slab  # t < 0 corner


def test_square_union_rejects_out_of_strip_squares():
    with pytest.raises(ValueError, match="outside the space-time strip"):
        SquareUnion(level=2, squares=frozenset([(-1, 2)]), T=2)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 6), st.sampled_from([1, Fraction(3, 2), 2]), st.integers(0, 2**32 - 1))
def test_square_union_names_its_first_out_of_strip_square(n, T, seed):
    # the array check against the exact corner test, over a box of squares
    rng = np.random.default_rng(seed)
    box = [(i, j) for i in range(-3 * n, 3 * n + 1) for j in range(-3 * n, 3 * n + 1) if i and j]
    inside = [ij for ij in box if _in_closed_strip(ij, n, T)]
    outside = [ij for ij in box if not _in_closed_strip(ij, n, T)]
    valid = [inside[k] for k in rng.choice(len(inside), min(len(inside), 6), replace=False)]
    bad = [outside[k] for k in rng.choice(len(outside), int(rng.integers(1, 4)), replace=False)]
    assert SquareUnion(level=n, squares=frozenset(valid), T=T).squares == frozenset(valid)
    with pytest.raises(ValueError, match=re.escape(f"square {min(bad)} at level {n} lies outside")):
        SquareUnion(level=n, squares=frozenset(valid + bad), T=T)
    with pytest.raises(ValueError, match="index 0"):
        SquareUnion(level=n, squares=frozenset(valid + [(0, int(rng.integers(1, n + 1)))]), T=T)


def test_chevron_fixture_squares(chevron):
    from conftest import CHEVRON_SQUARES

    assert chevron.level == 4
    assert float(chevron.T) == 2.0
    assert chevron.squares == CHEVRON_SQUARES


def test_squares_in_domain_identity_and_refinement(chevron):
    assert squares_in_domain(chevron, 4) == chevron.squares
    for p in (2, 3):
        refined = squares_in_domain(chevron, 4 * p)
        expected = set()
        for ij in chevron.squares:
            expected |= subsquare_indices(ij, p)
        assert refined == expected


def test_squares_in_domain_returns_a_frozenset(chevron):
    cylinder = Cylinder(x0=0.25, delta0=0.15, T=2)
    tube = CurveTube(Curve.constant(0.5, 2.0, 16), delta0=0.15)
    domains = [
        chevron,
        SquareUnion(chevron.level, chevron.squares, chevron.T, 0.3, 1.7),
        cylinder,
        tube,
        epsilon_interior(tube, 0.05),
        epsilon_interior(cylinder, 0.2),  # empty
        SquareUnion(level=1, squares=frozenset(), T=2),
        Cylinder(x0=0.5, delta0=0, T=2),
    ]
    for domain in domains:
        for n in (1, 4, 8):
            assert type(squares_in_domain(domain, n)) is frozenset, (domain, n)
    assert squares_in_domain(chevron, chevron.level) is chevron.squares


@given(st.integers(-8, 8), st.integers(-2, 10), st.integers(-8, 8), st.integers(-2, 10))
def test_slab_cells_are_the_meshgrid_cells_in_a_b_order(d_lo, d_width, s_lo, s_width):
    # negative widths give empty ranges
    from waveobs.grid import _slab_cells

    a, b = _slab_cells(d_lo, d_lo + d_width, s_lo, s_lo + s_width)
    ra, rb = slab_cells_meshgrid(d_lo, d_lo + d_width, s_lo, s_lo + s_width)
    order = np.lexsort((rb, ra))
    assert a.dtype == ra.dtype and b.dtype == rb.dtype
    assert np.array_equal(a, ra[order]) and np.array_equal(b, rb[order])


def test_cover_cells_are_the_squares_in_domain(chevron):
    window = SquareUnion(chevron.level, chevron.squares, chevron.T, t_lo=Fraction(1, 2))
    cases = [(dom, n) for dom in (chevron, window) for n in (4, 8, 12)]
    times = np.linspace(0.0, 2.0, 33)
    tube = CurveTube(Curve(times, 0.5 + 0.2 * np.sin(np.pi * times)), delta0=0.15)
    cases += [(Cylinder(x0=0.25, delta0=0.15, T=2), 16), (tube, 16)]
    cases += [(SquareUnion(level=1, squares=frozenset(), T=2), 4)]
    for domain, n in cases:
        a, b = cover_cells(domain, n)
        pairs = list(zip((a + (a >= 0)).tolist(), (b + (b >= 0)).tolist()))
        assert len(pairs) == len(set(pairs)), (domain, n)
        assert set(pairs) == squares_in_domain(domain, n), (domain, n)
    assert len(squares_in_domain(window, 4)) == 18


def test_squares_in_domain_non_multiple_level_nests_geometrically(chevron):
    # at a level that does not divide the stored one, squares are kept only
    # when they sit inside the union geometrically
    cover = squares_in_domain(chevron, 6)
    assert cover
    parents = {ij: square_corners(ij, 4) for ij in chevron.squares}
    for ij in cover:
        for cx, ct in square_corners(ij, 6):
            assert any(
                min(c[0] + c[1] for c in cs) <= cx + ct <= max(c[0] + c[1] for c in cs)
                and min(c[0] - c[1] for c in cs)
                <= cx - ct
                <= max(c[0] - c[1] for c in cs)
                for cs in parents.values()
            )


# Cover oracle: the exact-rational definitions the integer covers implement,
# a breakpoint overlay for square unions and the corner/edge test for
# cylinders and tubes, over brute-force candidate squares.


def _rect_covered(urange, vrange, rects):
    """Is [ulo,uhi]x[vlo,vhi] inside the union of the closed rectangles?

    Overlays the rectangles' breakpoints and checks the midpoint of every
    elementary subcell for membership, in exact rationals.
    """
    ulo, uhi = urange
    vlo, vhi = vrange
    ubreaks = sorted({ulo, uhi} | {b for (ur, _) in rects for b in ur if ulo < b < uhi})
    vbreaks = sorted({vlo, vhi} | {b for (_, vr) in rects for b in vr if vlo < b < vhi})
    for ua, ub in zip(ubreaks[:-1], ubreaks[1:]):
        um = (ua + ub) / 2
        for va, vb in zip(vbreaks[:-1], vbreaks[1:]):
            vm = (va + vb) / 2
            if not any(ur[0] <= um <= ur[1] and vr[0] <= vm <= vr[1] for ur, vr in rects):
                return False
    return True


def _tube_edges_within(ij, n, tube):
    """Every edge of the square within delta0 of the centerline (float test).

    Along an edge x is affine in t, so the deviation from the
    piecewise-affine centerline peaks at the edge's ends or at a curve node.
    """
    (ulo, uhi), (vlo, vhi) = interval_bounds(ij[0], n), interval_bounds(ij[1], n)
    edges = [(float(v), 1.0, (ulo - v) / 2, (uhi - v) / 2) for v in (vlo, vhi)]
    edges += [(float(u), -1.0, (u - vhi) / 2, (u - vlo) / 2) for u in (ulo, uhi)]
    for w, sign, ta, tb in edges:  # x = w + sign * t along the edge
        ta, tb = float(ta), float(tb)
        ts = [ta, tb] + [tk for tk in tube.curve.times.tolist() if ta < tk < tb]
        dev = max(abs(w + sign * tt - float(tube.curve(tt))) for tt in ts)
        if dev > float(tube.delta0) + 1e-14:
            return False
    return True


def _oracle_cover(domain, n):
    T = Fraction(domain.T)
    candidates = [
        (i, j)
        for i in range(1, math.ceil((1 + T) * n) + 1)  # u = x + t >= 0
        for j in range(-math.ceil(T * n), n + 1)  # -T <= v = x - t <= 1
        if j != 0
    ]
    if isinstance(domain, SquareUnion):
        rects = [
            (interval_bounds(i, domain.level), interval_bounds(j, domain.level))
            for i, j in domain.squares
        ]
    out = set()
    for ij in candidates:
        (ulo, uhi), (vlo, vhi) = interval_bounds(ij[0], n), interval_bounds(ij[1], n)
        if (ulo - vhi) / 2 < domain.t_lo or (uhi - vlo) / 2 > domain.t_hi:
            continue
        if isinstance(domain, SquareUnion):
            keep = _rect_covered((ulo, uhi), (vlo, vhi), rects)
        elif not _in_closed_strip(ij, n, T):
            keep = False
        elif isinstance(domain, Cylinder):
            keep = all(abs(x - domain.x0) <= domain.delta0 for x, _ in square_corners(ij, n))
        else:
            keep = _tube_edges_within(ij, n, domain)
        if keep:
            out.add(ij)
    return out


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
def test_union_covers_match_the_rational_overlay(level):
    rng = np.random.default_rng(level)
    for _ in range(2):
        domain = random_connected_square_domain(rng, level)
        for n in (level + 1, 2 * level - 1, 3 * level):
            cover = squares_in_domain(domain, n)
            assert cover == _oracle_cover(domain, n), (sorted(domain.squares), n)


def test_windowed_chevron_covers_match_the_rational_overlay(chevron):
    for t_lo, t_hi in [(Fraction(3, 10), Fraction(17, 10)), (0.3, 1.7)]:
        domain = SquareUnion(chevron.level, chevron.squares, chevron.T, t_lo, t_hi)
        for n in (4, 5, 7, 8, 12):
            cover = squares_in_domain(domain, n)
            assert cover and cover == _oracle_cover(domain, n), (t_lo, n)


def test_cylinder_covers_match_the_corner_test():
    # binary-float parameters: 2n(x0 - delta0) is never an integer here
    cylinder = Cylinder(x0=0.25, delta0=0.15, T=2)
    inner = epsilon_interior(cylinder, 0.05)  # a time window (0.05, 1.95)
    for domain in (cylinder, inner):
        for n in (8, 16, 33):
            cover = squares_in_domain(domain, n)
            assert cover and cover == _oracle_cover(domain, n), (domain, n)


@pytest.mark.parametrize("n", [8, 16, 33])
def test_tube_covers_match_the_edge_test(n):
    rng = np.random.default_rng(20260818)
    times = np.linspace(0.0, 2.0, 65)
    values = np.clip(0.5 + np.cumsum(rng.uniform(-0.02, 0.02, times.size)), 0.2, 0.8)
    tube = CurveTube(curve=Curve(times, values), delta0=0.15)
    cover = squares_in_domain(tube, n)
    assert cover and cover == _oracle_cover(tube, n)


def test_inner_squares_cover_the_eroded_cylinder(rng):
    # the level-8 square family of the cylinder (5/16, 11/16) x (0, 2)
    # contains its 0.15-interior
    domain = Cylinder(x0=0.5, delta0=Fraction(3, 16), T=2)
    family = squares_in_domain(domain, 8)
    bounds = {
        ij: (interval_bounds(ij[0], 8), interval_bounds(ij[1], 8)) for ij in family
    }
    inner = epsilon_interior(domain, 0.15)
    x = rng.uniform(0, 1, 2000)
    t = rng.uniform(0, 2, 2000)
    keep = inner.contains(x, t)
    assert keep.sum() > 50
    for xi, ti in zip(x[keep], t[keep]):
        u, v = xi + ti, xi - ti
        assert any(
            ub[0] <= u <= ub[1] and vb[0] <= v <= vb[1]
            for ub, vb in bounds.values()
        ), (xi, ti)


# ------------------------------------------------------------------- domains


def test_square_union_contains_matches_corners(chevron, rng):
    x = rng.uniform(0, 1, 500)
    t = rng.uniform(0, 2, 500)
    inside = chevron.contains(x, t)
    corner_sets = {ij: square_corners(ij, 4) for ij in chevron.squares}
    for xi, ti, flag in zip(x, t, inside):
        u, v = xi + ti, xi - ti
        geometric = any(
            min(c[0] + c[1] for c in cs) <= u <= max(c[0] + c[1] for c in cs)
            and min(c[0] - c[1] for c in cs) <= v <= max(c[0] - c[1] for c in cs)
            for cs in corner_sets.values()
        )
        assert bool(flag) == geometric


def test_cylinder_and_tube_contains():
    cyl = Cylinder(x0=0.5, delta0=0.1, T=1)
    assert cyl.contains(0.45, 0.5) and not cyl.contains(0.39, 0.5)
    assert not cyl.contains(0.5, 1.5)
    curve = Curve(np.linspace(0, 1, 11), np.linspace(0.3, 0.7, 11))
    tube = CurveTube(curve=curve, delta0=0.1)
    # the tube is open in time: nothing at t = 0 or t = T
    assert not tube.contains(0.3, 0.0) and not tube.contains(0.7, 1.0)
    assert tube.contains(0.32, 0.05) and not tube.contains(0.65, 0.05)
    assert tube.contains(0.68, 0.95) and not tube.contains(0.32, 0.95)
    assert tube.contains(0.5, 0.5) and not tube.contains(0.35, 0.5)


def test_epsilon_interior_is_contained_and_covered(rng):
    domain = Cylinder(x0=0.5, delta0=Fraction(3, 16), T=2)
    inner = epsilon_interior(domain, 0.15)
    x = rng.uniform(0, 1, 300)
    t = rng.uniform(0, 2, 300)
    inside = inner.contains(x, t)
    assert inside.any()
    assert np.all(domain.contains(x[inside], t[inside]))
    # at level 8 the eroded cylinder is too thin to hold any whole square;
    # at level 32 its square family is nonempty and sits inside the original
    assert squares_in_domain(inner, 8) == set()
    fine = squares_in_domain(inner, 32)
    assert fine
    for ij in fine:
        for cx, ct in square_corners(ij, 32):
            tt = min(max(float(ct), 1e-12), 2.0 - 1e-12)
            assert domain.contains(float(cx), tt)


@pytest.mark.parametrize("moving", [False, True])
def test_tube_interior_cover_lies_in_the_tube_cover_and_window(moving):
    times = np.linspace(0.0, 2.0, 33)
    values = 0.5 + (0.05 * np.sin(np.pi * times) if moving else 0.0 * times)
    tube = CurveTube(curve=Curve(times, values), delta0=0.15)
    eps = Fraction(1, 20)
    inner = epsilon_interior(tube, eps)
    assert (inner.t_lo, inner.t_hi) == (eps, tube.T - eps)
    n = 16
    cover = squares_in_domain(inner, n)
    assert cover and cover <= squares_in_domain(tube, n)
    assert cover == _oracle_cover(inner, n)
    for ij in cover:
        ts = [ct for _, ct in square_corners(ij, n)]  # the closed square's times
        assert eps <= min(ts) and max(ts) <= tube.T - eps, ij


def test_epsilon_interior_empty_when_eps_large():
    inner = epsilon_interior(Cylinder(x0=0.5, delta0=0.1, T=1), 0.3)
    assert inner.is_empty()
    with pytest.raises(TypeError, match="unsupported domain type SquareUnion"):
        epsilon_interior(SquareUnion(level=2, squares={(2, 1)}, T=1), 0.1)


# --------------------------------------------------------------------- curve


def test_curve_basics():
    c = Curve.constant(0.4, 2.0, 9)
    assert c.T == 2.0 and c(1.234) == 0.4
    saw = Curve(np.linspace(0, 2, 9), [0.4, 0.65, 0.4, 0.65, 0.4, 0.65, 0.4, 0.65, 0.4])
    assert saw.lipschitz_estimate() == pytest.approx(1.0)
    assert saw.h1_seminorm_sq() == pytest.approx(2.0)  # slope^2 * T
    lin = Curve(np.linspace(0, 2, 5), 0.3 + 0.1 * np.linspace(0, 2, 5))
    assert lin.h1_seminorm_sq() == pytest.approx(0.1**2 * 2.0)
    assert lin(1.0) == pytest.approx(0.4)


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve([0.0, 0.5, 0.4], [0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        Curve([0.1, 0.5, 1.0], [0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        Curve([0.0], [0.5])


# ----------------------------------------------------------------------- io


def test_domain_json_roundtrip(chevron):
    for domain in [
        chevron,
        Cylinder(x0=0.25, delta0=0.15, T=2),
        CurveTube(curve=Curve.constant(0.3, 2.0, 17), delta0=0.1),
    ]:
        doc = domain_to_json(domain)
        back = domain_from_json(doc)
        assert domain_to_json(back) == doc
        x = np.linspace(0, 1, 37)
        t = np.linspace(0, float(domain.T), 23)
        X, Tt = np.meshgrid(x, t)
        assert np.array_equal(
            domain.contains(X.ravel(), Tt.ravel()),
            back.contains(X.ravel(), Tt.ravel()),
        )


def test_domain_json_keeps_the_time_window(chevron):
    tube = CurveTube(curve=Curve.constant(0.5, 2.0, 33), delta0=0.15)
    windowed_union = SquareUnion(chevron.level, chevron.squares, chevron.T, 0.3, 1.7)
    for domain in [
        epsilon_interior(Cylinder(x0=0.25, delta0=0.15, T=2), 0.05),
        epsilon_interior(tube, 0.05),
        windowed_union,
    ]:
        doc = domain_to_json(domain)
        back = domain_from_json(doc)
        assert domain_to_json(back) == doc
        window = (float(domain.t_lo), float(domain.t_hi))
        assert window != (0.0, 2.0)
        assert (float(back.t_lo), float(back.t_hi)) == window
        x = np.linspace(0, 1, 37)
        t = np.r_[0.01, np.linspace(0, 2, 23), 1.99]
        X, Tt = np.meshgrid(x, t)
        assert np.array_equal(
            domain.contains(X.ravel(), Tt.ravel()), back.contains(X.ravel(), Tt.ravel())
        )
        for n in (8, 16):
            assert squares_in_domain(back, n) == squares_in_domain(domain, n)
    # documents of full-window domains carry no window keys
    for domain in (chevron, tube, Cylinder(x0=0.25, delta0=0.15, T=2)):
        assert not {"t_lo", "t_hi"} & set(domain_to_json(domain))


def test_readme_domain_examples_parse():
    from conftest import load_fixture

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    text = re.sub(r"//[^\n]*", "", block)
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while text[pos:].strip():
        pos += len(text[pos:]) - len(text[pos:].lstrip())
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
    assert len(docs) == 4
    kinds = set()
    for doc in docs:
        if "fixture" in doc:
            doc = load_fixture(doc["fixture"])
        domain = domain_from_json(doc)
        kinds.add(type(domain))
        assert float(domain.T) == 2.0
    assert kinds == {SquareUnion, Cylinder, CurveTube}


PARAMETERS = [3, np.int64(3), np.uint8(2), True, 0.1, np.float64(0.1), np.float32(0.1), "1/4",
              "0.1", " 0.5 ", Fraction(3, 7), -0.0, 2**70, 1e300]
BAD_PARAMETERS = [None, [1], {}, "abc", math.inf, math.nan, np.float64(math.inf),
                  np.float32(math.nan)]


def _build_domains(value):
    """Every constructor, and domain_from_json, with ``value`` for each Fraction parameter it
    can take: the time parameters everywhere, the widths where ``value`` keeps them valid."""
    curve = Curve.constant(0.5, 2.0, 4)
    window = {"t_lo": value, "t_hi": value}
    yield SquareUnion(level=1, squares=frozenset(), T=value, **window), ("T", "t_lo", "t_hi")
    yield Cylinder(x0=0.5, delta0=0.25, T=value, **window), ("T", "t_lo", "t_hi")
    yield CurveTube(curve=curve, delta0=0.25, **window), ("t_lo", "t_hi")
    doc = {"type": "cylinder", "x0": 0.5, "delta0": 0.25, "T": value, **window}
    yield domain_from_json(doc), ("T", "t_lo", "t_hi")
    if 0 <= as_fraction(value) <= Fraction(1, 2):
        yield Cylinder(x0=0.5, delta0=value, T=2), ("delta0",)
        yield CurveTube(curve=curve, delta0=value), ("delta0",)
        yield domain_from_json({"type": "curve_tube", "delta0": value, "curve": {
            "times": curve.times.tolist(), "values": curve.values.tolist()}}), ("delta0",)
    if 0 <= as_fraction(value) <= 1:
        yield Cylinder(x0=value, delta0=0, T=2), ("x0",)


@pytest.mark.parametrize("value", PARAMETERS, ids=repr)
def test_domain_parameters_are_the_exact_rationals_of_the_reference(value):
    ref = as_fraction(value)
    built = 0
    for domain, keys in _build_domains(value):
        for key in keys:
            got = getattr(domain, key)
            assert type(got) is Fraction and got == ref and hash(got) == hash(ref), key
            assert type(got.numerator) is int and type(got.denominator) is int, key
            built += 1
    assert built >= 11


@pytest.mark.parametrize("scalar", [np.int64, np.uint8, np.float32, np.float64])
def test_numpy_scalar_parameters_give_the_cover_of_their_python_value(chevron, scalar):
    # a uint8 horizon overflowed in the slab bounds, a float32 one raised TypeError
    keys = ("x0", "delta0", "T", "t_lo", "t_hi")
    cylinder = {"x0": 0.5, "delta0": 0.25, "T": 2, "t_lo": 0.125}
    tube = {"curve": Curve.constant(0.5, 2.0, 4), "delta0": 0.25, "t_lo": 0.125}
    union = {"level": chevron.level, "squares": chevron.squares, "T": 2}

    def as_scalars(kind, given):  # each parameter the type holds exactly: ints hold T alone
        return kind(**{k: scalar(v) if k in keys and scalar(v) == v else v
                       for k, v in given.items()})

    for kind, given in ((Cylinder, cylinder), (CurveTube, tube), (SquareUnion, union)):
        ref, domain = kind(**given), as_scalars(kind, given)
        for key in keys:
            if hasattr(ref, key):
                got = getattr(domain, key)
                assert got == getattr(ref, key) and type(got.numerator) is int, (kind, key)
        got, want = cover_cells(domain, 128), cover_cells(ref, 128)
        assert all(np.array_equal(x, y) for x, y in zip(got, want)), kind
    eps = scalar(0.0625) if scalar(0.0625) == 0.0625 else 0.0625
    inner = epsilon_interior(as_scalars(Cylinder, cylinder), eps)
    assert inner == epsilon_interior(Cylinder(**cylinder), 0.0625)


@pytest.mark.parametrize("value", BAD_PARAMETERS, ids=repr)
def test_bad_domain_parameters_raise_the_reference_exception(value):
    with pytest.raises(Exception) as ref:
        as_fraction(value)
    curve = Curve.constant(0.5, 2.0, 4)
    tube_doc = {"type": "curve_tube", "delta0": value,
                "curve": {"times": curve.times.tolist(), "values": curve.values.tolist()}}
    builders = [
        lambda: SquareUnion(level=1, squares=frozenset(), T=value),
        lambda: SquareUnion(level=1, squares=frozenset(), T=2, t_lo=value),
        lambda: Cylinder(x0=value, delta0=0.25, T=2),
        lambda: Cylinder(x0=0.5, delta0=value, T=2),
        lambda: Cylinder(x0=0.5, delta0=0.25, T=2, t_lo=value),
        lambda: CurveTube(curve=curve, delta0=value),
        lambda: CurveTube(curve=curve, delta0=0.25, t_lo=value),
        lambda: domain_from_json({"type": "cylinder", "x0": 0.5, "delta0": 0.25, "T": value}),
        lambda: domain_from_json({"type": "square_union", "level": 1, "squares": [], "T": value}),
        lambda: domain_from_json(tube_doc),
    ]
    for build in builders:
        with pytest.raises(Exception) as got:
            build()
        assert got.type is ref.type


def test_domain_json_rejects_garbage():
    with pytest.raises(ValueError):
        domain_from_json({"no": "type"})
    with pytest.raises(ValueError):
        domain_from_json({"type": "hyperboloid"})
