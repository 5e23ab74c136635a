"""Characteristic lattice: folding, squares, domains, covers, JSON documents."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from waveobs.grid import (
    Curve,
    CurveTube,
    SquareUnion,
    cover_cells,
    domain_from_json,
    lattice_cells,
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


def cylinder(x0, delta0, T):
    """The cylinder document's domain: the tube around the constant curve x0."""
    return domain_from_json({"type": "cylinder", "x0": x0, "delta0": delta0, "T": T})


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
    # the extremes of x = (u+v)/2 and t = (u-v)/2 over the square sit at its corners
    (ulo, uhi), (vlo, vhi) = interval_bounds(ij[0], n), interval_bounds(ij[1], n)
    return 0 <= ulo + vlo and uhi + vhi <= 2 and 0 <= ulo - vhi and uhi - vlo <= 2 * T


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
    tube = CurveTube(Curve.constant(0.5, 2.0, 16), delta0=0.15)
    domains = [
        chevron,
        SquareUnion(chevron.level, chevron.squares, chevron.T, 0.3, 1.7),
        cylinder(0.25, 0.15, 2),
        tube,
        SquareUnion(level=1, squares=frozenset(), T=2),
        cylinder(0.5, 0, 2),
        CurveTube(tube.curve, delta0=0),
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
    cases += [(cylinder(0.25, 0.15, 2), 16), (tube, 16)]
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


# Cover oracle: the definitions the covers implement, over brute-force candidate
# squares: an exact-rational breakpoint overlay for square unions and the edge
# test for tubes (cylinders included).


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
        if isinstance(domain, SquareUnion):
            in_window = domain.t_lo <= (ulo - vhi) / 2 and (uhi - vlo) / 2 <= domain.t_hi
            keep = in_window and _rect_covered((ulo, uhi), (vlo, vhi), rects)
        elif not _in_closed_strip(ij, n, T):
            keep = False
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
    covers = {}
    for t_lo, t_hi in [(Fraction(3, 10), Fraction(17, 10)), (0.3, 1.7)]:
        domain = SquareUnion(chevron.level, chevron.squares, chevron.T, t_lo, t_hi)
        for n in (4, 5, 7, 8, 10, 12):
            cover = covers[type(t_lo), n] = squares_in_domain(domain, n)
            assert cover and cover == _oracle_cover(domain, n), (t_lo, n)
    # the float window is read at the decimals it prints as: 0.3 and 1.7 lie on
    # the level-5 and level-10 lattice lines, and their binary values lost a row there
    for n in (4, 5, 7, 8, 10, 12):
        assert covers[float, n] == covers[Fraction, n], n
    assert [len(covers[float, n]) for n in (5, 10)] == [21, 92]


def test_cylinder_covers_match_the_corner_test():
    # the edge test of the tube and the exact corner test on the decimals written
    domain = cylinder(0.25, 0.15, 2)
    x0, delta0 = Fraction("0.25"), Fraction("0.15")
    for n in (8, 16, 33):
        cover = squares_in_domain(domain, n)
        corners = {(i, j) for i in range(1, 3 * n + 1) for j in range(-2 * n, n + 1)
                   if j and _in_closed_strip((i, j), n, 2)
                   and all(abs(x - x0) <= delta0 for x, _ in square_corners((i, j), n))}
        assert cover and cover == _oracle_cover(domain, n) == corners, n


@pytest.mark.parametrize("n", [8, 16, 33])
def test_tube_covers_match_the_edge_test(n):
    rng = np.random.default_rng(20260818)
    times = np.linspace(0.0, 2.0, 65)
    values = np.clip(0.5 + np.cumsum(rng.uniform(-0.02, 0.02, times.size)), 0.2, 0.8)
    tube = CurveTube(curve=Curve(times, values), delta0=0.15)
    cover = squares_in_domain(tube, n)
    assert cover and cover == _oracle_cover(tube, n)


@settings(deadline=None, max_examples=10)
@given(st.integers(2, 64), st.integers(1, 128), st.sampled_from([1, 1.5, 2, 0.7]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_tube_cover_is_the_edge_test_on_random_curves(n, nodes, T, wavy, seed):
    # constant curves, and random walks whose slope reaches 8
    rng = np.random.default_rng(seed)
    delta0 = rng.uniform(0.02, 0.3)
    times = np.linspace(0.0, T, nodes + 1)
    steps = rng.uniform(-1, 1, nodes + 1) * (8 * T / nodes if wavy else 0)
    values = np.clip(rng.uniform(delta0, 1 - delta0) + np.cumsum(steps), delta0, 1 - delta0)
    tube = CurveTube(curve=Curve(times, values), delta0=delta0)
    assert squares_in_domain(tube, n) == _oracle_cover(tube, n)


@settings(deadline=None, max_examples=100)
@example(k=7, delta0="0.15", T="2", n=8)  # x0 + delta0 = 1/2 exactly, 0.4999... in binary
@given(st.integers(0, 20), st.sampled_from(["0.05", "0.1", "0.15", "0.2", "0.25"]),
       st.sampled_from(["1", "1.5", "2", "0.3"]), st.integers(2, 40))
def test_a_float_cylinder_is_the_cylinder_of_its_decimals(k, delta0, T, n):
    written = {"type": "cylinder", "x0": repr(k / 20), "delta0": delta0, "T": T}
    assume(Fraction(delta0) <= Fraction(written["x0"]) <= 1 - Fraction(delta0))
    floats = {key: value if key == "type" else float(value) for key, value in written.items()}
    got, want = (cover_cells(domain_from_json(doc), n) for doc in (floats, written))
    assert set(zip(*(c.tolist() for c in got))) == set(zip(*(c.tolist() for c in want)))


def test_float_parameters_are_read_at_the_decimal_they_print_as():
    # T = 0.3 lies on the level-10 lattice line t = 3/10; its binary value lost the top row
    assert squares_in_time_slab(10, 0.3) == squares_in_time_slab(10, "3/10")
    assert len(squares_in_time_slab(10, 0.3)) == 47
    union = SquareUnion(level=10, squares=frozenset([(6, 1)]), T=0.3)
    assert union.T == Fraction(3, 10) and squares_in_domain(union, 10) == {(6, 1)}


def test_inner_squares_cover_the_eroded_cylinder(rng):
    # the level-8 square family of the cylinder (5/16, 11/16) x (0, 2)
    # contains its 0.15-interior (0.4625, 0.5375) x (0.15, 1.85)
    domain = cylinder(0.5, Fraction(3, 16), 2)
    family = squares_in_domain(domain, 8)
    bounds = {
        ij: (interval_bounds(ij[0], 8), interval_bounds(ij[1], 8)) for ij in family
    }
    x = rng.uniform(0, 1, 2000)
    t = rng.uniform(0, 2, 2000)
    keep = (np.abs(x - 0.5) < 3 / 16 - 0.15) & (t > 0.15) & (t < 2 - 0.15)
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


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 6), st.sampled_from([1, 2, 3]), st.integers(0, 2**32 - 1), st.data())
def test_contains_at_cell_centres_is_the_cover(level, p, seed, data):
    # the weight a union puts on a square's centre is the cover's verdict on that
    # square, at every multiple of the union's level, for windows on its half-cells
    union = random_connected_square_domain(np.random.default_rng(seed), level)
    k_hi = data.draw(st.integers(1, int(2 * level * union.T)))
    k_lo = data.draw(st.integers(0, k_hi - 1))
    union = SquareUnion(level, union.squares, union.T,
                        Fraction(k_lo, 2 * level), Fraction(k_hi, 2 * level))
    n = p * level
    a, b = lattice_cells(np.array(sorted(squares_in_time_slab(n, union.T)))).T
    inside = union.contains((a + b + 1) / (2 * n), (a - b) / (2 * n))
    slab = list(zip(a.tolist(), b.tolist()))
    cover = set(zip(*(c.tolist() for c in cover_cells(union, n))))
    assert cover <= set(slab)
    assert inside.tolist() == [cell in cover for cell in slab]


def test_empty_union_contains_nothing():
    empty = SquareUnion(level=2, squares=frozenset(), T=2)
    assert not empty.contains(np.array([0.25, 0.5, 0.75]), np.array([0.5, 1.0, 1.5])).any()
    assert not empty.contains(0.5, 1.0)


@pytest.mark.parametrize("delta0", [-0.1, Fraction(-1, 10**400)], ids=["float", "tiny"])
def test_negative_half_width_is_rejected(delta0):
    # the second one is -0.0 as a float: the test is on the exact rational
    curve = Curve.constant(0.5, 2.0, 4)
    builders = [
        lambda: CurveTube(curve=curve, delta0=delta0),
        lambda: domain_from_json({"type": "cylinder", "x0": 0.5, "delta0": delta0, "T": 2}),
        lambda: domain_from_json({"type": "curve_tube", "delta0": delta0, "curve": {
            "times": curve.times.tolist(), "values": curve.values.tolist()}}),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="0 <= delta0"):
            build()
    # a zero half-width stays the empty domain
    for domain in (cylinder(0.5, 0, 2), CurveTube(curve=curve, delta0=0)):
        assert squares_in_domain(domain, 4) == frozenset()


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


def test_with_values_checks_the_values_like_curve_and_shares_the_times():
    c = Curve.constant(0.4, 2.0, 8)
    new = c.with_values(np.linspace(0.3, 0.5, 9))
    assert new.times is c.times and isinstance(new, Curve)
    assert np.array_equal(new.values, np.linspace(0.3, 0.5, 9)) and new.values.dtype == float
    assert new.T == c.T and new.dt == c.dt and new(1.0) == Curve(c.times, new.values)(1.0)
    for bad in ([0.4] * 8, [0.4] * 10, [[0.4] * 9], 0.4):
        with pytest.raises(ValueError) as got:
            c.with_values(bad)
        with pytest.raises(ValueError) as want:
            Curve(c.times, bad)
        assert str(got.value) == str(want.value) == (
            "times and values must be 1d arrays of equal length >= 2")
    for bad in (np.nan, np.inf, -np.inf):
        values = np.full(9, 0.4)
        values[3] = bad
        with pytest.raises(ValueError, match="^curve times and values must be finite$"):
            c.with_values(values)
        with pytest.raises(ValueError, match="^curve times and values must be finite$"):
            Curve(c.times, values)
    assert np.array_equal(c.values, np.full(9, 0.4))  # the original is untouched


@pytest.mark.parametrize("delta0", [0.15, "3/20", Fraction(1, 7), 0, np.float64(0.2)])
@pytest.mark.parametrize("T", [2.0, 1.5, 3])
def test_tube_floats_are_its_exact_parameters(delta0, T):
    tube = CurveTube(Curve.constant(0.5, T, 16), delta0)
    assert type(tube.d0) is float and tube.d0 == float(tube.delta0)
    assert type(tube.horizon) is float and tube.horizon == float(tube.T) == tube.curve.T
    assert CurveTube.around(0.5, T, delta0).d0 == tube.d0


# ----------------------------------------------------------------------- io


def test_domain_json_keeps_the_time_window(chevron):
    squares = [list(ij) for ij in sorted(chevron.squares)]
    doc = {"type": "square_union", "level": 4, "T": 2, "squares": squares,
           "t_lo": 0.3, "t_hi": "17/10"}
    parsed = domain_from_json(doc)
    window = (Fraction(3, 10), Fraction(17, 10))
    assert (parsed.t_lo, parsed.t_hi) == window
    assert all(type(t) is Fraction for t in (parsed.t_lo, parsed.t_hi))
    built = SquareUnion(chevron.level, chevron.squares, chevron.T, *window)
    assert parsed == built
    for n in (4, 8, 16):
        cover = squares_in_domain(parsed, n)
        assert cover == squares_in_domain(built, n), n
        assert cover < squares_in_domain(chevron, n), n  # the window drops squares


@pytest.mark.parametrize("window", [{"t_lo": 1.5, "t_hi": 0.5}, {"t_lo": 1, "t_hi": 1},
                                    {"t_lo": -1}, {"t_hi": 5}, {"t_lo": 2}, {"T": 0},
                                    {"T": -1, "t_hi": -2}])
def test_square_union_window_must_lie_in_the_strip(chevron, window):
    # unchecked, an inverted window gives an empty cover and one past (0, T) is clipped
    doc = {"type": "square_union", "level": 4, "T": 2, "squares": sorted(chevron.squares)}
    doc.update(window)
    for build in (lambda: domain_from_json(doc),
                  lambda: SquareUnion(**{k: v for k, v in doc.items() if k != "type"})):
        with pytest.raises(ValueError, match=r"0 <= t_lo < t_hi <= T, got t_lo=.*t_hi=.*T="):
            build()
    edges = domain_from_json({**doc, "T": 2, "t_lo": 0, "t_hi": 2})
    assert squares_in_domain(edges, 4) == chevron.squares  # the closed edges are valid


@pytest.mark.parametrize("kind", ["cylinder", "curve_tube"])
@pytest.mark.parametrize("key", ["t_lo", "t_hi"])
def test_domain_json_refuses_a_window_on_a_moving_domain(kind, key):
    doc = {"type": "cylinder", "x0": 0.25, "delta0": 0.15, "T": 2}
    if kind == "curve_tube":
        doc = {"type": kind, "delta0": 0.15, "curve": {"times": [0, 1, 2], "values": [0.4] * 3}}
    domain_from_json(doc)
    with pytest.raises(ValueError, match=f"a {kind} has no time window: drop 't_lo'/'t_hi'"):
        domain_from_json({**doc, key: 0.5})


def test_curve_tube_horizon_must_be_its_curves():
    doc = {"type": "curve_tube", "delta0": 0.15,
           "curve": {"times": [0, 1, 2], "values": [0.4, 0.5, 0.4]}}
    for T in (2, 2.0, "2", 2 + 1e-13):
        assert domain_from_json({**doc, "T": T}).T == 2
    for T in (3, 1.5, 2 + 1e-11):
        with pytest.raises(ValueError, match="does not match its curve's horizon 2.0"):
            domain_from_json({**doc, "T": T})


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
    assert kinds == {SquareUnion, CurveTube}


PARAMETERS = [3, np.int64(3), np.uint8(2), True, 0.1, np.float64(0.1), np.float32(0.1), "1/4",
              "0.1", " 0.5 ", Fraction(3, 7), -0.0, 2**70, 1e300]
BAD_PARAMETERS = [None, [1], {}, "abc", math.inf, math.nan, np.float64(math.inf),
                  np.float32(math.nan)]


def _build_domains(value):
    """Every constructor, and domain_from_json, with ``value`` for each Fraction parameter it
    can take where ``value`` keeps the domain valid: a square union's window needs
    0 <= t_lo < t_hi <= T, so its T and t_hi take a positive value and its t_lo, under
    T = value + 1, a nonnegative one.  A tube's horizon is its curve's last float time,
    so a cylinder's T or a tube's T takes a positive value that is its float's decimal;
    a cylinder's delta0 also takes value with x0 = value."""
    curve = Curve.constant(0.5, 2.0, 4)
    for union in (SquareUnion, lambda **given: domain_from_json({"type": "square_union", **given})):
        if as_fraction(value) > 0:
            yield union(level=1, squares=[], T=value, t_hi=value), ("T", "t_hi")
        if as_fraction(value) >= 0:
            yield union(level=1, squares=[], T=as_fraction(value) + 1, t_lo=value), ("t_lo",)
    if as_fraction(value) > 0 and as_fraction(float(as_fraction(value))) == as_fraction(value):
        yield cylinder(0.5, 0.25, value), ("T",)
        horizon = Curve.constant(0.5, float(as_fraction(value)), 4)
        yield CurveTube(curve=horizon, delta0=0.25), ("T",)
        yield domain_from_json({"type": "curve_tube", "delta0": 0.25, "T": value, "curve": {
            "times": horizon.times.tolist(), "values": horizon.values.tolist()}}), ("T",)
    if 0 <= as_fraction(value) <= Fraction(1, 2):
        yield cylinder(0.5, value, 2), ("delta0",)
        yield cylinder(value, value, 2), ("delta0",)
        yield CurveTube(curve=curve, delta0=value), ("delta0",)
        yield domain_from_json({"type": "curve_tube", "delta0": value, "curve": {
            "times": curve.times.tolist(), "values": curve.values.tolist()}}), ("delta0",)


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
    assert built >= 6


@pytest.mark.parametrize("scalar", [np.int64, np.uint8, np.float32, np.float64])
def test_numpy_scalar_parameters_give_the_cover_of_their_python_value(chevron, scalar):
    # a uint8 horizon overflowed in the slab bounds, a float32 one raised TypeError
    keys = ("x0", "delta0", "T", "t_lo", "t_hi")
    cylinder_doc = {"x0": 0.5, "delta0": 0.25, "T": 2}
    tube = {"curve": Curve.constant(0.5, 2.0, 4), "delta0": 0.25}
    union = {"level": chevron.level, "squares": chevron.squares, "T": 2, "t_lo": 0.125}

    def union_doc(**given):
        return domain_from_json({"type": "square_union", **given})

    def as_scalars(kind, given):  # each parameter the type holds exactly: ints hold T alone
        return kind(**{k: scalar(v) if k in keys and scalar(v) == v else v
                       for k, v in given.items()})

    for kind, given in ((cylinder, cylinder_doc), (CurveTube, tube), (SquareUnion, union),
                        (union_doc, union)):
        ref, domain = kind(**given), as_scalars(kind, given)
        for key in keys:
            if hasattr(ref, key):
                got = getattr(domain, key)
                assert got == getattr(ref, key) and type(got.numerator) is int, (kind, key)
        got, want = cover_cells(domain, 128), cover_cells(ref, 128)
        assert all(np.array_equal(x, y) for x, y in zip(got, want)), kind


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
        lambda: cylinder(value, 0.25, 2),
        lambda: cylinder(0.5, value, 2),
        lambda: CurveTube(curve=curve, delta0=value),
        lambda: domain_from_json({"type": "cylinder", "x0": 0.5, "delta0": 0.25, "T": value}),
        lambda: domain_from_json({"type": "square_union", "level": 1, "squares": [], "T": value}),
        lambda: domain_from_json({"type": "square_union", "level": 1, "squares": [], "T": 2,
                                  "t_lo": value}),
        lambda: domain_from_json(tube_doc),
        lambda: domain_from_json({**tube_doc, "delta0": 0.25, "T": value}),
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
