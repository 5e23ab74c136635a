"""Scalar reference versions of the characteristic-lattice convention.

The package reaches the index folding only through the array maps
``waveobs.grid.lattice_cells`` and ``table_positions``.  The functions here
spell the same definitions out one index or one square at a time, in exact
rationals where they can, so that the tests can check the array code against
an independent copy.  Likewise the power operator, one matrix in
``waveobs.power``, is applied here step by step: pairings, a Gram solve, the
piecewise datum and a tridiagonal Poisson solve; and the Gram, assembled in
``waveobs.hum`` block by block, is formed here with its whole moment table.
Two faster forms of the package are checked against plainer forms here, bit
for bit: the Gram's in-place blocks against ten bincounts, ``np.block`` and
``hstack``, and the profiles' fold against ``np.mod``.
"""

import math
from fractions import Fraction

import numpy as np

# ------------------------------------------------------------- parameters


def as_fraction(x):
    """Exact rational from ints, Fractions, floats and numeric strings.

    Strings and integers convert exactly; a float is read at the decimal it
    prints as (its ``repr``), so 0.3 is 3/10 and not its binary value.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(repr(float(x)))


# ---------------------------------------------------------------- indices


def fold_index(i, n):
    """Reduce an extended interval index to the fundamental set I_n.

    The odd 2-periodic extension of data on (0, 1) maps every extended
    interval onto one of the 2n fundamental intervals; this returns that
    index in {-n..-1, 1..n}.  For 1 <= i <= n it is the identity, and
    fold_index(-i, n) == -fold_index(i, n).
    """
    if i == 0:
        raise ValueError("interval index 0 does not exist (indices are nonzero)")
    if n < 1:
        raise ValueError(f"subdivision level must be >= 1, got {n}")
    sign = 1 if i > 0 else -1
    r = (abs(i) - 1) % (2 * n)
    folded = r + 1 if r < n else r - 2 * n
    return sign * folded


def vertex_position(i, n):
    """Row/column of folded index i in the (-n..-1, 1..n) matrix order."""
    if i == 0 or abs(i) > n:
        raise ValueError(f"index {i} outside the fundamental set for level {n}")
    return i + n if i < 0 else n + i - 1


def interval_bounds(e, n):
    """Endpoints of the extended interval I_e as exact rationals.

    I_e = [x_{e-1}, x_e] for e > 0 and [x_e, x_{e+1}] for e < 0, so that
    I_{-e} is the mirror image of I_e.
    """
    if e == 0:
        raise ValueError("interval index 0 does not exist (indices are nonzero)")
    if e > 0:
        return Fraction(e - 1, n), Fraction(e, n)
    return Fraction(e, n), Fraction(e + 1, n)


def interval_midpoint(e, n):
    """Midpoint m_e of the extended interval I_e."""
    lo, hi = interval_bounds(e, n)
    return (lo + hi) / 2


# ---------------------------------------------------------------- squares


def square_center(ij, n):
    """Center (x, t) of the elementary square with u in I_i, v in I_j.

    Returns exact rationals: x = (m_i + m_j)/2, t = (m_i - m_j)/2.
    """
    i, j = ij
    mi, mj = interval_midpoint(i, n), interval_midpoint(j, n)
    return (mi + mj) / 2, (mi - mj) / 2


def square_corners(ij, n):
    """The four (x, t) corners of an elementary square, exact rationals.

    Order: (u_lo,v_lo), (u_hi,v_lo), (u_lo,v_hi), (u_hi,v_hi) mapped through
    x = (u+v)/2, t = (u-v)/2.
    """
    i, j = ij
    ulo, uhi = interval_bounds(i, n)
    vlo, vhi = interval_bounds(j, n)
    return [((u + v) / 2, (u - v) / 2) for v in (vlo, vhi) for u in (ulo, uhi)]


def square_area(n):
    """Area 1/(2 n^2) of every elementary square at level n."""
    return Fraction(1, 2 * n * n)


def _index_range(e, p):
    """Subinterval indices of I_e under a p-fold refinement."""
    if e > 0:
        return range(p * (e - 1) + 1, p * e + 1)
    return range(p * e, p * (e + 1))


def subsquare_indices(ij, p):
    """The p^2 level-(p n) squares whose union is the level-n square ``ij``."""
    if p < 1:
        raise ValueError(f"refinement factor must be >= 1, got {p}")
    i, j = ij
    return {(ii, jj) for ii in _index_range(i, p) for jj in _index_range(j, p)}


# ------------------------------------------------------------------ graph


def _square_edge(ij, n):
    """Folded endpoint pair (fold(i), -fold(j)) of a square's edge."""
    return fold_index(ij[0], n), -fold_index(ij[1], n)


def graph_weights(squares, n):
    """Observation-graph weights, one square at a time, or ValueError on a self-loop."""
    w = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for ij in squares:
        a, b = _square_edge(ij, n)
        if a == b:
            raise ValueError(f"square {tuple(ij)} folds onto a self-loop")
        pa, pb = vertex_position(a, n), vertex_position(b, n)
        w[pa, pb] += 1
        w[pb, pa] += 1
    return w


def quadratic_form(squares, n, eta):
    """eta^T A eta of the squares' graph Laplacian, as a sum over squares.

    ``eta`` is indexed in the (-n..-1, 1..n) matrix order.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (2 * n,):
        raise ValueError(f"eta must have length {2 * n}, got {eta.shape}")
    total = 0.0
    for ij in squares:
        a, b = _square_edge(ij, n)
        diff = eta[vertex_position(a, n)] - eta[vertex_position(b, n)]
        total += diff * diff
    return total


# -------------------------------------------------------- wave solutions


def gamma_fundamental(data):
    """gamma on the fundamental indices in (-n..-1, 1..n) order."""
    n = data.level
    return data.gamma_of(np.concatenate([np.arange(-n, 0), np.arange(1, n + 1)]))


def _cell_of(w, n):
    """Extended cell index of coordinate w; lattice points go to the lower cell."""
    k = np.floor(w * n).astype(np.int64)
    k = k - (k == w * n)
    return np.where(k >= 0, k + 1, k)


def eval_phi_t(data, x, t):
    """Time derivative phi_t = (gamma(u-cell) - gamma(-(v-cell))) / 2.

    Constant on each elementary square; points on the characteristic lattice
    lines report the value of the square with the smaller index pair.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    n = data.level
    i = _cell_of(x + t, n)
    j = _cell_of(x - t, n)
    return 0.5 * (data.gamma_of(i) - data.gamma_of(-j))


def phi_t_on_square(data, ij):
    """phi_t on the square (i, j) of the data's own grid."""
    i, j = ij[0], ij[1]
    return float(0.5 * (data.gamma_of(i) - data.gamma_of(-j)))


def l2_phit_blocks(data, squares, n):
    """The observed phi_t energy in its block form, for data at any level p n.

    With g the gamma table as a (2n, p) array, s and q its row sums of g and
    g^2, and d and W the float degrees and weights of the level-n graph, the
    value is (p (d . q) - s^T W s) / (8 L^2).  The package takes data at
    its cover's level and reads the gamma table itself, which must give the
    float of this form at p = 1; at p > 1 the form is the value on the cover
    refined to level L.
    """
    L = data.level
    p = L // n
    weights = graph_weights(squares, n)
    degrees, weights = weights.sum(axis=1).astype(float), weights.astype(float)
    g = gamma_fundamental(data).reshape(2 * n, p)
    s, q = g.sum(axis=1), np.einsum("ij,ij->i", g, g)
    return float(p * (degrees @ q) - s @ (weights @ s)) / (8.0 * L * L)


def v_norm_sq_matmul(data):
    """The squared energy norm in its ``@`` form, the float the package must give."""
    return float((data.alpha @ data.alpha + data.beta @ data.beta) / data.level)


def energy(data, t):
    """Exact wave energy (1/2) * integral of phi_t^2 + phi_x^2 at time t.

    Both derivatives are piecewise constant in x at fixed t, with breaks
    where x+t or x-t crosses a grid node; the integral is summed piece by
    piece.
    """
    n = data.level
    t = float(t)
    pts = {0.0, 1.0}
    for k in range(math.ceil(n * t) - 1, math.floor(n * (1 + t)) + 2):
        x = k / n - t
        if 0.0 < x < 1.0:
            pts.add(x)
    for k in range(math.ceil(n * (-t)) - 1, math.floor(n * (1 - t)) + 2):
        x = k / n + t
        if 0.0 < x < 1.0:
            pts.add(x)
    xs = np.array(sorted(pts))
    mids = 0.5 * (xs[:-1] + xs[1:])
    lens = np.diff(xs)
    gu = data.gamma_of(_cell_of(mids + t, n))
    gv = data.gamma_of(-_cell_of(mids - t, n))
    phit = 0.5 * (gu - gv)
    phix = 0.5 * (gu + gv)
    return float(0.5 * lens @ (phit**2 + phix**2))


# ---------------------------------------------------------------- cells


def slab_cells_meshgrid(d_lo, d_hi, s_lo, s_hi):
    """Lattice cells (a, b) with d_lo <= a-b <= d_hi and s_lo <= a+b <= s_hi.

    Filters a (d, s) meshgrid to the pairs of equal parity, in (d, s) order.
    """
    d, s = np.meshgrid(np.arange(d_lo, d_hi + 1), np.arange(s_lo, s_hi + 1), indexing="ij")
    keep = (d - s) % 2 == 0
    return (s + d)[keep] // 2, (s - d)[keep] // 2


def strip_cells_meshgrid(level, T):
    """Cells (a, b) meeting the strip (0,1) x (0,T) at level L, and their boundary cuts.

    Filters the bounding box of (L + M)^2 cells, M = T L, in (a, b) order.
    """
    L = int(level)
    M = round(float(T) * L)
    A, B = np.meshgrid(np.arange(0, L + M), np.arange(-M, L), indexing="ij")
    A, B = A.ravel(), B.ravel()
    s, d = A + B, A - B
    keep = (s >= -1) & (s <= 2 * L - 1) & (d >= 0) & (d <= 2 * M)
    A, B, s, d = A[keep], B[keep], s[keep], d[keep]
    cats = {
        "full": (s >= 0) & (s <= 2 * L - 2) & (d >= 1) & (d <= 2 * M - 1),
        "x0": s == -1,
        "x1": s == 2 * L - 1,
        "t0": d == 0,
        "tT": d == 2 * M,
    }
    return A, B, cats


# ---------------------------------------------------------------- Gram


def cell_moments(du, dv, w):
    """Moments (w, w du, w dv, w du^2, w dv^2, w du dv) of each row of rule weights w."""
    powers = np.column_stack([np.ones_like(du), du, dv, du * du, dv * dv, du * dv])
    return 0.5 * w @ powers  # 1/2: Jacobian of (u, v) -> (x, t)


def tube_cells_per_category(region, level, quad=4):
    """A tube's kept cells (a, b) and their moments, one boundary category at a time.

    Each category is a mask on :func:`strip_cells_meshgrid`'s cells and gets its
    own weight evaluation and its own moment product, in the category order of
    the rules (full, x0, x1, t0, tT), on a moment table built per call.
    """
    from waveobs.hum import _cell_rules, _tube_bands

    h = 1.0 / level
    du, dv, w, _ = _cell_rules(h, quad)
    A, B, cats = strip_cells_meshgrid(level, region.T)
    near, ramp = _tube_bands(region, A, B, h)
    cells = []
    for c, mask in enumerate(cats.values()):
        sel = mask & near
        r = ramp[sel]
        chi = np.ones((r.size, w.shape[1]))
        u = A[sel][r][:, None] * h + du[c]
        v = B[sel][r][:, None] * h + dv[c]
        chi[r] = region.chi((u + v) / 2.0, (u - v) / 2.0)
        cells.append((A[sel], B[sel], cell_moments(du[c], dv[c], w[c] * chi)))
    A, B, mom = (np.concatenate(c) for c in zip(*cells))
    return A % (2 * level), B % (2 * level), mom


# On a cell a basis wave is fn + fs du + gn + gs dv, so a product of two
# waves pairs the cell factors (1, du, 1, dv) of (fn, fs, gn, gs).  Entry
# [i, j] indexes the weight moment (w, w du, w dv, w du^2, w dv^2, w du dv)
# that multiplies factors i and j.
PAIR_MOMENT = np.array([[0, 1, 0, 2], [1, 3, 1, 5], [0, 1, 0, 2], [2, 5, 2, 4]])


def gram_dense(region, level, quad=4):
    """The Gram as Phi M Phi^T with the dense 8L x 8L moment table M, and |Phi| M |Phi|^T.

    Every cell adds its moments to the 16 slot pairs of F's node value and
    slope on its u period cell and G's on its v period cell; M is never split
    into blocks.  The moments are nonnegative, so |Phi| M |Phi|^T is the size
    of the terms summed into each entry, the scale of its rounding error.
    """
    from waveobs.grid import CurveTube
    from waveobs.hum import _gram_cells, basis_tables, lattice_plan

    n = 2 * level
    plan = lattice_plan(level, region.T) if isinstance(region, CurveTube) else None
    a, b, mom = _gram_cells(region, level, plan, quad)
    slots = np.stack([a, a + n, b + 2 * n, b + 3 * n], axis=1)
    idx = slots[:, :, None] * (4 * n) + slots[:, None, :]
    val = np.take(mom, PAIR_MOMENT, axis=1)
    M = np.bincount(idx.ravel(), val.ravel(), minlength=(4 * n) ** 2).reshape(4 * n, 4 * n)
    phi = basis_tables(level)
    G = phi @ M @ phi.T
    return 0.5 * (G + G.T), np.abs(phi) @ M @ np.abs(phi).T


def assemble_gram_blocks(region, level, quad=4, plan=None):
    """The Gram from ten bincounts: three diagonals each of F and G, four n x n cross
    blocks joined by ``np.block``, and the diagonal part of x as an ``hstack`` of eight
    products of the split tables (``waveobs.hum.assemble_gram`` fills them in place)."""
    from waveobs.grid import CurveTube
    from waveobs.hum import _gram_cells, basis_tables, lattice_plan

    L, n = int(level), 2 * int(level)
    if plan is None and isinstance(region, CurveTube):
        plan = lattice_plan(L, region.T, tables=False)
    a, b, mom = _gram_cells(region, L, plan, quad)
    f0, f1, f3 = (np.bincount(a, mom[:, k], minlength=n) for k in (0, 1, 3))
    g0, g1, g4 = (np.bincount(b, mom[:, k], minlength=n) for k in (0, 2, 4))
    ab = a * n + b
    fg = [np.bincount(ab, mom[:, k], minlength=n * n).reshape(n, n) for k in (0, 2, 1, 5)]
    m_fg = np.block([fg[:2], fg[2:]])  # rows: F nodes, F slopes; columns: G nodes, G slopes
    phi = basis_tables(L) if plan is None or plan.phi is None else plan.phi
    nf, sf, ng, sg = np.split(phi, 4, axis=1)
    x = np.hstack([nf * f0 + sf * f1, nf * f1 + sf * f3, ng * g0 + sg * g1, ng * g1 + sg * g4])
    x[:, 2 * n :] += 2.0 * (phi[:, : 2 * n] @ m_fg)
    G = x @ phi.T
    return 0.5 * (G + G.T)


# -------------------------------------------------------------- profiles


def eval_phi_mod(data, x, t):
    """phi(x, t) = F(x+t) + G(x-t) with each argument folded to [0, 2) by ``np.mod``
    and its period cell clipped by ``np.clip``, on the data's node tables."""

    def profile(w, nodes, slopes):
        n = data.level
        w = np.mod(np.asarray(w, dtype=float), 2.0)
        c = np.clip(np.floor(w * n).astype(np.int64), 0, 2 * n - 1)
        return nodes[c] + slopes[c] * (w - c / n)

    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    (fn, fs), (gn, gs) = data._profiles
    return profile(x + t, fn, fs) + profile(x - t, gn, gs)


# -------------------------------------------------------------- forcing


def eval_phi_forcing(solution):
    """The verification forcing evaluated pointwise: phi by ``eval_phi`` at
    (x, t), times the region's weight, on whatever block the scheme asks for."""
    from waveobs.dalembert import eval_phi

    def forcing(x, t):
        return eval_phi(solution.data, x, t) * solution.region.chi(x, t)

    return forcing


# -------------------------------------------------------------- power operator


def poisson_solve(rhs_node_integrals):
    """Dirichlet Poisson solve on the unit interval, P1 elements.

    Input: the load integrals against the interior hat functions (length
    m-1).  Output: interior node values of the solution, by elimination on
    the tridiagonal stiffness matrix m tridiag(-1, 2, -1).
    """
    from waveobs.hum import solve_tridiagonal

    f = np.asarray(rhs_node_integrals, dtype=float)
    m = f.size + 1
    return solve_tridiagonal([2.0 * m] * (m - 1), [-float(m)] * (m - 2), f)


def energy_inner(y, z):
    """Exact energy inner product <y, z>_V of two piecewise-affine pairs.

    y and z are stacked node values (y0, y1): the H1_0 pairing of the positions
    plus the exact P1 mass pairing of the velocities.
    """
    y0, y1 = np.split(np.asarray(y, dtype=float), 2)
    z0, z1 = np.split(np.asarray(z, dtype=float), 2)
    m = y0.size - 1
    grad = m * float(np.diff(y0) @ np.diff(z0))
    a, b = y1[:-1], y1[1:]
    c, d = z1[:-1], z1[1:]
    mass = float(np.sum(2 * a * c + a * d + b * c + 2 * b * d)) / (6 * m)
    return grad + mass


def rhs_from_pair(level, y):
    """Duality pairings of the basis data against a piecewise-affine pair (stacked (y0, y1)).

    Cell entries are trapezoid-exact integrals of y0; hat entries are exact
    P1 mass pairings against y1 (with a sign flip).
    """
    L = level
    y0, y1 = np.split(np.asarray(y, dtype=float), 2)
    b = np.empty(2 * L - 1)
    b[: L - 1] = -(y1[:-2] + 4.0 * y1[1:-1] + y1[2:]) / (6.0 * L)
    b[L - 1 :] = (y0[:-1] + y0[1:]) / (2.0 * L)
    return b


def apply_duality(level, data):
    """Energy-space representative of a piecewise datum (phi0, phi1), stacked as (w, -phi0).

    First component solves -w'' = phi1 (hat loads of a piecewise-constant
    right side are exact); second component is -phi0 at the nodes.
    """
    L = level
    beta = data.beta
    loads = (beta[:-1] + beta[1:]) / (2.0 * L)
    w = np.zeros(L + 1)
    w[1:-1] = poisson_solve(loads)
    nodes = np.arange(L + 1) / L
    return np.concatenate([w, -data.phi0(nodes)])


def apply_operator(G, level, y):
    """y -> R L_q y step by step: the pairings, a Gram solve, the datum, the duality map."""
    from waveobs.hum import datum_from_coefficients, solve_hum

    z, _ = solve_hum(G, rhs_from_pair(level, y))
    return apply_duality(level, datum_from_coefficients(level, z))


def power_estimates(G, level, y, tol=1e-4, max_iters=50):
    """Estimates of the power iteration from the unit-norm start y, one application per step."""
    estimates = []
    for _ in range(max_iters):
        w = apply_operator(G, level, y)
        est = float(np.sqrt(energy_inner(w, w)))
        estimates.append(est)
        y = w * (1.0 / est)
        nz = y[np.abs(y) > 0]
        if nz.size and nz[0] < 0:
            y = -y
        if len(estimates) >= 2 and abs(est - estimates[-2]) / est < tol:
            break
    return np.asarray(estimates)


# -------------------------------------------------------------- artifacts


def snapshot_indices(count, limit=12):
    """At most ``limit`` evenly spread indices of ``count`` curves, first and last included."""
    if count <= limit:
        return list(range(count))
    step = (count - 1) / (limit - 1)
    idx = sorted({int(round(k * step)) for k in range(limit)})
    idx[-1] = count - 1
    return idx
