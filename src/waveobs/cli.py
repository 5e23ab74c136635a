"""Command-line front end.

Wires JSON configs to the computational modules and emits machine-readable
artifacts (CSV/JSON) plus a manifest with content checksums.  A command's
handler returns its result and ``main`` writes it (``summary.json`` for
``optimize``, ``result.json`` otherwise).  One command per process;
re-running a command with the same config and seed reproduces the output
files byte for byte.

``main`` pins one BLAS/OpenMP thread before numpy is first loaded (hence the
imports inside the command handlers), so artifacts do not depend on the host.
"""

import argparse
import json
import logging
import math
import os
import sys

log = logging.getLogger("waveobs")

_SNAP_TOL = 1e-10  # printing only: eigenvalue-derived scalars snap to integers


class UsageError(Exception):
    """Invalid or contradictory configuration (exit status 2)."""


# ---------------------------------------------------------------------------
# formatting and artifact plumbing


def _snap(x, tol=_SNAP_TOL):
    """Round to the nearest integer when within ``tol`` (display helper)."""
    x = float(x)
    r = round(x)
    return float(r) if abs(x - r) <= tol else x


def _jsonable(obj):
    """Recursively convert to plain JSON types; integral floats become ints."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if f.is_integer() and abs(f) < 2**53:
            return int(f)
        return f
    return obj


class ArtifactWriter:
    """Writes CSV/JSON artifacts into one directory and records checksums."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.records = {}

    def _ensure_dir(self):
        try:
            os.makedirs(self.out_dir, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"output directory not writable: {exc}")

    def _write_bytes(self, name, data):
        import hashlib  # loads OpenSSL: only processes that write an artifact pay for it

        self._ensure_dir()
        path = os.path.join(self.out_dir, name)
        with open(path, "wb") as f:
            f.write(data)
        self.records[name] = hashlib.sha256(data).hexdigest()
        log.info("wrote %s (%d bytes)", path, len(data))

    def write_csv(self, name, header, rows):
        """Write the header line and the rows, with one ``%`` over all cells.

        ``rows`` (a 2-D ndarray or a list of rows, each as wide as ``header``,
        else ``ValueError``) is written at ``%.17g`` as float64, which
        round-trips floats and writes ints below 2**53 (bools as 0 and 1)
        verbatim.  Each column formats every distinct bit pattern once (so -0.0
        and 0.0 stay apart), which is what makes the rasters cheap: their x, t
        and zero cells repeat.
        """
        import numpy as np

        width = len(header)
        rows = np.asarray(rows, dtype=np.float64).reshape(len(rows), width)
        cells = [None] * rows.size
        for j, col in enumerate(rows.T):
            bits, where = np.unique(col.view(np.int64), return_inverse=True)
            values = bits.view(np.float64).tolist()
            text = ("%.17g\n" * len(values) % tuple(values)).split("\n")
            cells[j::width] = np.array(text, dtype=object)[where].tolist()
        body = ((",".join(["%s"] * width) + "\n") * len(rows)) % tuple(cells)
        self._write_bytes(name, (",".join(header) + "\n" + body).encode("ascii"))

    def write_json(self, name, obj):
        text = json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"
        self._write_bytes(name, text.encode("ascii"))

    def write_manifest(self, command, seed):
        manifest = {
            "command": command,
            "seed": seed,
            "files": [
                {"path": name, "sha256": digest}
                for name, digest in sorted(self.records.items())
            ],
        }
        text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        self._write_bytes("manifest.json", text.encode("ascii"))


# ---------------------------------------------------------------------------
# config handling
#
# Each command's keys are declared once, in COMMAND_TABLE, as (default, kind).
# A kind (type, positive) takes a JSON number, not a boolean, integral for int,
# > 0 or >= 0, and at most _INT_MAX for int; None leaves the value to the
# handler.  Only a key whose default is None may be null, meaning "derive it".

_POS_INT, _INT_GE0 = (int, True), (int, False)
_INT_MAX = 2**31 - 1
_POS_NUM, _NUM_GE0 = (float, True), (float, False)


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}")
    except ValueError as exc:  # JSONDecodeError, or an integer past the int-to-str digit limit
        raise UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    return doc


def _integral(value):
    """True for a JSON integer, or a number with no fractional part such as 8.0."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


def _finite(value):
    """True for a number inside the float range: no inf or nan, no integer beyond ~1.8e308."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _coerce(key, value, kind):
    """The value of one config key, typed by its kind, or a UsageError naming the key."""
    if kind is None:
        return value
    type_, positive = kind
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"config key {key!r} must be a number, got {value!r}")
    if not _finite(value):
        raise UsageError(f"config key {key!r} must be a finite number, got {value!r}")
    if type_ is int and not _integral(value):
        raise UsageError(f"config key {key!r} must be an integer, got {value!r}")
    if type_ is int and value > _INT_MAX:
        raise UsageError(f"config key {key!r} must be at most {_INT_MAX}, got {value!r}")
    value = type_(value)
    if positive and not value > 0:
        raise UsageError(f"config key {key!r} must be positive, got {value!r}")
    if not value >= 0:
        raise UsageError(f"config key {key!r} must be >= 0, got {value!r}")
    return value


def _config(command, given):
    """The command's full config: given keys checked and typed, defaults filled in."""
    keys = COMMAND_TABLE[command][1]
    if given.get("command", command) != command:
        raise UsageError(f"config is for command {given['command']!r}, invoked as {command!r}")
    unknown = [key for key in given if key not in keys and key != "command"]
    if unknown:
        raise UsageError(f"unknown config key for {command}: {unknown[0]!r}")
    config = {}
    for key, (default, kind) in keys.items():
        value = given.get(key, default)
        config[key] = value if value is None and default is None else _coerce(key, value, kind)
    return config


def _fixture_doc(name):
    from importlib import resources

    ref = resources.files("waveobs").joinpath("fixtures", f"{name}.json")
    try:
        return json.loads(ref.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise UsageError(f"unknown fixture: {name!r}")


def _resolve_domain(spec):
    """Domain from a config entry: fixture name, external path, or inline."""
    from waveobs.grid import domain_from_json

    if not isinstance(spec, dict):
        raise UsageError("domain spec must be a JSON object")
    if "fixture" in spec:
        doc = _fixture_doc(spec["fixture"])
    elif "path" in spec:
        try:
            with open(spec["path"], "r", encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
            raise UsageError(f"cannot read domain file: {exc}")
    else:
        doc = spec
    try:
        return domain_from_json(doc)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"invalid domain: {exc}")


def _resolve_data(config):
    """Initial data as a ``ControlPreset`` (default ex1), with the config's ``T`` if given."""
    from waveobs.presets import get_preset

    if config["preset"] is not None and config["data"] is not None:
        raise UsageError("give either 'preset' or 'data', not both")
    if config["data"] is not None:
        data = _custom_data(config["data"])
    else:
        try:
            data = get_preset("ex1" if config["preset"] is None else config["preset"])
        except ValueError as exc:
            raise UsageError(str(exc))
    if config["T"] is not None:
        data.T = config["T"]
    return data


def _custom_data(data):
    """Piecewise data from node/cell arrays: y0 affine on nodes, y1 constant per cell."""
    import numpy as np

    from waveobs.presets import ControlPreset

    if not isinstance(data, dict) or "y0_nodes" not in data:
        raise UsageError("custom data needs a 'y0_nodes' array")
    y0_nodes = np.asarray(data["y0_nodes"], dtype=float)
    if y0_nodes.ndim != 1 or y0_nodes.size < 3:
        raise UsageError("'y0_nodes' must be a 1-d array of at least 3 values")
    if not np.isfinite(y0_nodes).all():
        raise UsageError("'y0_nodes' must be finite")
    m = y0_nodes.size - 1
    if abs(y0_nodes[0]) > 1e-12 or abs(y0_nodes[-1]) > 1e-12:
        raise UsageError("'y0_nodes' must vanish at both ends")
    nodes = np.arange(m + 1) / m

    def y0(x):
        return np.interp(np.asarray(x, dtype=float), nodes, y0_nodes)

    y1_cells = data.get("y1_cells")
    if y1_cells is None:
        y1 = None
    else:
        y1_cells = np.asarray(y1_cells, dtype=float)
        if y1_cells.shape != (m,):
            raise UsageError(f"'y1_cells' must have {m} entries (one per cell)")
        if not np.isfinite(y1_cells).all():
            raise UsageError("'y1_cells' must be finite")

        def y1(x):
            idx = np.clip((np.asarray(x, dtype=float) * m).astype(int), 0, m - 1)
            return y1_cells[idx]

    return ControlPreset("custom", y0, y1, tuple(nodes[1:-1]), x0_init=None)


def _ramp_widths(delta0, delta):
    """The smoothed weight's (delta0, delta), or a UsageError for a bad 'delta' or 'delta0'."""
    from waveobs.hum import ramp_widths

    try:
        return ramp_widths(delta0, delta)
    except ValueError as exc:
        raise UsageError(f"invalid weight: {exc}")


def _check_refines(domain, levels, key):
    """A UsageError, before any solve, unless each level is a multiple of the domain's level."""
    for level in levels:
        if level % domain.level:
            raise UsageError(f"config key {key!r} must be a multiple of the domain level "
                             f"({domain.level}), got {level}")


def _resolve_region(config, T, levels, key):
    """Observation region from a config 'domain' entry (weighted or sharp), refined by ``levels``."""
    from waveobs.grid import SquareUnion
    from waveobs.hum import IndicatorRegion, SmoothedTube

    if config["quad"] < 2:  # one Gauss point misses the du^2, dv^2 moments even on a sharp weight
        raise UsageError(f"config key 'quad' must be at least 2, got {config['quad']}")
    spec = config["domain"]
    if spec is None:
        spec = {"type": "cylinder", "x0": 0.25, "delta0": 0.15, "T": T}
    domain = _resolve_domain(spec)
    if abs(float(domain.T) - float(T)) > 1e-12:
        raise UsageError(
            f"domain horizon T={float(domain.T)} does not match config T={float(T)}"
        )
    if isinstance(domain, SquareUnion):
        if config["delta"] is not None:
            raise UsageError("config key 'delta' is a tube's ramp width; a square_union "
                             "domain has a sharp weight")
        _check_refines(domain, levels, key)
        return IndicatorRegion(domain)
    return SmoothedTube(domain.curve, *_ramp_widths(float(domain.delta0), config["delta"]))


def _check_grid(T, level, factor=None, level_key="level"):
    """A UsageError, before any solve, unless the level and the leapfrog grid fit T.

    T*level must be a positive integer (the lattice the Gram lives on); the
    leapfrog grid factor*level, when given, needs at least two time steps.
    """
    from waveobs.dalembert import time_cells

    try:
        time_cells(T, level)
    except ValueError as exc:
        raise UsageError(f"config keys 'T' and {level_key!r} do not fit: {exc}")
    if factor is not None and time_cells(T, factor * level) < 2:
        raise UsageError("config keys 'T' and 'grid_factor' give a leapfrog grid of one "
                         "time step; it needs at least two")


def _solve_and_verify(config, data, region, level):
    """The level's control and its leapfrog check on the grid_factor*level grid."""
    from waveobs.hum import forward_verify, hum_control, hum_rhs

    breakpoints = data.data_breakpoints()
    b = hum_rhs(level, data.y0, data.y1, breakpoints)
    solution = hum_control(region, b, quad=config["quad"])
    return solution, forward_verify(solution, data.y0, data.y1, breakpoints,
                                    grid_factor=config["grid_factor"])


# ---------------------------------------------------------------------------
# command handlers


def _graph_constant(config):
    """Graph observability constant of the config's domain at 'level' (null: its own level)."""
    from waveobs.graph import observability_constant_graph
    from waveobs.grid import SquareUnion

    domain = _resolve_domain(config["domain"])
    if config["level"] is None and not isinstance(domain, SquareUnion):
        raise UsageError(f"a {type(domain).__name__} has no level of its own: give 'level'")
    return observability_constant_graph(domain, level=config["level"])


def _cmd_graph_cobs(config, writer, seed):
    gc = _graph_constant(config)
    return {
        "c_obs": _snap(gc.c_obs),
        "lambda": _snap(gc.lam),
        "n": gc.n,
        "min_degree": gc.min_degree,
        "c_obs_bound": _snap(gc.c_obs_bound),
        "num_squares": len(gc.squares),
        "num_vertices": len(gc.weights),
    }


def _cmd_spectrum(config, writer, seed):
    from waveobs.graph import laplacian, spectrum

    gc = _graph_constant(config)
    n, p = gc.n, config["refine"]
    order = [*range(-n, 0), *range(1, n + 1)]  # the matrix order
    matrix = laplacian(gc.weights, p)
    names = [f"v{i}" if p == 1 else f"v{i}s{s}" for i in order for s in range(p)]
    eigenvalues = [_snap(v) for v in spectrum(matrix / p)]
    writer.write_csv("laplacian.csv", names, matrix)
    writer.write_csv(
        "spectrum.csv",
        [f"lambda_{k + 1}" for k in range(len(eigenvalues))],
        [eigenvalues],
    )
    return {
        "n": n,
        "refine": p,
        "size": int(matrix.shape[0]),
        "algebraic_connectivity": _snap(gc.lam),
        "spectrum": eigenvalues,
    }


def _raster(writer, solution, nx, nt):
    import numpy as np

    from waveobs.dalembert import eval_phi
    from waveobs.hum import control_density

    T = float(solution.region.T)
    xs = np.linspace(0.0, 1.0, nx)
    ts = np.linspace(0.0, T, nt)
    X, Tt = np.meshgrid(xs, ts)  # t-major rows
    phi = eval_phi(solution.data, X.ravel(), Tt.ravel())
    v = control_density(solution, X.ravel(), Tt.ravel())
    rows_phi = np.column_stack([X.ravel(), Tt.ravel(), phi])
    rows_v = np.column_stack([X.ravel(), Tt.ravel(), v])
    writer.write_csv("phi.csv", ["x", "t", "phi"], rows_phi)
    writer.write_csv("control.csv", ["x", "t", "v"], rows_v)


def _cmd_hum(config, writer, seed):
    from waveobs.dalembert import time_cells

    level = config["level"]
    data = _resolve_data(config)
    _check_grid(data.T, level, config["grid_factor"])
    region = _resolve_region(config, data.T, [level], "level")
    solution, check = _solve_and_verify(config, data, region, level)
    nx = config["raster_nx"] or level + 1
    nt = config["raster_nt"] or time_cells(data.T, level) + 1
    _raster(writer, solution, nx, nt)
    return {
        "cost": solution.cost,
        "residual": solution.residual,
        "terminal_ratio": check["ratio"],
        "energy_initial": check["energy_initial"],
        "energy_terminal": check["energy_terminal"],
        "level": level,
        "T": data.T,
        "data": data.name,
    }


def _gamma0_curve(spec, T, n_nodes, delta0):
    """The start curve, inside the band [delta0, 1 - delta0] the descent projects onto."""
    from waveobs.grid import Curve, CurveTube

    if spec is None:
        raise UsageError("optimize needs a 'gamma0' spec")
    if not isinstance(spec, dict):
        raise UsageError("'gamma0' must be an object")
    try:
        if "constant" in spec:
            curve = Curve.constant(float(spec["constant"]), T, n_nodes)
        elif "times" in spec and "values" in spec:
            curve = Curve(spec["times"], spec["values"])
        else:
            raise UsageError("'gamma0' needs 'constant' or 'times'+'values'")
        return CurveTube(curve, delta0).curve
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid gamma0 curve: {exc}")


def _sweep(writer, config, data, x0_min, x0_max, count):
    """Control cost of ``count`` cylinders centred from x0_min to x0_max, into sweep.csv."""
    import numpy as np

    from waveobs.shape import cylindrical_sweep, sweep_centres

    sweep = cylindrical_sweep(
        data.y0,
        config["delta0"],
        config["level"],
        data.T,
        y1=data.y1,
        breakpoints=data.data_breakpoints(),
        delta=config["delta"],
        x0s=sweep_centres(x0_min, x0_max, count),
    )
    writer.write_csv(
        "sweep.csv", ["x0", "J"], np.column_stack([sweep.x0s, sweep.costs])
    )
    return sweep


def _cmd_optimize(config, writer, seed):
    import numpy as np

    from waveobs.shape import optimize, performance_index

    data = _resolve_data(config)
    _check_grid(data.T, config["level"])
    if config["delta0"] > 0.5:
        raise UsageError(f"config key 'delta0' must be at most 0.5, so that the band "
                         f"[delta0, 1 - delta0] holds the curve, got {config['delta0']!r}")
    _ramp_widths(config["delta0"], config["delta"])
    T = data.T
    eps = data.eps if config["eps_reg"] is None else config["eps_reg"]
    rho = data.rho if config["rho"] is None else config["rho"]
    gamma0_spec = config["gamma0"]
    if gamma0_spec is None and data.x0_init is not None:
        gamma0_spec = {"constant": data.x0_init}
    curve0 = _gamma0_curve(gamma0_spec, T, config["curve_nodes"], config["delta0"])
    if abs(curve0.T - T) > 1e-12:
        raise UsageError(f"gamma0 horizon {curve0.T} does not match T={T}")

    trace = optimize(
        data.y0,
        curve0,
        config["delta0"],
        config["level"],
        y1=data.y1,
        breakpoints=data.data_breakpoints(),
        delta=config["delta"],
        rho=rho,
        eps=eps,
        max_iters=config["max_iters"],
        patience=config["patience"],
        tol=config["stop_tol"],
    )

    costs = trace.costs
    lips = [c.lipschitz_estimate() for c in trace.curves[: len(costs)]]
    writer.write_csv("iterations.csv", ["n", "J_eps", "delta_J", "lipschitz_estimate"],
                     np.column_stack([np.arange(len(costs)), costs,
                                      np.diff(costs, prepend=costs[0]), lips]))
    # at most 12 curves, evenly spread, the first and the last included
    picks = np.unique(np.rint(np.linspace(0, len(trace.curves) - 1, 12)).astype(int))
    snaps = [trace.curves[n] for n in picks]
    writer.write_csv("curve_snapshots.csv", ["iteration", "t", "value"], np.column_stack([
        np.repeat(picks, [len(c.times) for c in snaps]),
        np.concatenate([c.times for c in snaps]), np.concatenate([c.values for c in snaps])]))
    final = trace.curve
    writer.write_csv(
        "curve_final.csv", ["t", "value"], np.column_stack([final.times, final.values])
    )

    sweep = _sweep(writer, config, data, 0.2, 0.8, config["sweep_count"])
    j_opt = float(costs[-1])
    return {
        "data": data.name,
        "T": T,
        "eps_reg": eps,
        "rho": rho,
        "level": config["level"],
        "curve_nodes": len(curve0.times) - 1,
        "iterations": trace.iterations,
        "converged": trace.converged,
        "J0": float(costs[0]),
        "J_opt": j_opt,
        "J_raw_final": float(trace.raw_costs[-1]),
        "lipschitz_final": float(lips[-1]),
        "sweep_best_x0": sweep.best_x0,
        "sweep_best_J": sweep.best_cost,
        "sweep_worst_x0": sweep.worst_x0,
        "sweep_worst_J": sweep.worst_cost,
        "performance_index": performance_index(j_opt, sweep.best_cost),
    }


def _cmd_sweep(config, writer, seed):
    data = _resolve_data(config)
    _check_grid(data.T, config["level"])
    x0_min, x0_max = config["x0_min"], config["x0_max"]
    if not 0.0 < x0_min <= x0_max < 1.0:
        raise UsageError("need 0 < x0_min <= x0_max < 1")
    _ramp_widths(config["delta0"], config["delta"])
    sweep = _sweep(writer, config, data, x0_min, x0_max, config["count"])
    return {
        "data": data.name,
        "T": data.T,
        "level": config["level"],
        "best_x0": sweep.best_x0,
        "best_J": sweep.best_cost,
        "worst_x0": sweep.worst_x0,
        "worst_J": sweep.worst_cost,
    }


def _cmd_power_cobs(config, writer, seed):
    import numpy as np

    from waveobs.grid import SquareUnion
    from waveobs.power import power_iterate

    domain = _resolve_domain(config["domain"])
    if not isinstance(domain, SquareUnion):
        raise UsageError(f"power-cobs needs a square_union domain, got {type(domain).__name__}")
    if config["level"] < 2:  # no interior node: the operator and the parabolic start are zero
        raise UsageError(f"config key 'level' must be at least 2, got {config['level']}")
    _check_refines(domain, [config["level"]], "level")
    res = power_iterate(domain, config["level"], tol=config["tol"], max_iters=config["max_iters"])
    writer.write_csv(
        "estimates.csv",
        ["k", "estimate"],
        [[k + 1, est] for k, est in enumerate(res.estimates)],
    )
    y0, y1 = np.split(res.vector, 2)
    xs = np.arange(y0.size) / (y0.size - 1)
    writer.write_csv("worst_datum.csv", ["x", "y0", "y1"], np.column_stack([xs, y0, y1]))
    return {
        "constant": res.constant,
        "iterations": res.iterations,
        "converged": res.converged,
        "level": config["level"],
    }


def _cmd_verify(config, writer, seed):
    import numpy as np

    from waveobs.hum import IndicatorRegion

    levels = config["levels"]
    if not isinstance(levels, list) or not levels:
        raise UsageError("'levels' must be a nonempty array of integers")
    levels = [_coerce("levels", v, _POS_INT) for v in levels]
    grid_factor, obs_samples = config["grid_factor"], config["obs_samples"]
    data = _resolve_data(config)
    for level in levels:
        _check_grid(data.T, level, grid_factor, "levels")
    region = _resolve_region(config, data.T, levels, "levels")
    if obs_samples and not isinstance(region, IndicatorRegion):
        raise UsageError("'obs_samples' needs a square_union domain")

    rows = []
    ratios = []
    for level in levels:
        solution, check = _solve_and_verify(config, data, region, level)
        rows.append([level, grid_factor * level, solution.cost, solution.residual, check["ratio"]])
        ratios.append(check["ratio"])
    writer.write_csv(
        "verify.csv",
        ["level", "grid_m", "cost", "residual", "terminal_ratio"],
        rows,
    )
    result = {
        "data": data.name,
        "T": data.T,
        "levels": levels,
        "ratios": ratios,
        "decreasing": all(b < a for a, b in zip(ratios, ratios[1:])),
    }

    if obs_samples:
        from waveobs.dalembert import check_discrete_observability
        from waveobs.graph import observability_constant_graph
        from waveobs.testing import random_initial_data

        gc = observability_constant_graph(region.domain)
        rng = np.random.default_rng(seed)
        violations = 0
        for _ in range(obs_samples):
            sample = random_initial_data(rng, region.domain.level)
            out = check_discrete_observability(sample, gc.squares, gc.n, gc.c_obs)
            violations += 0 if out["holds"] else 1
        result["obs_samples"] = obs_samples
        result["obs_violations"] = violations
    return result


# ---------------------------------------------------------------------------
# the command table: handler and config keys, key -> (default, kind)

_CHEVRON = {"fixture": "chevron_l4"}
_GRAPH_KEYS = {"domain": (_CHEVRON, None), "level": (None, _POS_INT)}
_DATA_KEYS = {"preset": (None, None), "data": (None, None), "T": (None, _POS_NUM)}
_CONTROL_KEYS = {  # hum and verify: the datum, the region, the Gram rule and the leapfrog grid
    **_DATA_KEYS, "domain": (None, None), "quad": (4, _POS_INT), "grid_factor": (4, _POS_INT),
    "delta": (None, _POS_NUM),
}

COMMAND_TABLE = {
    "graph-cobs": (_cmd_graph_cobs, _GRAPH_KEYS),
    "spectrum": (_cmd_spectrum, {**_GRAPH_KEYS, "refine": (1, _POS_INT)}),
    "hum": (_cmd_hum, {
        **_CONTROL_KEYS, "level": (64, _POS_INT),
        "raster_nx": (None, _POS_INT), "raster_nt": (None, _POS_INT),
    }),
    "optimize": (_cmd_optimize, {
        **_DATA_KEYS, "eps_reg": (None, _NUM_GE0), "rho": (None, _POS_NUM),
        "curve_nodes": (128, _POS_INT), "level": (64, _POS_INT), "gamma0": (None, None),
        "max_iters": (500, _POS_INT), "delta0": (0.15, _POS_NUM), "delta": (None, _POS_NUM),
        "patience": (10, _POS_INT), "stop_tol": (1e-3, _POS_NUM), "sweep_count": (13, _POS_INT),
    }),
    "sweep": (_cmd_sweep, {
        **_DATA_KEYS, "level": (64, _POS_INT), "delta0": (0.15, _POS_NUM), "delta": (None, _POS_NUM),
        "x0_min": (0.2, _POS_NUM), "x0_max": (0.8, _POS_NUM), "count": (13, _POS_INT),
    }),
    "power-cobs": (_cmd_power_cobs, {
        "domain": (_CHEVRON, None), "level": (64, _POS_INT),
        "tol": (1e-4, _POS_NUM), "max_iters": (50, _POS_INT),
    }),
    "verify": (_cmd_verify, {
        **_CONTROL_KEYS, "levels": ([32, 64], None), "obs_samples": (0, _INT_GE0),
    }),
}


# ---------------------------------------------------------------------------
# entry point


def _setup_logging():
    name = os.environ.get("WAVEOBS_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="waveobs",
        description=(
            "Observability constants, null controls and support-curve "
            "optimization for the 1-d wave equation on moving domains."
        ),
    )
    parser.add_argument("command", choices=list(COMMAND_TABLE), help="subcommand to run")
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument(
        "--out", metavar="DIR", default="waveobs-out", help="artifact directory"
    )
    parser.add_argument("--seed", metavar="N", type=int, default=0, help="RNG seed")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "numpy" not in sys.modules:  # one BLAS thread; in-process callers keep theirs
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            os.environ[var] = "1"
    _setup_logging()

    writer = ArtifactWriter(args.out)
    try:
        config = _config(args.command, _load_config(args.config))
        result = COMMAND_TABLE[args.command][0](config, writer, args.seed)
        writer.write_json("summary.json" if args.command == "optimize" else "result.json", result)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
    except Exception as exc:  # computational failure -> structured error
        error = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        text = json.dumps(error, sort_keys=True)
        print(text)
        try:
            writer.write_json("error.json", error)
        except (OSError, UsageError):
            log.warning("could not write error.json")
        log.debug("failure detail", exc_info=True)
        return 1
    writer.write_manifest(args.command, args.seed)
    print(json.dumps(_jsonable(result), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
