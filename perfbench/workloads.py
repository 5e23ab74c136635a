"""The four benchmark workloads: inputs from a seed, one pass, output checks.

Each workload has ``setup(seed, tiny, workdir)``, which builds every input
the passes need (configs, domains, sampled data), and ``run(inputs, rec)``,
which runs one pass and reports each operation's time and checks to ``rec``.
The check tolerances are the tier-1 acceptance bounds
(tests/test_acceptance.py), never tighter; ``--tiny`` sizes skip the
reference values.
"""

import contextlib
import io
import json
import math
import os
import time
from importlib import resources

import numpy as np

from waveobs import cli, dalembert, graph, grid, shape, testing
from waveobs.presets import get_preset

T = 2.0
DELTA0 = 0.15
RESIDUAL_MAX = 1e-9
EX1_COST, EX1_COST_REL = 46.94, 0.10  # criterion 08, ex1 cylinder at x0=0.25, L=64
RATIO_MAX_L64 = 5e-2  # criterion 06
HALVING = (0.375, 0.625)  # criterion 06, ratio(2L) / ratio(L)
EX2_J, EX2_J_REL, EX2_INDEX_MIN = 48.70, 0.15, 40.0  # criterion 09
CHEVRON_COBS = 4.0  # criterion 01
POWER_CONSTANT, POWER_ABS = 4.0, 0.05  # criterion 05


# ---------------------------------------------------------------------------
# calibration: fixed jobs of the benchmark's own code that sample the host's speed


def interpreter_job():
    """Time one fixed job of interpreter and small-array work (about 0.5 ms)."""
    vec = np.arange(32.0)
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    names = {}
    for i in range(300):
        names[i] = str(i)
    for _ in range(100):
        acc += float(vec.sum())
    return time.perf_counter() - t0


def array_job():
    """Time one weighted product of 8 MB operands, the shape of a Gram chunk (about 6 ms).

    The operands are built untimed on every call and freed after it, so they
    do not stay in the worker's resident memory.
    """
    phi, w = np.full((64, 16384), 0.5), np.full(16384, 0.25)
    t0 = time.perf_counter()
    (phi * w) @ phi.T
    return time.perf_counter() - t0


class Recorder:
    """Collects one pass: the time of each operation, its steps, and the checks.

    Operations are timed back to back under keys that repeat from pass to
    pass.  A step is one unit of the workload's inner loop as the benchmark
    sees it: a descent iteration, or one sampled data check (the mean over
    its (domain, refinement) batch, so single-check timer jitter does not
    set the tail).  ``top`` names the operations that make up the
    workload's headline operation.

    After each operation or step ``add`` runs the calibration job once per
    ``every`` seconds of workload time so far, so that the job samples the
    host's speed while the workload runs; ``cal`` holds the job times.
    """

    def __init__(self, tracer, calibration):
        self.tracer = tracer
        self.job, self.every = calibration
        self.cal = []
        self._due = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.ops = {}  # key -> seconds
        self.steps = {}  # key -> seconds per step
        self.top = ()

    def add(self, key, seconds, steps=0):
        self.ops[key] = seconds
        if steps:
            self.steps[key] = seconds / steps
        self._due += seconds
        while self._due >= self.every:
            self._due -= self.every
            self.cal.append(self.job())

    @contextlib.contextmanager
    def op(self, key, steps=0):
        """Time one operation (labelling its spans); with steps > 0 it is also a batch of steps."""
        if self.tracer is not None:
            self.tracer.op = key
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(key, time.perf_counter() - t0, steps)

    def check(self, label, conditions):
        """Count one operation; it fails if any (ok, message) condition is false."""
        self.attempted += 1
        bad = [msg for ok, msg in conditions if not ok]
        if bad:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {'; '.join(bad)}")

    def error(self, label, exc):
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")


def _finite_pos(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def _fixture(name):
    doc = json.loads(resources.files("waveobs").joinpath("fixtures", f"{name}.json").read_text())
    return grid.domain_from_json(doc)


def _write_config(workdir, name, config):
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config, f)
    return path


def _cli(command, config_path, out_dir):
    """Run one CLI command in process; return its exit status and printed result."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main([command, "--config", config_path, "--out", out_dir])
        except SystemExit as exc:  # usage errors exit through argparse
            rc = exc.code
    lines = buf.getvalue().strip().splitlines()
    return rc, (json.loads(lines[-1]) if lines else {})


def _manifest_files(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as f:
        return {rec["path"] for rec in json.load(f)["files"]}


def _smooth_curve(rng, n_nodes, modes=3, amp=0.08):
    """Band-limited admissible support curve (the acceptance tests' recipe)."""
    times = np.linspace(0.0, T, n_nodes + 1)
    vals = np.full(n_nodes + 1, 0.5)
    for k in range(1, modes + 1):
        vals += (amp / k) * rng.standard_normal() * np.sin(np.pi * k * times / T)
        vals += (amp / k) * rng.standard_normal() * np.cos(np.pi * k * times / T)
    return times, np.clip(vals, 0.2, 0.8)


# ---------------------------------------------------------------------------
# control-ladder: a few large tube Grams, with verification and rasters


def setup_control_ladder(seed, tiny, workdir):
    levels = (8, 16) if tiny else (32, 64, 128)
    if seed == 0:
        data, x0 = {"preset": "ex1"}, 0.25
    else:
        rng = np.random.default_rng(seed)
        x0 = float(rng.uniform(0.25, 0.75))
        nodes = np.linspace(0.0, 1.0, 257)
        y0 = np.sin(np.pi * nodes)
        for k in (2, 3):
            y0 += (0.3 / k) * rng.standard_normal() * np.sin(k * np.pi * nodes)
        y0[0] = y0[-1] = 0.0
        data = {"data": {"y0_nodes": y0.tolist()}}
    domain = {"type": "cylinder", "x0": x0, "delta0": DELTA0, "T": T}
    configs = {
        L: _write_config(workdir, f"hum-{L}", {"level": L, "quad": 4, "domain": domain, **data})
        for L in levels
    }
    return {
        "levels": levels,
        "ex1": seed == 0,
        "configs": configs,
        "workdir": workdir,
        "sizes": {"levels": list(levels), "x0": x0, "datum": "ex1" if seed == 0 else "custom"},
    }


def run_control_ladder(inp, rec):
    prev = None
    for L in inp["levels"]:
        label = f"hum L={L}"
        out = os.path.join(inp["workdir"], f"ladder-{L}")
        with rec.op(label):
            rc, res = _cli("hum", inp["configs"][L], out)
        ratio, cost = res.get("terminal_ratio"), res.get("cost")
        conds = [
            (rc == 0, f"exit status {rc}"),
            (_finite_pos(cost), f"cost {cost}"),
            (res.get("residual", 1.0) <= RESIDUAL_MAX, f"residual {res.get('residual')}"),
            (_finite_pos(ratio), f"terminal ratio {ratio}"),
        ]
        if rc == 0:
            files = _manifest_files(out)
            conds.append(({"phi.csv", "control.csv"} <= files, f"rasters missing from {files}"))
        if L == 64 and rc == 0:
            conds.append((ratio <= RATIO_MAX_L64, f"terminal ratio {ratio} > {RATIO_MAX_L64}"))
            if inp["ex1"]:
                rel = abs(cost - EX1_COST) / EX1_COST
                conds.append((rel <= EX1_COST_REL, f"ex1 cost {cost} vs {EX1_COST}"))
        # The halving bound is set for ex1 only: with a custom datum (node
        # interpolant) the ratio stops halving once 2L reaches its cell count.
        if inp["ex1"] and prev is not None and prev[0] >= 32 and rc == 0:
            q = ratio / prev[1]
            conds.append((HALVING[0] <= q <= HALVING[1], f"ratio {ratio} / {prev[1]} = {q}"))
        rec.check(label, conds)
        prev = (L, ratio) if rc == 0 else None
    rec.top = (f"hum L={inp['levels'][-1]}",)


# ---------------------------------------------------------------------------
# descent: many moderate tube Grams at one level (the shipped ex2 optimize run)


def setup_descent(seed, tiny, workdir):
    # inputs are the same at every seed: the pass length depends on the data
    preset = get_preset("ex2")
    level = 16 if tiny else 32
    return {
        "preset": preset,
        "level": level,
        "max_iters": 3 if tiny else 500,
        "reference": not tiny,
        "curve0": grid.Curve.constant(0.5, preset.T, 128),
        "sizes": {"level": level, "curve_nodes": 128, "rho": 1e-4, "eps": 1e-2, "sweep_centres": 13},
    }


def run_descent(inp, rec):
    p = inp["preset"]
    if rec.tracer is not None:
        rec.tracer.op = "optimize"
    mark = [time.perf_counter()]  # end of the previous iteration's bookkeeping

    def callback(it, curve, sol, cost):
        rec.add(f"iteration {it}", time.perf_counter() - mark[0], steps=1)
        rec.check(
            f"iteration {it}",
            [
                (sol.residual <= RESIDUAL_MAX, f"residual {sol.residual}"),
                (_finite_pos(cost), f"cost {cost}"),
            ],
        )
        mark[0] = time.perf_counter()

    trace = shape.optimize(
        p.y0,
        inp["curve0"],
        DELTA0,
        inp["level"],
        y1=p.y1,
        breakpoints=p.data_breakpoints(),
        rho=1e-4,
        eps=1e-2,
        max_iters=inp["max_iters"],
        callback=callback,
    )
    rec.top = tuple(rec.steps)
    j = float(trace.costs[-1])
    conds = [(_finite_pos(j), f"J {j}")]
    if inp["reference"]:
        conds += [
            (trace.converged, "not converged"),
            (abs(j - EX2_J) <= EX2_J_REL * EX2_J, f"J {j} vs {EX2_J}"),
        ]
    rec.check("optimize", conds)

    with rec.op("sweep"):
        sweep = shape.cylindrical_sweep(
            p.y0, DELTA0, inp["level"], p.T, y1=p.y1, breakpoints=p.data_breakpoints()
        )
    conds = [(all(_finite_pos(float(c)) for c in sweep.costs), f"costs {sweep.costs}")]
    if inp["reference"]:
        index = shape.performance_index(j, sweep.best_cost)
        conds.append((index >= EX2_INDEX_MIN, f"performance index {index}"))
    rec.check("sweep", conds)


# ---------------------------------------------------------------------------
# observe: graph constants, refined covers and sampled data checks (no Gram)


def setup_observe(seed, tiny, workdir):
    rng = np.random.default_rng(seed)
    chevron = _fixture("chevron_l4")
    # four random domains per level, each redrawn until its square count is
    # within one of the level's target, so the work per pass barely depends
    # on the seed
    targets, samples = ({3: 10, 4: 15}, 5) if tiny else ({3: 10, 4: 15, 5: 20, 6: 28}, 120)
    domains = [chevron]
    for _ in range(2 if tiny else 4):
        for level, size in targets.items():
            dom = testing.random_connected_square_domain(rng, level, max_extra=4)
            while abs(len(dom.squares) - size) > 1:
                dom = testing.random_connected_square_domain(rng, level, max_extra=4)
            domains.append(dom)
    refine = (1, 2, 3)
    draws = {}
    for d, dom in enumerate(domains):
        for p in refine:
            n = dom.level * p
            a = rng.standard_normal((samples, n))
            a -= a.mean(axis=1, keepdims=True)
            draws[d, p] = (a, rng.standard_normal((samples, n)))
    tube_level = 8 if tiny else 32
    x0 = 0.25 if seed == 0 else float(rng.uniform(0.25, 0.75))
    times, values = _smooth_curve(rng, 128)
    tubes = [
        grid.domain_from_json({"type": "cylinder", "x0": x0, "delta0": DELTA0, "T": T}),
        grid.domain_from_json(
            {
                "type": "curve_tube",
                "delta0": DELTA0,
                "curve": {"times": times.tolist(), "values": values.tolist()},
            }
        ),
    ]
    cover_p = 2 if tiny else 8
    return {
        "domains": domains,
        "refine": refine,
        "draws": draws,
        "tubes": tubes,
        "tube_level": tube_level,
        "cover_p": cover_p,
        "sizes": {
            "domain_levels": [dom.level for dom in domains],
            "domain_squares": [len(dom.squares) for dom in domains],
            "refine": list(refine),
            "samples_per_cover": samples,
            "checks": samples * len(domains) * len(refine),
            "tube_level": tube_level,
            "chevron_cover_p": cover_p,
        },
    }


def run_observe(inp, rec):
    for d, dom in enumerate(inp["domains"]):
        label = f"domain {d}"
        with rec.op(label):
            gc = graph.observability_constant_graph(dom)
        conds = [(_finite_pos(gc.c_obs), f"c_obs {gc.c_obs}")]
        if d == 0:
            conds.append((abs(gc.c_obs - CHEVRON_COBS) <= 1e-10, f"chevron c_obs {gc.c_obs}"))
        rec.check(label, conds)
        for p in inp["refine"]:
            n = dom.level * p
            with rec.op(f"{label} p={p} cover"):
                fine = grid.squares_in_domain(dom, n)
            want = p * p * len(dom.squares)
            rec.check(f"{label} p={p} cover", [(len(fine) == want, f"{len(fine)} squares, want {want}")])
            alphas, betas = inp["draws"][d, p]
            batch = f"{label} p={p} checks"
            with rec.op(batch, steps=alphas.shape[0]):
                for k in range(alphas.shape[0]):
                    data = dalembert.PiecewiseInitialData(n, alphas[k], betas[k])
                    res = dalembert.check_discrete_observability(data, fine, n, gc.c_obs)
                    rec.check(batch, [(res["holds"], "observability violation")])
    for tube in inp["tubes"]:
        label = f"{type(tube).__name__} level {inp['tube_level']}"
        with rec.op(label):
            gc = graph.observability_constant_graph(tube, level=inp["tube_level"])
        rec.check(label, [(_finite_pos(gc.c_obs), f"c_obs {gc.c_obs}")])
    chevron, p = inp["domains"][0], inp["cover_p"]
    label = f"chevron p={p} cover"
    with rec.op(label):
        fine = grid.squares_in_domain(chevron, chevron.level * p)
    rec.top = tuple(key for key in rec.ops if key.endswith("cover"))
    want = p * p * len(chevron.squares)
    rec.check(label, [(len(fine) == want, f"{len(fine)} squares, want {want}")])


# ---------------------------------------------------------------------------
# worst-datum: sharp indicator Gram, repeated solves and power iteration


def setup_worst_datum(seed, tiny, workdir):
    # inputs are the reference chevron runs at every seed
    power_level, hum_level = (16, 8) if tiny else (64, 64)
    chevron = {"fixture": "chevron_l4"}
    return {
        "power_level": power_level,
        "hum_level": hum_level,
        "power": _write_config(workdir, "power", {"level": power_level, "domain": chevron}),
        "hum": _write_config(workdir, "hum-chevron", {"level": hum_level, "domain": chevron}),
        "workdir": workdir,
        "sizes": {"power_level": power_level, "hum_level": hum_level, "domain": "chevron_l4"},
    }


def run_worst_datum(inp, rec):
    with rec.op("power-cobs"):
        rc, res = _cli("power-cobs", inp["power"], os.path.join(inp["workdir"], "power"))
    rec.top = ("power-cobs",)
    const = res.get("constant")
    conds = [(rc == 0, f"exit status {rc}"), (res.get("converged") is True, "not converged")]
    if inp["power_level"] >= 64:
        ok = rc == 0 and abs(const - POWER_CONSTANT) <= POWER_ABS
        conds.append((ok, f"constant {const}"))
    rec.check("power-cobs", conds)

    with rec.op("hum chevron"):
        rc, res = _cli("hum", inp["hum"], os.path.join(inp["workdir"], "hum-chevron"))
    rec.check(
        "hum chevron",
        [
            (rc == 0, f"exit status {rc}"),
            (_finite_pos(res.get("cost")), f"cost {res.get('cost')}"),
            (res.get("residual", 1.0) <= RESIDUAL_MAX, f"residual {res.get('residual')}"),
            (_finite_pos(res.get("terminal_ratio")), f"terminal ratio {res.get('terminal_ratio')}"),
        ],
    )


WORKLOADS = {
    "control-ladder": (setup_control_ladder, run_control_ladder),
    "descent": (setup_descent, run_descent),
    "observe": (setup_observe, run_observe),
    "worst-datum": (setup_worst_datum, run_worst_datum),
}

# Calibration per workload: (job, workload seconds per job, reference job
# seconds).  The job does the workload's dominant kind of work: Gram-chunk
# products for the three Gram workloads, interpreter work for observe
# (exact Fraction covers and per-check Python).  The reference time defines
# the fixed-speed host the reported times refer to.
CALIBRATION = {
    "control-ladder": (array_job, 0.25, 6e-3),
    "descent": (array_job, 0.25, 6e-3),
    "observe": (interpreter_job, 0.05, 0.5e-3),
    "worst-datum": (array_job, 0.25, 6e-3),
}

# Prediction table, as call counts in the traced run: spans each workload
# must call, and spans it must never call.  The coverage guard enforces both.
_HUM = ("hum.assemble_gram.tube", "hum.assemble_gram.indicator", "hum.hum_rhs", "hum.solve_hum",
        "hum.hum_control", "hum.forward_verify", "hum.control_density")
_SHAPE = ("shape.optimize", "shape.shape_derivative_density", "shape.h1_smooth",
          "shape.cylindrical_sweep")
_CLI = ("cli.main", "cli.ArtifactWriter")
_OBSERVE = ("grid.squares_in_domain", "graph.observability_constant_graph",
            "graph.algebraic_connectivity", "graph.spectrum",
            "dalembert.check_discrete_observability", "dalembert.l2_phit_on_squares")
PREDICTIONS = {
    "control-ladder": {
        "exercised": ("hum.assemble_gram.tube", "hum.hum_rhs", "hum.solve_hum", "hum.hum_control",
                      "hum.forward_verify", "hum.control_density", "dalembert.leapfrog_solve",
                      "dalembert.eval_phi", "dalembert.PiecewiseInitialData") + _CLI,
        "bypassed": ("hum.assemble_gram.indicator", "power.power_iterate") + _SHAPE + _OBSERVE,
    },
    "descent": {
        "exercised": ("hum.assemble_gram.tube", "hum.hum_rhs", "hum.solve_hum", "hum.hum_control",
                      "dalembert.eval_phi") + _SHAPE,
        "bypassed": ("hum.assemble_gram.indicator", "hum.forward_verify", "power.power_iterate")
        + _CLI + _OBSERVE,
    },
    "observe": {
        "exercised": _OBSERVE + ("dalembert.PiecewiseInitialData",),
        "bypassed": _HUM + _SHAPE + _CLI + ("power.power_iterate", "dalembert.leapfrog_solve"),
    },
    "worst-datum": {
        "exercised": ("hum.assemble_gram.indicator", "hum.solve_hum", "hum.forward_verify",
                      "power.power_iterate") + _CLI,
        "bypassed": ("hum.assemble_gram.tube",) + _SHAPE + _OBSERVE,
    },
}
