"""Command-line interface: artifacts, golden outputs, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import waveobs
from waveobs.cli import ArtifactWriter, main

from conftest import CHEVRON_SQUARES
from oracles import snapshot_indices

A4_ROWS = [
    [4, 0, 0, -2, -2, 0, 0, 0],
    [0, 4, 0, -2, -2, 0, 0, 0],
    [0, 0, 4, -2, -2, 0, 0, 0],
    [-2, -2, -2, 13, -1, -2, -2, -2],
    [-2, -2, -2, -1, 13, -2, -2, -2],
    [0, 0, 0, -2, -2, 4, 0, 0],
    [0, 0, 0, -2, -2, 0, 4, 0],
    [0, 0, 0, -2, -2, 0, 0, 4],
]


def run_cli(tmp_path, command, config=None, extra=(), out_name="out"):
    argv = [command]
    if config is not None:
        cfg = tmp_path / f"{out_name}-cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    out = tmp_path / out_name
    argv += ["--out", str(out), *extra]
    return main(argv), out


def read_json(path):
    return json.loads(path.read_text())


def csv_lines(path):
    return path.read_text().strip().split("\n")


# ------------------------------------------------------------------- writer


def _fmt(x):
    """One CSV cell: ints verbatim, floats at 17 significant digits."""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, int):
        return str(x)
    return "%.17g" % float(x)


def _oracle_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    return ("\n".join(lines) + "\n").encode("ascii")


SPECIALS = [-0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]
CSV_CASES = {
    "mixed_python": [[0, True, 0.1], [7, False, -2.5], [2**53 - 1, True, 1.0]],
    "numpy_scalars": [[np.int64(3), np.float64(0.1)], [np.int64(-9), np.float64(1 / 3)]],
    "specials": [SPECIALS, SPECIALS[::-1]],
    "float_ndarray": np.column_stack(
        [np.linspace(0, 1, 7), np.linspace(0, 2, 7) ** 3, np.r_[SPECIALS, 0.2]]
    ),
    "int_ndarray": np.arange(12).reshape(4, 3) - 5,
    # both zeros, repeats and two NaN payloads in one column: each bit pattern is one text
    "repeats_ndarray": np.column_stack([
        np.array([0.0, -0.0, 0.5, 0.0, -0.0, 0.5, np.nan, np.uint64(0x7FF8000000000001).view(np.float64)]),
        np.r_[np.full(4, 0.1), np.full(4, 1e300)],
    ]),
    "bool_ndarray": np.array([[True, False], [False, False], [True, True]]),
    "one_column_ndarray": np.linspace(-1, 1, 5)[:, None],
    "ndarray_row": [np.array([0.0, 1.0, 4.000000000000001, 1e-17])],
    "empty_list": [],
    "empty_ndarray": np.empty((0, 3)),
}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_write_csv_matches_per_cell_oracle(tmp_path, case):
    rows = CSV_CASES[case]
    width = len(rows[0]) if len(rows) else 3
    header = [f"c{k}" for k in range(width)]
    ArtifactWriter(str(tmp_path)).write_csv("t.csv", header, rows)
    data = (tmp_path / "t.csv").read_bytes()
    assert data == _oracle_csv(header, rows)
    if not len(rows):
        assert data == b"c0,c1,c2\n"


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="inhomogeneous shape"):
        ArtifactWriter(str(tmp_path)).write_csv("t.csv", ["a", "b"], [[1, 2], [3]])


@pytest.mark.parametrize("rows", [[[1, 2], [3, 4]], np.ones((3, 2)), [[1.0, 2.0, 3.0, 4.0]]])
def test_write_csv_rejects_rows_not_as_wide_as_the_header(tmp_path, rows):
    with pytest.raises(ValueError, match="cannot reshape"):
        ArtifactWriter(str(tmp_path)).write_csv("t.csv", ["a", "b", "c"], rows)
    assert not (tmp_path / "t.csv").exists()


# --------------------------------------------------------------- golden runs


def test_graph_cobs_golden(tmp_path, capsys):
    code, out = run_cli(tmp_path, "graph-cobs")
    assert code == 0
    result = read_json(out / "result.json")
    assert result["c_obs"] == 4
    assert result["lambda"] == 4
    assert result["n"] == 4
    assert result["num_squares"] == 25
    assert result["num_vertices"] == 8
    printed = json.loads(capsys.readouterr().out)
    assert printed == result


def test_spectrum_golden(tmp_path):
    code, out = run_cli(tmp_path, "spectrum")
    assert code == 0
    spec_lines = csv_lines(out / "spectrum.csv")
    assert "0,4,4,4,4,4,14,16" in spec_lines
    lap = csv_lines(out / "laplacian.csv")
    assert lap[0].split(",") == ["v-4", "v-3", "v-2", "v-1", "v1", "v2", "v3", "v4"]
    parsed = [[int(float(v)) for v in line.split(",")] for line in lap[1:]]
    assert parsed == A4_ROWS


def test_reruns_are_byte_identical(tmp_path):
    _, out1 = run_cli(tmp_path, "spectrum", out_name="a")
    _, out2 = run_cli(tmp_path, "spectrum", out_name="b")
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_lists_all_files_with_checksums(tmp_path):
    code, out = run_cli(tmp_path, "hum", {"level": 8}, extra=["--seed", "7"])
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "hum"
    assert manifest["seed"] == 7
    listed = {entry["path"]: entry["sha256"] for entry in manifest["files"]}
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(listed) == on_disk
    for name, digest in listed.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    paths = [entry["path"] for entry in manifest["files"]]
    assert paths == sorted(paths)


# ------------------------------------------------------------------ commands


def test_hum_artifacts(tmp_path):
    code, out = run_cli(tmp_path, "hum", {"level": 8})
    assert code == 0
    result = read_json(out / "result.json")
    for key in (
        "cost",
        "residual",
        "terminal_ratio",
        "energy_initial",
        "energy_terminal",
        "level",
        "T",
        "data",
    ):
        assert key in result
    assert result["data"] == "ex1"
    assert result["cost"] == pytest.approx(46.94, rel=0.10)
    nx, nt = 8 + 1, 2 * 8 + 1
    phi = csv_lines(out / "phi.csv")
    assert phi[0] == "x,t,phi"
    assert len(phi) == 1 + nx * nt
    ctrl = csv_lines(out / "control.csv")
    assert ctrl[0] == "x,t,v"
    assert len(ctrl) == 1 + nx * nt


def test_optimize_artifacts(tmp_path):
    config = {
        "preset": "ex1",
        "level": 8,
        "curve_nodes": 16,
        "max_iters": 3,
        "sweep_count": 3,
    }
    code, out = run_cli(tmp_path, "optimize", config)
    assert code == 0
    summary = read_json(out / "summary.json")
    for key in (
        "J0",
        "J_opt",
        "J_raw_final",
        "iterations",
        "converged",
        "lipschitz_final",
        "sweep_best_x0",
        "sweep_best_J",
        "sweep_worst_x0",
        "sweep_worst_J",
        "performance_index",
    ):
        assert key in summary
    iters = csv_lines(out / "iterations.csv")
    assert iters[0] == "n,J_eps,delta_J,lipschitz_estimate"
    assert len(iters) == 1 + summary["iterations"] + 1
    first = iters[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == 0.0
    final_curve = csv_lines(out / "curve_final.csv")
    assert final_curve[0] == "t,value"
    assert len(final_curve) == 1 + 16 + 1
    snaps = csv_lines(out / "curve_snapshots.csv")
    assert snaps[0] == "iteration,t,value"
    snap_iters = sorted({int(line.split(",")[0]) for line in snaps[1:]})
    assert snap_iters == snapshot_indices(summary["iterations"] + 1)
    sweep = csv_lines(out / "sweep.csv")
    assert sweep[0] == "x0,J"
    assert len(sweep) == 1 + 3


def test_optimize_reports_the_start_curve_interval_count(tmp_path):
    config = {"level": 8, "curve_nodes": 7, "max_iters": 1, "sweep_count": 1,
              "gamma0": {"times": [0, 1, 2], "values": [0.4, 0.5, 0.4]}}
    code, out = run_cli(tmp_path, "optimize", config)
    assert code == 0 and read_json(out / "summary.json")["curve_nodes"] == 2


def test_optimize_on_zero_data_reports_no_performance_index(tmp_path, capsys):
    # every cost is 0, so the saving over the best cylinder is undefined: null, not a crash
    config = {"data": {"y0_nodes": [0, 0, 0, 0, 0]}, "gamma0": {"constant": 0.5}, "level": 8,
              "sweep_count": 3}
    code, out = run_cli(tmp_path, "optimize", config)
    assert code == 0
    summary = read_json(out / "summary.json")
    assert summary["J_opt"] == 0 and summary["converged"] is True
    assert summary["performance_index"] is None
    assert json.loads(capsys.readouterr().out)["performance_index"] is None
    for name in ("iterations.csv", "curve_snapshots.csv", "curve_final.csv", "sweep.csv",
                 "manifest.json"):
        assert (out / name).is_file(), name


@pytest.mark.parametrize("max_iters", [11, 20, 45])
def test_optimize_snapshots_the_reference_iterations(tmp_path, max_iters):
    config = {"level": 8, "curve_nodes": 8, "max_iters": max_iters, "patience": 100,
              "sweep_count": 1}
    code, out = run_cli(tmp_path, "optimize", config)
    assert code == 0 and read_json(out / "summary.json")["iterations"] == max_iters
    snaps = csv_lines(out / "curve_snapshots.csv")[1:]
    assert len(snaps) == 9 * len(snapshot_indices(max_iters + 1))
    assert sorted({int(line.split(",")[0]) for line in snaps}) == snapshot_indices(max_iters + 1)


@pytest.mark.parametrize("delta0,centres", [(0.15, ["0.2", "0.5", "0.8"]),
                                             (0.25, ["0.25", "0.5", "0.75"]),
                                             (0.3, ["0.3", "0.5", "0.7"])])
def test_optimize_sweeps_the_part_of_its_range_inside_the_band(tmp_path, delta0, centres):
    # [0.2, 0.8] within [delta0, 1 - delta0]: the sweep's cylinders are starts optimize accepts
    config = {"delta0": delta0, "level": 8, "max_iters": 1, "sweep_count": 3,
              "gamma0": {"constant": 0.45}}
    code, out = run_cli(tmp_path, "optimize", config)
    assert code == 0
    x0s = [float(row.split(",")[0]) for row in csv_lines(out / "sweep.csv")[1:]]
    assert [repr(x) for x in x0s] == centres
    summary = read_json(out / "summary.json")
    assert {summary["sweep_best_x0"], summary["sweep_worst_x0"]} <= set(x0s)


def test_a_tube_may_leave_the_band_that_documents_and_starts_keep(tmp_path, capsys):
    from waveobs.grid import Curve, CurveTube, domain_from_json

    tube = CurveTube(Curve.constant(0.1, 2.0), 0.15)  # a sweep's cylinder at x0 = 0.1
    assert tube.chi(np.array([0.1, 0.3]), np.array([1.0, 1.0])).tolist() == [1.0, 0.0]
    says = "tube needs 0 <= delta0 <= gamma <= 1 - delta0, got delta0=0.15"
    with pytest.raises(ValueError, match=re.escape(says)):
        domain_from_json({"type": "cylinder", "x0": 0.1, "delta0": 0.15, "T": 2})
    with pytest.raises(SystemExit) as err:
        run_cli(tmp_path, "optimize", {"gamma0": {"constant": 0.1}, "level": 8})
    assert err.value.code == 2
    assert f"invalid gamma0 curve: {says}" in capsys.readouterr().err


def test_sweep_artifacts(tmp_path):
    config = {"level": 8, "count": 3, "x0_min": 0.25, "x0_max": 0.75}
    code, out = run_cli(tmp_path, "sweep", config)
    assert code == 0
    result = read_json(out / "result.json")
    assert result["best_x0"] == 0.25
    assert result["worst_x0"] == 0.5
    rows = csv_lines(out / "sweep.csv")
    assert rows[0] == "x0,J"
    assert len(rows) == 4


def test_sweep_csv_prints_each_centre_as_its_decimal(tmp_path):
    # a user range: the centres are the decimals 0.1, ..., 0.9, mirror pairs sum to 1
    config = {"level": 8, "count": 9, "x0_min": 0.1, "x0_max": 0.9}
    code, out = run_cli(tmp_path, "sweep", config)
    assert code == 0
    x0s = [float(row.split(",")[0]) for row in csv_lines(out / "sweep.csv")[1:]]
    assert [repr(x) for x in x0s] == [f"0.{k}" for k in range(1, 10)]
    assert all(a + b == 1.0 for a, b in zip(x0s, x0s[::-1]))


def test_power_cobs_artifacts(tmp_path):
    code, out = run_cli(tmp_path, "power-cobs", {"level": 16})
    assert code == 0
    result = read_json(out / "result.json")
    assert result["level"] == 16
    assert result["converged"] is True
    assert result["constant"] == pytest.approx(4.0, abs=0.1)
    est = csv_lines(out / "estimates.csv")
    assert est[0] == "k,estimate"
    assert est[1].split(",")[0] == "1"
    assert len(est) == 1 + result["iterations"]
    datum = csv_lines(out / "worst_datum.csv")
    assert datum[0] == "x,y0,y1"
    assert len(datum) == 1 + 17


def test_power_cobs_honours_the_time_window(tmp_path):
    # 18 of the chevron's 25 squares lie above t = 1/2, so the constant grows
    chevron = {"type": "square_union", "level": 4, "T": 2, "squares": sorted(CHEVRON_SQUARES)}
    constants = []
    for name, domain in (("full", chevron), ("window", {**chevron, "t_lo": 0.5})):
        code, out = run_cli(tmp_path, "power-cobs", {"domain": domain, "level": 16}, out_name=name)
        assert code == 0
        constants.append(read_json(out / "result.json")["constant"])
    assert constants[0] == pytest.approx(3.949, abs=1e-3)
    assert constants[1] == pytest.approx(7.849, abs=1e-3)


def test_verify_artifacts(tmp_path):
    config = {
        "domain": {"fixture": "chevron_l4"},
        "levels": [8, 16],
        "obs_samples": 5,
    }
    code, out = run_cli(tmp_path, "verify", config, extra=["--seed", "11"])
    assert code == 0
    result = read_json(out / "result.json")
    assert result["levels"] == [8, 16]
    assert result["decreasing"] is True
    assert result["ratios"][1] < result["ratios"][0]
    assert result["obs_samples"] == 5
    assert result["obs_violations"] == 0
    rows = csv_lines(out / "verify.csv")
    assert rows[0] == "level,grid_m,cost,residual,terminal_ratio"
    assert len(rows) == 3
    # seeded rerun reproduces everything byte for byte
    _, out2 = run_cli(tmp_path, "verify", config, extra=["--seed", "11"], out_name="v2")
    assert (out / "result.json").read_bytes() == (out2 / "result.json").read_bytes()


def test_custom_data_roundtrip(tmp_path):
    config = {
        "level": 8,
        "data": {"y0_nodes": [0.0, 0.3, 0.5, 0.3, 0.0], "y1_cells": [0.1, -0.1, 0.2, 0.0]},
    }
    code, out = run_cli(tmp_path, "hum", config)
    assert code == 0
    result = read_json(out / "result.json")
    assert result["data"] == "custom"
    assert result["cost"] > 0.0
    assert result["terminal_ratio"] < 1.0


def test_inline_domain(tmp_path):
    config = {
        "domain": {
            "type": "square_union",
            "level": 4,
            "T": 2,
            "squares": sorted(map(list, CHEVRON_SQUARES)),
        }
    }
    code, out = run_cli(tmp_path, "graph-cobs", config)
    assert code == 0
    assert read_json(out / "result.json")["c_obs"] == 4


# ---------------------------------------------------------------- exit codes


def test_unknown_command_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate", "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    capsys.readouterr()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus_knob": 1}))
    with pytest.raises(SystemExit) as err:
        main(["graph-cobs", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    assert "bogus_knob" in capsys.readouterr().err


def test_contradictory_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "both.json"
    cfg.write_text(json.dumps({"preset": "ex2", "data": {"y0_nodes": [0, 1, 0]}}))
    with pytest.raises(SystemExit) as err:
        main(["hum", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    assert "give either 'preset' or 'data', not both" in capsys.readouterr().err


def test_config_command_mismatch_exits_2(tmp_path, capsys):
    cfg = tmp_path / "mismatch.json"
    cfg.write_text(json.dumps({"command": "sweep"}))
    with pytest.raises(SystemExit) as err:
        main(["graph-cobs", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    capsys.readouterr()


# a JSON integer past the int-to-str digit limit (4300) makes json.load raise
# a plain ValueError; json.dumps hits the same limit, so the text is written
HUGE_INT = "1" + "0" * 5000


def test_config_with_a_huge_integer_exits_2(tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"level": %s}' % HUGE_INT)
    with pytest.raises(SystemExit) as err:
        main(["hum", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    assert "config is not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_domain_file_with_a_huge_integer_exits_2(tmp_path, capsys):
    dom = tmp_path / "domain.json"
    dom.write_text('{"type": "cylinder", "x0": 0.25, "delta0": 0.15, "T": %s}' % HUGE_INT)
    with pytest.raises(SystemExit) as err:
        run_cli(tmp_path, "graph-cobs", {"domain": {"path": str(dom)}, "level": 8})
    assert err.value.code == 2
    assert "cannot read domain file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# (command, config, the part of the stderr message that names the key)
BAD_CONFIGS = [
    ("hum", {"level": 8.7}, "key 'level' must be an integer"),
    ("hum", {"level": True}, "key 'level' must be a number"),
    ("verify", {"levels": [8.5, 16]}, "key 'levels' must be an integer, got 8.5"),
    ("hum", {"T": 0}, "key 'T' must be positive"),
    ("hum", {"T": -1}, "key 'T' must be positive"),
    ("hum", {"T": "abc"}, "key 'T' must be a number"),
    ("sweep", {"x0_min": "a"}, "key 'x0_min' must be a number"),
    ("verify", {"levels": ["a"]}, "key 'levels' must be a number, got 'a'"),
    ("hum", {"preset": "ex9"}, "unknown preset 'ex9'"),
    ("spectrum", {"level": 8, "eps": 0.25}, "unknown config key for spectrum: 'eps'"),
    ("hum", {"level": "8"}, "key 'level' must be a number"),
    ("hum", {"level": None}, "key 'level' must be a number"),
    ("hum", {"raster_nx": 0}, "key 'raster_nx' must be positive"),
    ("optimize", {"eps_reg": -1}, "key 'eps_reg' must be >= 0"),
    ("power-cobs", {"tol": "x"}, "key 'tol' must be a number"),
    ("spectrum", {"refine": 0}, "key 'refine' must be positive"),
    ("hum", {"T": float("inf")}, "key 'T' must be a finite number"),
    ("hum", {"T": 10**400}, "key 'T' must be a finite number"),
    ("hum", {"level": 10**400}, "key 'level' must be a finite number"),
    ("verify", {"levels": [16, 10**400]}, "key 'levels' must be a finite number"),
    ("hum", {"level": 10**20}, "key 'level' must be at most 2147483647"),
    ("hum", {"level": 1e20}, "key 'level' must be at most 2147483647"),
    ("hum", {"raster_nx": 2**31}, "key 'raster_nx' must be at most 2147483647"),
    ("verify", {"levels": [16, 2**31]}, "key 'levels' must be at most 2147483647"),
    ("hum", {"domain": {"type": "cylinder", "t_lo": 0.5, "x0": 0.25, "delta0": 0.15, "T": 2}},
     "drop 't_lo'/'t_hi'"),
    ("verify", {"domain": {"type": "curve_tube", "t_hi": 1.5, "delta0": 0.15,
                           "curve": {"times": [0, 1, 2], "values": [0.4, 0.5, 0.4]}}},
     "drop 't_lo'/'t_hi'"),
    *[(command, {"domain": domain, "level": 8}, "drop 't_lo'/'t_hi'")
      for command in ("graph-cobs", "spectrum", "power-cobs")
      for domain in ({"type": "cylinder", "t_lo": 0.5, "x0": 0.25, "delta0": 0.15, "T": 2},
                     {"type": "curve_tube", "t_hi": 1.5, "delta0": 0.15,
                      "curve": {"times": [0, 1, 2], "values": [0.4, 0.5, 0.4]}})],
    ("graph-cobs", {"domain": {"type": "curve_tube", "T": 3, "delta0": 0.15,
                               "curve": {"times": [0, 1, 2], "values": [0.4, 0.5, 0.4]}},
                    "level": 8}, "curve_tube T=3.0 does not match its curve's horizon 2.0"),
    ("graph-cobs", {"domain": {"type": "cylinder", "x0": 0.25, "delta0": 0.15, "T": 2}},
     "a CurveTube has no level of its own: give 'level'"),
    ("spectrum", {"domain": {"type": "curve_tube", "delta0": 0.15,
                             "curve": {"times": [0, 1, 2], "values": [0.4, 0.5, 0.4]}}},
     "a CurveTube has no level of its own: give 'level'"),
    ("power-cobs", {"domain": {"type": "cylinder", "x0": 0.25, "delta0": 0.15, "T": 2}},
     "power-cobs needs a square_union domain, got CurveTube"),
    ("power-cobs", {"domain": {"type": "curve_tube", "delta0": 0.15,
                               "curve": {"times": [0, 1, 2], "values": [0.4, 0.5, 0.4]}}},
     "power-cobs needs a square_union domain, got CurveTube"),
    ("graph-cobs", {"domain": {"level": 4.7, "type": "square_union", "T": 2, "squares": [[2, 1]]}},
     "level must be an integer >= 1, got 4.7"),
    ("graph-cobs", {"domain": {"level": True, "type": "square_union", "T": 2, "squares": [[2, 1]]}},
     "level must be an integer >= 1, got True"),
    ("power-cobs", {"domain": {"level": 0, "type": "square_union", "T": 2, "squares": []},
                    "level": 8}, "level must be an integer >= 1, got 0"),
    ("graph-cobs", {"domain": {"level": -4, "type": "square_union", "T": 2, "squares": []}},
     "level must be an integer >= 1, got -4"),
    ("graph-cobs", {"domain": {"level": 4, "type": "square_union", "T": 2,
                               "squares": [[2**70, 1]]}}, "invalid domain"),
    ("graph-cobs", {"domain": {"curve": {"times": [0, 1, 2], "values": [0.4, float("nan"), 0.4]},
                               "type": "curve_tube", "delta0": 0.15}, "level": 8},
     "curve times and values must be finite"),
    ("hum", {"domain": {"type": "curve_tube", "delta0": 0.15,
                        "curve": {"times": [0, 1, 2], "values": [0.4, float("nan"), 0.4]}}},
     "curve times and values must be finite"),
    ("optimize", {"gamma0": {"times": [0, 1, 2], "values": [0.4, float("nan"), 0.4]}},
     "invalid gamma0 curve: curve times and values must be finite"),
    ("optimize", {"gamma0": {"constant": float("nan")}},
     "invalid gamma0 curve: curve times and values must be finite"),
    # the start curve must lie in the band the descent projects onto, and a negative
    # half-width is not a domain
    *[("optimize", {"gamma0": gamma0}, "invalid gamma0 curve: tube needs 0 <= delta0 <= gamma "
       "<= 1 - delta0, got delta0=0.15")
      for gamma0 in ({"constant": 0.05}, {"constant": 1.3},
                     {"values": [0.4, 0.9, 0.4], "times": [0, 1, 2]})],
    ("graph-cobs", {"domain": {"delta0": -0.1, "type": "cylinder", "x0": 0.5, "T": 2},
                    "level": 8}, "tube needs 0 <= delta0 <= gamma <= 1 - delta0, got delta0=-0.1"),
    ("spectrum", {"domain": {"delta0": -0.1, "type": "curve_tube",
                             "curve": {"times": [0, 1, 2], "values": [0.4, 0.5, 0.4]}},
                  "level": 8}, "tube needs 0 <= delta0"),
    *[(command, {"domain": {"type": "square_union", "level": 4, "T": 2,
                            "squares": sorted(CHEVRON_SQUARES), **window}, "level": 8},
       "0 <= t_lo < t_hi <= T")
      for command, window in (("graph-cobs", {"t_lo": 1.5, "t_hi": 0.5}), ("hum", {"t_lo": -1}),
                              ("hum", {"t_hi": 5}))],
    ("verify", {"levels": [8], "obs_samples": 3}, "'obs_samples' needs a square_union domain"),
    ("hum", {"level": 6, "domain": {"fixture": "chevron_l4"}},
     "key 'level' must be a multiple of the domain level (4), got 6"),
    ("power-cobs", {"level": 6}, "key 'level' must be a multiple of the domain level (4), got 6"),
    # at level 1 no interior node exists: the power operator is zero
    ("power-cobs", {"domain": {"type": "square_union", "level": 1, "T": 2, "squares": [[2, -1]]},
                    "level": 1}, "config key 'level' must be at least 2, got 1"),
    ("verify", {"levels": [8, 6], "domain": {"fixture": "chevron_l4"}},
     "key 'levels' must be a multiple of the domain level (4), got 6"),
    ("hum", {"curve_nodes": 7}, "unknown config key for hum: 'curve_nodes'"),
    ("hum", {"delta": "abc"}, "key 'delta' must be a number, got 'abc'"),
    ("sweep", {"delta": True}, "key 'delta' must be a number, got True"),
    ("optimize", {"delta": "abc"}, "key 'delta' must be a number, got 'abc'"),
    ("hum", {"delta": 0.5}, "invalid weight: ramp width must satisfy 0 < delta < delta0"),
    ("verify", {"delta": 0.5}, "invalid weight: ramp width must satisfy 0 < delta < delta0"),
    ("sweep", {"delta": 0.5}, "invalid weight: ramp width must satisfy 0 < delta < delta0"),
    ("optimize", {"delta": 0.5}, "invalid weight: ramp width must satisfy 0 < delta < delta0"),
    ("hum", {"domain": {"type": "cylinder", "x0": 0.25, "delta0": 0, "T": 2}},
     "invalid weight: delta0 must be positive"),
    ("graph-cobs", {"domain": {"type": "cylinder", "x0": 0.5, "delta0": 0.1, "T": 0}, "level": 8},
     "invalid domain: cylinder needs T > 0, got T=0.0"),
    ("hum", {"domain": {"type": "cylinder", "x0": 0.5, "delta0": 0.1, "T": -2}},
     "invalid domain: cylinder needs T > 0, got T=-2.0"),
    # json reads NaN and Infinity, which would reach the solve as a NaN right-hand side
    ("hum", {"data": {"y0_nodes": [0, 1, float("nan"), -0.25, 0]}, "level": 8},
     "'y0_nodes' must be finite"),
    ("hum", {"data": {"y0_nodes": [0, 1, 0.5, -0.25, 0], "y1_cells": [1, float("inf"), -1, 2]},
             "level": 8}, "'y1_cells' must be finite"),
    ("optimize", {"delta0": 0.6}, "key 'delta0' must be at most 0.5"),
    ("hum", {"level": 64, "grid_m": 100}, "unknown config key for hum: 'grid_m'"),
    ("hum", {"grid_factor": 0}, "key 'grid_factor' must be positive"),
    ("hum", {"T": 0.1, "level": 8}, "keys 'T' and 'level' do not fit: T*level must be"),
    ("sweep", {"T": 0.1, "level": 8}, "keys 'T' and 'level' do not fit: T*level must be"),
    ("optimize", {"T": 0.1, "level": 8}, "keys 'T' and 'level' do not fit: T*level must be"),
    ("verify", {"T": 0.1, "levels": [8]}, "keys 'T' and 'levels' do not fit: T*level must be"),
    ("hum", {"T": 0.5, "level": 2, "grid_factor": 1},
     "keys 'T' and 'grid_factor' give a leapfrog grid"),
    ("verify", {"T": 0.5, "levels": [2], "grid_factor": 1},
     "keys 'T' and 'grid_factor' give a leapfrog grid"),
    # one Gauss point is not exact even on a sharp weight, and only a tube has a ramp
    *[(command, {"quad": 1}, "key 'quad' must be at least 2, got 1")
      for command in ("hum", "verify")],
    *[(command, {"domain": {"fixture": "chevron_l4"}, "delta": 0.01},
       "config key 'delta' is a tube's ramp width") for command in ("hum", "verify")],
]
# the id is the whole config, so two rows share one only if they repeat a test
BAD_CONFIG_IDS = [f"{command}-{json.dumps(config)}" for command, config, _ in BAD_CONFIGS]
assert len(set(BAD_CONFIG_IDS)) == len(BAD_CONFIG_IDS)


@pytest.mark.parametrize(
    "command,config,message",
    BAD_CONFIGS,
    ids=BAD_CONFIG_IDS,
)
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, command, config, message):
    with pytest.raises(SystemExit) as err:
        run_cli(tmp_path, command, config)
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_keys_take_values_up_to_2_to_the_31_minus_1():
    from waveobs.cli import _POS_INT, _coerce

    assert _coerce("level", 2**31 - 1, _POS_INT) == 2**31 - 1
    assert _coerce("level", float(2**31 - 1), _POS_INT) == 2**31 - 1


def test_integral_float_level_is_the_integer_level(tmp_path):
    manifests = []
    for level in (8, 8.0):
        code, out = run_cli(tmp_path, "hum", {"level": level}, out_name=f"L{level!r}")
        assert code == 0
        assert read_json(out / "result.json")["level"] == 8
        manifests.append(json.loads((out / "manifest.json").read_text())["files"])
    assert manifests[0] == manifests[1]


def test_readme_documents_every_config_key():
    from waveobs.cli import COMMAND_TABLE

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    missing = {
        f"{command}.{key}"
        for command, (_, keys) in COMMAND_TABLE.items()
        for key in keys
        if f"`{key}`" not in readme
    }
    assert not missing
    # each command's row in the keys table names only its keys, or a command whose keys it shares
    rows = dict(re.findall(r"^\| `([a-z-]+)` +\|(.*)\|$", readme, re.MULTILINE))
    assert rows.keys() == COMMAND_TABLE.keys()
    stale = {
        f"{command}.{name}"
        for command, (_, keys) in COMMAND_TABLE.items()
        for name in re.findall(r"`([^`]+)`", rows[command])
        if name not in keys and name not in COMMAND_TABLE
    }
    assert not stale


def test_computational_failure_exits_1_with_error_json(tmp_path, capsys):
    config = {
        "domain": {"type": "square_union", "level": 4, "T": 2, "squares": [[2, 1]]}
    }
    code, out = run_cli(tmp_path, "graph-cobs", config)
    assert code == 1
    err = read_json(out / "error.json")
    assert err["command"] == "graph-cobs"
    assert "GOC violated" in err["error"]["message"]
    printed = json.loads(capsys.readouterr().out)
    assert printed == err
    assert not (out / "result.json").exists()
    assert not (out / "manifest.json").exists()


def test_singular_gram_exits_1_with_error_json(tmp_path, capsys):
    # at T=1 some characteristics miss the cylinder, so the Gram is singular
    code, out = run_cli(tmp_path, "hum", {"T": 1, "level": 32})
    assert code == 1
    err = read_json(out / "error.json")
    assert err["command"] == "hum"
    assert "ill-conditioned" in err["error"]["message"]
    capsys.readouterr()
    assert not (out / "manifest.json").exists()


# ------------------------------------------------------------------- process


def child_env():
    """Environment in which a child interpreter imports this same waveobs."""
    src = str(Path(waveobs.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


def test_module_entry_point(tmp_path):
    out = tmp_path / "proc"
    proc = subprocess.run(
        [sys.executable, "-m", "waveobs.cli", "graph-cobs", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["c_obs"] == 4
    assert (out / "manifest.json").exists()


def test_importing_the_package_and_cli_loads_no_numpy():
    # main pins one BLAS thread only while numpy is not yet loaded, and
    # hashlib (OpenSSL) is loaded only by a process that writes an artifact
    modules = ("numpy", "hashlib", "_hashlib")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, waveobs, waveobs.cli; print(*[m in sys.modules for m in {modules!r}])"],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    numpy_loaded, hashlib_loaded, openssl_loaded = proc.stdout.split()
    assert numpy_loaded == "False"
    assert (hashlib_loaded, openssl_loaded) == ("False", "False")


def test_artifacts_do_not_depend_on_thread_count(tmp_path):
    # the CLI pins one BLAS thread whatever the environment asks for; at two
    # threads the Gram product of hum at levels 32 and 128 changes in its last bits
    cases = {"hum-32": ("hum", {"level": 32}), "hum-64": ("hum", {}),
             "hum-128": ("hum", {"level": 128}), "sweep": ("sweep", {})}
    for name, (command, config) in cases.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        manifests = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "waveobs.cli", command, "--config", str(cfg),
                 "--out", str(out)],
                capture_output=True,
                text=True,
                timeout=300,
                env={**child_env(), "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1], name
    # mirror-image cylinders tie; the tie goes to the smaller center
    assert read_json(tmp_path / "sweep-1" / "result.json")["best_x0"] == 0.25


NO_SCIPY = """
import sys
from waveobs.cli import main
cfg, out = sys.argv[1:]
for command in ("hum", "power-cobs", "optimize"):
    assert main([command, "--config", cfg, "--out", out + "/" + command]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_control_commands_load_no_scipy(tmp_path):
    cfg = tmp_path / "level16.json"
    cfg.write_text(json.dumps({"level": 16}))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(cfg), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
