"""waveobs benchmark: one workload per invocation, metrics as one JSON line.

    python3 perfbench/run.py --workload control-ladder --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout.  The workload runs in a fresh
worker process with BLAS pinned to one thread; set-up time is the median of
several fresh processes, each timed from spawn until its inputs are ready.
Pass, operation and step times are scaled to a host of fixed speed: each
pass's are multiplied by the calibration job's reference time over the job's
median time in that pass and its neighbours (see worker.py); the unscaled
values are printed beside them.  With --trace 0 the JSON line holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced run.  Human-readable lines, the environment and every check failure
are printed before it; the full record goes to .perfbench_out/.  See
perfbench/NOTES.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 4
TIMEOUT_S = 170.0
WORKLOADS = ("control-ladder", "descent", "observe", "worst-datum")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def tail(samples):
    """Highest percentile with at least ten samples beyond it (the maximum below 21 samples)."""
    s = sorted(samples)
    return s[len(s) - 11] if len(s) >= 21 else s[-1]


def pass_scales(cal, ref):
    """Per pass: ``ref`` over the median calibration-job time of the pass and its two neighbours."""
    return [ref / statistics.median(t for c in cal[max(0, i - 1):i + 2] for t in c)
            for i in range(len(cal))]


def step_profile(steps, scales):
    """One sample per step of the pass: its scaled time's median over the passes.

    A pass repeats the same steps, so this keeps each step's own cost (the
    slow descent iterations, the large check batches) and drops the host's
    short stalls, which hit a step in one pass and not in the others.
    """
    times = {}
    for k, per_pass in zip(scales, steps):
        for key, t in per_pass.items():
            times.setdefault(key, []).append(k * t)
    return [statistics.median(ts) for ts in times.values()]


def end_to_end(report, setups, scales):
    """End-to-end metrics; each pass's times are multiplied by its entry of ``scales``."""
    walls = [k * w for k, w in zip(scales, report["walls"])]
    steps = [[k * t for t in (per_pass.values() or [wall])]
             for k, per_pass, wall in zip(scales, report["steps"], report["walls"])]
    profile = step_profile(report["steps"], scales) or walls
    tops = [k * math.fsum(ops[key] for key in report["top"] if key in ops)
            for k, ops in zip(scales, report["ops"])]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
        "top_op_s": (statistics.median(tops), "s"),
        "step_p50_ms": (1e3 * statistics.median(profile), "ms"),
        "step_tail_ms": (1e3 * tail(profile), "ms"),
        "checks_per_s": (statistics.median(len(p) / math.fsum(p) for p in steps), "1/s"),
    }


def per_layer(report):
    units = {"calls": "count", "self_s": "s", "cg_iters": "count", "iterations": "count",
             "bytes": "B", "cost_decrease_ratio": "ratio", "trace_overhead_s": "s",
             "traced_wall_s": "s"}
    return {name: (value, units[name.rsplit(".", 1)[1]]) for name, value in report["layers"].items()}


class Worker:
    """A worker process whose stdout is read line by line; killed at the run's deadline."""

    def __init__(self, argv, env, deadline):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(max(0.0, deadline - self.t0), self.proc.kill)
        self.watchdog.start()

    def lines(self):
        for line in self.proc.stdout:
            yield time.perf_counter(), line.rstrip("\n")

    def finish(self):
        rc = self.proc.wait()
        self.watchdog.cancel()
        self.proc.stdout.close()
        return rc


def spawn(args, workdir, env, deadline, extra=()):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir, *extra]
    if args.tiny:
        argv.append("--tiny")
    return Worker(argv, env, deadline)


def run_worker(worker):
    """(set-up seconds, last line) of a worker, or raise if it failed."""
    ready, last = None, None
    for stamp, line in worker.lines():
        if line == "READY" and ready is None:
            ready = stamp - worker.t0
        last = line
    rc = worker.finish()
    if rc != 0 or ready is None:
        raise RuntimeError(f"worker exited with status {rc}")
    return ready, last


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="levels 8/16 and a few samples (smoke test)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "waveobs", "__init__.py")):
        print(f"no waveobs sources under {ROOT}/src: run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIMEOUT_S
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    env = dict(os.environ, TMPDIR=workdir, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = []
        for _ in range(1 if args.tiny else SETUP_PROBES):
            setups.append(run_worker(spawn(args, workdir, env, deadline, ["--setup-only"]))[0])
        spans = os.path.join(OUT, f"spans-{tag}.json")
        ready, last = run_worker(spawn(args, workdir, env, deadline, ["--spans", spans]))
        setups.append(ready)
        report = json.loads(last)
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    scales = pass_scales(report["cal"], report["cal_ref_s"])
    metrics = per_layer(report) if args.trace else end_to_end(report, setups, scales)
    attempted, failed = report["attempted"], report["failed"]
    record = dict(report, setups=setups, scales=scales, metrics=metrics, workload=args.workload)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(f"env {json.dumps(report['env'], sort_keys=True)}")
    for msg in report["failures"]:
        print(f"check failed: {msg}")
    steps = len(step_profile(report["steps"], scales)) or len(report["walls"])
    print(f"{args.workload}: {len(report['walls'])} timed passes, {steps} step samples, "
          f"{sum(map(len, report['cal']))} calibration jobs, "
          f"time scale {min(scales):.4f}–{max(scales):.4f}")
    raw = {} if args.trace else end_to_end(report, setups, [1.0] * len(scales))
    for name, (value, unit) in metrics.items():
        unscaled = f"  (raw {raw[name][0]:.6g})" if raw.get(name, (value,))[0] != value else ""
        print(f"  {name:44s} {value:14.6g} {unit}{unscaled}")
    if not args.trace:
        print(f"  {'fail_ratio':44s} {failed / max(attempted, 1):14.6g} ratio")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
