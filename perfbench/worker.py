"""One workload in one fresh process: set up, run timed passes, report raw samples.

Started by run.py with BLAS pinned to one thread and ``src`` on the path.
Prints ``READY`` once the inputs are built, then (unless --setup-only) one
JSON line with every pass's wall time, operation and step times, the check
counts, peak RSS, environment and the calibration samples.  With --trace 1
it alternates untraced and traced passes and adds the per-layer numbers of
the traced ones.

While the passes run, the recorder times a fixed calibration job (the
benchmark's own code, never waveobs; see ``workloads.CALIBRATION``).  The
host's speed drifts by tens of per cent over tens of seconds; run.py scales
each pass's times by the job's reference time over the job's median time
around that pass, so a run's figures are in seconds of a host of fixed
speed.  Pass times exclude the calibration jobs.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy
import scipy

import tracer as tracing
import workloads


def _blas():
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_commit(root):
    """HEAD of the checkout's own .git, read without running git; 'unknown' if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root, seed, sizes):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _git_commit(root),
        "seed": seed,
        "sizes": sizes,
    }


def _one_pass(run, inputs, rec):
    t0 = time.perf_counter()
    try:
        run(inputs, rec)
    except Exception as exc:  # a failed pass is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        rec.error("pass", exc)
    return time.perf_counter() - t0 - math.fsum(rec.cal)


def measure(run, inputs, seconds, trace, workload):
    """Run passes until the next one would end after ``seconds``; at least one (two traced).

    Returns the passes, the calibration-job times of each untraced pass and the trace data.
    """
    passes, cal, traced_walls, trace_data = [], [], [], None
    tr = tracing.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        rec = workloads.Recorder(tr if traced else None, workloads.CALIBRATION[workload][:2])
        if traced:
            tr.install()
            try:
                wall = _one_pass(run, inputs, rec)
            finally:
                tr.uninstall()
            traced_walls.append(wall)
        else:
            wall = _one_pass(run, inputs, rec)
            cal.append(rec.cal or [rec.job()])  # a pass shorter than one job interval
        passes.append((wall, rec, traced))
        elapsed = time.perf_counter() - start
        typical = statistics.median(w + math.fsum(r.cal) for w, r, _ in passes)
        if elapsed + typical > seconds and (not trace or traced_walls):
            break
    if trace:
        layers = layer_report(tr, len(traced_walls), workload)
        untraced = statistics.median(w for w, _, t in passes if not t)
        layers["bench.traced_wall_s"] = statistics.median(traced_walls)
        layers["bench.trace_overhead_s"] = layers["bench.traced_wall_s"] - untraced
        trace_data = (layers, tr)
    return passes, cal, trace_data


def layer_report(tr, n_passes, workload):
    """Per-pass calls, self time and counters of the traced passes; enforce the predictions."""
    calls = tr.calls()
    selfs = tracing.self_times(tr.spans)
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / n_passes
        out[f"{name}.self_s"] = selfs.get(name, 0.0) / n_passes
    c = tr.counters
    out["hum.solve_hum.cg_iters"] = c.get("hum.solve_hum.cg_iters", 0) / n_passes
    out["power.power_iterate.iterations"] = c.get("power.power_iterate.iterations", 0) / n_passes
    out["cli.ArtifactWriter.bytes"] = c.get("cli.ArtifactWriter.bytes", 0) / n_passes
    iters = c.get("shape.optimize.iterations", 0)
    out["shape.cost_decrease_ratio"] = c.get("shape.optimize.lowered", 0) / iters if iters else 0.0
    pred = workloads.PREDICTIONS[workload]
    wrong = [f"{n} has no calls" for n in pred["exercised"] if calls[n] == 0]
    wrong += [f"{n} has {calls[n]} calls" for n in pred["bypassed"] if calls[n] != 0]
    if wrong:
        raise tracing.CoverageError(f"prediction table broken on {workload}: " + "; ".join(wrong))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="file for the traced spans")
    args = ap.parse_args()

    setup, run = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed, args.tiny, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    workloads.CALIBRATION[args.workload][0]()  # warm-up: the first call is slower

    try:
        passes, cal, trace_data = measure(run, inputs, args.seconds, args.trace, args.workload)
    except tracing.CoverageError as exc:
        print(f"layer coverage guard: {exc}", file=sys.stderr)
        return 3
    layers = None
    if trace_data is not None:
        layers, tr = trace_data
        if args.spans:
            tr.write(args.spans)
    untraced = [(w, rec) for w, rec, traced in passes if not traced]
    recs = [rec for _, rec, _ in passes]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    report = {
        "walls": [w for w, _ in untraced],
        "ops": [rec.ops for _, rec in untraced],
        "steps": [rec.steps for _, rec in untraced],
        "cal": cal,
        "cal_ref_s": workloads.CALIBRATION[args.workload][2],
        "top": recs[0].top,
        "attempted": sum(r.attempted for r in recs),
        "failed": sum(r.failed for r in recs),
        "failures": [f for r in recs for f in r.failures][:20],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(root, args.seed, inputs["sizes"]),
        "layers": layers,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
