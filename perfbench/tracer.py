"""Span tracer that wraps waveobs functions from outside the package.

A name is wrapped at every module namespace that binds it, because
``from .x import y`` copies the binding at import time: patching only the
defining module would miss the calls made through the copies.  Spans stay
in memory; ``self_times`` and ``write`` run after the measured passes.
"""

import importlib
import json
import os
import time

PACKAGE = "waveobs"
MODULES = ("grid", "graph", "dalembert", "hum", "power", "shape", "cli", "presets", "testing")


class CoverageError(RuntimeError):
    """A traced name no longer resolves, or a layer's call count breaks the prediction."""


def _gram_label(args, kwargs):
    region = args[0] if args else kwargs["region"]
    return "indicator" if type(region).__name__ == "IndicatorRegion" else "tube"


def _cg_iters(args, kwargs, result):
    return {"cg_iters": int(result[1])}


def _power_iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _descent_counts(args, kwargs, result):
    costs = list(result.costs)
    lowered = sum(1 for a, b in zip(costs, costs[1:]) if b < a)
    return {"iterations": len(costs) - 1, "lowered": lowered}


def _bytes_written(method, obj, args, kwargs, result):
    name = "manifest.json" if method == "write_manifest" else args[0]
    return {"bytes": os.path.getsize(os.path.join(obj.out_dir, name))}


# Traced function -> the waveobs modules that bind it at this commit.  A
# binding listed here that stops resolving fails the run (CoverageError); a
# binding found at an unlisted module is wrapped as well.
FUNCTIONS = {
    "grid.squares_in_domain": ("grid", "graph"),
    "graph.observability_constant_graph": ("graph",),
    "graph.algebraic_connectivity": ("graph",),
    "graph.spectrum": ("graph",),
    "dalembert.check_discrete_observability": ("dalembert",),
    "dalembert.l2_phit_on_squares": ("dalembert",),
    "dalembert.eval_phi": ("dalembert", "hum", "shape"),
    "dalembert.leapfrog_solve": ("dalembert", "hum"),
    "hum.assemble_gram": ("hum", "power"),
    "hum.hum_rhs": ("hum",),
    "hum.solve_hum": ("hum", "power"),
    "hum.hum_control": ("hum", "shape"),
    "hum.forward_verify": ("hum",),
    "hum.control_density": ("hum",),
    "power.power_iterate": ("power",),
    "shape.optimize": ("shape",),
    "shape.shape_derivative_density": ("shape",),
    "shape.h1_smooth": ("shape",),
    "shape.cylindrical_sweep": ("shape",),
    "cli.main": ("cli",),
}

# Traced class -> (binding modules, methods).  Every method's span takes the
# class's name; a constructor span counts one object built.
CLASSES = {
    "dalembert.PiecewiseInitialData": (("dalembert", "hum", "testing"), ("__init__",)),
    "cli.ArtifactWriter": (("cli",), ("write_csv", "write_json", "write_manifest")),
}

LABELS = {"hum.assemble_gram": _gram_label}
COUNTERS = {
    "hum.solve_hum": _cg_iters,
    "power.power_iterate": _power_iterations,
    "shape.optimize": _descent_counts,
}
METHOD_COUNTERS = {"cli.ArtifactWriter": _bytes_written}

# Span names, in report order.  The Gram span is split by region kind.
SPAN_NAMES = tuple(
    n
    for name in list(FUNCTIONS) + list(CLASSES)
    for n in ((name + ".tube", name + ".indicator") if name in LABELS else (name,))
)


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counters = {}
        self.op = None
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, name, values):
        for key, value in values.items():
            full = f"{name}.{key}"
            self.counters[full] = self.counters.get(full, 0) + value

    def _wrap_function(self, name, fn):
        label = LABELS.get(name)
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = f"{name}.{label(args, kwargs)}" if label else name
            idx = tracer._begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            if counter is not None:
                tracer._count(name, counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _wrap_method(self, name, method, fn):
        counter = METHOD_COUNTERS.get(name)
        tracer = self

        def traced(obj, *args, **kwargs):
            idx = tracer._begin(name)
            try:
                result = fn(obj, *args, **kwargs)
            finally:
                tracer._end(idx)
            if counter is not None:
                tracer._count(name, counter(method, obj, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced name at every binding site; raise CoverageError if one is gone."""
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        modules[PACKAGE] = importlib.import_module(PACKAGE)
        missing = []
        for name, sites in FUNCTIONS.items():
            home, attr = name.split(".")
            original = getattr(modules[home], attr, None)
            if not callable(original):
                missing.append(f"{name} (not defined in {PACKAGE}.{home})")
                continue
            for site in sites:
                if getattr(modules[site], attr, None) is not original:
                    missing.append(f"{name} (not bound in {PACKAGE}.{site})")
            wrapper = self._wrap_function(name, original)
            for mod in modules.values():
                if mod.__dict__.get(attr) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for name, (sites, methods) in CLASSES.items():
            home, attr = name.split(".")
            cls = getattr(modules[home], attr, None)
            if not isinstance(cls, type):
                missing.append(f"{name} (not defined in {PACKAGE}.{home})")
                continue
            for site in sites:
                if getattr(modules[site], attr, None) is not cls:
                    missing.append(f"{name} (not bound in {PACKAGE}.{site})")
            for meth in methods:
                original = cls.__dict__.get(meth)
                if not callable(original):
                    missing.append(f"{name}.{meth} (no such method)")
                    continue
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap_method(name, meth, original))
        if missing:
            self.uninstall()
            raise CoverageError("traced names no longer resolve: " + "; ".join(missing))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- results ------------------------------------------------------------

    def calls(self):
        out = dict.fromkeys(SPAN_NAMES, 0)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, f)


def self_times(spans):
    """Self time per span name: duration minus the union of its children's intervals.

    ``spans`` holds [name, start, end, parent index, ...] records; a parent
    index of -1 marks a root.  Child intervals are clipped to the parent's.
    """
    children = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = {}
    for idx, span in enumerate(spans):
        name, start, end = span[0], span[1], span[2]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out
