"""Observability of the 1D wave equation on moving space-time domains.

The package computes observability constants through a characteristic-square
cover and its graph Laplacian, builds null controls by duality, and optimizes
the support curve of the control region by projected gradient descent.

Submodule attributes are loaded lazily so the command-line entry point can
pin numpy to one BLAS thread before numpy is first imported.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # geometry / characteristic lattice
    "Curve": "grid",
    "Cylinder": "grid",
    "CurveTube": "grid",
    "SquareUnion": "grid",
    "epsilon_interior": "grid",
    "squares_in_domain": "grid",
    "domain_from_json": "grid",
    "domain_to_json": "grid",
    # observation graph
    "GraphDisconnectedError": "graph",
    "ObsGraph": "graph",
    "algebraic_connectivity": "graph",
    "build_graph": "graph",
    "laplacian": "graph",
    "observability_constant_graph": "graph",
    "refined_laplacian": "graph",
    "spectrum": "graph",
    # adjoint wave solutions
    "PiecewiseInitialData": "dalembert",
    "project": "dalembert",
    "eval_phi": "dalembert",
    "leapfrog_solve": "dalembert",
    # control
    "SmoothedTube": "hum",
    "IndicatorRegion": "hum",
    "WeightProfile": "hum",
    "hum_control": "hum",
    "forward_verify": "hum",
    # shape optimization
    "optimize": "shape",
    "cylindrical_sweep": "shape",
    "performance_index": "shape",
    # spectral estimation
    "power_iterate": "power",
    # data presets
    "get_preset": "presets",
    "PRESET_NAMES": "presets",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        modname = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + modname, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
