"""Observability of the 1D wave equation on moving space-time domains.

The package computes observability constants through a characteristic-square
cover and its graph Laplacian, builds null controls by duality, and optimizes
the support curve of the control region by projected gradient descent.  Each
name is imported from its submodule (``waveobs.grid``, ``graph``,
``dalembert``, ``hum``, ``shape``, ``power``, ``presets``); importing the
package itself loads nothing, so the command-line entry point can pin numpy to
one BLAS thread before numpy is first imported.
"""

__version__ = "0.1.0"
