"""Benchmark initial-data presets for the control experiments.

Each preset bundles the initial position and velocity (with their smoothness
breakpoints, so projections and quadratures can split cells exactly), the
time horizon, and the descent parameters used in the reference experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ControlPreset", "get_preset", "PRESET_NAMES"]


@dataclass
class ControlPreset:
    """Initial data and reference parameters for one control experiment."""

    name: str
    y0: callable
    y1: callable = None  # None means zero initial velocity
    breakpoints: tuple = ()
    T: float = 2.0
    eps: float = 1e-2  # curve-smoothing weight in the regularized cost
    rho: float = 1e-4  # descent step
    # center of the initial (constant) support curve; None means there is no
    # default start, so `optimize` on custom data needs a `gamma0`
    x0_init: float = 0.5

    def data_breakpoints(self):
        return tuple(float(b) for b in self.breakpoints)


def _ex1_y0(x):
    return np.sin(2.0 * np.pi * np.asarray(x, dtype=float))


def _bump(x):
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.4) & (x <= 0.6)
    p = (10 * x - 4) ** 2 * (10 * x - 6) ** 2
    return np.where(inside, p, 0.0)


def _bump_prime(x):
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.4) & (x <= 0.6)
    p = 20.0 * (10 * x - 4) * (10 * x - 6) * (20 * x - 10)
    return np.where(inside, p, 0.0)


def _zigzag(x):
    x = np.asarray(x, dtype=float)
    return np.where(
        x <= 1.0 / 3.0,
        3.0 * x,
        np.where(x <= 2.0 / 3.0, 3.0 * (1.0 - 2.0 * x), -3.0 * (1.0 - x)),
    )


_PRESETS = {
    "ex1": lambda: ControlPreset(
        name="ex1",
        y0=_ex1_y0,
        x0_init=0.4,
    ),
    "ex2": lambda: ControlPreset(
        name="ex2",
        y0=_bump,
        y1=_bump_prime,
        breakpoints=(0.4, 0.6),
    ),
    "ex3": lambda: ControlPreset(
        name="ex3",
        y0=_bump,
        breakpoints=(0.4, 0.6),
        # even datum with zero velocity: the centered curve is a critical
        # point of the cost (the shape gradient vanishes by symmetry), so
        # start off-center
        x0_init=0.45,
    ),
    "ex4": lambda: ControlPreset(
        name="ex4",
        y0=_zigzag,
        breakpoints=(1.0 / 3.0, 2.0 / 3.0),
        rho=1e-5,
        # the datum is odd about x = 1/2, so the centered curve is an exact
        # critical point of the cost; start off-center to leave the saddle
        x0_init=0.45,
    ),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def get_preset(name):
    """Look up a preset by name (ex1..ex4)."""
    key = str(name).lower()
    if key not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return _PRESETS[key]()
