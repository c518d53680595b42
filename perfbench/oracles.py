"""Exact solutions the benchmark checks the package against.

These are the harness's own copies, written from the problem statements,
so a defect in the package's closed forms cannot hide a defect in its
solvers.
"""

from __future__ import annotations

import math

import numpy as np

CONVECTION_RATE = 20.0  # k in -u'' + k u' = 0
EXACT_DECAY_RATE = 2.0  # slowest mode sin(x) of du/dt - u'' + u = 0


def boundary_layer(x):
    """-u''/100 + u = 0 on [0, 10], u(0) = 3/2, u'(10) = 0, overflow-safe."""
    x = np.asarray(x, dtype=float)
    return 1.5 * (np.exp(-10.0 * x) + np.exp(10.0 * x - 200.0)) / (1.0 + np.exp(-200.0))


def convection_diffusion(x):
    """-u'' + k u' = 0 on [0, 1], u(0) = 0, u(1) = 1."""
    x = np.asarray(x, dtype=float)
    k = CONVECTION_RATE
    return (np.exp(k * (x - 1.0)) - math.exp(-k)) / (1.0 - math.exp(-k))


def pure_convection(x):
    """u' = 0 on [0, 1] with u(0) = 1."""
    return np.ones_like(np.asarray(x, dtype=float))


def heat_with_loss(x, t):
    """du/dt - u'' + u = 0 on [0, pi], u(x, 0) = sin x, zero ends."""
    return np.sin(np.asarray(x, dtype=float)) * np.exp(-EXACT_DECAY_RATE * np.asarray(t))
