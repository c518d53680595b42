"""Pytest configuration for the whole repository."""

import os

# One BLAS thread for every test run: the dense eigensolver oracles in
# tests/ slowed 25-fold when another process kept a core busy.  numpy is
# not yet imported when this file loads, so the setting takes effect;
# a value set in the environment wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
