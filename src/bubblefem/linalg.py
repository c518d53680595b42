"""Tridiagonal system storage, the pivoted tridiagonal LU solver and the
Sturm inertia count of a symmetric tridiagonal."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import LinearSolveError

_PIVOT_TOL = 1e-14
_TINY = sys.float_info.min


@dataclass
class TridiagonalSystem:
    """Tridiagonal matrix (sub/diag/super) together with a right-hand side."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        self.sub = np.asarray(self.sub, dtype=float)
        self.diag = np.asarray(self.diag, dtype=float)
        self.sup = np.asarray(self.sup, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        n = self.diag.size
        if n < 1:
            raise ValueError("system must have at least one unknown")
        if self.rhs.size != n or self.sub.size != max(n - 1, 0) or self.sup.size != max(n - 1, 0):
            raise ValueError(
                f"inconsistent lengths: diag={n}, sub={self.sub.size}, "
                f"sup={self.sup.size}, rhs={self.rhs.size}"
            )

    @property
    def size(self) -> int:
        return self.diag.size


def tridiagonal_matvec(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = diag * v
    if diag.size > 1:
        out[:-1] += sup * v[1:]
        out[1:] += sub * v[:-1]
    return out


def factor_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """LU factorisation with partial pivoting of a tridiagonal matrix, as in
    LAPACK ``dgttrf``: a row interchange fills one second superdiagonal of U.
    Returns ``solve(rhs)``, which applies the factors as ``dgttrs`` does.
    O(N) time and memory; with no interchange this is the Thomas algorithm.

    A pivot of U at most ``_PIVOT_TOL`` times the largest matrix entry raises
    LinearSolveError; this pivot rule replaces the SVD condition gate of a
    dense fallback.  ``solve`` raises it for non-finite results.
    """
    n = len(diag)
    # a trailing zero on each diagonal spares the last row its special cases
    d, low, u1 = (np.append(np.asarray(a, dtype=float), 0.0).tolist() for a in (diag, sub, sup))
    u2 = [0.0] * n  # the second superdiagonal, filled by interchanges
    swap = [False] * n
    # the whole matrix sets the scale: a row cancelled to round-off is not regular
    limit = _PIVOT_TOL * max(map(abs, d + low + u1))
    for i in range(n):
        if abs(low[i]) > abs(d[i]):
            swap[i] = True
            d[i], low[i] = low[i], d[i]
            u1[i], d[i + 1] = d[i + 1], u1[i]
            u2[i], u1[i + 1] = u1[i + 1], 0.0
        if not abs(d[i]) > limit:
            raise LinearSolveError("tridiagonal system is singular or near-singular")
        low[i] /= d[i]
        d[i + 1] -= low[i] * u1[i]
        if swap[i]:
            u1[i + 1] -= low[i] * u2[i]

    def solve(rhs: np.ndarray) -> np.ndarray:
        b = np.asarray(rhs, dtype=float).tolist() + [0.0, 0.0]
        for i in range(n - 1):
            if swap[i]:
                b[i], b[i + 1] = b[i + 1], b[i] - low[i] * b[i + 1]
            else:
                b[i + 1] -= low[i] * b[i]
        for i in range(n - 1, -1, -1):
            b[i] = (b[i] - u1[i] * b[i + 1] - u2[i] * b[i + 2]) / d[i]
        x = np.array(b[:n])
        if not np.all(np.isfinite(x)):
            raise LinearSolveError("linear solve produced non-finite values")
        return x

    return solve


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """Solve the system by one pivoted factorisation (``factor_tridiagonal``);
    a singular matrix raises LinearSolveError."""
    return factor_tridiagonal(system.sub, system.diag, system.sup)(system.rhs)


def nonpositive_pivots(diag: np.ndarray, off: np.ndarray) -> int:
    """Number of LDL^T pivots of the symmetric tridiagonal (diag, off) that
    are not positive: by Sylvester's law of inertia, the number of its
    eigenvalues <= 0, so 0 means positive definite.  A NaN pivot counts; a
    zero pivot counts and is replaced by ``-tiny`` so the sweep goes on, as
    in the Sturm count of LAPACK ``dstebz``.  O(N)."""
    count = 0
    p = 1.0
    for di, e in zip(diag.tolist(), [0.0] + (off * off).tolist()):
        p = di - e / p
        if not p > 0.0:
            count += 1
            p = p or -_TINY
    return count
