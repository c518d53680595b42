"""Tridiagonal system storage, the pivoted tridiagonal LU solver and the
Sturm inertia count of a symmetric tridiagonal."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import LinearSolveError

_PIVOT_TOL = 1e-14
_BLOCK = 32  # rows per block of a reused factorisation (factor_tridiagonal)
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
    Returns ``solve(rhs)``, which applies the factors.
    O(N) time and memory; with no interchange this is the Thomas algorithm.

    The first call of ``solve`` sweeps the rows as ``dgttrs`` does: a
    steady solve (``solve_tridiagonal``) makes only that call, and a march
    (``solve_transient``) makes it for its first step.  A second call shows
    that the factors are being reused, as in a time march, so it turns them
    into block operators on blocks of ``_BLOCK`` rows, and it and every
    later call apply those (:func:`_block_operators`) instead of a Python
    loop over the rows: one fused product per block gives its x without
    carries, one interface operator per group of ``_BLOCK`` blocks gives
    every block's carries, and one more product adds them in.  Only a chain
    of three numbers per group of ``_BLOCK``^2 rows is left in Python.  The
    operators take O(N ``_BLOCK``) memory and cost a few row sweeps to
    build, which is why a factorisation solved once never builds them.
    ``_BLOCK`` is fixed and small: the products' cost per row grows with
    it, and an explicit inverse of a block of U is only as accurate as the
    block is short.  Should any operator overflow, the row sweep stays.

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

    def sweep_rows(rhs: np.ndarray) -> np.ndarray:
        b = rhs.tolist() + [0.0, 0.0]
        for i in range(n - 1):
            if swap[i]:
                b[i], b[i + 1] = b[i + 1], b[i] - low[i] * b[i + 1]
            else:
                b[i + 1] -= low[i] * b[i]
        for i in range(n - 1, -1, -1):
            b[i] = (b[i] - u1[i] * b[i + 1] - u2[i] * b[i + 2]) / d[i]
        return np.array(b[:n])

    calls = 0
    blocked = None  # the block operators, built by the second call

    def solve(rhs: np.ndarray) -> np.ndarray:
        nonlocal calls, blocked
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (n,):
            raise ValueError(f"right-hand side has shape {rhs.shape}, expected ({n},)")
        calls += 1
        if calls == 2:
            blocked = _block_operators(d[:n], low[:n], u1[:n], u2, swap)
        x = (blocked or sweep_rows)(rhs)
        if not np.all(np.isfinite(x)):
            raise LinearSolveError("linear solve produced non-finite values")
        return x

    return solve


def _block_operators(d, low, u1, u2, swap) -> Callable[[np.ndarray], np.ndarray] | None:
    """``solve`` by blocks of ``_BLOCK`` rows for the factors U (diagonal
    ``d``, superdiagonals ``u1`` and ``u2``), multipliers ``low`` and
    interchanges ``swap`` of :func:`factor_tridiagonal`; None if an operator
    overflows, so that the row sweep stays.

    Forward sweep: row i carries c_i, with c_0 = r_0 and c_{i+1} =
    alpha_i c_i + beta_i r_{i+1}, and keeps y_i = c_i, or y_i = r_{i+1} if
    it was interchanged.  Partial pivoting makes |alpha_i| <= 1.  A block's
    y and outgoing carry are therefore one (B+1) x (B+1) matrix times its
    incoming carry and its B right-hand-side entries.  Backward sweep: a
    block's x is the inverse of its B x B block of U times its y, plus a
    B x 2 response to the first two values of x of the next block.  Rows
    past N are identity rows with a zero right-hand side.  A system of at
    most ``_BLOCK`` rows is one block with nothing to carry, so its two
    operators multiply into the inverse of the whole matrix.

    Otherwise the inverse is premultiplied into the forward operator: one
    fused (B+1) x B product per block gives its outgoing forward partial w
    and its carry-free x, z, from its own right-hand side alone, and x is
    z plus a B x 3 response to the block's three carries, the incoming
    forward carry and the two values of x carried in.  Those carries are
    the two sweeps' chains over the blocks, which is a reduced interface
    system as in the SPIKE partition (Polizzi-Sameh, Parallel Computing
    2006).  Over a group of ``_BLOCK`` blocks they are one fixed linear map
    of the group's w, of rows 0-1 of its z and of the three carries that
    enter the group: its forward carry, r_0 for the first group, and the
    first two values of x after it, zero after the last group.  A solve
    applies that interface operator as one batched matrix-vector product;
    only the chain of those three numbers from group to group runs in
    Python, O(N / ``_BLOCK``^2) steps and none up to ``_BLOCK``^2 rows.
    """
    n = len(d)
    size = min(_BLOCK, n)
    blocks = -(-n // size)

    def by_block(values, fill):
        out = np.full(blocks * size, fill)
        out[:n] = values
        return out.reshape(blocks, size)

    took = by_block(swap, False)
    mult = by_block(low, 0.0)
    alpha, beta = np.where(took, 1.0, -mult), np.where(took, -mult, 1.0)
    # forward[:, j] is y of block row j, forward[:, size] the outgoing carry,
    # over (incoming carry, the block's rhs)
    forward = np.empty((blocks, size + 1, size + 1))
    carry = np.zeros((blocks, size + 1))
    carry[:, 0] = 1.0
    for j in range(size):
        np.multiply(carry, ~took[:, j, None], out=forward[:, j])
        carry *= alpha[:, j, None]
        carry[:, j + 1] += beta[:, j]
    forward[:, size] = carry
    rows = np.arange(size)
    forward[:, rows, rows + 1] += took

    pivot, first, second = by_block(d, 1.0), by_block(u1, 0.0), by_block(u2, 0.0)
    # inverse[:, j] is x of block row j over (the block's y, the two x carried
    # in); back substitution as in the row sweep, on unit vectors
    inverse = np.tile(np.eye(size + 2), (blocks, 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(size - 1, -1, -1):
            row = inverse[:, j, j:]
            row -= inverse[:, j + 1, j:] * first[:, j, None]
            row -= inverse[:, j + 2, j:] * second[:, j, None]
            row /= pivot[:, j, None]
        if blocks == 1:
            whole = inverse[0, :n, :n] @ forward[0, :n, :n]
            return (lambda rhs: whole @ rhs) if np.all(np.isfinite(whole)) else None
        back_y = inverse[:, :size, :size]
        # fused[:, 0] is w and fused[:, 1:] is z over the block's rhs; response
        # is x's over (incoming forward carry, the two x carried in)
        fused = np.concatenate((forward[:, size:, 1:], back_y @ forward[:, :size, 1:]), axis=1)
        response = np.concatenate((back_y @ forward[:, :size, :1], inverse[:, :size, size:]), axis=2)
        group = min(_BLOCK, blocks)
        interface, summary = _interface_operators(forward[:, size, 0], response[:, :2], group)
    if not all(np.all(np.isfinite(a)) for a in (fused, response, interface, summary)):
        return None

    groups, width = summary.shape[0], 3 * group + 3
    # a group's inputs are (its three incoming carries, then (w, z_0, z_1) of
    # each of its blocks); slots are the blocks' rows among all groups' inputs
    slots = np.arange(blocks) + np.arange(blocks) // group + 1
    transfer = summary[:, 0, 0].tolist()
    from_carry = summary[:, 1:, 0].tolist()
    from_next = summary[:, 1:, 1:3].tolist()

    def solve_blocks(rhs: np.ndarray) -> np.ndarray:
        r = np.zeros(blocks * size + 1)
        r[:n] = rhs
        wz = np.matmul(fused, r[1:].reshape(blocks, size, 1))
        inputs = np.zeros((groups * (group + 1), 3))
        inputs[slots] = wz[:, :3, 0]
        u = inputs.reshape(groups, width, 1)
        if groups == 1:
            inputs[0, 0] = r[0]
        else:
            # the group chain: forward carries in order, then the first two
            # x of each group in reverse, x past the last group being zero
            partial = np.matmul(summary, u)[:, :, 0].tolist()
            carries = [r[0].item()]
            for t, (w, _, _) in zip(transfer, partial):
                carries.append(t * carries[-1] + w)
            v0 = v1 = 0.0
            heads = []
            for c, (_, z0, z1), (f0, f1), ((a0, a1), (b0, b1)) in zip(
                carries[-2::-1], partial[::-1], from_carry[::-1], from_next[::-1]
            ):
                heads.append((c, v0, v1))
                v0, v1 = z0 + f0 * c + a0 * v0 + a1 * v1, z1 + f1 * c + b0 * v0 + b1 * v1
            inputs[:: group + 1] = heads[::-1]
        coupled = np.matmul(interface, u).reshape(-1, 3, 1)[:blocks]
        x = wz[:, 1:] + np.matmul(response, coupled)
        return x.reshape(-1)[:n]

    return solve_blocks


def _interface_operators(transfer: np.ndarray, head: np.ndarray, group: int) -> tuple[np.ndarray, np.ndarray]:
    """The interface operators of :func:`_block_operators` over groups of
    ``group`` blocks, for the blocks' forward transfers (``transfer``, the
    outgoing carry over the incoming one) and the rows 0-1 of their
    responses to the three carries (``head``, blocks x 2 x 3).

    A group's inputs u are its three incoming carries (C, V_0, V_1), then
    (w_k, z_k0, z_k1) of each block k.  Returns ``interface``, of shape
    (groups, 3 ``group``, 3 ``group`` + 3), whose rows 3k, 3k + 1 and
    3k + 2 give block k's three carries over u, and ``summary``, of shape
    (groups, 3, 3 ``group`` + 3), whose rows give the group's outgoing
    forward carry and the first two x of its first block over u.  Blocks
    past the last are padding with zero carries.
    """
    groups = -(-transfer.size // group)
    width = 3 * group + 3
    pad = groups * group - transfer.size
    transfer = np.pad(transfer, (0, pad)).reshape(groups, group)
    head = np.pad(head, ((0, pad), (0, 0), (0, 0))).reshape(groups, group, 2, 3)
    interface = np.empty((groups, group, 3, width))
    carry = np.zeros((groups, width))
    carry[:, 0] = 1.0
    for k in range(group):
        interface[:, k, 0] = carry
        carry = carry * transfer[:, k, None]
        carry[:, 3 * k + 3] += 1.0
    ahead = np.zeros((groups, 2, width))
    ahead[:, 0, 1] = ahead[:, 1, 2] = 1.0
    for k in range(group - 1, -1, -1):
        interface[:, k, 1:] = ahead
        ahead = head[:, k, :, :1] * interface[:, k, None, 0] + np.matmul(head[:, k, :, 1:], ahead)
        ahead[:, 0, 3 * k + 4] += 1.0
        ahead[:, 1, 3 * k + 5] += 1.0
    summary = np.concatenate((carry[:, None], ahead), axis=1)
    return interface.reshape(groups, 3 * group, width), summary


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
