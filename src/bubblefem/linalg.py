"""Tridiagonal system storage, the pivoted tridiagonal LU solver and the
Sturm inertia count of a symmetric tridiagonal: one kernel, the count of a
twisted factorisation at any row with its twisted pivot
(:func:`twisted_count`), whose last-row case is the plain count
(:func:`nonpositive_pivots`), and the choice of the row where that pivot is
least (:func:`best_twist`)."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def factor_tridiagonal(
    sub: np.ndarray,
    diag: np.ndarray,
    sup: np.ndarray,
    right: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """LU factorisation with partial pivoting of a tridiagonal matrix L, as
    in LAPACK ``dgttrf``: a row interchange fills one second superdiagonal
    of U.  Returns ``solve(v)``, which gives L^-1 R v for the tridiagonal
    ``right`` = R, given as (sub, diag, sup), or L^-1 v without it: R is
    then the identity.  O(N) time and memory; with no interchange this is
    the Thomas algorithm.

    The first call of ``solve`` forms R v by one explicit product (none
    without ``right``) and sweeps the rows as ``dgttrs`` does: a steady
    solve (``solve_tridiagonal``) makes only that call, and a march
    (``solve_transient``) makes it for its first step.  A second call shows
    that the factors are being reused, as in a time march, so it turns them
    and R into block operators on blocks of ``_BLOCK`` rows, and it and
    every later call apply those (:func:`_block_operators`) instead of a
    Python loop over the rows: v is copied into one padded buffer, one
    batched product over its overlapping windows gives every block's x
    without carries, one interface operator per group of ``_BLOCK`` blocks
    gives every block's carries, and one more product adds them in.  Only
    a chain of three numbers per group of ``_BLOCK``^2 rows is left in
    Python.  The operators take O(N ``_BLOCK``) memory and cost a few row
    sweeps to build, which is why a factorisation solved once never builds
    them.  ``_BLOCK`` is fixed and small: the products' cost per row grows
    with it, and an explicit inverse of a block of U is only as accurate
    as the block is short.  Should any operator overflow, the row sweep
    stays.

    A pivot of U at most ``_PIVOT_TOL`` times the largest entry of L raises
    LinearSolveError; this pivot rule replaces the SVD condition gate of a
    dense fallback.  ``solve`` raises it for non-finite results.
    """
    n = len(diag)
    if right is not None:
        right = tuple(np.asarray(a, dtype=float) for a in right)
        if [a.shape for a in right] != [(n - 1,), (n,), (n - 1,)]:
            raise ValueError(f"right factor has shapes {[a.shape for a in right]}, expected N = {n}")
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

    def sweep_rows(v: np.ndarray) -> np.ndarray:
        b = (v if right is None else tridiagonal_matvec(*right, v)).tolist() + [0.0, 0.0]
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

    def solve(v: np.ndarray) -> np.ndarray:
        nonlocal calls, blocked
        v = np.asarray(v, dtype=float)
        if v.shape != (n,):
            raise ValueError(f"right-hand side has shape {v.shape}, expected ({n},)")
        calls += 1
        if calls == 2:
            blocked = _block_operators(d[:n], low[:n], u1[:n], u2, swap, right)
        x = (blocked or sweep_rows)(v)
        if not np.isfinite(x).all():
            raise LinearSolveError("linear solve produced non-finite values")
        return x

    return solve


def _block_operators(d, low, u1, u2, swap, right) -> Callable[[np.ndarray], np.ndarray] | None:
    """``solve`` by blocks of ``_BLOCK`` rows for the factors U (diagonal
    ``d``, superdiagonals ``u1`` and ``u2``), multipliers ``low`` and
    interchanges ``swap`` of :func:`factor_tridiagonal` and its right
    factor R (``right``, as (sub, diag, sup), or None for the identity);
    None if an operator overflows, so that the row sweep stays.

    Forward sweep over r = R v: row i carries c_i, with c_0 = r_0 and
    c_{i+1} = alpha_i c_i + beta_i r_{i+1}, and keeps y_i = c_i, or
    y_i = r_{i+1} if it was interchanged.  Partial pivoting makes
    |alpha_i| <= 1.  A block's y and outgoing carry are therefore one
    (B+1) x (B+1) matrix times its incoming carry and its B entries of r.
    Backward sweep: a block's x is the inverse of its B x B block of U
    times its y, plus a B x 2 response to the first two values of x of the
    next block.  Rows past N, up to whole blocks (and whole groups of
    blocks, when there are several), are identity rows of L and zero rows
    of R.  A system of at most ``_BLOCK`` rows is one block with nothing to
    carry, so its operators multiply into the one matrix L^-1 R.

    Otherwise the inverse is premultiplied into the forward operator, and
    R after it.  Block k's entries r_{kB+1..kB+B} are R_k times the window
    v_{kB..kB+B+1} of B + 2 entries, and block 0's incoming carry
    r_0 = R_00 v_0 + R_01 v_1 lies in its window too.  So one fused
    (B+1) x (B+2) product G_k per block gives, from its own window alone,
    its outgoing forward partial w and its carry-free x, z, with r_0
    folded into G_0; x is z plus a B x 3 response to the block's other
    three carries, the incoming forward carry and the two values of x
    carried in.  Those carries are the two sweeps' chains over the blocks,
    which is a reduced interface system as in the SPIKE partition
    (Polizzi-Sameh, Parallel Computing 2006).  Over a group of ``_BLOCK``
    blocks they are one fixed linear map of the group's (w, z_0, z_1),
    rows 0-2 of its products, and of the three carries that enter the
    group: its forward carry, zero for the first group, and the first two
    values of x after it, zero after the last group.  A solve applies that
    interface operator as one batched matrix-vector product; only the
    chain of those three numbers from group to group runs in Python,
    O(N / ``_BLOCK``^2) steps and none up to ``_BLOCK``^2 rows.
    """
    n = len(d)
    if right is None:
        right = (np.zeros(n - 1), np.ones(n), np.zeros(n - 1))
    size = min(_BLOCK, n)
    blocks = -(-n // size)
    group = min(_BLOCK, blocks)
    blocks = -(-blocks // group) * group  # whole groups

    def by_block(values, fill):
        out = np.full(blocks * size, fill)
        out[:len(values)] = values
        return out.reshape(blocks, size)

    took = by_block(swap, False)
    mult = by_block(low, 0.0)
    alpha, beta = np.where(took, 1.0, -mult), np.where(took, -mult, 1.0)
    # forward[:, j] is y of block row j, forward[:, size] the outgoing carry,
    # over (incoming carry, the block's r)
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
    # R's rows 1 .. blocks * size, which give the blocks' r; zero past N
    r_sub, r_diag, r_sup = (by_block(a, 0.0) for a in (right[0], right[1][1:], right[2][1:]))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(size - 1, -1, -1):
            row = inverse[:, j, j:]
            row -= inverse[:, j + 1, j:] * first[:, j, None]
            row -= inverse[:, j + 2, j:] * second[:, j, None]
            row /= pivot[:, j, None]
        if blocks == 1:
            whole = inverse[0, :n, :n] @ forward[0, :n, :n]
            whole_r = whole @ (np.diag(right[1]) + np.diag(right[0], -1) + np.diag(right[2], 1))
            return (lambda v: whole_r @ v) if np.isfinite(whole_r).all() else None
        # fused[:, 0] is w and fused[:, 1:] is z, over (incoming forward
        # carry, the block's r); the carry column is x's response to it
        fused = np.concatenate((forward[:, size:], inverse[:, :size, :size] @ forward[:, :size]), axis=1)
        response = np.concatenate((fused[:, 1:, :1], inverse[:, :size, size:]), axis=2)
        # g is fused R_k over the block's window of v; block 0's incoming
        # carry r_0 = R_00 v_0 + R_01 v_1 is in its own window
        g = np.zeros((blocks, size + 1, size + 2))
        g[:, :, :-2] += fused[:, :, 1:] * r_sub[:, None]
        g[:, :, 1:-1] += fused[:, :, 1:] * r_diag[:, None]
        g[:, :, 2:] += fused[:, :, 1:] * r_sup[:, None]
        g[0, :, :2] += fused[0, :, :1] * (right[1][0], right[2][0])
        # each G_k stored column by column: at N = 1e5 the batched product
        # reads it about 14% faster than row by row (AMD EPYC, OpenBLAS 0.3
        # at one thread)
        g = np.ascontiguousarray(g.transpose(0, 2, 1)).transpose(0, 2, 1)
        interface, summary = _interface_operators(forward[:, size, 0], response[:, :2], group)
    if not all(np.isfinite(a).all() for a in (g, response, interface, summary)):
        return None

    groups = blocks // group
    # interface columns: the group's three incoming carries, then its data
    from_data = np.ascontiguousarray(interface[:, :, 3:])
    from_carries = np.ascontiguousarray(interface[:, :, :3])
    summary_data = np.ascontiguousarray(summary[:, :, 3:])
    transfer = summary[:, 0, 0].tolist()
    from_carry = summary[:, 1:, 0].tolist()
    from_next = summary[:, 1:, 1:3].tolist()
    padded = np.zeros(blocks * size + 2)
    windows = sliding_window_view(padded, size + 2)[::size, :, None]

    def solve_blocks(v: np.ndarray) -> np.ndarray:
        padded[:n] = v
        wz = np.matmul(g, windows)
        data = wz[:, :3].reshape(groups, 3 * group, 1)
        coupled = np.matmul(from_data, data)
        if groups > 1:
            # the group chain: forward carries in order, then the first two
            # x of each group in reverse, x past the last group being zero;
            # r_0 is in block 0's w and z, so the first carry is zero
            partial = np.matmul(summary_data, data)[:, :, 0].tolist()
            carries = [0.0]
            for t, (w, _, _) in zip(transfer, partial):
                carries.append(t * carries[-1] + w)
            v0 = v1 = 0.0
            heads = []
            for c, (_, z0, z1), (f0, f1), ((a0, a1), (b0, b1)) in zip(
                carries[-2::-1], partial[::-1], from_carry[::-1], from_next[::-1]
            ):
                heads.append((c, v0, v1))
                v0, v1 = z0 + f0 * c + a0 * v0 + a1 * v1, z1 + f1 * c + b0 * v0 + b1 * v1
            coupled += np.matmul(from_carries, np.array(heads[::-1])[:, :, None])
        x = wz[:, 1:] + np.matmul(response, coupled.reshape(blocks, 3, 1))
        return x.reshape(-1)[:n]

    return solve_blocks


def _interface_operators(transfer: np.ndarray, head: np.ndarray, group: int) -> tuple[np.ndarray, np.ndarray]:
    """The interface operators of :func:`_block_operators` over groups of
    ``group`` blocks, for the blocks' forward transfers (``transfer``, the
    outgoing carry over the incoming one) and the rows 0-1 of their
    responses to the three carries (``head``, blocks x 2 x 3); the number
    of blocks is a multiple of ``group``.

    A group's inputs u are its three incoming carries (C, V_0, V_1), then
    (w_k, z_k0, z_k1) of each block k.  Returns ``interface``, of shape
    (groups, 3 ``group``, 3 ``group`` + 3), whose rows 3k, 3k + 1 and
    3k + 2 give block k's three carries over u, and ``summary``, of shape
    (groups, 3, 3 ``group`` + 3), whose rows give the group's outgoing
    forward carry and the first two x of its first block over u.
    """
    groups = transfer.size // group
    width = 3 * group + 3
    transfer = transfer.reshape(groups, group)
    head = head.reshape(groups, group, 2, 3)
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


def _pivot_sweep(diag: list, couplings: list) -> tuple[int, float]:
    """Number of non-positive LDL^T pivots of a sweep over the rows
    ``diag`` with squared couplings ``couplings`` to the previous row (the
    first unused), and the sweep's last pivot.  A NaN pivot counts; a zero
    pivot counts and is replaced by ``-tiny`` so the sweep goes on, as in
    the Sturm count of LAPACK ``dstebz``."""
    count = 0
    p = 1.0
    for di, e in zip(diag, couplings):
        p = di - e / p
        if not p > 0.0:
            count += 1
            p = p or -_TINY
    return count, p


def _pivot_array(diag: list, couplings: list) -> np.ndarray:
    """1, then every pivot of :func:`_pivot_sweep`, a zero already replaced
    by ``-tiny``."""
    p = 1.0
    pivots = (p := di - e / p or -_TINY for di, e in zip(diag, couplings))
    return np.fromiter(chain((1.0,), pivots), float, len(diag) + 1)


def _squared_couplings(off: np.ndarray) -> list:
    """``[0, off_0^2, ..., off_{n-2}^2, 0]``: entry k couples rows k-1 and k,
    and the zeros stand for the rows past either end."""
    return [0.0, *(off * off).tolist(), 0.0]


def twisted_count(diag: np.ndarray, off: np.ndarray, r: int) -> tuple[int, float]:
    """Sturm count and twisted pivot of the symmetric tridiagonal T =
    (diag, off) at row ``r``, from one pass over the rows: LDL^T pivots
    D+ from the top down to row r - 1, UDU^T pivots D- from the bottom up
    to row r + 1, and gamma_r = diag_r - off_{r-1}^2 / D+_{r-1} -
    off_r^2 / D-_{r+1} = 1 / [T^-1]_rr (Parlett-Dhillon, LAA 267, 1997).

    T = N_r diag(D+_<r, gamma_r, D-_>r) N_r^T, so by Sylvester's law of
    inertia the non-positive ones among these pivots count the eigenvalues
    of T that are <= 0, whatever r is.  Both sweeps keep the rules of
    :func:`_pivot_sweep`; gamma_r counts when it is not positive, and is
    returned as computed, also when it is zero or NaN.  O(N).
    """
    d, e2 = diag.tolist(), _squared_couplings(off)
    above, p_top = _pivot_sweep(d[:r], e2[:r])
    below, p_bottom = _pivot_sweep(d[:r:-1], e2[:r + 1:-1])
    gamma = d[r] - e2[r] / p_top - e2[r + 1] / p_bottom
    return above + below + (not gamma > 0.0), gamma


def best_twist(diag: np.ndarray, off: np.ndarray) -> tuple[int, int, float]:
    """The twist row r where |gamma_r| of :func:`twisted_count` is least,
    that is, where the eigenvector of the eigenvalue nearest 0 is largest,
    with ``twisted_count(diag, off, r)``.  One full sweep from each end
    gives every D+ and D-, and gamma_k = D+_k + D-_k - diag_k, up to
    rounding and the ``-tiny`` of a zero pivot; a NaN one is never chosen
    unless all are.  The count and gamma_r returned are those of the
    single pass at r.  O(N), two sweeps."""
    d, e2 = diag.tolist(), _squared_couplings(off)
    top = _pivot_array(d, e2)  # 1, D+_0, ..., D+_{n-1}
    bottom = _pivot_array(d[::-1], e2[::-1])[::-1]  # D-_0, ..., D-_{n-1}, 1
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(top[1:] + bottom[:-1] - diag)
    r = int(np.argmin(np.fmin(size, np.inf)))  # fmin turns NaN into inf
    gamma = d[r] - e2[r] / top[r].item() - e2[r + 1] / bottom[r + 1].item()
    count = np.count_nonzero(~(top[1:r + 1] > 0.0)) + np.count_nonzero(~(bottom[r + 1:-1] > 0.0))
    return r, int(count) + (not gamma > 0.0), gamma


def nonpositive_pivots(diag: np.ndarray, off: np.ndarray) -> int:
    """Number of LDL^T pivots of the symmetric tridiagonal (diag, off) that
    are not positive: by Sylvester's law of inertia, the number of its
    eigenvalues <= 0, so 0 means positive definite.  The last-row case
    r = N - 1 of :func:`twisted_count`, whose rules it keeps: a NaN pivot
    counts, and a zero pivot counts and is replaced by ``-tiny`` so the
    sweep goes on, as in the Sturm count of LAPACK ``dstebz``.  O(N)."""
    return twisted_count(diag, off, diag.size - 1)[0]
