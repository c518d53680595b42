"""Tridiagonal system storage, the tridiagonal solvers and the Sturm
inertia count of a symmetric tridiagonal.

A one-shot solve (:func:`solve_tridiagonal`) of a diagonally dominant
matrix is an odd-even cyclic reduction in numpy; any other matrix is
eliminated with partial pivoting in one pass over the rows that carries
the right-hand side, then back-substituted (:func:`_row_sweep`).  A time
march solves one symmetric matrix L at every step with a right factor R:
it factorises L once without pivoting, a pass that is also its test of
positive definiteness, and applies the factors and R as block operators
(:func:`_march_step`).  The count has one kernel, the count of a twisted
factorisation at any row with its twisted pivot (:func:`twisted_count`),
whose last-row case is the plain count (:func:`nonpositive_pivots`)."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import LinearSolveError

_PIVOT_TOL = 1e-14
_BLOCK = 32  # rows per block of a march's block operators (_march_step)
_TINY = sys.float_info.min


@dataclass(frozen=True)
class TridiagonalSystem:
    """Tridiagonal matrix (sub/diag/super) together with a right-hand side,
    of shapes (N - 1,), (N,), (N - 1,) and (N,) with N >= 1, each cast to a
    float array once and checked at construction.  The fields cannot be
    reassigned, so no solve checks them again; ``dataclasses.replace``
    builds a new system and checks it.  The arrays are kept without a copy
    and stay writable: a solve reads the entries they hold at that time."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        for name in ("sub", "diag", "sup", "rhs"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.diag.size
        if n < 1:
            raise ValueError("system must have at least one unknown")
        shapes = self.sub.shape, self.diag.shape, self.sup.shape, self.rhs.shape
        if shapes != ((n - 1,), (n,), (n - 1,), (n,)):
            raise ValueError(
                f"inconsistent shapes: sub={shapes[0]}, diag={shapes[1]}, "
                f"sup={shapes[2]}, rhs={shapes[3]}"
            )

    @property
    def size(self) -> int:
        return self.diag.size


def tridiagonal_matvec(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = diag * v
    out[:-1] += sup * v[1:]
    out[1:] += sub * v[:-1]
    return out


def _march_step(diag, off, right) -> Callable[[np.ndarray, np.ndarray], None]:
    """``step(v, out)``, writing L^-1 R v into ``out`` (which may be v), for
    a march that reuses one factorisation of the symmetric tridiagonal L =
    (``diag``, ``off``) at every step with the tridiagonal right factor R =
    ``right``, given as (sub, diag, sup).

    One pass without pivoting, low_i = off_i / d_i and d_{i+1} -= low_i
    off_i (the float operations of :func:`_row_sweep` without interchanges),
    is both L's LDL^T and its inertia test: L is positive definite exactly
    when every pivot is positive (Sylvester), and this elimination is then
    backward stable (Higham, *Accuracy and Stability*, ch. 9).  A pivot d_i
    that is not positive raises LinearSolveError with the count of L's
    eigenvalues <= 0, for Mg + dt/2 A the modes with dt omega <= -2: by
    Haynsworth, that of the trailing matrix whose first diagonal entry is
    d_i itself (:func:`nonpositive_pivots`), so at least 1 also where d_i
    is 0 to rounding.  A positive pivot at most ``_PIVOT_TOL`` times the
    largest entry, or an entry that is not finite, raises it as singular.

    The factors and R become block operators on blocks of ``_BLOCK`` rows
    before the first step (:func:`_block_operators`; non-finite ones raise),
    in O(N ``_BLOCK``) memory and about four row sweeps' time.  ``_BLOCK``
    is small: the cost per row grows with it, and a block operator of U is
    only as accurate as the block is short, which leans on |low_i| <= 1.
    Positive definiteness does not ensure that: over 3000 random marches
    (orders 1-3, N = 2-300, uniform and random meshes) 11 of 2364 positive
    definite step matrices had a |low_i| of 1.01-1.68, and every block step,
    theirs included, stayed within 0.07 u cond(L) of a dense solve.
    ``step`` checks neither v's shape nor the result, and its products may
    warn where they overflow; the march checks each state, under one
    ``np.errstate``.
    """
    n = len(diag)
    packed = np.concatenate((diag, off), dtype=float)
    # a trailing zero on each diagonal spares the last row its special case
    d, e, low = packed[:n].tolist() + [0.0], packed[n:].tolist() + [0.0], [0.0] * n
    # the largest |entry| is max(max, -min), NaN if any entry is
    limit = _PIVOT_TOL * float(max(packed.max(), -packed.min()))
    for i in range(n):
        if not d[i] > limit:
            if d[i] <= 0.0 and math.isfinite(limit):
                trailing = np.concatenate(([d[i]], packed[i + 1:n]))
                raise LinearSolveError("step matrix is not positive definite; modes with dt omega <= -2: "
                                       f"{nonpositive_pivots(trailing, packed[n + i:])}")
            raise LinearSolveError("tridiagonal system is singular or near-singular")
        low[i] = e[i] / d[i]
        d[i + 1] -= low[i] * e[i]
    step = _block_operators(d[:n], low, e, right)
    if step is None:
        raise LinearSolveError("march step operators are not finite")
    return step


def _row_sweep(sub, diag, sup, rhs, out) -> None:
    """Write the x of L x = ``rhs`` into ``out``, for the tridiagonal L =
    (``sub``, ``diag``, ``sup``), as LAPACK ``dgtsv`` does: elimination with
    partial pivoting applies each row operation to the right-hand side too,
    a row interchange fills one second superdiagonal of U (with none this
    is the Thomas algorithm), and back-substitution writes x, unchecked.
    O(N) over Python floats, with no numpy warning.  A pivot of U at most
    ``_PIVOT_TOL`` times the largest entry of L raises LinearSolveError, in
    place of a dense fallback's SVD condition gate."""
    n = len(diag)
    # trailing zeros on u1 and b spare the back-substitution its special cases
    packed = np.concatenate((diag, sub, sup, [0.0]), dtype=float)
    values = packed.tolist()
    d, low, u1 = values[:n], values[n:2 * n - 1], values[2 * n - 1:]
    u2 = [0.0] * n  # the second superdiagonal, filled by interchanges
    b = rhs.tolist() + [0.0, 0.0]
    # the whole matrix sets the scale: a row cancelled to round-off is not
    # regular; the largest |entry| is max(max, -min), NaN if any entry is
    limit = _PIVOT_TOL * float(max(packed.max(), -packed.min()))
    for i in range(n - 1):
        swap = abs(low[i]) > abs(d[i])
        if swap:  # rows i and i + 1 trade their entries in columns i, i + 1, i + 2 and b
            d[i], low[i] = low[i], d[i]
            u1[i], d[i + 1] = d[i + 1], u1[i]
            u2[i], u1[i + 1] = u1[i + 1], 0.0
            b[i], b[i + 1] = b[i + 1], b[i]
        if not abs(d[i]) > limit:
            raise LinearSolveError("tridiagonal system is singular or near-singular")
        m = low[i] / d[i]
        d[i + 1] -= m * u1[i]
        if swap:
            u1[i + 1] -= m * u2[i]
        b[i + 1] -= m * b[i]
    if not abs(d[-1]) > limit:
        raise LinearSolveError("tridiagonal system is singular or near-singular")
    for i in range(n - 1, -1, -1):
        b[i] = (b[i] - u1[i] * b[i + 1] - u2[i] * b[i + 2]) / d[i]
    out[:] = b[:n]


def _block_operators(d, low, u1, right) -> Callable[[np.ndarray, np.ndarray], None] | None:
    """``solve(v, out)`` by blocks of ``_BLOCK`` rows, writing x into out,
    for the pivots ``d``, multipliers ``low`` and superdiagonal ``u1`` of an
    elimination without interchanges (:func:`_march_step`) and the right
    factor R (``right``, as (sub, diag, sup)); None if an operator is not
    finite.

    Forward sweep over r = R v: y_0 = r_0 and y_{i+1} = r_{i+1} - l_i y_i;
    backward sweep:
    x_i = (y_i - u_i x_{i+1}) / d_i.  Block k's r_{kB+1..kB+B} are R's
    rows times its window v_{kB..kB+B+1} of B + 2 entries, and block 0's
    y_0 = r_0 = R_00 v_0 + R_01 v_1 lies in its window too.  So each y and
    x of a block is a linear form in B + 4 columns: the window, the
    incoming forward carry y_0 (r_0 in block 0) and the x carried in from
    the next block.  Both sweeps run once on those forms, for all blocks
    at once: B steps forward from y_0 and B back from x_B.  Rows past N, up
    to whole blocks (and whole groups of blocks, when there are several),
    are identity rows of L and zero rows of R.  A system of at most
    ``_BLOCK`` rows is one block with nothing to carry: its x over its
    window is L^-1 R.

    Otherwise x depends on the block's two carries, which are the two
    sweeps' chains over the blocks: a reduced interface system, solved
    before the x are retrieved, as in the SPIKE partition (Polizzi-Sameh,
    Parallel Computing 2006).  A solve takes two batched products, one
    per block each.  The first, a thin one, gives each block's outgoing
    forward partial w = y_B and its carry-free first x, z_0, over its
    window.  Over a group of ``_BLOCK`` blocks the carries are one fixed
    linear map of the group's (w, z_0) and of the two carries that enter
    the group: its forward carry, zero for the first group, and the first
    x after it, zero after the last group.  That interface operator is one
    batched matrix-vector product; only the chain of those two numbers
    from group to group runs in Python, O(N / ``_BLOCK``^2) steps and none
    up to ``_BLOCK``^2 rows.  The carries are written after the block's
    window into one column of its B + 4 basis entries, and the second
    product, of the block's B rows of x over that basis, writes every x.
    """
    n = len(d)
    size = min(_BLOCK, n)
    blocks = -(-n // size)
    group = min(_BLOCK, blocks)
    blocks = -(-blocks // group) * group  # whole groups

    def by_block(values, fill):  # entry [j, k] is row j of block k
        out = np.full(blocks * size, fill)
        out[:len(values)] = values
        return out.reshape(blocks, size).T

    # sweeps[1 + j, k] is y_j, then x_j, of block k over its basis: window
    # columns 0 .. B + 1, the incoming forward carry, the carried-in x
    carry_in = size + 2
    sweeps = np.zeros((size + 2, blocks, size + 4))
    sweeps[1, 1:, carry_in] = 1.0
    sweeps[1, 0, :2] = right[1][0], right[2][0] if n > 1 else 0.0
    j = np.arange(1, size + 1)  # r_j: R's sub, diag and sup in window columns j - 1, j, j + 1
    for column, values in ((j - 1, right[0]), (j, right[1][1:]), (j + 1, right[2][1:])):
        sweeps[j + 1, :, column] = by_block(values, 0.0)
    mult, pivot, first = by_block(low, 0.0), by_block(d, 1.0), by_block(u1, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(size):
            sweeps[j + 2] -= mult[j, :, None] * sweeps[j + 1]
        # y_B, the outgoing partial w, moves to row 0; x_B is the carried-in x
        sweeps[0] = sweeps[-1]
        sweeps[-1] = 0.0
        sweeps[-1, :, -1] = 1.0
        for j in range(size - 1, -1, -1):
            sweeps[j + 1] -= first[j, :, None] * sweeps[j + 2]
            sweeps[j + 1] /= pivot[j, :, None]
        if blocks == 1:
            whole = np.ascontiguousarray(sweeps[1:-1, 0, :n])
            return (lambda v, out: np.matmul(whole, v, out=out)) if np.isfinite(whole).all() else None
        interface, summary = _interface_operators(sweeps[0, :, carry_in], sweeps[1, :, carry_in:], group)
    # per block: w and z_0 over the window as two columns, as the window (a
    # row) times them read 2.8 us at N = 1e3 against 4.4 us for two rows
    # times the window; every x over the basis, column by column, which read
    # faster than row by row at N = 1e3 and 1e5 (AMD EPYC, OpenBLAS 0.3, one
    # thread)
    thin = np.ascontiguousarray(sweeps[:2, :, :carry_in].transpose(1, 2, 0))
    xrows = np.ascontiguousarray(sweeps[1:-1].transpose(1, 2, 0)).transpose(0, 2, 1)
    if not all(np.isfinite(a).all() for a in (thin, xrows, interface, summary)):
        return None

    groups = blocks // group
    # interface columns: the group's two incoming carries, then its data
    from_data = np.ascontiguousarray(interface[:, :, 2:])
    from_carries = np.ascontiguousarray(interface[:, :, :2])
    summary_data = np.ascontiguousarray(summary[:, :, 2:])
    transfer = summary[:, 0, 0].tolist()
    from_carry = summary[:, 1, 0].tolist()
    from_next = summary[:, 1, 1].tolist()
    padded = np.zeros(blocks * size + 2)
    windows = sliding_window_view(padded, size + 2)[::size, None, :]
    basis = np.empty((blocks, size + 4, 1))  # per block: its window, then its two carries
    window, carried = basis[:, None, :carry_in, 0], basis[:, carry_in:, 0]
    data, coupled = np.empty((blocks, 1, 2)), np.empty((groups, 2 * group, 1))
    x = np.empty((blocks, size, 1))
    grouped, each, rows = data.reshape(groups, 2 * group, 1), coupled.reshape(blocks, 2), x.reshape(-1)[:n]

    def solve_blocks(v: np.ndarray, out: np.ndarray) -> None:
        padded[:n] = v
        np.copyto(window, windows)
        np.matmul(window, thin, out=data)
        np.matmul(from_data, grouped, out=coupled)
        if groups > 1:
            # the group chain: forward carries in order, then the first x
            # of each group in reverse, x past the last group being zero;
            # r_0 is in block 0's w and z, so the first carry is zero
            partial = np.matmul(summary_data, grouped)[:, :, 0].tolist()
            carries = [0.0]
            for t, (w, _) in zip(transfer, partial):
                carries.append(t * carries[-1] + w)
            head = 0.0
            heads = []
            for c, (_, z), f, a in zip(carries[-2::-1], partial[::-1], from_carry[::-1], from_next[::-1]):
                heads.append((c, head))
                head = z + f * c + a * head
            coupled[:] += np.matmul(from_carries, np.array(heads[::-1])[:, :, None])
        carried[:] = each
        np.matmul(xrows, basis, out=x)
        out[:] = rows

    return solve_blocks


def _interface_operators(transfer: np.ndarray, head: np.ndarray, group: int) -> tuple[np.ndarray, np.ndarray]:
    """The interface operators of :func:`_block_operators` over groups of
    ``group`` blocks, for the blocks' forward transfers (``transfer``, the
    outgoing carry over the incoming one) and row 0 of their responses to
    the two carries (``head``, blocks x 2); the number of blocks is a
    multiple of ``group``.

    A group's inputs u are its two incoming carries (C, V), then
    (w_k, z_k0) of each block k.  Returns ``interface``, of shape
    (groups, 2 ``group``, 2 ``group`` + 2), whose rows 2k and 2k + 1 give
    block k's two carries over u, and ``summary``, of shape
    (groups, 2, 2 ``group`` + 2), whose rows give the group's outgoing
    forward carry and the first x of its first block over u.
    """
    groups = transfer.size // group
    width = 2 * group + 2
    transfer = transfer.reshape(groups, group)
    head = head.reshape(groups, group, 2)
    interface = np.empty((groups, group, 2, width))
    carry = np.zeros((groups, width))
    carry[:, 0] = 1.0
    for k in range(group):
        interface[:, k, 0] = carry
        carry = carry * transfer[:, k, None]
        carry[:, 2 * k + 2] += 1.0
    ahead = np.zeros((groups, width))
    ahead[:, 1] = 1.0
    for k in range(group - 1, -1, -1):
        interface[:, k, 1] = ahead
        ahead = head[:, k, :1] * interface[:, k, 0] + head[:, k, 1:] * ahead
        ahead[:, 2 * k + 3] += 1.0
    summary = np.stack((carry, ahead), axis=1)
    return interface.reshape(groups, 2 * group, width), summary


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """Solve the system once; a singular matrix raises LinearSolveError.

    A matrix of more than ``_BLOCK`` rows that is weakly diagonally
    dominant, by rows or by columns, is solved by odd-even cyclic reduction
    (:func:`_cyclic_reduction`): about ten numpy calls per halving of
    the rows, and no Python loop over them.  Such a matrix needs no
    pivoting, and the reduction is stable on it (Heller, SIAM J. Numer.
    Anal. 13, 1976).  Every steady benchmark system is one.  So was every
    steady system with lambda >= 0 and a mesh Peclet number
    kappa h / (2 |epsilon|) below 1 in some 2200 random draws (orders 1-6,
    random meshes and boundary conditions).  Pure convection, lambda < 0
    and most systems at mesh Peclet numbers of 1 and above are not: these,
    and every system of at most ``_BLOCK`` rows, are eliminated with
    partial pivoting and back-substituted (:func:`_row_sweep`).  Both
    paths raise LinearSolveError for a pivot at most ``_PIVOT_TOL`` times
    the largest entry of the matrix, and for a non-finite result.
    """
    sub, diag, sup = system.sub, system.diag, system.sup
    n = diag.size
    if n > _BLOCK:
        # |sub_{i-1}| and |sup_{i-1}| at i = 0 .. n, zero past either end
        outer = np.abs(np.concatenate(([0.0], sub, [0.0], sup, [0.0])))
        below, above = outer[:n + 1], outer[n:]
        middle = np.abs(diag)
        with np.errstate(over="ignore"):  # a sum past the largest float is not dominated
            by_rows, by_columns = below[:-1] + above[1:], above[:-1] + below[1:]
        if (middle >= by_rows).all() or (middle >= by_columns).all():
            return _cyclic_reduction(system, max(outer.max(), middle.max()))
    x = np.empty(n)
    _row_sweep(sub, diag, sup, system.rhs, x)
    if not np.isfinite(x).all():
        raise LinearSolveError("linear solve produced non-finite values")
    return x


def _cyclic_reduction(system: TridiagonalSystem, scale: float) -> np.ndarray:
    """Odd-even cyclic reduction (Hockney, J. ACM 12, 1965) of a diagonally
    dominant system, whose largest entry is ``scale``, without pivoting.

    Row i reads a_i x_{i-1} + b_i x_i + c_i x_{i+1} = d_i.  Each level
    eliminates the odd rows: put into its two even neighbours, each
    x_e = (d_e - a_e x_{e-1} - c_e x_{e+1}) / b_e leaves a tridiagonal
    system of the even rows, which is again diagonally dominant.  The rows
    are padded to q 2^L + 1 with q < ``_BLOCK``, so that every level has an
    odd number of rows, its first and last kept, and the tail left after L
    levels has at most ``_BLOCK`` rows.  The padding rows read scale x = 0;
    there is at least one, and the last row of all is in the tail.  The tail
    is solved straight into its rows of x by :func:`_row_sweep`, whose
    pivot test is therefore on the scale of the whole matrix at least, and
    the levels are then undone in reverse, each x_e from its two
    neighbours.  Every divisor b_e at most ``_PIVOT_TOL`` ``scale`` raises
    LinearSolveError, as does a non-finite result.  O(N) time and memory.
    """
    n = system.size
    levels = 0
    while (_BLOCK - 1) << levels < n:
        levels += 1
    total = (-(-n >> levels) << levels) + 1
    # rows a, c, d, b: the eliminated rows' (a, c, d) / b is one quotient
    rows = np.zeros((4, total))
    rows[0, 1:n] = system.sub
    rows[1, :n - 1] = system.sup
    rows[2, :n] = system.rhs
    rows[3, :n] = system.diag
    rows[3, n:] = scale
    quotients = []
    level = rows
    # a zero divisor, or huge or infinite values, make a non-finite result
    # or fail the pivot test below, and raise
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(levels):
            kept, gone = level[:, ::2], level[:, 1::2]
            ratio = gone[:3] / gone[3]
            left = kept[0, 1:] * ratio  # a_k (a, c, d)_{k-1} / b_{k-1}
            right = kept[1, :-1] * ratio  # c_k (a, c, d)_{k+1} / b_{k+1}
            kept[3:1:-1, 1:] -= left[1:]  # (b, d)
            kept[3:1:-1, :-1] -= right[::2]
            np.negative(left[0], out=kept[0, 1:])
            np.negative(right[1], out=kept[1, :-1])
            quotients.append(ratio)
            level = kept
        # the eliminated rows keep their divisors b: all rows but the tail's
        if not np.abs(rows[3, :-1].reshape(-1, 1 << levels)[:, 1:]).min() > _PIVOT_TOL * scale:
            raise LinearSolveError("tridiagonal system is singular or near-singular")
        x = np.empty(total)
        _row_sweep(level[0, 1:], level[3], level[1, :-1], level[2], x[::1 << levels])
        for k in range(levels - 1, -1, -1):
            ratio, known = quotients[k], x[::2 << k]
            x[1 << k::2 << k] = ratio[2] - ratio[0] * known[:-1] - ratio[1] * known[1:]
    if not np.isfinite(x).all():
        raise LinearSolveError("linear solve produced non-finite values")
    return x[:n]


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


def nonpositive_pivots(diag: np.ndarray, off: np.ndarray) -> int:
    """Number of LDL^T pivots of the symmetric tridiagonal (diag, off) that
    are not positive: by Sylvester's law of inertia, the number of its
    eigenvalues <= 0, so 0 means positive definite.  The last-row case
    r = N - 1 of :func:`twisted_count`, whose rules it keeps: a NaN pivot
    counts, and a zero pivot counts and is replaced by ``-tiny`` so the
    sweep goes on, as in the Sturm count of LAPACK ``dstebz``.  O(N)."""
    return twisted_count(diag, off, diag.size - 1)[0]
