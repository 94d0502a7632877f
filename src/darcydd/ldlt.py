"""Symmetric factorizations: a sparse LU path for one global matrix, a dense
Cholesky path for stacks of negative definite matrices, and a band Cholesky
path for block-diagonal and sparse negative definite matrices.

Every matrix factored here is symmetric, and every one this package
factors is negative definite. :func:`factor_symmetric_indefinite` takes
sparse, dense and :class:`BlockDiagonal` input, and its input type alone
picks the path; there is no size threshold and no option.

Sparse input takes a sparse LU with partial pivoting and the ``MMD_ATA``
column ordering. In this package it is the global multiplier matrix of the
direct solve, left when velocities and pressures are eliminated element by
element (6,391 unknowns and 2.04M L+U entries on the fracture-contrast
benchmark mesh), whose band would be far too wide for a band factor. The
path checks symmetry, not definiteness. The matrix is taken as it is when it
is a CSC matrix in canonical format (sorted row indices, no duplicates),
which is what SuperLU reads; any other sparse matrix is converted to one
once, and the caller's matrix is never changed. It is symmetric when its
nonzero ``(row, col, value)`` triplets, in column-major order, equal its
transpose's triplets sorted the same way (``np.lexsort``), which is exactly
``(A != A.T).nnz == 0``; its infinity norm is :func:`csc_norm_inf`.

Dense (ndarray) input must be negative definite: LAPACK's Cholesky
``dpotrf`` factors ``-A = L L^T``, and ``dpotrs`` solves with ``L``. The
factorization certifies definiteness: it fails on a pivot that is not
positive, and a pivot ``l_kk^2`` at or below ``n eps (-A)_kk`` counts as
zero. That ratio does not change when ``A`` is scaled symmetrically by a
diagonal matrix, so rows of very different scale need no rescaling first.
Either way it raises :class:`SingularSystemError`. The preconditioner's
constrained local problems are solved on the null space of their
constraints, where they are negative definite exactly when the constraints
remove every floating mode; this path factors them.

The dense path takes a stack of ``m`` matrices of one size, an ``(m, n,
n)`` array, as well as a single matrix, which it treats as a stack of one.
The symmetry check, the backward error and the refinement are array
operations over the whole stack, decided member by member; ``dpotrf`` and
``dpotrs`` run once per member, on that member alone, in place on
Fortran-ordered arrays. A member's factor and solutions are therefore bit
for bit those of factoring it alone, and a member that is not certified
raises :class:`SingularSystemError` with its index in ``member``.

The band path factors each diagonal block ``A_j`` of a :class:`BlockDiagonal`
matrix on its own, and :func:`factor_negative_definite` takes a sparse
matrix as one block. Each block is ordered by reverse Cuthill-McKee,
computed from the block's own pattern, and keeps the caller's order when
that does not narrow its band. LAPACK's lower band storage of ``-P_j A_j
P_j^T`` is filled straight from the sparse arrays, all blocks at once, with
no dense copy, and ``dpbtrf`` factors each block in place, certified as the
dense path is. The fill also checks the input: a matrix is symmetric
exactly when the band filled from its lower triangle equals the band filled
from its transposed upper triangle (explicit zeros count as absent, as in
``(A != A.T).nnz == 0``), and an entry outside the diagonal blocks is
refused with ``ValueError``. Per block only the ordering call and the
LAPACK calls run; the checks, the certificate, the backward errors and the
refinement decisions are array operations over all blocks, decided block by
block, so each block's factor and solutions are bit for bit those of
factoring it alone. A block of order 0 makes no LAPACK call.
:meth:`BandFactorization.inverse_forms` gives each block's ``B_j^T (-A_j)^-1
B_j`` as ``X_j^T X_j``, ``X_j = L_j^-1 P_j B_j``, from one triangular band
solve (``dtbtrs``) and one symmetric rank-k product (``dsyrk``), so the
result is exactly symmetric. Set-up factors each interface-size group's
interior blocks as one block-diagonal matrix this way, and the
preconditioner its coarse matrix, whose 448 dofs on the square-dense
benchmark mesh have a half-bandwidth of 67 in that order.

Every path meets the same accuracy contract: ``solve`` measures the
normwise backward error and applies one step of iterative refinement
whenever it exceeds 1e-12; in a stack or a block-diagonal matrix, each
member's error decides its own step. The sparse LU path's error is
:func:`sparse_backward_error`, which the direct solve also applies to the
unreduced saddle matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import blas, lapack
import scipy.sparse as sps
from scipy.sparse.csgraph import reverse_cuthill_mckee
import scipy.sparse.linalg as spla

from .errors import SingularSystemError

_REFINE_TRIGGER = 1e-12


def _csc_symmetric(a: sps.csc_matrix) -> bool:
    """Whether a canonical CSC matrix equals its transpose, entry by entry.

    Explicit zeros count as absent, as they do in ``(A != A.T).nnz == 0``.
    The kept ``(row, col, value)`` triplets come in column-major order; the
    transpose's triplets, sorted column-major, must be the same arrays.
    """
    col = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
    keep = a.data != 0
    row, col, val = a.indices[keep], col[keep], a.data[keep]
    order = np.lexsort((col, row))
    return (
        np.array_equal(col[order], row)
        and np.array_equal(row[order], col)
        and np.array_equal(val[order], val)
    )


def csc_norm_inf(a: sps.csc_matrix) -> float:
    """The infinity norm of a CSC matrix: the largest row sum of ``|A|``,
    the sums accumulated in column order."""
    row_sums = np.bincount(a.indices, weights=np.abs(a.data), minlength=a.shape[0])
    return float(row_sums.max(initial=0.0))


def sparse_backward_error(a: sps.spmatrix, b, x, norm_inf: float) -> float:
    """Normwise backward error ``|b - A x| / (|A| |x| + |b|)`` of ``x`` in
    the infinity norm, given ``|A|``; stacked right-hand sides as a whole."""
    r_max = np.abs(b - a @ x).max(initial=0.0)
    denom = norm_inf * np.abs(x).max(initial=0.0) + np.abs(b).max(initial=0.0)
    if denom == 0.0:
        return 0.0
    return float(r_max / denom)


def _certify(info, pivots: np.ndarray, diag: np.ndarray, start: np.ndarray,
             member_name: str | None = None) -> None:
    """Raise :class:`SingularSystemError` for the first of ``m`` Cholesky
    factorizations ``-A_j = L_j L_j^T`` that does not certify ``A_j``
    negative definite: LAPACK's ``info`` is positive, or a pivot ``l_kk^2``
    is at or below ``n_j eps (-A_j)_kk``. Member ``j``'s pivots and diagonal
    entries are entries ``start[j]:start[j + 1]`` of ``pivots`` and
    ``diag``. With a ``member_name`` format (fields ``j`` and ``m``) the
    message names the member and sets ``member``.
    """
    sizes = np.diff(start)
    m = len(sizes)
    zero = pivots <= np.repeat(sizes, sizes) * np.finfo(float).eps * diag
    has_zero = np.bincount(np.repeat(np.arange(m), sizes)[zero], minlength=m) > 0
    for j in np.flatnonzero(np.greater(info, 0) | has_zero):
        which = member_name.format(j=j, m=m) if member_name else "matrix"
        member = j if member_name else None
        n = sizes[j]
        if info[j] > 0:
            raise SingularSystemError(
                f"{which} is not negative definite: its leading block of "
                f"order {info[j]} (of {n}) is not",
                member=member,
            )
        k = start[j] + np.flatnonzero(zero[start[j] : start[j + 1]])[0]
        raise SingularSystemError(
            f"{which} is singular: pivot {k - start[j] + 1} of {n} is "
            f"{pivots[k] / diag[k]:.3e} times its diagonal entry",
            member=member,
        )


def _certified_cholesky(neg: np.ndarray, stacked: bool = False) -> None:
    """Factor every member of ``neg``, a stack of Fortran-ordered symmetric
    matrices ``-A``, in place by ``dpotrf``: ``-A = L L^T``, with ``L``
    left in the member's lower triangle; :func:`_certify` checks each.
    """
    m, n = neg.shape[:2]
    diag = np.diagonal(neg, axis1=1, axis2=2).ravel()
    info = [lapack.dpotrf(a, lower=1, clean=0, overwrite_a=1)[1] for a in neg]
    pivots = np.diagonal(neg, axis1=1, axis2=2).ravel() ** 2
    name = "matrix {j} of a stack of {m}" if stacked else None
    _certify(info, pivots, diag, np.arange(m + 1) * n, name)


class IndefiniteFactorization:
    """Factored symmetric sparse matrix, or stack of negative definite
    matrices, exposing ``solve``.

    ``solve`` takes what the matrix acts on: for a matrix one right-hand
    side or a matrix of stacked right-hand sides, and for a stack of ``m``
    matrices the same with a leading axis of length ``m``.
    """

    def __init__(self, matrix):
        self._stacked = False
        if sps.issparse(matrix):
            if matrix.format != "csc" or not matrix.has_canonical_format:
                matrix = matrix.tocsc(copy=True)
                matrix.sum_duplicates()
            self._mat = matrix
            n = matrix.shape[0]
            symmetric = matrix.shape[0] == matrix.shape[1] and _csc_symmetric(matrix)
        else:
            mat = np.asarray(matrix, dtype=float)
            self._stacked = mat.ndim == 3
            # a matrix is a stack of one
            self._mat = mat if self._stacked else mat[None]
            n = mat.shape[-1]
            symmetric = (
                self._mat.ndim == 3
                and self._mat.shape[1] == n
                and np.array_equal(self._mat, self._mat.transpose(0, 2, 1))
            )
        if not symmetric:
            raise ValueError("matrix must be square and symmetric")
        self.n = n
        if sps.issparse(matrix):
            self.mode = "sparse"
            try:
                self._splu = spla.splu(self._mat, permc_spec="MMD_ATA")
            except RuntimeError as exc:  # SuperLU reports exact singularity this way
                raise SingularSystemError(f"matrix is singular: {exc}") from exc
            self._norm_inf = csc_norm_inf(self._mat)
        else:
            self.mode = "dense"
            # every member of -A is exactly symmetric, so its transpose is
            # itself in Fortran order, which dpotrf factors in place
            self._factors = np.negative(self._mat)
            _certified_cholesky(self._factors.transpose(0, 2, 1), self._stacked)
            self._norm_inf = np.abs(self._mat).sum(axis=2).max(axis=1, initial=0.0)

    def _solve_unrefined(self, b: np.ndarray, members=None) -> np.ndarray:
        """Unrefined solutions ``-(L L^T)^-1 b`` for the given members, or
        for all, ``b`` of shape ``(len(members), n, k)``. Each member's
        ``-b`` is put in Fortran order, which ``dpotrs`` solves in place."""
        if members is None:
            members = range(len(b))
        x = np.empty((len(b), b.shape[2], self.n)).transpose(0, 2, 1)
        np.negative(b, out=x)
        # dpotrs refuses right-hand sides for a matrix of order 0
        for i, j in enumerate(members if self.n else ()):
            lapack.dpotrs(self._factors[j].T, x[i], lower=1, overwrite_b=1)
        return x

    def _as_stack(self, b: np.ndarray) -> np.ndarray:
        """``b`` as an ``(m, n, k)`` stack of right-hand-side blocks."""
        b = b if self._stacked else b[None]
        return b[..., None] if b.ndim == 2 else b

    def _member_errors(self, b: np.ndarray, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Each member's normwise backward error, from its residual ``r``."""

        def amax(v: np.ndarray) -> np.ndarray:
            # max |v| per member without a full-size |v| temporary, so a
            # broadcast right-hand side stays a view; the last abs turns a
            # signed zero into the +0.0 that |v| gives
            hi = v.max(axis=(1, 2), initial=0.0)
            np.maximum(hi, -v.min(axis=(1, 2), initial=0.0), out=hi)
            return np.abs(hi, out=hi)

        denom = self._norm_inf * amax(x) + amax(b)
        return np.divide(amax(r), denom, out=np.zeros(len(b)), where=denom != 0.0)

    def backward_error(self, b: np.ndarray, x: np.ndarray):
        """Normwise backward error of ``x``; one per member for a stack."""
        if self.mode == "sparse":
            return sparse_backward_error(self._mat, b, x, self._norm_inf)
        b, x = self._as_stack(b), self._as_stack(x)
        r = self._mat @ x
        err = self._member_errors(b, x, np.subtract(b, r, out=r))
        return err if self._stacked else float(err[0])

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve against one vector or a matrix of stacked right-hand sides;
        for a stack, against one such block per member."""
        b = np.asarray(b, dtype=float)
        if self.mode == "sparse":
            x = self._splu.solve(b)
            if self.backward_error(b, x) > _REFINE_TRIGGER:
                x = x + self._splu.solve(b - self._mat @ x)
            return x
        bs = self._as_stack(b)
        x = self._solve_unrefined(bs)
        r = self._mat @ x
        np.subtract(bs, r, out=r)
        # each member is refined on its own, as if factored alone
        refine = self._member_errors(bs, x, r) > _REFINE_TRIGGER
        if refine.any():
            refine = np.flatnonzero(refine)
            x[refine] += self._solve_unrefined(r[refine], refine)
        if b.ndim == 1 + self._stacked:  # one right-hand side per member
            x = x[..., 0]
        return x if self._stacked else x[0]


@dataclass(frozen=True)
class BlockDiagonal:
    """A symmetric sparse matrix given with its diagonal blocks: block ``j``
    is rows and columns ``start[j]:start[j + 1]``. The band path factors
    each block on its own, and refuses an entry outside them."""

    matrix: sps.spmatrix
    start: NDArray[np.int64]


def _segment_max(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The largest of each segment ``values[bounds[j]:bounds[j + 1]]`` of a
    non-negative array, 0 for an empty one; ``bounds[-1]`` is its length."""
    if len(bounds) == 2:
        return values.max(initial=0, keepdims=True)
    out = np.zeros(len(bounds) - 1, dtype=values.dtype)
    nonempty = bounds[:-1] < bounds[1:]
    if nonempty.any():
        # an empty segment between two listed starts holds no entries
        out[nonempty] = np.maximum.reduceat(values, bounds[:-1][nonempty])
    return out


class BandFactorization:
    """Band Cholesky factors ``L_j`` of ``-P_j A_j P_j^T`` for each diagonal
    block ``A_j`` of a symmetric negative definite sparse matrix ``A``, with
    ``P_j`` the reverse Cuthill-McKee ordering of ``A_j``, or the identity
    when that ordering does not narrow the block's band.

    ``solve`` takes one right-hand side for all blocks at once. The
    factorization exists only for a matrix that it certified negative
    definite, so ``inertia`` is always ``(0, n, 0)``.
    """

    mode = "band"

    def __init__(self, matrix, start, member_name: str | None = None):
        self._mat = a = matrix
        if a.format not in ("csr", "csc") or not a.has_canonical_format:
            a = a.tocsr(copy=True)
            a.sum_duplicates()
        n = a.shape[0]
        start = np.asarray(start, dtype=np.int64)
        if a.shape != (n, n):
            raise ValueError("matrix must be square and symmetric")
        sizes = np.diff(start)
        if start[0] != 0 or start[-1] != n or (sizes < 0).any():
            raise ValueError(f"block bounds {start.tolist()} do not split order {n}")
        self.n, self.inertia = n, (0, n, 0)
        self._member_name = member_name
        m = len(sizes)
        # the compressed arrays are read as rows: for CSC input they are
        # those of A^T, which is A when the symmetry check below passes
        member = np.repeat(np.arange(m), sizes)
        row = np.repeat(np.arange(n), np.diff(a.indptr))
        col, val = a.indices, a.data
        if (member[row] != member[col]).any():
            raise ValueError("matrix has an entry outside its diagonal blocks")
        bounds = a.indptr[start]  # block j's entries are bounds[j]:bounds[j + 1]
        self._nonempty = np.flatnonzero(sizes).tolist()
        # order[k] is the index placed k-th, rank its inverse; each block
        # is ordered from its own pattern alone
        order = np.arange(n)
        for j in self._nonempty:
            s0, s1 = int(start[j]), int(start[j + 1])
            e0, e1 = a.indptr[s0], a.indptr[s1]
            block = sps.csr_matrix(
                (val[e0:e1], a.indices[e0:e1] - s0, a.indptr[s0 : s1 + 1] - e0),
                shape=(s1 - s0, s1 - s0),
            )
            order[s0:s1] = s0 + reverse_cuthill_mckee(block, symmetric_mode=True)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        kd_own = _segment_max(np.abs(row - col), bounds)
        kd = _segment_max(np.abs(rank[row] - rank[col]), bounds)
        # the caller's order is kept where the ordering does not narrow
        # the band
        keep = kd >= kd_own
        if keep.any():
            natural = np.repeat(keep, sizes)
            order[natural] = np.flatnonzero(natural)
            rank[order] = np.arange(n)
            kd = np.where(keep, kd_own, kd)
        row, col = rank[row], rank[col]
        # LAPACK's lower band storage of every -P_j A_j P_j^T, one
        # Fortran-ordered (kd_j + 1, n_j) array after another in one
        # buffer: entry (i, c), i >= c, of the ordered matrix at [i - c, c],
        # which is flat position base_j + (i - c) + c (kd_j + 1)
        width = kd + 1
        end = np.cumsum(width * sizes)
        base = (end - width * sizes) - width * start[:-1]
        at, stride = base[member], width[member]

        def filled(i: np.ndarray, c: np.ndarray, v: np.ndarray) -> np.ndarray:
            """The band holding ``-v`` at the entries ``(i, c)``, ``i >= c``."""
            out = np.zeros(end[-1] if m else 0)
            out[at[c] + i + c * (stride[c] - 1)] = -v
            return out

        lower, upper = row >= col, row <= col
        band = filled(row[lower], col[lower], val[lower])
        if not np.array_equal(band, filled(col[upper], row[upper], val[upper])):
            raise ValueError("matrix must be square and symmetric")
        diag_at = at + np.arange(n) * stride
        diag = band[diag_at]
        self._bands = [
            band[end[j] - width[j] * sizes[j] : end[j]].reshape(
                (width[j], sizes[j]), order="F"
            )
            for j in range(m)
        ]
        info = np.zeros(m, dtype=np.int64)
        for j in self._nonempty:
            info[j] = lapack.dpbtrf(self._bands[j], lower=1, overwrite_ab=1)[1]
        _certify(info, band[diag_at] ** 2, diag, start, member_name)
        self._band = band
        self._start, self._sizes = start, sizes
        self._bounds = start.tolist()
        self._order, self._rank = order, rank
        # each block's largest row sum of |A|; a row's entries all lie in
        # its block
        sums = np.bincount(a.indices, weights=np.abs(a.data), minlength=n)
        self._norm_inf = _segment_max(sums, start)

    def _solve_unrefined(self, b: np.ndarray, blocks=None) -> np.ndarray:
        """``x = -P^T L^-T L^-1 P b`` on the given blocks, or on all: one
        band solve (``dpbtrs``) per block, in place on its rows of ``-P
        b``. Rows of the other blocks hold no solution."""
        y = np.negative(b[self._order])
        for j in self._nonempty if blocks is None else blocks.tolist():
            seg = y[self._bounds[j] : self._bounds[j + 1]]
            lapack.dpbtrs(self._bands[j], seg, lower=1, overwrite_b=1)
        return y[self._rank]

    def _block_errors(self, b: np.ndarray, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Each block's normwise backward error, from its residual ``r``."""

        def amax(v: np.ndarray) -> np.ndarray:
            return _segment_max(np.abs(v), self._start)

        denom = self._norm_inf * amax(x) + amax(b)
        return np.divide(
            amax(r), denom, out=np.zeros(len(denom)), where=denom != 0.0
        )

    def backward_error(self, b: np.ndarray, x: np.ndarray):
        """Normwise backward error of ``x`` against the sparse matrix; one
        per block for a :class:`BlockDiagonal` matrix."""
        err = self._block_errors(b, x, b - self._mat @ x)
        return err if self._member_name else float(err[0])

    def probe(self) -> np.ndarray:
        """Each block's backward error of an unrefined solve against ``A
        1``, a right-hand side that is zero on no block of positive order,
        as each block is definite."""
        b = self._mat @ np.ones(self.n)
        x = self._solve_unrefined(b)
        return self._block_errors(b, x, b - self._mat @ x)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve against one vector; each block whose backward error
        exceeds 1e-12 is refined once, on its own."""
        b = np.asarray(b, dtype=float)
        x = self._solve_unrefined(b)
        r = b - self._mat @ x
        refine = self._block_errors(b, x, r) > _REFINE_TRIGGER
        if refine.any():
            rows = np.repeat(refine, self._sizes)
            x[rows] += self._solve_unrefined(r, np.flatnonzero(refine))[rows]
        return x

    def inverse_forms(self, b: sps.spmatrix, k: int) -> np.ndarray:
        """The ``(m, k, k)`` stack of ``B_j^T (-A_j)^-1 B_j`` over the blocks
        ``B_j`` of a sparse ``B`` whose block ``j`` is its rows of block
        ``j`` and columns ``j k:(j + 1) k``; a nonzero entry elsewhere is
        refused with ``ValueError``. Each is ``X_j^T X_j``, ``X_j = L_j^-1
        P_j B_j``, formed by one ``dtbtrs`` and one ``dsyrk`` with the
        lower triangle copied from the upper, so it is exactly symmetric.
        """
        b = b.tocsr()
        if not b.has_canonical_format:
            b = b.copy()
            b.sum_duplicates()
        start, sizes = self._start, self._sizes
        m = len(sizes)
        row = np.repeat(np.arange(self.n), np.diff(b.indptr))
        member = np.repeat(np.arange(m), sizes)[row]
        col = b.indices - member * k
        inside = (col >= 0) & (col < k)
        if b.data[~inside].any():
            raise ValueError("right-hand side has a nonzero entry outside its blocks")
        # every X_j, Fortran-ordered (n_j, k), at k start[j] in one buffer:
        # its entry (i, c) at k start[j] + (i - start[j]) + c n_j
        at = (k - 1) * start[member] + self._rank[row] + col * sizes[member]
        x = np.zeros(self.n * k)
        x[at[inside]] = b.data[inside]
        forms = np.zeros((m, k, k))
        for j in self._nonempty if k else ():
            x_j = x[k * start[j] : k * start[j + 1]].reshape((sizes[j], k), order="F")
            lapack.dtbtrs(self._bands[j], x_j, uplo="L", overwrite_b=1)
            forms[j] = blas.dsyrk(1.0, x_j, trans=1)  # the upper triangle
        upper = np.triu_indices(k, 1)
        forms[:, upper[1], upper[0]] = forms[:, upper[0], upper[1]]
        return forms


def factor_symmetric_indefinite(matrix) -> IndefiniteFactorization | BandFactorization:
    """Factor a symmetric sparse matrix, a dense negative definite matrix or
    stack of such matrices of one size, or a :class:`BlockDiagonal`
    negative definite matrix.

    A sparse matrix takes the sparse LU path, which checks symmetry, not
    definiteness, and raises :class:`SingularSystemError` on exact
    singularity. An ndarray takes the dense Cholesky path, and a
    :class:`BlockDiagonal` matrix the band path, block by block; both
    raise :class:`SingularSystemError` for a matrix that they do not
    certify negative definite, and for a stack or a block-diagonal matrix
    name the first such member. Every path raises ``ValueError`` for a
    matrix that is not square and symmetric.
    """
    if isinstance(matrix, BlockDiagonal):
        return BandFactorization(matrix.matrix, matrix.start, "block {j} of {m}")
    return IndefiniteFactorization(matrix)


def factor_negative_definite(matrix) -> BandFactorization:
    """Factor a symmetric negative definite sparse matrix by band Cholesky,
    in reverse Cuthill-McKee order, as one block.

    Raises :class:`SingularSystemError` when the matrix is singular or not
    negative definite, and ``ValueError`` when it is not square and
    symmetric.
    """
    return BandFactorization(matrix, [0, matrix.shape[0]])
