"""Symmetric factorizations: a sparse LU path and a dense Cholesky path for
stacks of negative definite matrices, and a band Cholesky one for the
sparse coarse matrix.

Every matrix factored here is symmetric, and every one this package
factors is negative definite. :func:`factor_symmetric_indefinite` takes
sparse and dense input, and its input type alone picks the path; there is
no size threshold and no option. Sparse input takes a sparse LU with
partial pivoting and the ``MMD_ATA`` column ordering. In this package it
is always a negative definite multiplier matrix, left when velocities and
pressures are eliminated element by element: one block-diagonal matrix of
interior blocks per group of substructures with one interface size, and
the global multiplier matrix of the direct solve. The path checks
symmetry, not definiteness. SuperLU factors a block-diagonal matrix block
by block, with the same fill as its blocks alone. On the fracture-contrast
benchmark mesh (22k unknowns, 16 substructures) the interior blocks hold
329-364 unknowns each and 201k L+U entries in 15 matrices, and the global
multiplier matrix (6,391 unknowns) 2.04M; on the square-dense mesh, 64
blocks of 65 unknowns hold 45k in 3 matrices, and the global matrix (4,720
unknowns) 221k.

Sparse input is taken as it is when it is a CSC matrix in canonical format
(sorted row indices, no duplicates), which is what SuperLU reads; any other
sparse matrix is converted to one once, and the caller's matrix is never
changed. Its checks work on those arrays: the matrix is symmetric when its
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
raises :class:`SingularSystemError` with its index in ``member``. The
preconditioner factors the projected local matrices of all substructures
of one shape as one stack.

Both paths meet the same accuracy contract: ``solve`` measures the normwise
backward error and applies one step of iterative refinement whenever it
exceeds 1e-12; in a stack, each member's error decides its own step. The
sparse path's error is :func:`sparse_backward_error`, which the direct solve
also applies to the unreduced saddle matrix. It forms the residual 32
columns at a time, so that no temporary holds more than a block of
SuperLU's multi-column solution.

:func:`factor_negative_definite` factors the preconditioner's sparse coarse
matrix ``A`` by band Cholesky. It orders ``A`` by reverse Cuthill-McKee,
computed from ``A``'s own pattern, and keeps the caller's order when that
does not narrow the band; a matrix whose band is full gets full band
storage. LAPACK's lower band storage of ``-P A P^T`` is filled straight
from the sparse arrays, with no dense ``n x n`` copy, and ``dpbtrf``
factors it in place, certified as the dense path is: a positive ``info``
means not negative definite, and a pivot ``l_kk^2`` at or below
``n eps (-A)_kk`` (in the band's order) means singular. ``solve`` takes one
right-hand side: one ``dpbtrs`` call on the permuted ``-b``. It meets the
same accuracy contract against the sparse matrix it was given, with
:func:`sparse_backward_error`. The square-dense benchmark mesh's coarse
matrix, 448 dofs, has a half-bandwidth of 67 in that order, so the factor
holds 30k entries where a dense one holds 200k.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lapack
import scipy.sparse as sps
from scipy.sparse.csgraph import reverse_cuthill_mckee
import scipy.sparse.linalg as spla

from .errors import SingularSystemError

_REFINE_TRIGGER = 1e-12
# columns of a multi-column residual formed at a time
_RESIDUAL_COLUMNS = 32


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


def _residual_maxima(a: sps.spmatrix, b, x) -> tuple[float, float, float]:
    """The largest entries of ``|b - A x|``, ``|x|`` and ``|b|``."""
    return (
        np.abs(b - a @ x).max(initial=0.0),
        np.abs(x).max(initial=0.0),
        np.abs(b).max(initial=0.0),
    )


def sparse_backward_error(a: sps.spmatrix, b, x, norm_inf: float) -> float:
    """Normwise backward error ``|b - A x| / (|A| |x| + |b|)`` of ``x`` in
    the infinity norm, given ``|A|``; stacked right-hand sides as a whole.

    Stacked right-hand sides are taken 32 columns at a time. ``A @ x`` adds
    each entry's terms in the same order whatever the number of columns,
    and a maximum does not depend on the order it is taken in, so the error
    is that of the whole residual bit for bit.
    """
    cols = _RESIDUAL_COLUMNS
    if x.ndim == 1 or x.shape[1] <= cols:
        r_max, x_max, b_max = _residual_maxima(a, b, x)
    else:
        r_max, x_max, b_max = np.max(
            [
                _residual_maxima(a, b[:, j : j + cols], x[:, j : j + cols])
                for j in range(0, x.shape[1], cols)
            ],
            axis=0,
        )
    denom = norm_inf * x_max + b_max
    if denom == 0.0:
        return 0.0
    return float(r_max / denom)


def _certify(info, pivots: np.ndarray, diag: np.ndarray, stacked: bool = False) -> None:
    """Raise :class:`SingularSystemError` for the first of ``m`` Cholesky
    factorizations ``-A = L L^T`` that does not certify ``A`` negative
    definite: LAPACK's ``info`` is positive, or a pivot ``l_kk^2`` (row of
    ``pivots``) is at or below ``n eps (-A)_kk`` (row of ``diag``). For a
    ``stacked`` input the message names the member and sets ``member``.
    """
    m, n = pivots.shape
    zero = pivots <= n * np.finfo(float).eps * diag
    for j in np.flatnonzero(np.greater(info, 0) | zero.any(axis=1)):
        which = f"matrix {j} of a stack of {m}" if stacked else "matrix"
        member = j if stacked else None
        if info[j] > 0:
            raise SingularSystemError(
                f"{which} is not negative definite: its leading block of "
                f"order {info[j]} (of {n}) is not",
                member=member,
            )
        k = np.flatnonzero(zero[j])[0]
        raise SingularSystemError(
            f"{which} is singular: pivot {k + 1} of {n} is "
            f"{pivots[j, k] / diag[j, k]:.3e} times its diagonal entry",
            member=member,
        )


def _certified_cholesky(neg: np.ndarray, stacked: bool = False) -> None:
    """Factor every member of ``neg``, a stack of Fortran-ordered symmetric
    matrices ``-A``, in place by ``dpotrf``: ``-A = L L^T``, with ``L``
    left in the member's lower triangle; :func:`_certify` checks each.
    """
    diag = np.diagonal(neg, axis1=1, axis2=2).copy()
    info = [lapack.dpotrf(a, lower=1, clean=0, overwrite_a=1)[1] for a in neg]
    _certify(info, np.diagonal(neg, axis1=1, axis2=2) ** 2, diag, stacked)


class IndefiniteFactorization:
    """Factored symmetric matrix, or stack of negative definite matrices,
    exposing ``solve``.

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


def factor_symmetric_indefinite(matrix) -> IndefiniteFactorization:
    """Factor a symmetric sparse matrix, or a dense negative definite
    matrix or stack of such matrices of one size.

    A sparse matrix takes the sparse LU path, which checks symmetry, not
    definiteness, and raises :class:`SingularSystemError` on exact
    singularity. An ndarray takes the dense Cholesky path, which raises
    :class:`SingularSystemError` for a matrix that it does not certify
    negative definite, and for a stack names the first such member.
    Either path raises ``ValueError`` for a matrix that is not square and
    symmetric.
    """
    return IndefiniteFactorization(matrix)


def _half_bandwidth(row: np.ndarray, col: np.ndarray) -> int:
    """The largest ``|i - j|`` over the entries ``(row, col)``."""
    return int(np.abs(row - col).max(initial=0))


class NegativeDefiniteFactorization:
    """Band Cholesky factor ``L`` of ``-P A P^T`` for a symmetric negative
    definite sparse matrix ``A``, with ``P`` the reverse Cuthill-McKee
    ordering of ``A``, or the identity when that ordering does not narrow
    the band; ``solve`` takes one right-hand side.

    The factorization exists only for a matrix that it certified negative
    definite, so ``inertia`` is always ``(0, n, 0)``.
    """

    def __init__(self, matrix):
        self._mat = a = matrix
        if a.format != "csr" or not a.has_canonical_format:
            a = a.tocsr(copy=True)
            a.sum_duplicates()
        n = a.shape[0]
        # a canonical CSR matrix's arrays are those of its transpose in
        # canonical CSC format
        if a.shape != (n, n) or not _csc_symmetric(a):
            raise ValueError("matrix must be square and symmetric")
        self.n = n
        row = np.repeat(np.arange(n), np.diff(a.indptr))
        col = a.indices
        # order[k] is the index placed k-th, rank its inverse; the caller's
        # order is kept when the ordering does not narrow the band
        order = reverse_cuthill_mckee(a, symmetric_mode=True)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        if _half_bandwidth(rank[row], rank[col]) >= _half_bandwidth(row, col):
            order = rank = np.arange(n)
        row, col = rank[row], rank[col]
        lower = row >= col
        # LAPACK's lower band storage of -PAP^T, Fortran-ordered: entry
        # (i, j), i >= j, at [i - j, j]
        band = np.zeros((n, _half_bandwidth(row, col) + 1)).T
        band[row[lower] - col[lower], col[lower]] = -a.data[lower]
        diag = band[0].copy()
        info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)[1]
        _certify([info], band[None, 0] ** 2, diag[None])
        self._band = band
        self._order, self._rank = order, rank
        # |A|'s largest column sum, which for a symmetric A is its largest
        # row sum; the transpose of a CSR matrix is a CSC one
        self._norm_inf = csc_norm_inf(a.T)
        self.inertia = (0, n, 0)

    def _solve_unrefined(self, b: np.ndarray) -> np.ndarray:
        """``x = -P^T L^-T L^-1 P b``: one band solve (``dpbtrs``) in place
        on ``-P b``."""
        y = np.negative(b[self._order])
        lapack.dpbtrs(self._band, y, lower=1, overwrite_b=1)
        return y[self._rank]

    def backward_error(self, b: np.ndarray, x: np.ndarray) -> float:
        """Normwise backward error of ``x`` against the sparse matrix."""
        return sparse_backward_error(self._mat, b, x, self._norm_inf)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve against one vector, refined once when its backward error
        exceeds 1e-12."""
        b = np.asarray(b, dtype=float)
        x = self._solve_unrefined(b)
        if self.backward_error(b, x) > _REFINE_TRIGGER:
            x += self._solve_unrefined(b - self._mat @ x)
        return x


def factor_negative_definite(matrix) -> NegativeDefiniteFactorization:
    """Factor a symmetric negative definite sparse matrix by band Cholesky,
    in reverse Cuthill-McKee order.

    Raises :class:`SingularSystemError` when the matrix is singular or not
    negative definite, and ``ValueError`` when it is not square and
    symmetric.
    """
    return NegativeDefiniteFactorization(matrix)
