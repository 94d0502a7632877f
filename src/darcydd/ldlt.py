"""Symmetric indefinite factorization with a dense and a sparse path.

The systems factored here are symmetric. The full saddle matrix and the
constrained local saddle matrices are indefinite, so plain Cholesky does not
apply to them, and the definite ones take the same paths. The input type
alone picks the path; there is no size threshold and no option. Sparse
input takes a sparse LU with partial pivoting and the ``MMD_ATA`` column
ordering, whatever its size: the interior multiplier matrices of the
substructures (negative definite, as the velocities and pressures are
eliminated element by element before they are formed), one block-diagonal
matrix per group of substructures with one interface size, and the full
saddle matrix of the direct solve. On a fracture cube with 22k unknowns
(the fracture-contrast benchmark mesh, 16 substructures) the 16 interior
blocks hold 329-364 unknowns each and 201k L+U entries in all, in 15
matrices, as two substructures share an interface size; the 64 blocks of
the square-dense mesh (65 unknowns each, 45k L+U entries) make 3 matrices.
SuperLU factors a block-diagonal matrix block by block, with the same fill
as its blocks alone. For the full saddle matrix ``MMD_ATA`` keeps 1.8M
entries where the default COLAMD keeps 3.9M. The sparse path gives no
inertia.

Sparse input is taken as it is when it is a CSC matrix in canonical format
(sorted row indices, no duplicates), which is what SuperLU reads; any other
sparse matrix is converted to one once, and the caller's matrix is never
changed. Its checks work on those arrays: the matrix is symmetric when its
nonzero ``(row, col, value)`` triplets, in column-major order, equal its
transpose's triplets sorted the same way (``np.lexsort``), which is exactly
``(A != A.T).nnz == 0``; the infinity norm used by the backward error is an
``np.bincount`` of ``|a_ij|`` over the row indices, the row sums of
``|A|`` accumulated in column order.

Dense (ndarray) input takes LAPACK's Bunch-Kaufman ``dsytrf``/``dsytrs``
on the symmetrically equilibrated matrix ``S A S``, ``S = diag(s)`` with
``s_i = 1/sqrt(max_j |a_ij|)``, which brings every row's largest entry near
one. The inertia is read from the 1x1 and 2x2 pivot blocks of the scaled
factor (it equals that of ``A``, by Sylvester's law), and a pivot
eigenvalue counts as zero below ``n eps max|D|``. Without the scaling that
test would be absolute: a matrix whose rows differ in scale by many orders
of magnitude, such as a constrained local problem at a stiff fracture
penalty, showed false zero pivots. The dense path factors the constrained
local saddle matrices and the coarse matrix, whose inertia certifies that
it is negative definite.

Both paths meet the same accuracy contract: ``solve`` measures the normwise
backward error and applies one step of iterative refinement whenever it
exceeds 1e-12.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lapack
import scipy.sparse as sps
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


class IndefiniteFactorization:
    """Factored symmetric matrix exposing ``solve`` and optional inertia.

    ``inertia`` is ``(n_positive, n_negative, n_zero)`` on the dense path and
    ``None`` on the sparse path. ``solve`` accepts one right-hand side or a
    matrix of stacked right-hand sides.
    """

    def __init__(self, matrix):
        if sps.issparse(matrix):
            if matrix.format != "csc" or not matrix.has_canonical_format:
                matrix = matrix.tocsc(copy=True)
                matrix.sum_duplicates()
            self._mat = matrix
            n = matrix.shape[0]
            symmetric = matrix.shape[0] == matrix.shape[1] and _csc_symmetric(matrix)
        else:
            mat = np.asarray(matrix, dtype=float)
            self._mat = mat
            n = mat.shape[0]
            symmetric = mat.ndim == 2 and mat.shape[0] == mat.shape[1] and np.array_equal(mat, mat.T)
        if not symmetric:
            raise ValueError("matrix must be square and symmetric")
        self.n = n
        self.inertia: tuple[int, int, int] | None = None
        if sps.issparse(matrix):
            self.mode = "sparse"
            self._factor_sparse()
        else:
            self.mode = "dense"
            self._factor_dense()
        self._norm_inf = self._matrix_norm_inf()

    # -- dense Bunch-Kaufman path ----------------------------------------

    def _factor_dense(self) -> None:
        a = self._mat
        row_max = np.abs(a).max(axis=1, initial=0.0)
        scale = np.ones(self.n)
        scale[row_max > 0] = 1.0 / np.sqrt(row_max[row_max > 0])
        self._scale = scale
        self._ldu, self._ipiv, _ = lapack.dsytrf(
            np.outer(scale, scale) * a, lower=1
        )
        # In lower storage a 2x2 pivot block covers two consecutive negative
        # ipiv entries, and 1x1 pivots have positive ones. Blocks never
        # overlap, so the negative positions, left to right, pair up block
        # by block; their values cannot be used, as two adjacent 2x2 blocks
        # may carry the same one.
        neg = self._ipiv < 0
        two = np.flatnonzero(neg)[::2]
        diag = np.diagonal(self._ldu)
        blocks = np.empty((len(two), 2, 2))
        blocks[:, 0, 0] = diag[two]
        blocks[:, 1, 1] = diag[two + 1]
        blocks[:, 0, 1] = blocks[:, 1, 0] = self._ldu[two + 1, two]
        eigs = np.concatenate([diag[~neg], np.linalg.eigvalsh(blocks).ravel()])
        d_max = max(
            1.0,
            float(np.abs(diag).max(initial=0.0)),
            float(np.abs(blocks).max(initial=0.0)),
        )
        zero = np.abs(eigs) <= self.n * np.finfo(float).eps * d_max
        n_zero = int(zero.sum())
        n_pos = int((~zero & (eigs > 0)).sum())
        n_neg = int((~zero & (eigs < 0)).sum())
        self.inertia = (n_pos, n_neg, n_zero)
        if n_zero:
            raise SingularSystemError(
                f"matrix is singular: inertia ({n_pos} positive, {n_neg} "
                f"negative, {n_zero} zero pivots)"
            )

    def _solve_dense_raw(self, b: np.ndarray) -> np.ndarray:
        # trailing axes broadcast the scaling over stacked right-hand sides
        scale = self._scale.reshape((-1,) + (1,) * (b.ndim - 1))
        x, _ = lapack.dsytrs(
            self._ldu, self._ipiv, scale * b, lower=1
        )
        return scale * x

    # -- sparse LU path ---------------------------------------------------

    def _factor_sparse(self) -> None:
        try:
            self._splu = spla.splu(self._mat, permc_spec="MMD_ATA")
        except RuntimeError as exc:  # SuperLU reports exact singularity this way
            raise SingularSystemError(f"matrix is singular: {exc}") from exc

    # -- shared solve with refinement -------------------------------------

    def _matrix_norm_inf(self) -> float:
        if self.mode == "sparse":
            # row sums of |A|, accumulated in column order
            a = self._mat
            row_sums = np.bincount(a.indices, weights=np.abs(a.data), minlength=self.n)
            return float(row_sums.max(initial=0.0))
        return float(np.abs(self._mat).sum(axis=1).max(initial=0.0))

    def _raw_solve(self, b: np.ndarray) -> np.ndarray:
        if self.mode == "dense":
            return self._solve_dense_raw(b)
        return self._splu.solve(b)

    def backward_error(self, b: np.ndarray, x: np.ndarray) -> float:
        r = b - self._mat @ x
        denom = self._norm_inf * np.abs(x).max(initial=0.0) + np.abs(b).max(initial=0.0)
        if denom == 0.0:
            return 0.0
        return float(np.abs(r).max() / denom)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve against one vector or a matrix of stacked right-hand sides."""
        b = np.asarray(b, dtype=float)
        x = self._raw_solve(b)
        if self.backward_error(b, x) > _REFINE_TRIGGER:
            x = x + self._raw_solve(b - self._mat @ x)
        return x


def factor_symmetric_indefinite(matrix) -> IndefiniteFactorization:
    """Factor a symmetric (possibly indefinite) sparse or dense matrix.

    Raises :class:`SingularSystemError` on exact singularity; the dense-path
    message includes the inertia. An ndarray takes the dense path, which
    also gives the inertia; a sparse matrix takes the sparse path.
    """
    return IndefiniteFactorization(matrix)
