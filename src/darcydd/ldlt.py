"""Symmetric indefinite factorization with a dense and a sparse path.

The systems factored here are symmetric. The full saddle matrix and the
constrained local saddle matrices are indefinite, so plain Cholesky does not
apply to them, and the definite ones take the same paths. The input type
alone picks the path; there is no size threshold. Sparse input takes a
sparse LU with partial pivoting and the ``MMD_ATA`` column ordering,
whatever its size: every substructure's interior multiplier matrix (negative
definite, as the velocities and pressures are eliminated element by element
before it is formed) and the full saddle matrix of the direct solve. On a
fracture cube with 22k unknowns (the fracture-contrast benchmark mesh, 16
substructures) the 16 interior matrices hold 329-364 unknowns each and 201k
L+U entries in all; for the full saddle matrix ``MMD_ATA`` keeps 1.8M
entries where the default COLAMD keeps 3.9M. The sparse path gives no
inertia.

Dense (ndarray) input, and sparse input with ``force_dense``, takes a
Bunch-Kaufman LDL^T with 1x1 and 2x2 pivot blocks, whose block diagonal also
yields the inertia (used to certify definiteness of the coarse matrix). The
block-diagonal solve and the inertia count work on all pivot blocks at once:
1x1 pivots divide as one vector, 2x2 pivots use the scaled closed form of
LAPACK ``dsytrs`` stacked over the blocks, and their eigenvalues come from
one stacked ``eigvalsh``.

Both paths meet the same accuracy contract: ``solve`` measures the normwise
backward error and applies one step of iterative refinement whenever it
exceeds 1e-12.
"""
from __future__ import annotations

import ctypes
import sys

import numpy as np
import scipy.linalg
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .errors import SingularSystemError

_REFINE_TRIGGER = 1e-12
_M_MMAP_THRESHOLD = -3  # glibc mallopt parameter


def _pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at 32 MiB, the ceiling of its dynamic rule.

    By default glibc raises the threshold to the size of each mapped block
    that is freed, and the heap's trim threshold to twice that. Whether a
    block of a few MiB, such as SuperLU's factor storage, is mapped or carved
    from the heap, and how much freed heap stays resident, then depend on the
    whole allocation history of the process, down to its string-hash seed
    and address layout. SuperLU touches only part of the storage it
    allocates, so the resident size of identical solves varied from one
    process to the next: with glibc 2.36 on a 2-vCPU VM, the first
    fracture-contrast benchmark solve peaked near 102 MB or near 120 MB.
    A fixed threshold switches the dynamic rule off; heap blocks below
    32 MiB are reused, and free heap above 128 KiB at its top is returned
    to the system.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # a C library without mallopt
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


_pin_mmap_threshold()


def _block_structure(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the 1x1 and of the 2x2 blocks of an LDL block diagonal.

    A 2x2 block starts wherever the subdiagonal is nonzero; Bunch-Kaufman
    never lets two such blocks overlap.
    """
    n = d.shape[0]
    two = np.flatnonzero(np.diagonal(d, -1) != 0.0)
    in_two = np.zeros(n, dtype=bool)
    in_two[two] = True
    in_two[two + 1] = True
    return np.flatnonzero(~in_two), two


class IndefiniteFactorization:
    """Factored symmetric matrix exposing ``solve`` and optional inertia.

    ``inertia`` is ``(n_positive, n_negative, n_zero)`` on the dense path and
    ``None`` on the sparse path. ``solve`` accepts one right-hand side or a
    matrix of stacked right-hand sides.
    """

    def __init__(self, matrix, force_dense: bool = False):
        if sps.issparse(matrix):
            self._mat = matrix.tocsr()
            n = matrix.shape[0]
            symmetric = (
                matrix.shape[0] == matrix.shape[1]
                and (self._mat != self._mat.T).nnz == 0
            )
        else:
            mat = np.asarray(matrix, dtype=float)
            self._mat = mat
            n = mat.shape[0]
            symmetric = mat.ndim == 2 and mat.shape[0] == mat.shape[1] and np.array_equal(mat, mat.T)
        if not symmetric:
            raise ValueError("matrix must be square and symmetric")
        self.n = n
        self.inertia: tuple[int, int, int] | None = None
        if sps.issparse(matrix) and not force_dense:
            self.mode = "sparse"
            self._factor_sparse()
        else:
            self.mode = "dense"
            self._factor_dense()
        self._norm_inf = self._matrix_norm_inf()

    # -- dense Bunch-Kaufman path ----------------------------------------

    def _factor_dense(self) -> None:
        a = self._mat.toarray() if sps.issparse(self._mat) else self._mat
        lu, d, perm = scipy.linalg.ldl(a, lower=True)
        self._lu_perm = lu[perm]
        self._perm = perm
        self._one, two = _block_structure(d)
        self._one_piv = d[self._one, self._one]
        blocks = np.empty((len(two), 2, 2))
        blocks[:, 0, 0] = d[two, two]
        blocks[:, 1, 1] = d[two + 1, two + 1]
        blocks[:, 0, 1] = blocks[:, 1, 0] = c = d[two + 1, two]
        # 2x2 blocks [[a, c], [c, b]] solved scaled by c, as LAPACK dsytrs does
        a_c = blocks[:, 0, 0] / c
        b_c = blocks[:, 1, 1] / c
        self._two = two
        self._two_scaled = (c, a_c, b_c, a_c * b_c - 1.0)
        eigs = np.concatenate(
            [self._one_piv, np.linalg.eigvalsh(blocks).ravel()]
        )
        scale = max(1.0, float(np.abs(d).max(initial=0.0)))
        zero_tol = self.n * np.finfo(float).eps * scale
        zero = np.abs(eigs) <= zero_tol
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
        z = scipy.linalg.solve_triangular(
            self._lu_perm, b[self._perm], lower=True, unit_diagonal=True
        )
        w = np.empty_like(z)
        # trailing axes broadcast the pivots over stacked right-hand sides
        cols = (slice(None),) + (None,) * (z.ndim - 1)
        w[self._one] = z[self._one] / self._one_piv[cols]
        two = self._two
        c, a_c, b_c, denom = (v[cols] for v in self._two_scaled)
        z1 = z[two] / c
        z2 = z[two + 1] / c
        w[two] = (b_c * z1 - z2) / denom
        w[two + 1] = (a_c * z2 - z1) / denom
        y = scipy.linalg.solve_triangular(
            self._lu_perm.T, w, lower=False, unit_diagonal=True
        )
        x = np.empty_like(y)
        x[self._perm] = y
        return x

    # -- sparse LU path ---------------------------------------------------

    def _factor_sparse(self) -> None:
        try:
            self._splu = spla.splu(self._mat.tocsc(), permc_spec="MMD_ATA")
        except RuntimeError as exc:  # SuperLU reports exact singularity this way
            raise SingularSystemError(f"matrix is singular: {exc}") from exc

    # -- shared solve with refinement -------------------------------------

    def _matrix_norm_inf(self) -> float:
        if sps.issparse(self._mat):
            return float(np.asarray(abs(self._mat).sum(axis=1)).max(initial=0.0))
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


def factor_symmetric_indefinite(
    matrix, force_dense: bool = False
) -> IndefiniteFactorization:
    """Factor a symmetric (possibly indefinite) sparse or dense matrix.

    Raises :class:`SingularSystemError` on exact singularity; the dense-path
    message includes the inertia. ``force_dense`` factors sparse input on
    the dense path, so that its inertia is available.
    """
    return IndefiniteFactorization(matrix, force_dense)
