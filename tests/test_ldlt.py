"""Symmetric-indefinite factorization, dense and sparse paths."""
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps

from darcydd.errors import SingularSystemError
from darcydd.ldlt import IndefiniteFactorization, factor_symmetric_indefinite


def test_saddle_two_by_two():
    fact = factor_symmetric_indefinite(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert fact.mode == "dense"
    assert fact.inertia == (1, 1, 0)
    b = np.array([3.0, 1.0])
    assert np.allclose(fact.solve(b), sla.solve([[1, 1], [1, 0]], b), atol=1e-14)


def test_exact_singularity_reported():
    with pytest.raises(SingularSystemError):
        factor_symmetric_indefinite(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_spd_matches_cholesky(rng):
    a = rng.standard_normal((60, 60))
    a = a @ a.T + 60 * np.eye(60)
    fact = factor_symmetric_indefinite(a)
    assert fact.inertia == (60, 0, 0)
    b = rng.standard_normal(60)
    ref = sla.cho_solve(sla.cho_factor(a), b)
    assert np.abs(fact.solve(b) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_indefinite_inertia_matches_eigenvalues(rng):
    a = rng.standard_normal((30, 30))
    a = 0.5 * (a + a.T)
    w = np.linalg.eigvalsh(a)
    fact = factor_symmetric_indefinite(a)
    assert fact.inertia == (int((w > 0).sum()), int((w < 0).sum()), 0)
    b = rng.standard_normal(30)
    x = fact.solve(b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_multi_rhs_dense(rng):
    a = rng.standard_normal((40, 40))
    a = 0.5 * (a + a.T) + 40 * np.eye(40)
    fact = factor_symmetric_indefinite(a)
    b = rng.standard_normal((40, 5))
    x = fact.solve(b)
    assert x.shape == (40, 5)
    assert np.abs(a @ x - b).max() <= 1e-10


def _laplacian(n: int) -> sps.csr_matrix:
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    return sps.diags([off, main, off], [-1, 0, 1]).tocsr()


def test_sparse_path(rng):
    a = _laplacian(600)
    fact = factor_symmetric_indefinite(a)
    assert fact.mode == "sparse"
    assert fact.inertia is None
    b = rng.standard_normal((600, 3))
    x = fact.solve(b)
    assert np.abs(a @ x - b).max() <= 1e-10 * np.abs(b).max()


def test_force_dense_keeps_inertia():
    fact = factor_symmetric_indefinite(_laplacian(600).toarray())
    assert fact.mode == "dense"
    assert fact.inertia == (600, 0, 0)


def test_backward_error_contract(rng):
    for n in (12, 80, 300):
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T) + 0.3 * np.eye(n)
        fact = factor_symmetric_indefinite(sps.csr_matrix(a))
        b = rng.standard_normal(n)
        x = fact.solve(b)
        assert fact.backward_error(b, x) <= 1e-10


def test_asymmetric_rejected():
    with pytest.raises(ValueError):
        IndefiniteFactorization(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        IndefiniteFactorization(sps.csr_matrix(np.array([[1.0, 2.0], [3.0, 4.0]])))


def test_sparse_singularity_detected():
    a = sps.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularSystemError):
        IndefiniteFactorization(a)


def _zero_diagonal_saddle(rng, n_a: int, n_b: int) -> np.ndarray:
    """``[[A, B^T], [B, 0]]`` with a zero-diagonal symmetric ``A``: every
    diagonal entry is zero, so Bunch-Kaufman must take 2x2 pivots."""
    a = rng.standard_normal((n_a, n_a))
    a = a + a.T
    np.fill_diagonal(a, 0.0)
    b = rng.standard_normal((n_b, n_a))
    return np.block([[a, b.T], [b, np.zeros((n_b, n_b))]])


@pytest.mark.parametrize("n_a,n_b", [(2, 2), (9, 4), (40, 15), (120, 60)])
def test_two_by_two_pivots_solve_and_inertia(n_a, n_b):
    rng = np.random.default_rng(7 * n_a + n_b)
    m = _zero_diagonal_saddle(rng, n_a, n_b)
    fact = factor_symmetric_indefinite(m)
    assert fact.mode == "dense"
    _, d, _ = sla.ldl(m, lower=True)
    assert np.count_nonzero(np.diagonal(d, -1)) > 0  # 2x2 pivots were taken
    w = np.linalg.eigvalsh(m)
    assert fact.inertia == (int((w > 0).sum()), int((w < 0).sum()), 0)
    n = n_a + n_b
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        ref = np.linalg.solve(m, b)
        x = fact.solve(b)
        assert x.shape == b.shape
        assert np.abs(x - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_mixed_pivots_match_loop_reference(rng):
    """1x1 and 2x2 pivots in one matrix; the block-diagonal solve agrees
    with a per-block loop over the same factors."""
    m = _zero_diagonal_saddle(rng, 30, 10)
    m[:5, :5] += np.diag(np.arange(1.0, 6.0))
    fact = factor_symmetric_indefinite(m)
    lu, d, perm = sla.ldl(m, lower=True)
    sizes = []
    i = 0
    while i < len(d):
        size = 2 if i + 1 < len(d) and d[i + 1, i] != 0.0 else 1
        sizes.append(size)
        i += size
    assert 1 in sizes and 2 in sizes
    b = rng.standard_normal((40, 2))
    z = sla.solve_triangular(lu[perm], b[perm], lower=True, unit_diagonal=True)
    w = np.empty_like(z)
    off = 0
    for size in sizes:
        blk = slice(off, off + size)
        w[blk] = np.linalg.solve(d[blk, blk], z[blk])
        off += size
    y = sla.solve_triangular(lu[perm].T, w, lower=False, unit_diagonal=True)
    ref = np.empty_like(y)
    ref[perm] = y
    assert np.abs(fact._raw_solve(b) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_zero_pivots_beside_two_by_two_block_detected():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0  # one 2x2 pivot, then two zero 1x1 pivots
    with pytest.raises(SingularSystemError, match="2 zero"):
        factor_symmetric_indefinite(a)


def test_dense_input_always_takes_dense_path():
    a = np.diag(np.linspace(1.0, 2.0, 600))
    fact = factor_symmetric_indefinite(a)
    assert fact.mode == "dense"
    assert fact.inertia == (600, 0, 0)


@pytest.mark.parametrize("n", [2, 7, 120])
def test_input_type_alone_picks_the_path(n, rng):
    """Sparse input of any size goes to the sparse LU, an ndarray of any
    size to the dense LDL^T; no size threshold is involved."""
    a = _laplacian(n) + sps.eye(n)
    sparse = factor_symmetric_indefinite(a)
    assert sparse.mode == "sparse"
    assert sparse.inertia is None
    dense = factor_symmetric_indefinite(a.toarray())
    assert dense.mode == "dense"
    assert dense.inertia == (n, 0, 0)
    b = rng.standard_normal(n)
    assert np.abs(sparse.solve(b) - dense.solve(b)).max() <= 1e-12 * np.abs(dense.solve(b)).max()


def test_badly_scaled_rows_keep_inertia(rng):
    """``D A D`` with row scales spread over twelve orders of magnitude:
    the equilibrated factorization finds no false zero pivot, and its
    inertia is that of ``A``."""
    a = rng.standard_normal((40, 40))
    a = 0.5 * (a + a.T)
    d = np.logspace(-6, 6, 40)
    m = np.outer(d, d) * a
    w = np.linalg.eigvalsh(a)
    fact = factor_symmetric_indefinite(m)
    assert fact.inertia == (int((w > 0).sum()), int((w < 0).sum()), 0)
    b = rng.standard_normal((40, 3))
    assert fact.backward_error(b, fact.solve(b)) <= 1e-12
