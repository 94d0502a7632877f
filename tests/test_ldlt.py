"""Symmetric factorizations: the sparse LU path, the dense Cholesky path
for stacks of negative definite matrices, and the band Cholesky one for
block-diagonal and sparse negative definite matrices."""
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.linalg import lapack

from darcydd.errors import SingularSystemError
from darcydd.ldlt import (
    BlockDiagonal,
    IndefiniteFactorization,
    csc_norm_inf,
    factor_negative_definite,
    factor_symmetric_indefinite,
    sparse_backward_error,
)


def test_saddle_two_by_two():
    """A 2x2 saddle matrix is indefinite: the dense Cholesky path refuses
    it, and the sparse LU path, which does not check definiteness, solves
    it."""
    m = np.array([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SingularSystemError, match="not negative definite"):
        factor_symmetric_indefinite(m)
    fact = factor_symmetric_indefinite(sps.csc_matrix(m))
    assert fact.mode == "sparse"
    b = np.array([3.0, 1.0])
    assert np.allclose(fact.solve(b), sla.solve(m, b), atol=1e-14)


def test_exact_singularity_reported():
    with pytest.raises(SingularSystemError):
        factor_symmetric_indefinite(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_spd_matches_cholesky(rng):
    a = rng.standard_normal((60, 60))
    a = a @ a.T + 60 * np.eye(60)
    fact = factor_symmetric_indefinite(-a)
    assert fact.mode == "dense"
    b = rng.standard_normal(60)
    ref = -sla.cho_solve(sla.cho_factor(a), b)
    assert np.abs(fact.solve(b) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_indefinite_inertia_matches_eigenvalues(rng):
    """The dense path certifies a matrix exactly when its inertia is
    ``(0, n, 0)``: of symmetric matrices with 0 to 3 positive eigenvalues
    among 30, it factors and solves the first and refuses the others."""
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    for n_pos in range(4):
        w = -np.logspace(0.0, 3.0, 30)
        w[:n_pos] *= -1.0
        a = (q * w) @ q.T
        a = 0.5 * (a + a.T)
        if n_pos:
            with pytest.raises(SingularSystemError, match="not negative definite"):
                factor_symmetric_indefinite(a)
            continue
        b = rng.standard_normal(30)
        x = factor_symmetric_indefinite(a).solve(b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_multi_rhs_dense(rng):
    a = rng.standard_normal((40, 40))
    a = -(0.5 * (a + a.T) + 40 * np.eye(40))
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
    b = rng.standard_normal((600, 3))
    x = fact.solve(b)
    assert np.abs(a @ x - b).max() <= 1e-10 * np.abs(b).max()


def test_force_dense_keeps_inertia():
    """The negated Laplacian, given as an ndarray, takes the dense path and
    is certified negative definite, inertia ``(0, n, 0)``; with free ends
    its constants are a null vector, and it is refused."""
    lap = _laplacian(600)
    fact = factor_symmetric_indefinite(-lap.toarray())
    assert fact.mode == "dense" and fact.n == 600
    free = lap.tolil()
    free[0, 0] = free[599, 599] = 1.0
    with pytest.raises(SingularSystemError):
        factor_symmetric_indefinite(-free.toarray())


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


def test_zero_pivots_beside_two_by_two_block_detected():
    """A definite 2x2 block beside a block whose last pivot is at rounding
    level: Cholesky succeeds, with pivot 2^-52 against the diagonal entry
    1 + 2^-52, and the certificate counts that pivot as zero; a zero
    diagonal entry fails the factorization itself."""
    a = np.zeros((4, 4))
    a[:2, :2] = -np.array([[2.0, 1.0], [1.0, 2.0]])
    a[2:, 2:] = -np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]])
    with pytest.raises(SingularSystemError, match="matrix is singular: pivot 4 of 4"):
        factor_symmetric_indefinite(a)
    a[2:, 2:] = 0.0
    with pytest.raises(SingularSystemError, match="block of order 3 .of 4. is not"):
        factor_symmetric_indefinite(a)


def test_dense_input_always_takes_dense_path():
    a = -np.diag(np.linspace(1.0, 2.0, 600))
    fact = factor_symmetric_indefinite(a)
    assert fact.mode == "dense"


@pytest.mark.parametrize("n", [2, 7, 120])
def test_input_type_alone_picks_the_path(n, rng):
    """Sparse input of any size goes to the sparse LU, an ndarray of any
    size to the dense Cholesky; no size threshold is involved."""
    a = -(_laplacian(n) + sps.eye(n))
    sparse = factor_symmetric_indefinite(a)
    assert sparse.mode == "sparse"
    dense = factor_symmetric_indefinite(a.toarray())
    assert dense.mode == "dense"
    b = rng.standard_normal(n)
    assert np.abs(sparse.solve(b) - dense.solve(b)).max() <= 1e-12 * np.abs(dense.solve(b)).max()


def test_badly_scaled_rows_keep_inertia(rng):
    """``D A D`` with row scales spread over twelve orders of magnitude and
    ``A`` negative definite: the Cholesky pivot test, relative to each
    diagonal entry, does not change under the scaling, so it finds no
    false zero pivot and certifies ``D A D`` negative definite, as ``A``
    is, with no equilibration."""
    a = rng.standard_normal((40, 40))
    a = -(a @ a.T + 0.1 * np.eye(40))
    d = np.logspace(-6, 6, 40)
    m = np.outer(d, d) * a
    fact = factor_symmetric_indefinite(m)
    assert fact.mode == "dense"
    b = rng.standard_normal((40, 3))
    assert fact.backward_error(b, fact.solve(b)) <= 1e-12


def _symmetry_cases(rng):
    """Random sparse matrices in several formats, symmetric or broken in
    one way, each with the old check's verdict ``(A != A.T).nnz == 0``."""
    for _ in range(40):
        n = int(rng.integers(2, 25))
        a = sps.random(n, n, density=0.25, random_state=rng, format="csr")
        a = (a + a.T + (2 * n + 1) * sps.eye(n)).tocsr()
        coo = a.tocoo()
        off = np.flatnonzero(coo.row != coo.col)
        cases = [a, a.tocsc(), coo]
        # duplicates: every entry split into two stored parts with an
        # exactly representable sum
        half = sps.coo_matrix(
            (
                np.concatenate([coo.data * 0.5, coo.data * 0.5]),
                (np.tile(coo.row, 2), np.tile(coo.col, 2)),
            ),
            shape=(n, n),
        )
        cases += [half, half.tocsr()]
        # a CSR matrix storing each entry as two unequal parts, the upper
        # triangle's in the opposite order to the lower's
        upper = coo.row < coo.col
        first = np.where(upper, 0.25 * coo.data, 0.75 * coo.data)
        second = coo.data - first
        row, col = np.tile(coo.row, 2), np.tile(coo.col, 2)
        order = np.lexsort((col, row))
        cases.append(sps.csr_matrix(
            (
                np.concatenate([first, second])[order],
                col[order],
                np.searchsorted(row[order], np.arange(n + 1)),
            ),
            shape=(n, n),
        ))
        if len(off):
            i, j = coo.row[off[0]], coo.col[off[0]]
            # an explicit zero at (i, j) only: still symmetric
            keep = ~((coo.row == j) & (coo.col == i)) & ~((coo.row == i) & (coo.col == j))
            zero_one_side = sps.coo_matrix(
                (
                    np.append(coo.data[keep], 0.0),
                    (np.append(coo.row[keep], i), np.append(coo.col[keep], j)),
                ),
                shape=(n, n),
            )
            cases += [zero_one_side.tocsr(), zero_one_side.tocsc()]
            # an explicit zero at (i, j) facing a nonzero at (j, i)
            drop = ~((coo.row == i) & (coo.col == j))
            zero_facing = sps.coo_matrix(
                (
                    np.append(coo.data[drop], 0.0),
                    (np.append(coo.row[drop], i), np.append(coo.col[drop], j)),
                ),
                shape=(n, n),
            )
            cases += [zero_facing.tocsr(), zero_facing]
            # one ulp of asymmetry in one off-diagonal entry
            ulp = coo.copy()
            ulp.data[off[0]] = np.nextafter(ulp.data[off[0]], np.inf)
            cases += [ulp, ulp.tocsr(), ulp.tocsc()]
            # a missing mirror entry
            cases.append(sps.coo_matrix(
                (coo.data[drop], (coo.row[drop], coo.col[drop])), shape=(n, n)
            ).tocsc())
        cases.append(sps.random(n, n + 1, density=0.3, random_state=rng, format="csr"))
        cases.append(a[:, : n - 1].tocsc())
        for case in cases:
            square = case.shape[0] == case.shape[1]
            yield case, square and (case != case.T).nnz == 0


def test_sparse_symmetry_check_matches_transpose_comparison(rng):
    """factor_symmetric_indefinite raises ValueError exactly where the
    shape is not square or ``(A != A.T).nnz != 0``, for CSR, CSC and COO
    input with duplicates, one-sided explicit zeros and one-ulp defects."""
    seen = {True: 0, False: 0}
    for case, symmetric in _symmetry_cases(rng):
        seen[symmetric] += 1
        before = (case.format, case.data.copy())
        if symmetric:
            factor_symmetric_indefinite(case)
        else:
            with pytest.raises(ValueError, match="square and symmetric"):
                factor_symmetric_indefinite(case)
        assert case.format == before[0]
        np.testing.assert_array_equal(case.data, before[1])
    assert seen[True] > 100 and seen[False] > 100


def test_sparse_norm_matches_absolute_row_sums(rng):
    """The infinity norm of the sparse path equals ``|A|``'s largest row
    sum, bit for bit, over the canonical CSC matrix it factors."""
    for case, symmetric in _symmetry_cases(rng):
        if not symmetric:
            continue
        fact = factor_symmetric_indefinite(case)
        csc = case.tocsc(copy=True)
        csc.sum_duplicates()
        assert fact._norm_inf == float(abs(csc).sum(axis=1).max())


def test_canonical_csc_taken_as_is_other_input_converted_once():
    a = (_laplacian(30) + sps.eye(30)).tocsc()
    assert a.has_canonical_format
    assert factor_symmetric_indefinite(a)._mat is a
    for other in (a.tocsr(), a.tocoo()):
        mat = factor_symmetric_indefinite(other)._mat
        assert mat.format == "csc" and mat.has_canonical_format
        assert mat is not other
    unsorted = a.copy()
    unsorted.indices[:2] = unsorted.indices[1::-1].copy()
    unsorted.data[:2] = unsorted.data[1::-1].copy()
    unsorted.has_sorted_indices = False
    mat = factor_symmetric_indefinite(unsorted)._mat
    assert mat is not unsorted and mat.has_canonical_format
    assert not unsorted.has_sorted_indices  # the caller's matrix is unchanged


# ---------------------------------------------------------------------------
# stacks of dense matrices


def _negative_definite_stack(rng, m: int, n: int) -> np.ndarray:
    """``m`` symmetric negative definite matrices of one size, rows scaled
    over four orders of magnitude."""
    g = rng.standard_normal((m, n, n))
    stack = -(g @ g.transpose(0, 2, 1) + np.eye(n))
    d = np.logspace(-2, 2, n)
    return np.outer(d, d) * 0.5 * (stack + stack.transpose(0, 2, 1))


@pytest.mark.parametrize("m,n,k", [(1, 9, 4), (5, 9, 4), (12, 30, 10), (3, 0, 4)])
def test_stack_equals_members_factored_alone(m, n, k, rng):
    """A stack is factored and solved member by member exactly as each
    member alone: the solutions against one and against ``k`` right-hand
    sides, the probe's backward errors and the Gram forms ``B_j^T (-A_j)^-1
    B_j`` are bit for bit those of the member's own factorization; every
    form is exactly symmetric and matches a dense solve, and members of
    order 0 give zero forms."""
    stack = _negative_definite_stack(rng, m, n)
    fact = factor_symmetric_indefinite(stack)
    assert fact.mode == "dense" and fact.n == n
    alone = [factor_symmetric_indefinite(a) for a in stack]
    for b in (rng.standard_normal((m, n)), rng.standard_normal((m, n, k))):
        x = fact.solve(b)
        assert x.shape == b.shape
        for j, f in enumerate(alone):
            assert np.array_equal(x[j], f.solve(b[j]))
    # the identity for every member, as a broadcast view
    x = fact.solve(np.broadcast_to(np.eye(n), (m, n, n)))
    for j, f in enumerate(alone):
        assert np.array_equal(x[j], f.solve(np.eye(n)))
    errors = fact.backward_error(b, fact.solve(b))
    assert errors.shape == (m,) and (errors <= 1e-12).all()
    probe = fact.probe()
    assert probe.shape == (m,) and (probe <= 1e-12).all()
    b = rng.standard_normal((m, n, k))
    forms = fact.inverse_forms(b)
    assert forms.shape == (m, k, k)
    for j, f in enumerate(alone):
        assert probe[j] == f.probe()[0]
        assert np.array_equal(forms[j], f.inverse_forms(b[j][None])[0])
        assert np.array_equal(forms[j], forms[j].T)
        want = b[j].T @ np.linalg.solve(-stack[j], b[j]) if n else np.zeros((k, k))
        gap = np.abs(forms[j] - want).max()
        assert gap <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("member", [0, 3])
def test_singular_member_of_a_stack_named(member, rng):
    stack = _negative_definite_stack(rng, 5, 13)
    stack[member, -1] = stack[member, -2]
    stack[member, :, -1] = stack[member, :, -2]
    with pytest.raises(
        SingularSystemError, match=rf"matrix {member} of a stack of 5"
    ) as err:
        factor_symmetric_indefinite(stack)
    assert err.value.member == member
    # a single matrix names no member
    with pytest.raises(
        SingularSystemError, match=r"^matrix is (singular|not negative definite)"
    ) as err:
        factor_symmetric_indefinite(stack[member])
    assert err.value.member is None


def test_refinement_is_decided_per_member(rng):
    """A member whose backward error exceeds 1e-12 gets its step of
    iterative refinement alone: here the entries of one member's factor
    are perturbed by about 1e-6, which takes its backward error past
    1e-12; every other member's solution stays bit for bit that of its own
    factorization."""
    stack = _negative_definite_stack(rng, 4, 13)
    fact = factor_symmetric_indefinite(stack)
    alone = [factor_symmetric_indefinite(a) for a in stack]
    fact._factors[2] *= 1.0 + 1e-6 * rng.standard_normal((13, 13))
    b = rng.standard_normal((4, 13, 2))
    raw = fact._solve_unrefined(b)
    raw_errors = fact.backward_error(b, raw)
    assert raw_errors[2] > 1e-12
    assert (np.delete(raw_errors, 2) <= 1e-12).all()
    x = fact.solve(b)
    for j in (0, 1, 3):
        assert np.array_equal(x[j], raw[j])
        assert np.array_equal(x[j], alone[j].solve(b[j]))
    r = b[2] - stack[2] @ raw[2]
    step = fact._solve_unrefined(r[None], np.array([2]))[0]
    assert np.array_equal(x[2], raw[2] + step)
    assert fact.backward_error(b, x)[2] < raw_errors[2]


def test_member_errors_equal_absolute_value_formula(rng):
    """Each member's largest magnitude, taken as ``max(v.max(), -v.min())``
    with no ``|v|`` copy, gives the backward errors of the ``|v|`` formula
    bit for bit: against the broadcast identity, with an all-zero, a
    signed-zero and a non-positive member, and with no right-hand side."""
    stack = _negative_definite_stack(rng, 4, 13)
    fact = factor_symmetric_indefinite(stack)

    def amax(v):
        return np.abs(v).max(axis=(1, 2), initial=0.0)

    def reference(b, x, r):
        denom = fact._norm_inf * amax(x) + amax(b)
        return np.divide(amax(r), denom, out=np.zeros(len(b)), where=denom != 0.0)

    signed = rng.standard_normal((4, 13, 3))
    signed[1] = 0.0
    signed[2] = -0.0
    signed[3] = -np.abs(signed[3])
    for b in (
        np.broadcast_to(np.eye(13), (4, 13, 13)),
        signed,
        np.zeros((4, 13, 0)),
    ):
        x = fact._solve_unrefined(b)
        x[1:3] = signed[1:3, :, :1]  # exact zeros of both signs in x too
        r = b - stack @ x
        got = fact._member_errors(b, x, r)
        assert got.view(np.int64).tolist() == reference(b, x, r).view(np.int64).tolist()


def test_stacked_solve_makes_no_full_size_absolute_copies(rng):
    """Solving a stack against the broadcast identity peaks at the solution
    plus its residual (tracemalloc); ``|v|`` copies of the residual, the
    solution and the materialized identity took it to 3x the solution."""
    import tracemalloc

    m, n = 4, 120
    fact = factor_symmetric_indefinite(_negative_definite_stack(rng, m, n))
    eye = np.broadcast_to(np.eye(n), (m, n, n))
    fact.solve(eye)
    tracemalloc.start()
    try:
        x = fact.solve(eye)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fact.backward_error(eye, x).max() <= 1e-12  # no refinement step
    assert peak <= 2.25 * x.nbytes


@pytest.mark.parametrize("k", [None, 1, 31, 32, 33, 70])
def test_blocked_backward_error_equals_whole_residual(k, rng):
    """The sparse backward error is the whole-residual formula's bit for
    bit, for one vector and for SuperLU's Fortran-ordered multi-column
    solutions of 1 to 70 columns."""
    a = (_laplacian(200) + sps.diags(rng.uniform(0.0, 1e-3, 200))).tocsc()
    fact = factor_symmetric_indefinite(a)
    shape = 200 if k is None else (200, k)
    b = rng.standard_normal(shape)
    x = fact._splu.solve(b)
    if k is not None:
        x = x + 1e-9 * rng.standard_normal(shape)  # an error to measure
        x[:, -1] += 1e-6 * rng.standard_normal(200)  # largest in the last block
        x = np.asfortranarray(x)
    norm = csc_norm_inf(a)
    r = b - a @ x
    whole = float(
        np.abs(r).max() / (norm * np.abs(x).max(initial=0.0) + np.abs(b).max(initial=0.0))
    )
    assert sparse_backward_error(a, b, x, norm) == whole
    assert fact.backward_error(b, x) == whole


# ---------------------------------------------------------------------------
# negative definite matrices by Cholesky


def _negative_definite(rng, n: int, cond: float) -> sps.csr_matrix:
    """A dense-pattern symmetric negative definite matrix with condition
    number ``cond``, as CSR."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = -(q * np.logspace(0.0, -np.log10(cond), n)) @ q.T
    return sps.csr_matrix(0.5 * (a + a.T))


def test_negative_definite_solve_meets_contract(rng):
    """On an ill-conditioned negative definite matrix (condition 1e10) the
    factorization certifies the inertia, keeps the caller's sparse matrix
    for its residuals, and solves to a backward error below 1e-12."""
    a = _negative_definite(rng, 80, 1e10)
    fact = factor_negative_definite(a)
    assert fact.inertia == (0, 80, 0) and fact.n == 80
    assert fact._mat is a
    dense = a.toarray()
    for _ in range(5):
        b = rng.standard_normal(80)
        x = fact.solve(b)
        assert fact.backward_error(b, x) <= 1e-12
        ref = np.linalg.solve(dense, b)
        assert np.abs(x - ref).max() <= 1e-4 * np.abs(ref).max()


def test_negative_definite_refines_once(rng):
    """A solution whose backward error exceeds 1e-12 gets exactly one step
    of iterative refinement: here every entry of the factor is perturbed
    by about 1e-9, and so is the unrefined solution's backward error. The
    matrix is dense, so its band factor is the full 60 x 60 band."""
    a = _negative_definite(rng, 60, 1e6)
    fact = factor_negative_definite(a)
    band = fact._bands[0]
    assert band.shape == (60, 60)
    band *= 1.0 + 1e-9 * rng.standard_normal(band.shape)
    b = rng.standard_normal(60)
    raw = fact._solve_unrefined(b)
    assert fact.backward_error(b, raw) > 1e-12
    x = fact.solve(b)
    assert np.array_equal(x, raw + fact._solve_unrefined(b - a @ raw))
    assert fact.backward_error(b, x) < 1e-3 * fact.backward_error(b, raw)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 80),
    density=st.floats(0.01, 0.2),
    seed=st.integers(0, 2**32 - 1),
)
def test_negative_definite_symmetric_permutation(n, density, seed):
    """A random sparse negative definite matrix ``A`` and a symmetric
    permutation ``Q A Q^T`` of it are both certified, with inertia
    (0, n, 0), and the permuted matrix's solution of ``Q b``, permuted
    back, solves ``A x = b`` within the 1e-12 backward-error contract."""
    rng = np.random.default_rng(seed)
    r = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    a = sps.csr_matrix(-(r @ r.T + np.diag(rng.uniform(0.1, 1.0, n))))
    q = rng.permutation(n)
    fact, fact_q = factor_negative_definite(a), factor_negative_definite(a[q][:, q])
    assert fact.inertia == fact_q.inertia == (0, n, 0)
    b = rng.standard_normal(n)
    x = fact.solve(b)
    x_q = fact_q.solve(b[q])
    assert fact.backward_error(b, x) <= 1e-12
    assert fact_q.backward_error(b[q], x_q) <= 1e-12
    back = np.empty(n)
    back[q] = x_q
    assert fact.backward_error(b, back) <= 1e-12


def test_negative_definite_refuses_singular_and_positive_definite():
    """Real matrices, no stand-ins: a negated graph Laplacian (singular,
    its constants are its kernel), a negated rank-one matrix, a matrix
    whose last pivot is at rounding level and a positive definite matrix
    are refused with SingularSystemError; an unsymmetric one with
    ValueError."""
    lap = _laplacian(40).tolil()
    lap[0, 0] = lap[39, 39] = 1.0  # free ends: every row sums to zero
    v = np.arange(1.0, 7.0)
    for singular in (-lap.tocsr(), sps.csr_matrix(-np.outer(v, v))):
        with pytest.raises(SingularSystemError):
            factor_negative_definite(singular)
    # dpotrf succeeds here, with last pivot 2^-52 against the diagonal
    # entry 1 + 2^-52: numerically zero
    tiny = sps.csr_matrix(-np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]]))
    with pytest.raises(SingularSystemError, match="matrix is singular: pivot 2 of 2"):
        factor_negative_definite(tiny)
    with pytest.raises(SingularSystemError, match="not negative definite"):
        factor_negative_definite(_laplacian(40) + sps.eye(40))
    with pytest.raises(ValueError):
        factor_negative_definite(sps.csr_matrix([[-2.0, 1.0], [0.0, -2.0]]))


# ---------------------------------------------------------------------------
# block-diagonal matrices by band Cholesky


def test_band_symmetry_check_matches_transpose_comparison(rng):
    """The band path raises ValueError exactly where the shape is not
    square or ``(A != A.T).nnz != 0``, on the negated matrices of the
    sparse path's cases: CSR, CSC and COO input with duplicates, one-sided
    explicit zeros, one-ulp defects and missing mirror entries."""
    seen = {True: 0, False: 0}
    for case, symmetric in _symmetry_cases(rng):
        seen[symmetric] += 1
        if symmetric:
            assert factor_negative_definite(-case).n == case.shape[0]
        else:
            with pytest.raises(ValueError, match="square and symmetric"):
                factor_negative_definite(-case)
    assert seen[True] > 100 and seen[False] > 100


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 30),
    density=st.floats(0.02, 0.5),
    defect=st.sampled_from(["none", "zero", "value", "pattern", "zero-facing"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_symmetry_check_property(n, density, defect, seed):
    """Whether the band filled from the lower triangle equals the band
    filled from the transposed upper one agrees with ``(A != A.T).nnz ==
    0``: for a symmetric draw, one with an explicit zero stored on one
    side only, one with one value changed on one side, one with one entry
    dropped from one side, and one with an entry replaced by an explicit
    zero facing a nonzero."""
    rng = np.random.default_rng(seed)
    r = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    dense = -(np.abs(r) + np.abs(r.T) + np.diag(np.full(n, 2.0 * n)))
    coo = sps.coo_matrix(dense)
    row, col, val = coo.row, coo.col, coo.data
    off = np.flatnonzero(row != col)
    if defect == "zero":
        i, j = rng.integers(0, n, 2)
        row, col, val = np.append(row, i), np.append(col, j), np.append(val, 0.0)
    elif len(off) and defect != "none":
        k = off[rng.integers(len(off))]
        if defect == "value":
            val = val.copy()
            val[k] *= 1.0 + 2.0**-40
        elif defect == "pattern":
            row, col, val = np.delete(row, k), np.delete(col, k), np.delete(val, k)
        else:
            val = val.copy()
            val[k] = 0.0
    a = sps.coo_matrix((val, (row, col)), shape=(n, n)).tocsr()
    symmetric = (a != a.T).nnz == 0
    if symmetric:
        fact = factor_negative_definite(a)
        assert fact.inertia == (0, n, 0)
    else:
        with pytest.raises(ValueError, match="square and symmetric"):
            factor_negative_definite(a)


def _block_diagonal(rng, sizes, density=0.2):
    """Random symmetric negative definite blocks of the given orders, and
    their :class:`BlockDiagonal` matrix as canonical CSC."""
    blocks = []
    for n in sizes:
        r = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
        a = -(r @ r.T + np.diag(rng.uniform(0.1, 1.0, n)))
        blocks.append(sps.csc_matrix(np.outer(*(np.logspace(-2, 2, n),) * 2) * a))
    start = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    matrix = sps.block_diag(blocks, format="csc") if sizes else sps.csc_matrix((0, 0))
    return blocks, BlockDiagonal(matrix, start)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=6),
    k=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_diagonal_equals_blocks_factored_alone(sizes, k, seed):
    """A block-diagonal matrix of random negative definite blocks of orders
    0 to 40 is factored and solved block by block exactly as each block
    alone: band factors, orderings, solutions, backward errors and
    ``B_j^T (-A_j)^-1 B_j`` are bit for bit the block's own, and the forms
    are exactly symmetric and match a dense solve."""
    rng = np.random.default_rng(seed)
    blocks, bd = _block_diagonal(rng, sizes)
    fact = factor_symmetric_indefinite(bd)
    assert fact.mode == "band" and fact.n == sum(sizes)
    b = rng.standard_normal(fact.n)
    x = fact.solve(b)
    errors = fact.backward_error(b, x)
    assert errors.shape == (len(sizes),) and (errors <= 1e-12).all()
    cols = [rng.standard_normal((n, k)) for n in sizes]
    rhs = sps.block_diag([sps.csr_matrix(c) for c in cols], format="csr")
    rhs = sps.csr_matrix(rhs.toarray().reshape(fact.n, len(sizes) * k))
    forms = fact.inverse_forms(rhs, k)
    assert forms.shape == (len(sizes), k, k)
    for j, (a, s0, s1) in enumerate(zip(blocks, bd.start, bd.start[1:])):
        alone = factor_symmetric_indefinite(BlockDiagonal(a, np.array([0, s1 - s0])))
        assert np.array_equal(fact._bands[j], alone._bands[0])
        assert np.array_equal(fact._order[s0:s1] - s0, alone._order)
        assert np.array_equal(x[s0:s1], alone.solve(b[s0:s1]))
        assert errors[j] == alone.backward_error(b[s0:s1], x[s0:s1])[0]
        form = alone.inverse_forms(sps.csr_matrix(cols[j]), k)[0]
        assert np.array_equal(forms[j], form)
        assert np.array_equal(form, form.T)
        if s1 > s0:
            want = cols[j].T @ np.linalg.solve(-a.toarray(), cols[j])
            assert np.abs(form - want).max(initial=0.0) <= 1e-9 * max(
                1.0, np.abs(want).max(initial=0.0)
            )


def _band_block(rng, n, kd, permute):
    """A random symmetric negative definite matrix of order ``n`` whose band
    of half-width ``kd`` is full and which is zero outside it, diagonally
    dominant, symmetrically permuted at random when ``permute``."""
    i, j = np.indices((n, n))
    a = np.where(np.abs(i - j) <= kd, rng.uniform(0.5, 1.0, (n, n)), 0.0)
    a = np.triu(a, 1) * rng.choice([-1.0, 1.0], (n, n))
    a = a + a.T
    a += np.diag(np.abs(a).sum(axis=1) + rng.uniform(0.5, 1.5, n))
    if permute:
        p = rng.permutation(n)
        a = a[np.ix_(p, p)]
    return -a


def test_order_zero_blocks_make_no_lapack_call(rng, monkeypatch):
    """Blocks of order 0 are skipped by every band LAPACK and BLAS call
    (``dpbtrf``, ``dpbtrs``, and the blocked solve's ``dtrmm``, ``dtrsm``
    and ``dsyrk``): a band kernel on an order-0 band corrupts the heap in
    some scipy builds, so every array a call receives is nonempty."""
    import darcydd.ldlt

    calls = []
    kernels = {"lapack": ("dpbtrf", "dpbtrs"), "blas": ("dtrmm", "dtrsm", "dsyrk")}
    for module, names in kernels.items():
        for name in names:
            real = getattr(getattr(darcydd.ldlt, module), name)

            def recording(*args, _real=real, _name=name, **kwargs):
                shapes = [a.shape for a in args if isinstance(a, np.ndarray)]
                calls.append((_name, shapes))
                return _real(*args, **kwargs)

            monkeypatch.setattr(getattr(darcydd.ldlt, module), name, recording)
    sizes = [0, 7, 0, 0, 5, 0]
    # half-bandwidth 2: three blocks of the blocked solve per member
    blocks = [sps.csc_matrix(_band_block(rng, n, min(n - 1, 2), False)) for n in sizes]
    start = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    fact = factor_symmetric_indefinite(
        BlockDiagonal(sps.block_diag(blocks, format="csc"), start)
    )
    assert [band.shape for band in fact._bands if band.size] == [(3, 7), (3, 5)]
    fact.solve(rng.standard_normal(12))
    fact.probe()
    fact.inverse_forms(sps.csr_matrix((12, 6 * 3)), 3)
    assert {name for name, _ in calls} == {"dpbtrf", "dpbtrs", "dtrmm", "dtrsm", "dsyrk"}
    assert all(min(shape) > 0 for _, shapes in calls for shape in shapes)
    # a matrix of order 0 makes none at all
    calls.clear()
    empty = factor_symmetric_indefinite(
        BlockDiagonal(sps.csc_matrix((0, 0)), np.zeros(2, np.int64))
    )
    assert empty.solve(np.zeros(0)).shape == (0,)
    assert empty.inverse_forms(sps.csr_matrix((0, 4)), 2).shape == (1, 2, 2)
    assert calls == []


BAND_MEMBER = st.tuples(
    st.integers(0, 30), st.sampled_from(["zero", "one", "third", "full"]), st.booleans()
)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    members=st.lists(BAND_MEMBER, min_size=1, max_size=5),
    k=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    members=[(0, "zero", False), (9, "zero", False), (10, "one", False),
             (11, "full", False), (17, "third", False), (23, "third", True)],
    k=7, seed=1,
)
@example(members=[(12, "third", False), (1, "full", False)], k=1, seed=2)
@example(members=[(13, "one", False), (0, "one", False)], k=0, seed=3)
def test_inverse_forms_match_dense_reference(members, k, seed):
    """The blocked band solve gives every member's ``B_j^T (-A_j)^-1 B_j``
    of a dense solve, exactly symmetric, for members of half-bandwidth 0
    (a division by the diagonal), 1, a third of the order (an order that
    is no multiple of it leaves a narrower last block) and ``n - 1`` (one
    full block and one of a single row), with ``k`` of 0, 1 and more than
    ``kd``, members of order 0, members kept in their natural order and
    members the ordering permutes."""
    rng = np.random.default_rng(seed)
    target = {"zero": lambda n: 0, "one": lambda n: 1, "third": lambda n: n // 3,
              "full": lambda n: n - 1}
    sizes, kds, blocks = [], [], []
    for n, width, permute in members:
        kd = max(0, min(target[width](n), n - 1))
        sizes.append(n)
        kds.append(kd)
        blocks.append(_band_block(rng, n, kd, permute))
    start = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    matrix = sps.block_diag([sps.csc_matrix(a) for a in blocks], format="csc")
    fact = factor_symmetric_indefinite(BlockDiagonal(matrix, start))
    m = len(sizes)
    rhs = np.zeros((fact.n, m * k))
    cols = []
    for j, n in enumerate(sizes):
        c = np.where(rng.random((n, k)) < 0.6, rng.standard_normal((n, k)), 0.0)
        rhs[start[j] : start[j + 1], j * k : (j + 1) * k] = c
        cols.append(c)
    forms = fact.inverse_forms(sps.csr_matrix(rhs), k)
    assert forms.shape == (m, k, k)
    for j, ((n, _, permute), kd, a, c) in enumerate(zip(members, kds, blocks, cols)):
        assert np.array_equal(forms[j], forms[j].T)
        if not permute:
            # the ordering does not narrow a full band: the natural order stays
            assert np.array_equal(fact._order[start[j] : start[j + 1]] - start[j],
                                  np.arange(n))
            assert fact._bands[j].shape[0] - 1 == kd
        want = c.T @ np.linalg.solve(-a, c) if n else np.zeros((k, k))
        gap = np.abs(forms[j] - want).max(initial=0.0)
        assert gap <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))


def test_entry_outside_the_blocks_refused(rng):
    """A coupling between two blocks is refused with ValueError, so that
    none is dropped silently, also when it is stored as an explicit zero.
    Block bounds that do not split the order are refused too, and so is a
    right-hand side of ``inverse_forms`` with a nonzero entry outside its
    blocks."""
    blocks, bd = _block_diagonal(rng, [4, 3])
    coo = bd.matrix.tocoo()
    row, col = np.append(coo.row, [0, 5]), np.append(coo.col, [5, 0])
    for value in (1e-3, 0.0):
        coupled = sps.coo_matrix(
            (np.append(coo.data, [value, value]), (row, col)), shape=(7, 7)
        ).tocsc()
        assert coupled.nnz == bd.matrix.nnz + 2
        with pytest.raises(ValueError, match="outside its diagonal blocks"):
            factor_symmetric_indefinite(BlockDiagonal(coupled, bd.start))
    with pytest.raises(ValueError, match="do not split"):
        factor_symmetric_indefinite(BlockDiagonal(bd.matrix, np.array([0, 4, 6])))
    outside = np.zeros((7, 4))
    outside[0, 2] = 1.0  # block 0's row, block 1's columns
    with pytest.raises(ValueError, match="outside its blocks"):
        factor_symmetric_indefinite(bd).inverse_forms(sps.csr_matrix(outside), 2)


def test_singular_block_named(rng):
    """A block that is not certified raises SingularSystemError naming the
    block and setting ``member``."""
    blocks, bd = _block_diagonal(rng, [5, 6, 4])
    dense = bd.matrix.toarray()
    dense[9, :] = dense[:, 9] = 0.0
    with pytest.raises(
        SingularSystemError, match=r"^block 1 of 3 is not negative definite"
    ) as err:
        factor_symmetric_indefinite(BlockDiagonal(sps.csc_matrix(dense), bd.start))
    assert err.value.member == 1
