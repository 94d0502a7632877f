"""Conjugate gradient solver and the Sturm-bisection condition estimate."""
import io

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from darcydd.errors import ConfigurationError, IndefiniteOperatorError
from darcydd.krylov import (
    PcgConfig,
    extreme_tridiagonal_eigenvalues,
    lanczos_condition,
    pcg,
)
from darcydd.mesh import generate_cross_fracture_cube

from support import build_pipeline, dense_operator


def op_of(a):
    return lambda v: a @ v


IDENT = lambda v: v  # noqa: E731


def test_identity_converges_immediately(rng):
    b = rng.standard_normal(7)
    x, report = pcg(IDENT, IDENT, b)
    assert report.converged
    assert report.iterations == 1
    assert report.condition == 1.0
    assert np.abs(x - b).max() <= 1e-14


def test_diagonal_spectrum_recovered(rng):
    d = np.arange(1.0, 11.0)
    b = rng.standard_normal(10)
    x, report = pcg(lambda v: d * v, IDENT, b, PcgConfig(rel_tol=1e-12))
    assert report.converged
    assert report.iterations >= 10
    assert np.abs(x - b / d).max() <= 1e-9
    assert 9.0 <= report.condition <= 10.0 * (1 + 1e-12)


def test_zero_rhs():
    x, report = pcg(IDENT, IDENT, np.zeros(5))
    assert np.array_equal(x, np.zeros(5))
    assert report.converged
    assert report.iterations == 0
    assert report.condition == 1.0


def test_exact_preconditioner(rng):
    m = rng.standard_normal((12, 12))
    a = m @ m.T + 12 * np.eye(12)
    inv = np.linalg.inv(a)
    b = rng.standard_normal(12)
    x, report = pcg(op_of(a), op_of(inv), b, PcgConfig(rel_tol=1e-10))
    assert report.converged
    assert report.iterations <= 2
    assert report.condition < 1 + 1e-6
    assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_nonconvergence_is_reported_not_raised(rng):
    d = np.linspace(1, 1e4, 50)
    b = rng.standard_normal(50)
    x, report = pcg(lambda v: d * v, IDENT, b, PcgConfig(rel_tol=1e-13, max_iter=2))
    assert not report.converged
    assert report.iterations == 2
    assert len(report.residuals) == 2


def test_indefinite_operator_detected(rng):
    b = rng.standard_normal(6)
    with pytest.raises(IndefiniteOperatorError, match="lost positive definiteness"):
        pcg(lambda v: -v, IDENT, b)
    with pytest.raises(IndefiniteOperatorError, match="lost positive definiteness"):
        pcg(IDENT, lambda v: -v, b)


def test_config_validation():
    for bad in (0.0, 1.5, -1e-3):
        with pytest.raises(ConfigurationError):
            PcgConfig(rel_tol=bad)
    with pytest.raises(ConfigurationError):
        PcgConfig(max_iter=0)


def test_history_stream(rng):
    d = np.arange(1.0, 9.0)
    b = rng.standard_normal(8)
    stream = io.StringIO()
    _, report = pcg(
        lambda v: d * v, IDENT, b,
        PcgConfig(rel_tol=1e-10, history_stream=stream),
    )
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == report.iterations
    assert lines[0].startswith("1,")
    for k, line in enumerate(lines, start=1):
        tok = line.split(",")
        assert int(tok[0]) == k
        assert float(tok[1]) == pytest.approx(report.residuals[k - 1], rel=1e-5)


def test_condition_estimate_monotone_and_tight(rng):
    m = rng.standard_normal((40, 40))
    a = m @ m.T + 40 * np.eye(40)
    true_cond = np.linalg.cond(a)
    b = rng.standard_normal(40)
    estimates = []
    for k in range(1, 26):
        _, report = pcg(op_of(a), IDENT, b, PcgConfig(rel_tol=1e-14, max_iter=k))
        estimates.append(report.condition)
    for prev, cur in zip(estimates, estimates[1:]):
        assert cur >= prev - 1e-9 * abs(prev)
    assert estimates[-1] <= true_cond * (1 + 1e-6)
    assert estimates[-1] > 0.8 * true_cond


def test_energy_error_monotone(rng):
    m = rng.standard_normal((30, 30))
    a = m @ m.T + 30 * np.eye(30)
    b = rng.standard_normal(30)
    exact = np.linalg.solve(a, b)
    errors = []
    for k in range(1, 16):
        x, _ = pcg(op_of(a), IDENT, b, PcgConfig(rel_tol=1e-15, max_iter=k))
        e = x - exact
        errors.append(float(np.sqrt(e @ a @ e)))
    for prev, cur in zip(errors, errors[1:]):
        assert cur <= prev * (1 + 1e-12)


# ---------------------------------------------------------------------------
# tridiagonal eigenvalue bounds


def test_known_tridiagonal_extremes():
    lo, hi = extreme_tridiagonal_eigenvalues([2.0, 2.0], [1.0])
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(3.0, abs=1e-12)


def test_single_entry_tridiagonal():
    lo, hi = extreme_tridiagonal_eigenvalues([5.0], [])
    assert (lo, hi) == (pytest.approx(5.0), pytest.approx(5.0))


@pytest.mark.parametrize("k", [2, 3, 7, 20, 57])
def test_random_tridiagonal_matches_dense(k, rng):
    d = rng.standard_normal(k) * 3.0
    e = rng.standard_normal(k - 1)
    lo, hi = extreme_tridiagonal_eigenvalues(d, e)
    full = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ref = np.linalg.eigvalsh(full)
    scale = max(1.0, np.abs(ref).max())
    assert abs(lo - ref[0]) <= 1e-8 * scale
    assert abs(hi - ref[-1]) <= 1e-8 * scale


def test_tridiagonal_input_validation():
    with pytest.raises(ConfigurationError):
        extreme_tridiagonal_eigenvalues([], [])
    with pytest.raises(ConfigurationError):
        extreme_tridiagonal_eigenvalues([1.0, 2.0], [])


def test_lanczos_condition_edge_cases():
    assert lanczos_condition([], []) == 1.0
    assert lanczos_condition([-1.0], []) == float("inf")
    assert lanczos_condition([0.5], []) == 1.0


def _condition_oracle(alphas, betas) -> float:
    """The condition estimate as a loop over the scalars and
    ``scipy.linalg.eigvalsh_tridiagonal``, one eigenvalue per call."""
    k = len(alphas)
    d, e = np.empty(k), np.empty(k - 1)
    d[0] = 1.0 / alphas[0]
    for j in range(1, k):
        d[j] = 1.0 / alphas[j] + betas[j - 1] / alphas[j - 1]
        e[j - 1] = np.sqrt(betas[j - 1]) / alphas[j - 1]
    lo, hi = (
        float(eigvalsh_tridiagonal(d, e, select="i", select_range=(i, i))[0])
        for i in (0, k - 1)
    )
    return float("inf") if lo <= 0.0 else max(1.0, hi / lo)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 40])
def test_lanczos_condition_equals_scipy_oracle(k, rng):
    """The vectorized tridiagonal matrix and the direct ``dstebz`` calls
    give the oracle's estimate bit for bit, with ``k - 1`` scalars
    ``beta`` (converged) or ``k`` (the last one unused)."""
    for trial in range(20):
        alphas = rng.uniform(0.05, 2.0, k).tolist()
        betas = rng.uniform(0.0, 1.0, k - 1 + trial % 2).tolist()
        assert lanczos_condition(alphas, betas) == _condition_oracle(alphas, betas)


# ---------------------------------------------------------------------------
# true-residual check at convergence


def test_true_residual_matches_dense_operator(frac2):
    pipe = build_pipeline(frac2, 4)
    b = pipe.op.reduced_rhs()
    x, report = pcg(pipe.op.apply, pipe.prec.apply, b, PcgConfig(rel_tol=1e-10))
    assert report.converged
    s = dense_operator(pipe.op.apply, pipe.op.n)
    ref = float(np.linalg.norm(b - s @ x) / np.linalg.norm(b))
    assert report.true_residual <= 1e-10
    assert abs(report.true_residual - ref) <= 1e-13
    assert report.residuals[-1] <= 1e-10


def _perturbed_once(a, delta):
    """``a @ v``, except that the first application adds ``delta``."""
    calls = []

    def apply(v):
        calls.append(1)
        return a @ v + (delta if len(calls) == 1 else 0.0)

    return apply


def _first_recursive_hit(report, tol: float) -> int:
    return next(k for k, r in enumerate(report.residuals, start=1) if r <= tol)


def test_true_residual_miss_keeps_iterating(rng):
    a = np.diag(np.linspace(1.0, 50.0, 30))
    b = rng.standard_normal(30)
    delta = 1e-3 * rng.standard_normal(30)
    x, report = pcg(_perturbed_once(a, delta), IDENT, b, PcgConfig(rel_tol=1e-10))
    # the recursive residual met the tolerance while the true one, off by
    # the perturbation, did not; the solve went on until the true one did
    hit = _first_recursive_hit(report, 1e-10)
    assert report.iterations > hit
    assert report.converged
    true_res = float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))
    assert true_res <= 1e-10
    assert report.true_residual == pytest.approx(true_res, rel=1e-6)


def test_true_residual_miss_respects_iteration_limit(rng):
    a = np.diag(np.linspace(1.0, 50.0, 30))
    b = rng.standard_normal(30)
    delta = 1e-3 * rng.standard_normal(30)
    _, full = pcg(_perturbed_once(a, delta), IDENT, b, PcgConfig(rel_tol=1e-10))
    hit = _first_recursive_hit(full, 1e-10)
    x, report = pcg(
        _perturbed_once(a, delta), IDENT, b,
        PcgConfig(rel_tol=1e-10, max_iter=hit),
    )
    assert not report.converged
    assert report.iterations == hit
    true_res = float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))
    assert report.true_residual == pytest.approx(true_res, rel=1e-6)
    assert report.true_residual > 1e-10


def test_stagnation_stops_unconverged():
    """A tolerance below the attainable accuracy: the true residual misses
    it and stops decreasing, and the solve ends long before ``max_iter``
    (it used to restart at every step until the limit)."""
    pipe = build_pipeline(generate_cross_fracture_cube(4, sigma=1e7), 8, scheme="diag")
    b = pipe.op.reduced_rhs()
    x, report = pcg(pipe.op.apply, pipe.prec.apply, b, PcgConfig(rel_tol=1e-12))
    assert not report.converged
    assert report.iterations <= 200
    true_res = float(np.linalg.norm(b - pipe.op.apply(x)) / np.linalg.norm(b))
    assert report.true_residual == pytest.approx(true_res, rel=1e-6)
    assert report.true_residual > 1e-12
