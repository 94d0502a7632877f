"""Preconditioned conjugate gradients with a built-in condition estimate.

The solver targets the reduced interface system: both the operator and the
preconditioner are supplied as callables and must be symmetric positive
definite. Convergence is first judged on the recursively updated residual
``r_k = r_{k-1} - alpha_k S p_k``, by its 2-norm relative to the right-hand
side. Once that meets the tolerance, the true residual ``b - S x_k`` is
recomputed with one operator application and must meet it too; if it does
not, it replaces the recursive residual and the iteration restarts from its
preconditioned direction, within the same iteration limit. (Keeping the old
direction instead lets the step lengths grow without bound when the
tolerance lies below the attainable accuracy and every step misses it
again.) A true residual that misses the tolerance and is no smaller than
the previous miss means the iteration has stagnated: the tolerance lies
below the attainable accuracy, and ``pcg`` stops unconverged. The report
keeps the recursive residual history and the last true residual. The
scalar recurrence
coefficients define a symmetric tridiagonal matrix whose extreme
eigenvalues estimate the spectrum of the preconditioned operator; LAPACK's
tridiagonal bisection ``dstebz`` computes only those two, called directly
with the arguments that ``scipy.linalg.eigvalsh_tridiagonal`` passes it, so
the estimate is the same bit for bit without that function's checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TextIO

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import lapack

from .errors import ConfigurationError, IndefiniteOperatorError


@dataclass
class PcgConfig:
    """Solver controls. ``history_stream`` receives one CSV line
    ``iteration,relative_residual`` per step when set."""

    rel_tol: float = 1e-7
    max_iter: int = 5000
    history_stream: TextIO | None = None

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ConfigurationError(
                f"rel_tol must lie in (0, 1), got {self.rel_tol}"
            )
        if self.max_iter < 1:
            raise ConfigurationError(
                f"max_iter must be at least 1, got {self.max_iter}"
            )


@dataclass
class SolveReport:
    """Outcome of one solve plus the problem statistics used in reports."""

    iterations: int = 0
    converged: bool = True
    condition: float = 1.0
    residuals: list[float] = field(default_factory=list)
    setup_seconds: float = 0.0
    pcg_seconds: float = 0.0
    total_seconds: float = 0.0
    n_sub: int = 1
    n: int = 0
    n_gamma: int = 0
    n_face_globs: int = 0
    n_corners: int = 0
    # relative 2-norm of b - S x, recomputed when the recursive residual
    # meets the tolerance; None when it never did
    true_residual: float | None = None

    @property
    def n_per_sub(self) -> float:
        return self.n / self.n_sub if self.n_sub else 0.0


def pcg(
    apply_op: Callable[[NDArray], NDArray],
    apply_prec: Callable[[NDArray], NDArray],
    b: NDArray,
    config: PcgConfig | None = None,
) -> tuple[NDArray, SolveReport]:
    """Solve ``op x = b`` for SPD ``op`` with an SPD preconditioner.

    Loss of positive definiteness in either operator raises
    :class:`IndefiniteOperatorError`. Running out of iterations or
    stagnating is not an exception; the report carries ``converged=False``
    and the history. ``converged`` means that the recomputed true residual
    met the tolerance.
    """
    if config is None:
        config = PcgConfig()
    b = np.asarray(b, dtype=float)
    norm_b = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if norm_b == 0.0:
        return x, SolveReport(
            iterations=0, converged=True, condition=1.0, true_residual=0.0
        )
    r = b.copy()
    z = apply_prec(r)
    rz = float(r @ z)
    if rz <= 0.0:
        raise IndefiniteOperatorError(
            f"preconditioner lost positive definiteness "
            f"(r'Mr = {rz:.3e} <= 0 at iteration 0)"
        )
    p = z.copy()
    alphas: list[float] = []
    betas: list[float] = []
    residuals: list[float] = []
    converged = False
    iterations = 0
    true_residual = None
    last_miss = np.inf
    restart = False
    for k in range(1, config.max_iter + 1):
        q = apply_op(p)
        pq = float(p @ q)
        if pq <= 0.0:
            raise IndefiniteOperatorError(
                f"interface operator lost positive definiteness "
                f"(p'Sp = {pq:.3e} <= 0 at iteration {k})"
            )
        alpha = rz / pq
        alphas.append(alpha)
        x += alpha * p
        r -= alpha * q
        relres = float(np.linalg.norm(r)) / norm_b
        residuals.append(relres)
        if config.history_stream is not None:
            config.history_stream.write(f"{k},{relres:.6e}\n")
        iterations = k
        if relres <= config.rel_tol:
            r = b - apply_op(x)
            true_residual = float(np.linalg.norm(r)) / norm_b
            if true_residual <= config.rel_tol:
                converged = True
                break
            if true_residual >= last_miss:
                break  # stagnated
            last_miss = true_residual
            restart = True
        z = apply_prec(r)
        rz_new = float(r @ z)
        if rz_new <= 0.0:
            raise IndefiniteOperatorError(
                f"preconditioner lost positive definiteness "
                f"(r'Mr = {rz_new:.3e} <= 0 at iteration {k})"
            )
        beta = 0.0 if restart else rz_new / rz
        restart = False
        betas.append(beta)
        p = z + beta * p
        rz = rz_new
    report = SolveReport(
        iterations=iterations,
        converged=converged,
        condition=lanczos_condition(alphas, betas),
        residuals=residuals,
        true_residual=true_residual,
    )
    return x, report


# ---------------------------------------------------------------------------
# condition estimate from the recurrence scalars


def _tridiagonal_from_scalars(
    alphas: list[float], betas: list[float]
) -> tuple[NDArray, NDArray]:
    """Main and off diagonal of the tridiagonal matrix implied by the
    conjugate-gradient scalars."""
    a = np.array(alphas, dtype=float)
    b = np.array(betas[: len(a) - 1], dtype=float)
    d = 1.0 / a
    d[1:] += b / a[:-1]
    return d, np.sqrt(b) / a[:-1]


def extreme_tridiagonal_eigenvalues(
    diag: NDArray, off: NDArray
) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric tridiagonal matrix."""
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    if len(d) == 0:
        raise ConfigurationError("empty tridiagonal matrix")
    if len(e) != max(len(d) - 1, 0):
        raise ConfigurationError(
            f"off-diagonal length {len(e)} does not match size {len(d)}"
        )
    if len(d) == 1:
        return float(d[0]), float(d[0])

    def eigenvalue(i: int) -> float:
        # the i-th smallest (1-based) by bisection: range "I", tolerance 0,
        # eigenvalues in matrix order
        _, w, _, _, info = lapack.dstebz(d, e, 2, 0.0, 1.0, i, i, 0.0, "E")
        if info != 0:
            raise np.linalg.LinAlgError(f"dstebz failed with info {info}")
        return float(w[0])

    return eigenvalue(1), eigenvalue(len(d))


def lanczos_condition(alphas: list[float], betas: list[float]) -> float:
    """Condition estimate of the preconditioned operator after ``k`` steps.

    Monotone nondecreasing in the number of recorded steps; returns 1 when
    nothing was recorded.
    """
    if len(alphas) == 0:
        return 1.0
    d, e = _tridiagonal_from_scalars(alphas, betas)
    lam_min, lam_max = extreme_tridiagonal_eigenvalues(d, e)
    if lam_min <= 0.0:
        return float("inf")
    return max(1.0, lam_max / lam_min)
